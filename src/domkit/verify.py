"""Machine checks of the gadget equivalences on concrete and fuzzed instances.

Each verifier builds the gadget for one reduction kind, measures the
relevant parameters exactly, and records one pass/fail entry per
claimed fact:

  * the gadget parameter bound or exact value,
  * the single-edge perturbation bound (bondage kinds),
  * the equivalence between satisfiability and perturbation value 1,
  * with ``deep`` enabled, the structure of every minimum witness set
    (enumerated exhaustively), and
  * the round trip from a satisfying assignment to a small witness set.

A failed entry never aborts the remaining checks; the report records
everything so a counterexample is fully diagnosable.  Perturbation
searches are bounded: removal searches stop at two edges (a one-edge
sweep already certifies the removal bound, so the true value is 1 or
2), and addition searches stop at one edge because the equivalences
only ever need to distinguish "1" from "more than 1".  None of them
copies the graph per candidate: the removal sweep reuses the covers its
earlier searches found, and the deep check picks its augmenting edges
with the forced-endpoint test of ``perturbation.AdditionSearch``; see
that module for both.

Deep checks enumerate every minimum set, which grows combinatorially,
so they only run for instances with at most ``DEEP_VAR_LIMIT`` variables.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .cnf import CnfInstance, TooFewVariablesError, random_instance, solve_sat
# ``perfbench/tracing.py`` wraps the two ``has_*_within`` names in this
# module's namespace, so they stay imported although nothing here calls them.
from .domination import (  # noqa: F401
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    is_dominating_set,
    is_total_dominating_set,
    total_domination_number,
)
from .graph import Graph
from .perturbation import (
    AdditionSearch,
    PerturbResult,
    RemovalSearch,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from .reductions import (
    ReductionKind,
    ReductionOutput,
    assignment_to_witness,
    build_bondage,
    build_reinforcement,
    build_total_bondage,
    build_total_reinforcement,
)

DEEP_VAR_LIMIT = 4


@dataclass
class ClaimCheck:
    claim_id: str
    expected: str
    observed: str
    passed: bool


@dataclass
class VerificationReport:
    kind: ReductionKind
    num_vars: int
    num_clauses: int
    satisfiable: bool
    parameter_name: str
    parameter_value: int
    perturbation_name: str
    perturbation_value: int | None
    deep_checked: bool
    elapsed_ms: float
    claims: list[ClaimCheck] = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.claims)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.num_vars,
            "m": self.num_clauses,
            "seed": self.seed,
            "sat": self.satisfiable,
            self.parameter_name: self.parameter_value,
            "perturbation": self.perturbation_value,
            "claims": [
                {"id": c.claim_id, "expected": c.expected, "observed": c.observed, "pass": c.passed}
                for c in self.claims
            ],
            "deep_checked": self.deep_checked,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_lines(self) -> list[str]:
        """Human-readable report; excludes timing so output is reproducible."""
        seed_part = "" if self.seed is None else f" seed={self.seed}"
        pert = "undefined" if self.perturbation_value is None else str(self.perturbation_value)
        lines = [
            f"verify {self.kind.value}: n={self.num_vars} m={self.num_clauses}"
            f"{seed_part} sat={'yes' if self.satisfiable else 'no'}",
            f"  {self.parameter_name} = {self.parameter_value}",
            f"  {self.perturbation_name} = {pert}",
        ]
        for c in self.claims:
            tag = "pass" if c.passed else "FAIL"
            lines.append(f"  [{tag}] {c.claim_id}: expected {c.expected}; observed {c.observed}")
        lines.append(f"  deep_checked = {'yes' if self.deep_checked else 'no'}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _perturb_text(name: str, result: PerturbResult, bound: int) -> str:
    if result.value is None:
        return f"{name} > {bound} (no witness within bound)"
    return f"{name} = {result.value}"


def _clause_labels(out: ReductionOutput) -> set[str]:
    return {out.clause_label(j) for j in range(1, out.num_clauses + 1)}


def _gadget_quota_violation(out: ReductionOutput, chosen: frozenset[str]) -> str | None:
    """Shared per-variable structure: two picks per gadget, literals not doubled."""
    for i in range(1, out.num_vars + 1):
        gadget = set(out.variable_gadget(i))
        if len(chosen & gadget) != 2:
            return f"variable {i} gadget holds {len(chosen & gadget)} of {sorted(chosen)}"
        if len(chosen & {out.positive_label(i), out.negative_label(i)}) > 1:
            return f"both literals of variable {i} in {sorted(chosen)}"
    return None


def _removal_sweep(
    g: Graph, total: bool, bound: int, witness: frozenset[str]
) -> tuple[tuple[str, str] | None, int]:
    """Check every qualifying single-edge removal stays within the bound.

    ``witness`` is a minimum (total) dominating set of ``g``.  For the
    total variant, removals that would isolate a vertex do not qualify
    and are skipped.  Returns (first violating edge or None, number of
    edges swept).
    """
    search = RemovalSearch(g, total, bound, kept=[witness])
    swept = 0
    for edge in sorted(g.edges):
        within = search.covers_after([edge])
        if within is None:
            continue
        swept += 1
        if not within:
            return edge, swept
    return None, swept


def verify_bondage(inst: CnfInstance, deep: bool = False) -> VerificationReport:
    """Check the bondage-gadget facts: bound, iff, removal bound, structure."""
    start = time.perf_counter()
    out = build_bondage(inst)
    g = out.graph
    n = inst.num_vars
    assignment = solve_sat(inst)
    sat = assignment is not None
    claims: list[ClaimCheck] = []

    dom = domination_number(g)
    gamma = dom.value
    claims.append(
        ClaimCheck("gamma-lower-bound", f"gamma >= {2 * n + 1}", f"gamma = {gamma}", gamma >= 2 * n + 1)
    )
    claims.append(
        ClaimCheck(
            "gamma-iff-sat",
            f"gamma == {2 * n + 1} exactly when satisfiable ({'yes' if sat else 'no'})",
            f"gamma = {gamma}",
            (gamma == 2 * n + 1) == sat,
        )
    )

    bad_edge, swept = _removal_sweep(g, total=False, bound=2 * n + 2, witness=dom.witness)
    claims.append(
        ClaimCheck(
            "edge-removal-bound",
            f"gamma(G-e) <= {2 * n + 2} for every edge",
            f"all {swept} removals within bound" if bad_edge is None else f"removing {bad_edge} exceeds it",
            bad_edge is None,
        )
    )

    b = bondage_number(g, max_k=2)
    claims.append(
        ClaimCheck(
            "bondage-iff-sat",
            f"b == 1 exactly when satisfiable ({'yes' if sat else 'no'})",
            _perturb_text("b", b, 2),
            (b.value == 1) == sat,
        )
    )

    deep_checked = False
    if deep and n <= DEEP_VAR_LIMIT and gamma == 2 * n + 1:
        deep_checked = True
        clause_labels = _clause_labels(out)
        anchor = {"s1", "s2", "s3"}
        violation = None
        sets = enumerate_minimum_sets(g, total=False)
        for chosen in sets:
            if chosen & anchor != {"s2"}:
                violation = f"anchor pick {sorted(chosen & anchor)}"
                break
            if chosen & clause_labels:
                violation = f"clause vertices {sorted(chosen & clause_labels)} picked"
                break
            violation = _gadget_quota_violation(out, chosen)
            if violation:
                break
        claims.append(
            ClaimCheck(
                "minimum-set-structure",
                "every minimum set picks exactly s2 from the anchor, two per variable "
                "gadget, at most one literal per variable, and no clause vertex",
                violation or f"all {len(sets)} minimum sets conform",
                violation is None,
            )
        )

    if sat:
        witness = assignment_to_witness(out, assignment)
        ok = len(witness.vertices) == 2 * n + 1 and is_dominating_set(g, witness.vertices)
        claims.append(
            ClaimCheck(
                "witness-round-trip",
                f"assignment yields a dominating set of size {2 * n + 1}",
                f"size {len(witness.vertices)}, dominating: {is_dominating_set(g, witness.vertices)}",
                ok,
            )
        )

    elapsed = (time.perf_counter() - start) * 1000
    return VerificationReport(
        ReductionKind.BONDAGE, n, inst.num_clauses, sat, "gamma", gamma, "b", b.value, deep_checked, elapsed, claims
    )


def verify_total_bondage(inst: CnfInstance, deep: bool = False) -> VerificationReport:
    start = time.perf_counter()
    out = build_total_bondage(inst)
    g = out.graph
    n = inst.num_vars
    assignment = solve_sat(inst)
    sat = assignment is not None
    claims: list[ClaimCheck] = []

    dom = total_domination_number(g)
    gamma_t = dom.value
    claims.append(
        ClaimCheck(
            "gamma-t-lower-bound", f"gamma_t >= {2 * n + 2}", f"gamma_t = {gamma_t}", gamma_t >= 2 * n + 2
        )
    )
    claims.append(
        ClaimCheck(
            "gamma-t-iff-sat",
            f"gamma_t == {2 * n + 2} exactly when satisfiable ({'yes' if sat else 'no'})",
            f"gamma_t = {gamma_t}",
            (gamma_t == 2 * n + 2) == sat,
        )
    )

    bad_edge, swept = _removal_sweep(g, total=True, bound=2 * n + 3, witness=dom.witness)
    claims.append(
        ClaimCheck(
            "edge-removal-bound",
            f"gamma_t(G-e) <= {2 * n + 3} for every non-isolating edge",
            f"all {swept} removals within bound" if bad_edge is None else f"removing {bad_edge} exceeds it",
            bad_edge is None,
        )
    )

    bt = total_bondage_number(g, max_k=2)
    claims.append(
        ClaimCheck(
            "total-bondage-iff-sat",
            f"b_t == 1 exactly when satisfiable ({'yes' if sat else 'no'})",
            _perturb_text("b_t", bt, 2),
            (bt.value == 1) == sat,
        )
    )

    deep_checked = False
    if deep and n <= DEEP_VAR_LIMIT:
        deep_checked = True
        clause_labels = _clause_labels(out)
        anchor = {f"s{k}" for k in range(1, 7)}
        exact = gamma_t == 2 * n + 2
        violation = None
        sets = enumerate_minimum_sets(g, total=True)
        for chosen in sets:
            if "s5" not in chosen:
                violation = "a minimum set misses s5"
                break
            missing = next(
                (i for i in range(1, n + 1) if not chosen & {f"v{i}", f"q{i}"}),
                None,
            )
            if missing is not None:
                violation = f"variable {missing}: neither v nor q picked"
                break
            if exact:
                if chosen & anchor not in ({"s2", "s5"}, {"s4", "s5"}):
                    violation = f"anchor pick {sorted(chosen & anchor)}"
                    break
                if chosen & clause_labels:
                    violation = f"clause vertices {sorted(chosen & clause_labels)} picked"
                    break
                violation = _gadget_quota_violation(out, chosen)
                if violation:
                    break
        claims.append(
            ClaimCheck(
                "minimum-set-structure",
                "every minimum total set contains s5 and one of v/q per variable"
                + ("; at the exact bound: anchor pick {s2,s5} or {s4,s5}, two per gadget, "
                   "at most one literal per variable, no clause vertex" if exact else ""),
                violation or f"all {len(sets)} minimum sets conform",
                violation is None,
            )
        )

    if sat:
        witness = assignment_to_witness(out, assignment)
        ok = len(witness.vertices) == 2 * n + 2 and is_total_dominating_set(g, witness.vertices)
        claims.append(
            ClaimCheck(
                "witness-round-trip",
                f"assignment yields a total dominating set of size {2 * n + 2}",
                f"size {len(witness.vertices)}, total dominating: "
                f"{is_total_dominating_set(g, witness.vertices)}",
                ok,
            )
        )

    elapsed = (time.perf_counter() - start) * 1000
    return VerificationReport(
        ReductionKind.TOTAL_BONDAGE,
        n,
        inst.num_clauses,
        sat,
        "gamma_t",
        gamma_t,
        "b_t",
        bt.value,
        deep_checked,
        elapsed,
        claims,
    )


def verify_reinforcement(inst: CnfInstance, deep: bool = False) -> VerificationReport:
    start = time.perf_counter()
    out = build_reinforcement(inst)
    g = out.graph
    n = inst.num_vars
    assignment = solve_sat(inst)
    sat = assignment is not None
    claims: list[ClaimCheck] = []

    gamma = domination_number(g).value
    claims.append(
        ClaimCheck("gamma-exact", f"gamma == {2 * n + 1}", f"gamma = {gamma}", gamma == 2 * n + 1)
    )

    r = reinforcement_number(g, max_k=1)
    claims.append(
        ClaimCheck(
            "reinforcement-iff-sat",
            f"r == 1 exactly when satisfiable ({'yes' if sat else 'no'})",
            _perturb_text("r", r, 1),
            (r.value == 1) == sat,
        )
    )

    deep_checked = False
    if deep and n <= DEEP_VAR_LIMIT:
        deep_checked = True
        clause_labels = _clause_labels(out)
        violation = None
        augmenting = 0
        sets_checked = 0
        additions = AdditionSearch(g, False, gamma)
        for edge in g.complement_edges():
            # gamma(G+e) == 2n exactly
            if not additions.covers_after(edge, 2 * n) or additions.covers_after(edge, 2 * n - 1):
                continue
            augmenting += 1
            for chosen in enumerate_minimum_sets(g.add_edges([edge]), total=False):
                sets_checked += 1
                if "s" in chosen:
                    violation = f"apex picked in a minimum set of G+{edge}"
                    break
                if chosen & clause_labels:
                    violation = f"clause vertices picked in a minimum set of G+{edge}"
                    break
                violation = _gadget_quota_violation(out, chosen)
                if violation:
                    violation += f" (G+{edge})"
                    break
            if violation:
                break
        claims.append(
            ClaimCheck(
                "augmented-minimum-set-structure",
                f"for every added edge reaching gamma == {2 * n}: minimum sets avoid the apex "
                "and clause vertices, two per gadget, at most one literal per variable",
                violation or f"{augmenting} augmenting edges, {sets_checked} sets conform",
                violation is None,
            )
        )

    if sat:
        witness = assignment_to_witness(out, assignment)
        augmented = g.add_edges([witness.added_edge])
        ok = len(witness.vertices) == 2 * n and is_dominating_set(augmented, witness.vertices)
        claims.append(
            ClaimCheck(
                "witness-round-trip",
                f"assignment yields a dominating set of size {2 * n} after adding one edge",
                f"size {len(witness.vertices)} with edge {witness.added_edge}, dominating: "
                f"{is_dominating_set(augmented, witness.vertices)}",
                ok,
            )
        )

    elapsed = (time.perf_counter() - start) * 1000
    return VerificationReport(
        ReductionKind.REINFORCEMENT,
        n,
        inst.num_clauses,
        sat,
        "gamma",
        gamma,
        "r",
        r.value,
        deep_checked,
        elapsed,
        claims,
    )


def verify_total_reinforcement(inst: CnfInstance, deep: bool = False) -> VerificationReport:
    start = time.perf_counter()
    out = build_total_reinforcement(inst)
    g = out.graph
    n = inst.num_vars
    assignment = solve_sat(inst)
    sat = assignment is not None
    claims: list[ClaimCheck] = []

    gamma_t = total_domination_number(g).value
    claims.append(
        ClaimCheck("gamma-t-exact", f"gamma_t == {2 * n + 2}", f"gamma_t = {gamma_t}", gamma_t == 2 * n + 2)
    )

    rt = total_reinforcement_number(g, max_k=1)
    claims.append(
        ClaimCheck(
            "total-reinforcement-iff-sat",
            f"r_t == 1 exactly when satisfiable ({'yes' if sat else 'no'})",
            _perturb_text("r_t", rt, 1),
            (rt.value == 1) == sat,
        )
    )

    deep_checked = False
    if deep and n <= DEEP_VAR_LIMIT:
        deep_checked = True
        clause_labels = _clause_labels(out)
        violation = None
        augmenting = 0
        sets_checked = 0
        additions = AdditionSearch(g, True, gamma_t)
        for edge in g.complement_edges():
            # gamma_t(G+e) == 2n+1 exactly: one added edge can lower gamma_t by 2
            if not additions.covers_after(edge, 2 * n + 1) or additions.covers_after(edge, 2 * n):
                continue
            augmenting += 1
            for chosen in enumerate_minimum_sets(g.add_edges([edge]), total=True):
                sets_checked += 1
                if "s1" in chosen:
                    violation = f"s1 picked in a minimum total set of G+{edge}"
                    break
                if chosen & clause_labels:
                    violation = f"clause vertices picked in a minimum total set of G+{edge}"
                    break
                violation = _gadget_quota_violation(out, chosen)
                if violation:
                    violation += f" (G+{edge})"
                    break
            if violation:
                break
        claims.append(
            ClaimCheck(
                "augmented-minimum-set-structure",
                f"for every added edge reaching gamma_t == {2 * n + 1}: minimum total sets avoid "
                "s1 and clause vertices, two per gadget, at most one literal per variable",
                violation or f"{augmenting} augmenting edges, {sets_checked} sets conform",
                violation is None,
            )
        )

    if sat:
        witness = assignment_to_witness(out, assignment)
        augmented = g.add_edges([witness.added_edge])
        ok = len(witness.vertices) == 2 * n + 1 and is_total_dominating_set(augmented, witness.vertices)
        claims.append(
            ClaimCheck(
                "witness-round-trip",
                f"assignment yields a total dominating set of size {2 * n + 1} after adding one edge",
                f"size {len(witness.vertices)} with edge {witness.added_edge}, total dominating: "
                f"{is_total_dominating_set(augmented, witness.vertices)}",
                ok,
            )
        )

    elapsed = (time.perf_counter() - start) * 1000
    return VerificationReport(
        ReductionKind.TOTAL_REINFORCEMENT,
        n,
        inst.num_clauses,
        sat,
        "gamma_t",
        gamma_t,
        "r_t",
        rt.value,
        deep_checked,
        elapsed,
        claims,
    )


VERIFIERS = {
    ReductionKind.BONDAGE: verify_bondage,
    ReductionKind.TOTAL_BONDAGE: verify_total_bondage,
    ReductionKind.REINFORCEMENT: verify_reinforcement,
    ReductionKind.TOTAL_REINFORCEMENT: verify_total_reinforcement,
}


def verify(kind: ReductionKind | str, inst: CnfInstance, deep: bool = False) -> VerificationReport:
    return VERIFIERS[ReductionKind(kind)](inst, deep=deep)


def _fuzz_trial(args: tuple) -> VerificationReport:
    kind, num_vars, num_clauses, inst_seed, deep = args
    report = verify(kind, random_instance(num_vars, num_clauses, inst_seed), deep=deep)
    report.seed = inst_seed
    return report


def fuzz(
    kind: ReductionKind | str,
    num_vars: int,
    num_clauses: int,
    trials: int,
    seed: int,
    deep: bool = False,
    jobs: int = 1,
) -> list[VerificationReport]:
    """Verify ``trials`` random instances; deterministic in ``seed``.

    Each trial gets its own instance seed (recorded in its report) so a
    failure reproduces in isolation.  With jobs > 1 trials run in
    separate processes; reports stay ordered by trial index.
    """
    kind = ReductionKind(kind)
    if trials and num_vars < 3:
        raise TooFewVariablesError(f"need at least 3 variables, got {num_vars}")
    rng = random.Random(seed)
    trial_args = [(kind, num_vars, num_clauses, rng.randrange(2**32), deep) for _ in range(trials)]
    if jobs > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_fuzz_trial, trial_args))
    return [_fuzz_trial(args) for args in trial_args]
