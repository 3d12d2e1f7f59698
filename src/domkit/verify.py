"""Machine checks of the gadget equivalences on concrete and fuzzed instances.

``verify(kind, inst, deep)`` builds the gadget for one reduction kind,
measures the relevant parameters exactly, and records one pass/fail
entry per claimed fact.  One body serves all four kinds.  Three facts
about the kind decide every claim: closed or total neighbourhoods
(gamma or gamma_t, exact bound 2n+1 or 2n+2), edge removal (bondage
kinds) or edge addition (reinforcement kinds), and the structure the
deep check asks of each minimum set.  The claims are

  * the parameter: at least the exact bound, and equal to it exactly
    when satisfiable (bondage kinds), or equal to it (reinforcement),
  * every single-edge removal stays within the bound + 1 (bondage kinds),
  * perturbation value 1 exactly when the instance is satisfiable,
  * with ``deep`` enabled, the structure of every minimum set of the
    gadget (bondage kinds; plain bondage only at the exact bound), or of
    the gadget plus each edge whose addition lowers the parameter by
    exactly one (reinforcement kinds), and
  * a satisfying assignment maps to a witness of the exact bound, or of
    one less plus the added edge (reinforcement kinds).

A failed entry never aborts the remaining checks; the report records
everything so a counterexample is fully diagnosable.  An enumeration
past its cap makes the structure claim fail as "undetermined" and the
other claims are still made.  Perturbation searches are bounded:
removal searches stop at two edges (a one-edge sweep already certifies
the removal bound, so the true value is 1 or 2), and addition searches
stop at one edge because the equivalences only ever need to distinguish
"1" from "more than 1".  None of them copies the graph per candidate:
the removal sweep reuses the covers its earlier searches found, and the
deep check picks its augmenting edges with the forced-endpoint test of
``perturbation.AdditionSearch``; see that module for both.

Deep checks enumerate every minimum set, which grows combinatorially,
so they only run for instances with at most ``DEEP_VAR_LIMIT`` variables.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .cnf import CnfInstance, TooFewVariablesError, random_instance, solve_sat
# ``perfbench/tracing.py`` wraps the solver and builder names below in this
# module's namespace while it runs, so ``verify`` looks each one up at call
# time, and the two ``has_*_within`` names stay imported although nothing
# here calls them.
from .domination import (  # noqa: F401
    BudgetExceededError,
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


def _exact_bound_violation(
    out: ReductionOutput, clause_labels: set[str], chosen: frozenset[str], anchor: set[str], picks: list
) -> str | None:
    """A minimum set at the exact bound: an anchor pick among ``picks``, no clause vertex, gadget quotas."""
    if chosen & anchor not in picks:
        return f"anchor pick {sorted(chosen & anchor)}"
    if chosen & clause_labels:
        return f"clause vertices {sorted(chosen & clause_labels)} picked"
    return _gadget_quota_violation(out, chosen)


def _bondage_violation(
    out: ReductionOutput, clause_labels: set[str], chosen: frozenset[str], at_exact: bool
) -> str | None:
    """Checked only at the exact bound: s2 alone from the anchor."""
    return _exact_bound_violation(out, clause_labels, chosen, {"s1", "s2", "s3"}, [{"s2"}])


def _total_bondage_violation(
    out: ReductionOutput, clause_labels: set[str], chosen: frozenset[str], at_exact: bool
) -> str | None:
    """s5 and one of v/q per variable; at the exact bound also s2 or s4 with s5 from the anchor."""
    if "s5" not in chosen:
        return "a minimum set misses s5"
    missing = next((i for i in range(1, out.num_vars + 1) if not chosen & {f"v{i}", f"q{i}"}), None)
    if missing is not None:
        return f"variable {missing}: neither v nor q picked"
    if not at_exact:
        return None
    anchor = {f"s{k}" for k in range(1, 7)}
    return _exact_bound_violation(out, clause_labels, chosen, anchor, [{"s2", "s5"}, {"s4", "s5"}])


def _minimum_set_claim(out: ReductionOutput, total: bool, at_exact: bool) -> ClaimCheck:
    """Bondage kinds: every minimum (total) dominating set of the gadget has the kind's structure."""
    if total:
        violation_of = _total_bondage_violation
        expected = "every minimum total set contains s5 and one of v/q per variable" + (
            "; at the exact bound: anchor pick {s2,s5} or {s4,s5}, two per gadget, "
            "at most one literal per variable, no clause vertex" if at_exact else ""
        )
    else:
        violation_of = _bondage_violation
        expected = (
            "every minimum set picks exactly s2 from the anchor, two per variable "
            "gadget, at most one literal per variable, and no clause vertex"
        )
    try:
        sets = enumerate_minimum_sets(out.graph, total=total)
    except BudgetExceededError as exc:
        return ClaimCheck("minimum-set-structure", expected, f"undetermined: {exc}", False)
    clause_labels = _clause_labels(out)
    violations = (violation_of(out, clause_labels, chosen, at_exact) for chosen in sets)
    violation = next(filter(None, violations), None)
    return ClaimCheck(
        "minimum-set-structure",
        expected,
        violation or f"all {len(sets)} minimum sets conform",
        violation is None,
    )


def _augmented_set_claim(out: ReductionOutput, total: bool, param: int) -> ClaimCheck:
    """Reinforcement kinds: check G+e for every edge e that lowers the parameter by exactly one.

    Every minimum (total) dominating set of G+e must avoid the apex and
    the clause vertices and keep the gadget quotas.
    """
    g = out.graph
    target = param - 1
    apex = "s1" if total else "s"
    sets_name = "minimum total set" if total else "minimum set"
    expected = (
        f"for every added edge reaching {'gamma_t' if total else 'gamma'} == {target}: "
        f"{sets_name}s avoid {'s1' if total else 'the apex'} and clause vertices, "
        "two per gadget, at most one literal per variable"
    )
    clause_labels = _clause_labels(out)
    violation = None
    augmenting = 0
    sets_checked = 0
    additions = AdditionSearch(g, total, param)
    try:
        for edge in g.complement_edges():
            # exactly one below: one added edge can lower gamma_t by 2
            if not additions.covers_after((edge,), target) or additions.covers_after((edge,), target - 1):
                continue
            augmenting += 1
            for chosen in enumerate_minimum_sets(g.add_edges([edge]), total=total):
                sets_checked += 1
                if apex in chosen:
                    violation = f"{'s1' if total else 'apex'} picked in a {sets_name} of G+{edge}"
                elif chosen & clause_labels:
                    violation = f"clause vertices picked in a {sets_name} of G+{edge}"
                elif quota := _gadget_quota_violation(out, chosen):
                    violation = f"{quota} (G+{edge})"
                if violation:
                    break
            if violation:
                break
    except BudgetExceededError as exc:
        return ClaimCheck("augmented-minimum-set-structure", expected, f"undetermined: {exc}", False)
    return ClaimCheck(
        "augmented-minimum-set-structure",
        expected,
        violation or f"{augmenting} augmenting edges, {sets_checked} sets conform",
        violation is None,
    )


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


def verify(kind: ReductionKind | str, inst: CnfInstance, deep: bool = False) -> VerificationReport:
    """Check every claimed gadget fact of one reduction kind on ``inst``."""
    start = time.perf_counter()
    kind = ReductionKind(kind)
    total = kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
    removal = kind in (ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE)
    # Looked up per call: the names may be swapped at run time (see the imports).
    builder, perturbation_number = {
        ReductionKind.BONDAGE: (build_bondage, bondage_number),
        ReductionKind.TOTAL_BONDAGE: (build_total_bondage, total_bondage_number),
        ReductionKind.REINFORCEMENT: (build_reinforcement, reinforcement_number),
        ReductionKind.TOTAL_REINFORCEMENT: (build_total_reinforcement, total_reinforcement_number),
    }[kind]
    parameter_number = total_domination_number if total else domination_number
    dominates = is_total_dominating_set if total else is_dominating_set

    out = builder(inst)
    g = out.graph
    n = inst.num_vars
    assignment = solve_sat(inst)
    sat = assignment is not None
    # Before any search: it rejects an instance the kind cannot witness.
    witness = assignment_to_witness(out, assignment) if sat else None
    yes_no = "yes" if sat else "no"
    claims: list[ClaimCheck] = []
    exact = 2 * n + 1 + total
    param_name, param_id = ("gamma_t", "gamma-t") if total else ("gamma", "gamma")
    pert_name = ("b" if removal else "r") + ("_t" if total else "")

    dom = parameter_number(g)
    param = dom.value
    observed = f"{param_name} = {param}"
    if removal:
        lower = ClaimCheck(f"{param_id}-lower-bound", f"{param_name} >= {exact}", observed, param >= exact)
        claims.append(lower)
        claims.append(
            ClaimCheck(
                f"{param_id}-iff-sat",
                f"{param_name} == {exact} exactly when satisfiable ({yes_no})",
                observed,
                (param == exact) == sat,
            )
        )
        bad_edge, swept = _removal_sweep(g, total, exact + 1, dom.witness)
        claims.append(
            ClaimCheck(
                "edge-removal-bound",
                f"{param_name}(G-e) <= {exact + 1} for every {'non-isolating ' if total else ''}edge",
                f"all {swept} removals within bound"
                if bad_edge is None
                else f"removing {bad_edge} exceeds it",
                bad_edge is None,
            )
        )
    else:
        claims.append(ClaimCheck(f"{param_id}-exact", f"{param_name} == {exact}", observed, param == exact))

    max_k = 2 if removal else 1
    pert = perturbation_number(g, max_k=max_k)
    claims.append(
        ClaimCheck(
            f"{kind.value}-iff-sat",
            f"{pert_name} == 1 exactly when satisfiable ({yes_no})",
            f"{pert_name} > {max_k} (no witness within bound)"
            if pert.value is None
            else f"{pert_name} = {pert.value}",
            (pert.value == 1) == sat,
        )
    )

    # The plain bondage structure is claimed only at the exact bound.
    deep_checked = deep and n <= DEEP_VAR_LIMIT and (total or not removal or param == exact)
    if deep_checked:
        if removal:
            claims.append(_minimum_set_claim(out, total, param == exact))
        else:
            claims.append(_augmented_set_claim(out, total, param))

    if witness is not None:
        size = exact if removal else exact - 1
        target = g if removal else g.add_edges([witness.added_edge])
        dominating = dominates(target, witness.vertices)
        set_name = f"{'total ' if total else ''}dominating"
        claims.append(
            ClaimCheck(
                "witness-round-trip",
                f"assignment yields a {set_name} set of size {size}"
                + ("" if removal else " after adding one edge"),
                f"size {len(witness.vertices)}"
                + (", " if removal else f" with edge {witness.added_edge}, ")
                + f"{set_name}: {dominating}",
                len(witness.vertices) == size and dominating,
            )
        )

    elapsed = (time.perf_counter() - start) * 1000
    return VerificationReport(
        kind, n, inst.num_clauses, sat, param_name, param,
        pert_name, pert.value, deep_checked, elapsed, claims,
    )


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
        # Imported here, so that ``import domkit`` does not load the
        # process pool machinery (~1.5 MB of memory) for serial callers.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_fuzz_trial, trial_args))
    return [_fuzz_trial(args) for args in trial_args]
