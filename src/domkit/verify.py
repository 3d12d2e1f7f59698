"""Machine checks of the gadget equivalences on concrete and fuzzed instances.

``verify(kind, inst, deep)`` builds the gadget for one reduction kind,
measures the relevant parameters exactly, and records one pass/fail
entry per claimed fact.  One body serves all four kinds.  Three facts
about the kind decide every claim: closed or total neighbourhoods
(gamma or gamma_t, exact bound 2n+1 or 2n+2), and edge removal (bondage
kinds) or edge addition (reinforcement kinds).  The claims are

  * the parameter: at least the exact bound, and equal to it exactly
    when satisfiable (bondage kinds), or equal to it (reinforcement),
  * every single-edge removal stays within the bound + 1 (bondage kinds),
  * perturbation value 1 exactly when the instance is satisfiable,
  * with ``deep`` enabled, the structure of every minimum set, and
  * a satisfying assignment maps to a witness of the exact bound, or of
    one less plus the added edge (reinforcement kinds).

The deep claim checks the shape that the gadget table gives each
kind's minimum sets.  At the exact bound it enumerates the minimum sets
of the gadget (bondage kinds), or of the gadget plus each edge whose
addition lowers the parameter by exactly one (reinforcement kinds), and
asks ``reductions.structure_violation`` about each of them.  Above the
exact bound (total bondage on an
unsatisfiable instance; plain bondage claims no structure there) only
the every-bound facts apply, ``reductions.every_bound_facts``: each is
refuted by one decide at the parameter with the fact's vertices banned,
1 + n searches instead of a list of every minimum set.  The claim starts
from what ``verify`` has already proven, so no optimum is solved again
and no graph is copied:

  * each enumeration runs at a proven optimum, on cover masks: the
    parameter for the gadget; at the optimum a cover found is a
    minimum set;
  * the minimum sets of G+e are read from per-vertex pools
    (``_augmented_minimum_sets``): a set of one less than the parameter
    dominates G + uv only by holding one endpoint and missing only the
    other in the gadget, or (total variant) by holding both and missing
    exactly both (Kok and Mynhardt, 1990).  So the sets of one less
    that miss only x are enumerated once per vertex x, at that
    problem's optimum, and each G+e takes its share.  The edges are
    those of ``AdditionSearch``'s single-edge row, in the addition
    scan's order;
  * the edges are sought only when the perturbation value is 1:
    otherwise no edge lowers the parameter and there is nothing to
    enumerate.  The claim reads the value, not how it was proven, so a
    certificate serves it as well as the scan.

A failed entry never aborts the remaining checks; the report records
everything so a counterexample is fully diagnosable.  An enumeration
past its cap makes the structure claim fail as "undetermined" and the
other claims are still made.  Perturbation searches are bounded:
removal searches stop at two edges (a one-edge sweep already certifies
the removal bound, so the true value is 1 or 2), and addition searches
stop at one edge because the equivalences only ever need to distinguish
"1" from "more than 1".  Each starts from the parameter ``verify`` has
already solved, and none of them copies the graph per candidate.  On a
satisfiable instance that solve starts from the assignment's set
(``hint``), repaired into a cover (for the reinforcement kinds, by the
one pick that the added edge stood in for).  That cover has the exact
bound's size, and on the gadgets measured the first decide, at one
fewer, is refuted at its root; the witness is that set whenever it is
minimum.  The loop still refutes one fewer, so no value rests on the
gadget lemma.  The parameter's witness, whichever minimum set
``domination`` returns, only seeds ``RemovalSearch``, where any minimum
set serves.  The removal sweep is the single-edge stage of
``perturbation._first_hit``, run on a ``RemovalSearch`` at the bound
seeded with that witness, and it is the only removal search a
bondage-kind ``verify`` builds: the certificate asks the kernel
directly.  At the exact bound the witness is one pick under the sweep's
bound, so its row settles every edge that is not the lone dominator
edge of both its endpoints, which in the closed variant is every edge;
each edge left gets the witness repaired (one dominator per endpoint,
less one redundant pick), and a search only when no kept cover repairs
within the bound.  When the
parameter is one above the exact bound, as on an unsatisfiable
instance, that is the first stage of the removal scan itself, with the
same bound and seed, so the sweep's first breaking edge is the scan's
witness when b = 1 (b_t = 1) and none otherwise, and the sweep is not
run again.  The deep check reads its augmenting edges off the
single-edge row of ``perturbation.AdditionSearch``.  See that module
for both.

On a satisfiable instance the perturbation value comes from a
certificate that ``verify`` checks first (``_certifies_one``), not from
the scan.  For the bondage kinds it is the first anchor edge whose
removal qualifies and leaves no cover within the parameter, trying the
edges of the kind's table row with both endpoints in the assignment's
set first and then the rest, each in row order, each refuted by one
search on the gadget's cover masks with the edge removed: a hit of the
scan's single-edge stage, so b = 1 (b_t = 1).
For the reinforcement kinds it is the set ``assignment_to_witness``
gives, with its added edge: it dominates G+e and is smaller than a
parameter above the floor, so r = 1 (r_t = 1); the witness round trip
reads the same domination check, made on the gadget's cover masks with
the added edge's two bits set, so no graph is copied for it.  Each
certificate is checked on the graph, so no value rests on the gadget
lemma, and ``deep`` does not change which is used.  The one place that
reads the scan's witness is the bondage kinds' edge-removal claim at
one above the exact bound, where it is the scan's first stage, so no
certificate is tried there.  There, on an unsatisfiable instance, and
when a check fails, the scan runs; the value, and so the report, is the
same.

Deep checks at the exact bound enumerate every minimum set, which grows
combinatorially, so they only run for instances with at most
``DEEP_VAR_LIMIT`` variables.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache

from .cnf import CnfError, CnfInstance, TooFewVariablesError, random_instance, solve_sat
# ``perfbench/tracing.py`` wraps the solver and builder names below in this
# module's namespace while it runs, so ``verify`` looks each one up at call
# time, and the ``has_*_within`` and ``enumerate_minimum_sets`` names stay
# imported although nothing here calls them.
from .domination import (  # noqa: F401
    BudgetExceededError,
    _all_minimum_covers,
    _cover_masks,
    _search,
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from .graph import Graph, iter_bits
from .perturbation import (
    AdditionSearch,
    RemovalSearch,
    _first_hit,
    _isolates,
    _isolating,
    _toggled,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from .reductions import (
    _SPECS,
    GadgetWitness,
    ReductionKind,
    ReductionOutput,
    assignment_to_witness,
    build_bondage,
    build_reinforcement,
    build_total_bondage,
    build_total_reinforcement,
    every_bound_facts,
    structure_violation,
)

DEEP_VAR_LIMIT = 4
DEEP_SET_CAP = 100_000  # minimum sets per enumerated graph


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


def _every_bound_violation(out: ReductionOutput, cover: tuple[int, ...], param: int) -> str | None:
    """Refute each of ``every_bound_facts`` by one decide at ``param``, with the fact's vertices banned.

    ``param`` is the proven optimum, so a cover found within it is a
    minimum set that misses the fact, and ``structure_violation`` names
    it.  The facts come in that function's order, and every minimum set
    meets those refuted before, so the name is the fact's.  Returns that
    name, or None when every decide is refuted.
    """
    g = out.graph
    for fact in every_bound_facts(out):
        found = _search(cover, param, 0, sum(1 << g.index_of(v) for v in fact))
        if found is not None:
            return structure_violation(out, frozenset(map(g.label_at, found)), False)
    return None


def _augmented_minimum_sets(g: Graph, cover: tuple[int, ...], total: bool, param: int, cap: int):
    """Each edge e whose addition lowers ``param`` by exactly one, with the minimum sets of G+e, sorted.

    ``cover`` is the masks of ``g``, whose (total) domination number is
    ``param``.  A set below ``param`` dominates G + uv only through the
    new edge (Kok and Mynhardt, 1990): it holds u and misses only v in G,
    or holds v and misses only u, or (total variant) holds both and
    misses exactly both.  So the sets of ``param`` - 1 vertices that miss
    only x, x's *pool*, are enumerated once for each vertex that has one
    (``AdditionSearch.missing_only``), at that problem's optimum, and
    each edge of the search's single-edge row, in candidate order, takes
    the pool sets of v that hold u, those of u that hold v, and the
    "both" sets, enumerated per edge where ``AdditionSearch.missing_both``
    gives their masks (total variant, ``param`` above 2).  An edge whose
    "both" case has a set of ``param`` - 2 lowers gamma_t by two and is
    skipped.

    Raises BudgetExceededError when an edge has more than ``cap`` sets.
    A pool is bounded by ``cap`` sets per candidate edge at its vertex:
    each of its sets holds the other end of one, so past that bound some
    edge has more than ``cap``, or the excess lies on edges that lower
    gamma_t by two (none does on the gadgets measured).
    """
    additions = AdditionSearch(g, total, param)

    @cache
    def pool(x: int) -> list[tuple[int, ...]]:
        if (masks := additions.missing_only(x)) is None:
            return []
        room = cap * (len(cover) - (cover[x] | 1 << x).bit_count())
        try:
            return _all_minimum_covers(cover, param - 1, room, dominated=masks[0], banned=masks[1])
        except BudgetExceededError:
            raise BudgetExceededError(f"more than {cap} minimum sets") from None

    for e in iter_bits(additions.row(())):
        edge = additions.candidates[e]
        u, v = additions.ends[edge]
        sets = [chosen for chosen in pool(v) if u in chosen] + [chosen for chosen in pool(u) if v in chosen]
        both = additions.missing_both(u, v)
        if both is not None:
            dominated, banned = both
            if param > 3 and _search(cover, param - 4, dominated, banned) is not None:
                continue
            rests = _all_minimum_covers(cover, param - 3, cap, dominated=dominated, banned=banned)
            sets += [tuple(sorted(rest + (u, v))) for rest in rests]
        if len(sets) > cap:
            raise BudgetExceededError(f"more than {cap} minimum sets")
        if sets:
            yield edge, sorted(sets)


def _structure_claim(
    out: ReductionOutput,
    cover: tuple[int, ...],
    total: bool,
    removal: bool,
    param: int,
    exact: int,
    lowered: bool,
) -> ClaimCheck:
    """The deep claim: every minimum set of the gadget (bondage kinds), or of G+e for every edge e
    that lowers the parameter by exactly one (reinforcement kinds), has the kind's structure.

    ``cover`` is the gadget's cover masks, ``param`` its proven
    parameter and ``lowered`` whether one added edge lowers it (the
    perturbation value is 1; the bondage kinds add no edge and ignore
    it).  The edges e and the minimum sets of each G+e are read from
    per-vertex pools when ``lowered`` (``_augmented_minimum_sets``), and
    none is sought otherwise.  At the exact bound (for G+e, one below
    it) every minimum set is enumerated and ``structure_violation``
    asked about each; away from it only the every-bound facts apply, and
    each is refuted by one decide (``_every_bound_violation``).
    """
    g = out.graph
    if removal:
        claim_id = "minimum-set-structure"
        if total:
            expected = "every minimum total set contains s5 and one of v/q per variable" + (
                "; at the exact bound: anchor pick {s2,s5} or {s4,s5}, two per gadget, "
                "at most one literal per variable, no clause vertex" if param == exact else ""
            )
        else:
            expected = (
                "every minimum set picks exactly s2 from the anchor, two per variable "
                "gadget, at most one literal per variable, and no clause vertex"
            )
        if param != exact:
            violation = _every_bound_violation(out, cover, param)
            refuted = f"all {len(every_bound_facts(out))} constrained decides refuted"
            return ClaimCheck(claim_id, expected, violation or refuted, violation is None)
    else:
        claim_id = "augmented-minimum-set-structure"
        expected = (
            f"for every added edge reaching {'gamma_t' if total else 'gamma'} == {param - 1}: "
            f"minimum {'total set' if total else 'set'}s avoid {'s1' if total else 'the apex'} and clause vertices, "
            "two per gadget, at most one literal per variable"
        )
    checked_graphs = checked_sets = 0
    try:
        # (suffix naming the graph in a violation, its minimum sets)
        if removal:
            graphs = [("", _all_minimum_covers(cover, param, DEEP_SET_CAP))]
        elif lowered:
            graphs = ((f" (G+{edge})", sets) for edge, sets in _augmented_minimum_sets(g, cover, total, param, DEEP_SET_CAP))
        else:
            graphs = []
        for suffix, covers in graphs:
            checked_graphs += 1
            checked_sets += len(covers)
            sets = (frozenset(map(g.label_at, chosen)) for chosen in covers)
            violation = next(filter(None, (structure_violation(out, chosen, True) for chosen in sets)), None)
            if violation:
                return ClaimCheck(claim_id, expected, violation + suffix, False)
    except BudgetExceededError as exc:
        return ClaimCheck(claim_id, expected, f"undetermined: {exc}", False)
    if removal:
        return ClaimCheck(claim_id, expected, f"all {checked_sets} minimum sets conform", True)
    return ClaimCheck(claim_id, expected, f"{checked_graphs} augmenting edges, {checked_sets} sets conform", True)


def _dominates_with(g: Graph, cover: tuple[int, ...], witness: GadgetWitness) -> bool:
    """Whether ``witness.vertices`` dominate ``g`` plus ``witness.added_edge``, read off ``g``'s cover masks.

    The added edge is one the gadget lacks, so toggling it sets its two bits.
    """
    masks, _ = _toggled(g, cover, [witness.added_edge] if witness.added_edge else [])
    covered = 0
    for v in witness.vertices:
        covered |= masks[g.index_of(v)]
    return covered == (1 << g.num_vertices) - 1


def _qualifying_removals(g: Graph, total: bool) -> int:
    """How many single-edge removals qualify: those that isolate no vertex, ``perturbation._isolating``'s complement."""
    return g.num_edges - _isolating(g, total, g.edge_ends()).bit_count()


def _certifies_one(
    out: ReductionOutput,
    total: bool,
    param: int,
    witness: GadgetWitness,
    dominating: bool,
    cover: tuple[int, ...],
) -> bool:
    """Whether a checked certificate proves that the perturbation value of ``out.graph`` is 1.

    ``param`` is the graph's proven parameter, ``witness`` the set a
    satisfying assignment maps to, and ``dominating`` whether it
    dominates the gadget (plus its added edge).  Bondage kinds: the
    first anchor edge whose removal qualifies and leaves no cover within
    the parameter, of the row's edges with both endpoints in ``witness``
    and then the rest, each in row order.  Each is removed from
    ``cover``, the gadget's cover masks: a removal that empties an
    endpoint's mask isolates it (total variant) and does not qualify,
    and any other is a hit when ``_search`` finds no cover within
    ``param``, a hit of the scan's single-edge stage, so b = 1
    (b_t = 1).  Reinforcement kinds: the witness with its added edge,
    smaller than a parameter above the floor, so r = 1 (r_t = 1).
    False when the check fails.
    """
    if witness.added_edge is not None:
        return param > (2 if total else 1) and len(witness.vertices) < param and dominating
    # sorted is stable: row order within each group
    for edge in sorted(_SPECS[out.kind].anchor_edges, key=lambda edge: not witness.vertices.issuperset(edge)):
        masks, touched = _toggled(out.graph, cover, [edge])
        if not _isolates(masks, touched) and _search(tuple(masks), param) is None:
            return True
    return False


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

    # From the assignment's set when there is one (see the module docstring).
    # Whichever minimum set it returns serves: its witness only seeds ``RemovalSearch``.
    dom = parameter_number(g, hint=None if witness is None else witness.vertices)
    param = dom.value
    cover = _cover_masks(g, total)
    max_k = 2 if removal else 1
    # The plain bondage structure is claimed only at the exact bound.
    deep_checked = deep and n <= DEEP_VAR_LIMIT and (total or not removal or param == exact)
    dominating = witness is not None and _dominates_with(g, cover, witness)
    # At exact + 1 the edge-removal claim reads the scan's witness.
    reads_witness = removal and param == exact + 1
    if witness is not None and not reads_witness and _certifies_one(out, total, param, witness, dominating, cover):
        value = 1
    else:
        pert = perturbation_number(g, max_k=max_k, start=dom)
        value = pert.value
    observed = f"{param_name} = {param}"
    if removal:
        claims.append(ClaimCheck(f"{param_id}-lower-bound", f"{param_name} >= {exact}", observed, param >= exact))
        claims.append(
            ClaimCheck(
                f"{param_id}-iff-sat",
                f"{param_name} == {exact} exactly when satisfiable ({yes_no})",
                observed,
                (param == exact) == sat,
            )
        )
        # At exact + 1 the scan's k = 1 stage was the sweep: the same bound and seed, the same edges in the same order.
        first = pert if reads_witness else _first_hit(RemovalSearch(g, total, exact + 1, kept=[dom.witness]), 1)
        bad_edge = first.witness[0] if first.value == 1 else None
        claims.append(
            ClaimCheck(
                "edge-removal-bound",
                f"{param_name}(G-e) <= {exact + 1} for every {'non-isolating ' if total else ''}edge",
                f"all {_qualifying_removals(g, total)} removals within bound"
                if bad_edge is None
                else f"removing {bad_edge} exceeds it",
                bad_edge is None,
            )
        )
    else:
        claims.append(ClaimCheck(f"{param_id}-exact", f"{param_name} == {exact}", observed, param == exact))

    claims.append(
        ClaimCheck(
            f"{kind.value}-iff-sat",
            f"{pert_name} == 1 exactly when satisfiable ({yes_no})",
            f"{pert_name} > {max_k} (no witness within bound)"
            if value is None
            else f"{pert_name} = {value}",
            (value == 1) == sat,
        )
    )

    if deep_checked:
        claims.append(_structure_claim(out, cover, total, removal, param, exact, value == 1))

    if witness is not None:
        size = exact if removal else exact - 1
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
        pert_name, value, deep_checked, elapsed, claims,
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
    separate processes; reports stay ordered by trial index.  Bad
    counts raise before any trial, also when there are none to run.
    """
    kind = ReductionKind(kind)
    if num_vars < 3:
        raise TooFewVariablesError(f"need at least 3 variables, got {num_vars}")
    if num_clauses < 0:
        raise CnfError(f"number of clauses must be non-negative, got {num_clauses}")
    if trials < 0:
        raise CnfError(f"number of trials must be non-negative, got {trials}")
    if jobs < 1:
        raise CnfError(f"number of jobs must be positive, got {jobs}")
    rng = random.Random(seed)
    trial_args = [(kind, num_vars, num_clauses, rng.randrange(2**32), deep) for _ in range(trials)]
    if jobs > 1 and trials > 1:
        # Imported here, so that ``import domkit`` does not load the
        # process pool machinery (~1.5 MB of memory) for serial callers.
        from concurrent.futures import ProcessPoolExecutor

        # Every worker is started at the first submit, needed or not.
        with ProcessPoolExecutor(max_workers=min(jobs, trials)) as pool:
            return list(pool.map(_fuzz_trial, trial_args))
    return [_fuzz_trial(args) for args in trial_args]
