import concurrent.futures
import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import UNSAT8_DIMACS
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import random_graph, reference_structure_violations, removal_covers
from strategies import isolated_free_graphs

import domkit
from domkit import domination, perturbation, reductions
from domkit.cnf import CnfError, CnfInstance, TooFewVariablesError, parse_dimacs, random_instance, solve_sat
from domkit.domination import (
    _all_minimum_covers,
    _cover_masks,
    _search,
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    is_dominating_set,
    is_total_dominating_set,
    total_domination_number,
)
from domkit.graph import Graph
from domkit.perturbation import (
    AdditionSearch,
    RemovalSearch,
    _first_hit,
    _toggled,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from domkit.reductions import KindMismatchError, ReductionKind, build
from domkit.verify import (
    ClaimCheck,
    VerificationReport,
    _augmented_minimum_sets,
    _certifies_one,
    _dominates_with,
    _every_bound_violation,
    _qualifying_removals,
    fuzz,
    verify,
)

# ``domkit.verify`` is the function; the module has to be looked up
verify_module = importlib.import_module("domkit.verify")
TINY = CnfInstance(3, ((1, 2, 3),))
PATH5 = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
STAR = Graph(["c", "l1", "l2", "l3", "l4"], [("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")])


def claim_ids(report):
    return [c.claim_id for c in report.claims]


def augmented_sets_on_copies(g, total, param):
    """(e, the minimum sets of the copy G+e) for each missing edge e that lowers ``param`` by exactly one, in order."""
    within = has_total_dominating_set_within if total else has_dominating_set_within
    return [
        (edge, enumerate_minimum_sets(copy, total))
        for edge in g.complement_edges()
        if within(copy := g.add_edges([edge]), param - 1) and not within(copy, param - 2)
    ]


class TestVerifiers:
    def test_bondage_worked_example(self, fig_instance):
        report = verify(ReductionKind.BONDAGE, fig_instance)
        assert report.passed
        assert report.satisfiable
        assert report.parameter_value == 9
        assert report.perturbation_value == 1
        assert "gamma-lower-bound" in claim_ids(report)
        assert "edge-removal-bound" in claim_ids(report)
        assert "witness-round-trip" in claim_ids(report)
        assert not report.deep_checked

    def test_total_bondage_worked_example(self, fig_instance):
        report = verify(ReductionKind.TOTAL_BONDAGE, fig_instance)
        assert report.passed
        assert report.parameter_value == 10
        assert report.perturbation_value == 1

    def test_reinforcement_worked_example(self, fig_instance):
        report = verify(ReductionKind.REINFORCEMENT, fig_instance)
        assert report.passed
        assert report.parameter_value == 9
        assert report.perturbation_value == 1

    def test_total_reinforcement_worked_example(self, fig4_instance):
        report = verify(ReductionKind.TOTAL_REINFORCEMENT, fig4_instance)
        assert report.passed
        assert report.parameter_value == 10
        assert report.perturbation_value == 1

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_unsat_control(self, unsat8_instance, kind):
        report = verify(kind, unsat8_instance)
        assert report.passed, [c for c in report.claims if not c.passed]
        assert not report.satisfiable
        assert report.perturbation_value != 1

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_no_clauses_never_crashes(self, kind):
        report = verify(kind, CnfInstance(3, ()))
        assert report.passed
        assert report.satisfiable  # vacuously

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_deep_runs_on_small_instances(self, kind):
        report = verify(kind, TINY, deep=True)
        assert report.passed, [c for c in report.claims if not c.passed]
        assert report.deep_checked
        assert any("structure" in cid for cid in claim_ids(report))

    def test_deep_on_unsat_checks_unconditional_structure(self, unsat8_instance):
        # above the exact bound only the unconditional facts apply, and
        # they must still hold for every minimum total set
        report = verify(ReductionKind.TOTAL_BONDAGE, unsat8_instance, deep=True)
        assert report.passed
        assert report.deep_checked
        assert report.parameter_value == 9

    def test_deep_on_unsat_reinforcement_is_vacuous(self, unsat8_instance):
        # no single added edge lowers the parameter, so the structure
        # claim holds with nothing to enumerate
        report = verify(ReductionKind.REINFORCEMENT, unsat8_instance, deep=True)
        assert report.passed
        assert report.deep_checked
        entry = next(c for c in report.claims if "structure" in c.claim_id)
        assert entry.observed.startswith("0 augmenting edges")

    def test_deep_skipped_above_variable_limit(self):
        inst = random_instance(5, 3, 11)
        report = verify(ReductionKind.BONDAGE, inst, deep=True)
        assert not report.deep_checked

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_parameter_is_solved_once(self, monkeypatch, minimum_cover_calls, kind):
        # the perturbation search starts from verify's own gamma / gamma_t,
        # and the deep claim enumerates at it (or one below, on G+e); on a
        # satisfiable instance the solve starts from the assignment's set, not greedy
        greedy = []
        greedy_cover = domination._greedy_cover
        monkeypatch.setattr(domination, "_greedy_cover", lambda cover: greedy.append(cover) or greedy_cover(cover))
        inst = random_instance(4, 8, 1)
        out = build(kind, inst)
        hint = {out.graph.index_of(v) for v in reductions.assignment_to_witness(out, solve_sat(inst)).vertices}
        for deep in (False, True):
            minimum_cover_calls.clear()
            report = verify(kind, inst, deep=deep)
            assert report.passed and report.satisfiable and report.deep_checked == deep
            assert len(minimum_cover_calls) == 1, deep
            (_, called_hint), = minimum_cover_calls
            assert set(called_hint) == hint, deep
        assert greedy == []

    @pytest.mark.parametrize("kind", list(ReductionKind))
    def test_enumeration_cap_gives_an_undetermined_claim(self, monkeypatch, kind):
        """One minimum set past the cap makes the structure claim "undetermined"; at the cap the report is unchanged.

        The cap is on the minimum sets of one enumerated graph, counted on
        graph copies: the gadget's (bondage kinds), or those of G+e for the
        augmenting edge e with the most (reinforcement kinds).  At the cap
        the claim counts the copies' sets, so a set that the claim drops or
        counts twice fails either way.
        """
        full = verify(kind, TINY, deep=True)
        g = build(kind, TINY).graph
        total = kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
        if kind in REINFORCEMENT_KINDS:
            augmenting = augmented_sets_on_copies(g, total, full.parameter_value)
            most = max(len(sets) for _, sets in augmenting)
            count = sum(len(sets) for _, sets in augmenting)
            conform = f"{len(augmenting)} augmenting edges, {count} sets conform"
        else:
            most = len(enumerate_minimum_sets(g, total))
            conform = f"all {most} minimum sets conform"
        monkeypatch.setattr(verify_module, "DEEP_SET_CAP", most)
        report = verify(kind, TINY, deep=True)
        assert report.to_lines() == full.to_lines()
        assert next(c for c in report.claims if "structure" in c.claim_id).observed == conform
        monkeypatch.setattr(verify_module, "DEEP_SET_CAP", most - 1)
        report = verify(kind, TINY, deep=True)
        assert report.deep_checked and not report.passed
        assert claim_ids(report) == claim_ids(full)
        for entry, unpatched in zip(report.claims, full.claims):
            if "structure" in entry.claim_id:
                assert not entry.passed
                assert entry.observed == f"undetermined: more than {most - 1} minimum sets"
                assert entry.expected == unpatched.expected
            else:
                assert entry == unpatched
        assert set(report.to_dict()) == set(full.to_dict())

    def test_unknown_kind_raises_kind_mismatch(self):
        for call in (lambda: verify("nope", TINY), lambda: fuzz("nope", 3, 3, 1, 0), lambda: build("nope", TINY)):
            with pytest.raises(KindMismatchError, match="unknown reduction kind 'nope'"):
                call()
        assert issubclass(KindMismatchError, ValueError)

    def test_iff_agreement_across_kinds(self):
        for seed in (1, 2, 3):
            inst = random_instance(3, 6, seed)
            reports = [verify(kind, inst) for kind in ReductionKind]
            sats = {r.satisfiable for r in reports}
            assert len(sats) == 1
            for r in reports:
                assert r.passed
                assert (r.perturbation_value == 1) == r.satisfiable


# Each mutation turns a real minimum set into one that breaks the kind's
# structure: (kind, instance, mutation, the claim's observed text).  The text
# is pinned for the bondage kinds, whose first minimum set is mutated.  For
# the reinforcement kinds the last minimum set of the last augmenting edge's
# G+e is, all found on graph copies, so the text is worked out there, and
# every set of every G+e is asked about first.  Above the
# exact bound nothing is enumerated: each every-bound fact is refuted by a
# decide.  There the mutation is to the kind's lemma row instead, so that the
# decide finds a real minimum set that breaks it ("no s5": the row holds s4
# in place of s5; "no v1 q1": the row asks for v alone, which a set holding
# q1 but not v1 breaks).
REINFORCEMENT_KINDS = (ReductionKind.REINFORCEMENT, ReductionKind.TOTAL_REINFORCEMENT)
UNSAT8 = parse_dimacs(UNSAT8_DIMACS)
BROKEN_SETS = [
    (ReductionKind.BONDAGE, TINY, "clause", "clause vertices ['c1'] picked"),
    (ReductionKind.BONDAGE, TINY, "anchor", "anchor pick ['s1', 's2']"),
    (ReductionKind.BONDAGE, TINY, "literals", "both literals of variable 1 in ['nu1', 'r2', 'r3', 's2', 'u1', 'u2', 'u3']"),
    (ReductionKind.BONDAGE, TINY, "drop", "variable 1 gadget holds 1 of ['r2', 'r3', 's2', 'u1', 'u2', 'u3']"),
    (ReductionKind.TOTAL_BONDAGE, TINY, "clause", "clause vertices ['c1'] picked"),
    (ReductionKind.TOTAL_BONDAGE, TINY, "anchor", "anchor pick ['s1', 's2', 's5']"),
    # v1 goes with the swap, and the every-bound rule is checked first
    (ReductionKind.TOTAL_BONDAGE, TINY, "literals", "variable 1: neither v nor q picked"),
    (ReductionKind.TOTAL_BONDAGE, TINY, "drop", "variable 1 gadget holds 1 of ['s2', 's5', 'u2', 'u3', 'v1', 'v2', 'v3']"),
    # above the exact bound only the every-bound rule applies
    (ReductionKind.TOTAL_BONDAGE, UNSAT8, "no s5", "a minimum set misses s4"),
    (ReductionKind.TOTAL_BONDAGE, UNSAT8, "no v1 q1", "variable 1: neither v picked"),
] + [(kind, TINY, mutation, None) for kind in REINFORCEMENT_KINDS for mutation in ("clause", "anchor", "literals", "drop")]
LEMMA_MUTANTS = {"no s5": {"held": ("s4",)}, "no v1 q1": {"one_of": ("v",)}}


@pytest.mark.parametrize(
    "kind, inst, mutation, observed", BROKEN_SETS, ids=[f"{case[0].value}-{case[2]}" for case in BROKEN_SETS]
)
def test_structure_claim_fails_on_a_broken_minimum_set(monkeypatch, kind, inst, mutation, observed):
    out = build(kind, inst)
    gadget = set(out.variable_gadget(1))
    g = out.graph
    asked = []
    if mutation in LEMMA_MUTANTS:
        monkeypatch.setitem(reductions._SPECS, kind, reductions._SPECS[kind]._replace(**LEMMA_MUTANTS[mutation]))
    else:
        mutate = {
            "clause": lambda s: s | {"c1"},
            "anchor": lambda s: s | {"s" if kind is ReductionKind.REINFORCEMENT else "s1"},
            "literals": lambda s: (s - gadget) | {"u1", "nu1"},
            "drop": lambda s: s - {min(s & gadget)},
        }[mutation]

    if kind in REINFORCEMENT_KINDS:
        # Every set of every augmenting edge's G+e is asked about, each once
        # and in order, up to the broken last one.
        total = kind is ReductionKind.TOTAL_REINFORCEMENT
        param = (total_domination_number(g) if total else domination_number(g)).value
        augmenting = augmented_sets_on_copies(g, total, param)
        sets = [chosen for _, edge_sets in augmenting for chosen in edge_sets]
        real = reductions.structure_violation
        observed = real(out, mutate(sets[-1]), True)
        assert observed, mutation
        observed += f" (G+{augmenting[-1][0]})"

        def broken(out, chosen, at_exact):
            asked.append(chosen)
            return real(out, mutate(chosen) if len(asked) == len(sets) else chosen, at_exact)

        monkeypatch.setattr(verify_module, "structure_violation", broken)
    elif mutation not in LEMMA_MUTANTS:

        def broken(cover, size, cap):
            first = {g.label_at(i) for i in _all_minimum_covers(cover, size, cap)[0]}
            return [tuple(sorted(map(g.index_of, mutate(first))))]

        monkeypatch.setattr(verify_module, "_all_minimum_covers", broken)
    report = verify(kind, inst, deep=True)
    entry = next(c for c in report.claims if "structure" in c.claim_id)
    assert report.deep_checked and not entry.passed and not report.passed
    assert entry.observed == observed
    if kind in REINFORCEMENT_KINDS:
        assert asked == sets


# The deep claim's enumerations, against ``enumerate_minimum_sets`` on graph
# copies; random_instance(3, 13, seed) is satisfiable for seed 0, not for 3.
DEEP_ORACLE_INSTANCES = {
    "tiny": TINY, "unsat8": UNSAT8, "seed0": random_instance(3, 13, 0), "seed3": random_instance(3, 13, 3)
}


def assert_additions_match_copies(g, total):
    """The augmenting edges and their composed minimum sets, and the single-edge row, against graph copies.

    ``_augmented_minimum_sets`` must give exactly the edges whose copy
    G+e has a set one below the parameter and none two below, in order,
    each with the copy's minimum sets; ``AdditionSearch.row(())`` must
    keep every edge whose copy has a set below the parameter.
    """
    within = has_total_dominating_set_within if total else has_dominating_set_within
    cover = _cover_masks(g, total)
    param = (total_domination_number(g) if total else domination_number(g)).value
    row = AdditionSearch(g, total, param).row(())
    for e, edge in enumerate(g.complement_edges()):
        assert row >> e & 1 or not within(g.add_edges([edge]), param - 1), (total, edge, g.edges)
    composed = [
        (edge, [frozenset(map(g.label_at, chosen)) for chosen in covers])
        for edge, covers in _augmented_minimum_sets(g, cover, total, param, 10**5)
    ]
    assert composed == augmented_sets_on_copies(g, total, param), (total, g.edges)


@pytest.mark.parametrize("kind", list(ReductionKind))
@pytest.mark.parametrize("name", list(DEEP_ORACLE_INSTANCES))
def test_deep_enumerations_match_graph_copies(kind, name):
    """At the known optimum: the gadget's masks; and G+e for every augmenting edge e, composed from per-vertex pools.

    On the bondage gadgets too, though ``verify`` composes G+e only for
    the reinforcement kinds.
    """
    g = build(kind, DEEP_ORACLE_INSTANCES[name]).graph
    total = kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
    cover = _cover_masks(g, total)
    param = (total_domination_number(g) if total else domination_number(g)).value
    covers = _all_minimum_covers(cover, param, 10**5)
    assert [frozenset(map(g.label_at, chosen)) for chosen in covers] == enumerate_minimum_sets(g, total)
    assert_additions_match_copies(g, total)


def test_augmented_minimum_sets_match_graph_copies_on_random_graphs():
    """The composed minimum sets of every G+e on random graphs of 6-9 vertices, closed and total, against copies."""
    rng = random.Random(1990)
    for _ in range(150):
        g = random_graph(rng, rng.randint(6, 9), rng.uniform(0.15, 0.6))
        for total in (False, True):
            if not (total and g.isolated_vertices()):
                assert_additions_match_copies(g, total)


@pytest.mark.parametrize("kind", REINFORCEMENT_KINDS)
@pytest.mark.parametrize("name", list(DEEP_ORACLE_INSTANCES))
def test_augmenting_edges_are_sought_from_the_first_candidate(monkeypatch, kind, name):
    """The deep claim reads its edges off one single-edge row over every complement edge, and none when r > 1.

    The row's bits are positions in the complement edges, in order, and
    every augmenting edge, one whose graph copy G+e has a set one below
    the parameter and none two below, is in it; the claim counts exactly
    those edges and their copies' minimum sets.  When r > 1 no
    ``AdditionSearch`` is built either: it would try no edge.

    On a satisfiable instance the certificate gives r = 1 (r_t = 1) with
    ``deep`` too, so no reinforcement scan runs, and the report is the
    scan path's byte for byte.
    """
    inst = DEEP_ORACLE_INSTANCES[name]
    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "_certifies_one", lambda *args: False)
        scan_path = verify(kind, inst, deep=True).to_lines()
    rows = []
    built = []

    class Counted(AdditionSearch):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def row(self, prefix):
            row = super().row(prefix)
            rows.append((prefix, row, self.candidates))
            return row

    def scanned(*args, **kwargs):
        raise AssertionError("verify scanned")

    monkeypatch.setattr(verify_module, "AdditionSearch", Counted)
    sat = solve_sat(inst) is not None
    if sat:
        for scan in ("reinforcement_number", "total_reinforcement_number"):
            monkeypatch.setattr(verify_module, scan, scanned)
    report = verify(kind, inst, deep=True)
    assert report.passed and report.deep_checked and report.satisfiable == sat
    assert report.to_lines() == scan_path
    entry = next(c for c in report.claims if "structure" in c.claim_id)
    if sat:
        g = build(kind, inst).graph
        (prefix, row, candidates), = rows
        assert prefix == () and candidates == g.complement_edges()
        augmenting = augmented_sets_on_copies(g, kind is ReductionKind.TOTAL_REINFORCEMENT, report.parameter_value)
        assert all(row >> candidates.index(edge) & 1 for edge, _ in augmenting)
        count = sum(len(sets) for _, sets in augmenting)
        assert entry.observed == f"{len(augmenting)} augmenting edges, {count} sets conform"
    else:
        assert rows == [] and built == []
        assert entry.observed.startswith("0 augmenting edges")


# Twice the deep claim's branch steps over the four kinds (bondage, total
# bondage, reinforcement, total reinforcement): 42 + 36 + 65 + 55 on TINY,
# 0 + 4 + 0 + 0 on UNSAT8 (total bondage is above its exact bound there, where
# the claim refutes each every-bound fact by one decide instead), and
# 33 + 60 + 72 + 272 on random_instance(4, 8, 1), whose reinforcement kinds
# compose G+e for 22 and 19 augmenting edges from one pool each: a claim that
# searched or enumerated per edge again would show there.
@pytest.mark.parametrize(
    "inst, max_steps",
    [(TINY, 2 * 198), (UNSAT8, 2 * 4), (random_instance(4, 8, 1), 2 * 437)],
    ids=["tiny", "unsat8", "sat4x8"],
)
def test_deep_enumeration_step_bound(monkeypatch, inst, max_steps):
    """The deep claim stays cheap: ``_branch`` calls made inside ``_structure_claim``, its enumerations included."""
    steps = [0]
    inside = [False]
    branch = domination._branch
    claim = verify_module._structure_claim

    def counted_branch(*args):
        if inside[0]:
            steps[0] += 1
        return branch(*args)

    def counted_claim(*args):
        inside[0] = True
        try:
            return claim(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(domination, "_branch", counted_branch)
    monkeypatch.setattr(verify_module, "_structure_claim", counted_claim)
    for kind in ReductionKind:
        assert verify(kind, inst, deep=True).passed
    assert steps[0] <= max_steps


class BranchBudgetExceeded(Exception):
    pass


def raise_past(monkeypatch, max_steps: int, label: str) -> list[int]:
    """Patch ``_branch`` to raise BranchBudgetExceeded past ``max_steps`` calls, so a blow-up fails in seconds.

    Returns the count, the one item of a list, which a caller may reset.
    """
    steps = [0]
    branch = domination._branch

    def counted_branch(*args):
        steps[0] += 1
        if steps[0] > max_steps:
            raise BranchBudgetExceeded(label)
        return branch(*args)

    monkeypatch.setattr(domination, "_branch", counted_branch)
    return steps


# A satisfiable instance at n = 48: gamma / gamma_t and the certificate take
# 2, 4, 1 and 2 branch steps over the four kinds.  Seeking the index-order
# first minimum set instead takes 95,744 steps (total bondage) and over 120 s
# (plain bondage) there, so a solve that does fails here.
@pytest.mark.parametrize("kind", list(ReductionKind))
def test_sat_ladder_step_bound(monkeypatch, kind):
    """``verify`` at n = 48, m = 96 stays within 1,000 ``_branch`` calls; past that the count raises."""
    raise_past(monkeypatch, 1_000, kind)
    report = verify(kind, random_instance(48, 96, 1))
    assert report.passed and report.satisfiable


# Seeds 1-5 of the sat rungs n = 40, 56 and 64 at m = 2n: started from the
# assignment's set, gamma / gamma_t take 1 or 2 branch steps per verify, and the
# certificates and the removal sweep none.  From a greedy cover, plain bondage's
# gamma takes 62,069 steps at n = 40 with seed 2 and does not end at n = 64 with
# seed 1, the heavy tail of its tight decide.
@pytest.mark.parametrize("kind", list(ReductionKind))
def test_sat_ladder_seeds_step_bound(monkeypatch, kind):
    """``verify`` on every sat rung n = 40, 56, 64 (m = 2n, seeds 1-5) stays within 100 ``_branch`` calls each."""
    steps = raise_past(monkeypatch, 100, kind)
    for n in (40, 56, 64):
        for seed in range(1, 6):
            steps[0] = 0
            report = verify(kind, random_instance(n, 2 * n, seed))
            assert report.passed and report.satisfiable, (n, seed)


# The unsat ladder rung n = 12, m = round(4.26 * 12): random_clauses(random.Random(3), 12, 51)
# of perfbench/workloads.py, written out.
UNSAT_N12_CLAUSES = (
    (4, -9, 10), (2, -10, 12), (-4, -8, 12), (-3, -4, -12), (-2, -3, 11), (-1, -5, 8), (7, -10, -12),
    (1, 2, -3), (-5, 7, 11), (7, 10, -12), (-1, 5, -10), (9, -10, -11), (5, 10, -11), (-2, 6, 8),
    (-5, 7, -11), (1, -7, -10), (1, 4, -9), (1, 4, -7), (-6, -11, 12), (-7, -8, -9), (5, -9, 10),
    (-5, -7, 12), (6, -7, -10), (1, -6, 11), (5, 8, -12), (5, -6, 8), (-3, 6, -11), (-1, 2, -10),
    (4, -5, -11), (2, 10, -12), (2, -3, -8), (-4, 5, -8), (-3, 6, -10), (-2, 6, -10), (-5, 6, -8),
    (1, 3, -7), (-7, -9, -10), (-1, -8, -9), (2, 5, 10), (-4, -9, -12), (1, 2, -8), (7, -9, 12),
    (3, -5, 9), (-2, 4, 9), (1, -3, 5), (-4, -5, 12), (-1, 6, 11), (-1, 2, 8), (-2, -6, 7),
    (4, -6, -7), (2, 7, -10),
)


# 559 and 7,974 branch steps.  As one search, without the split of the open
# masks into the gadget's two sides, each runs past 30 s.
@pytest.mark.parametrize("kind, max_steps", [("total-bondage", 2_000), ("total-reinforcement", 20_000)])
def test_unsat_ladder_step_bound(monkeypatch, kind, max_steps):
    """``verify`` of the total kinds on the unsat rung n = 12 stays within its ``_branch`` bound; past it the count raises."""
    raise_past(monkeypatch, max_steps, kind)
    report = verify(kind, CnfInstance(12, UNSAT_N12_CLAUSES))
    assert report.passed and not report.satisfiable


# The unsat ladder rung n = 16, m = round(4.26 * 16): random_clauses(random.Random(6), 16, 68)
# of perfbench/workloads.py, written out (it draws one clause twice).
UNSAT_N16_CLAUSES = (
    (3, 8, -13), (12, -13, 16), (7, -12, -14), (-7, -9, -10), (3, 7, -14), (8, 9, -12), (-1, 2, -10),
    (-8, -12, -14), (1, 6, 11), (-2, -4, 9), (5, 9, 12), (-7, -14, 15), (1, -6, -11), (-6, 7, -10),
    (1, -3, 16), (-4, -13, -15), (-8, -13, -15), (-5, -12, 16), (-8, -9, 15), (-4, 5, -10), (9, 11, -15),
    (5, 10, 16), (-5, 8, 13), (6, -10, 15), (-8, -12, 13), (-1, 8, -10), (4, -11, 12), (2, 4, 15),
    (2, 8, -16), (6, -8, 10), (1, -4, 11), (1, -9, 12), (-9, 14, -15), (-4, 5, -14), (5, -9, -15),
    (5, 6, -10), (-5, 9, -15), (2, -12, 16), (2, 3, -12), (7, 12, -16), (4, -7, -9), (-2, 5, -6),
    (-3, -5, -16), (-4, -8, 12), (-6, -13, 16), (4, 13, 16), (-9, -13, -14), (5, 11, -12), (2, 5, -7),
    (-4, -11, -12), (-2, 4, -9), (2, -8, 10), (-2, 15, -16), (-1, -13, -14), (5, -8, -10), (5, -7, -10),
    (9, -11, 13), (2, -12, 16), (-7, 11, 16), (1, 2, 6), (3, -4, 9), (-7, -10, 13), (3, 5, -9),
    (-3, -4, -13), (-2, 3, -6), (-4, 14, -16), (14, 15, 16), (-6, 10, 16),
)


# 10,305 branch steps; without the skip of dominated candidates, 15,879.
def test_unsat_ladder_bondage_step_bound(monkeypatch):
    """``verify`` of plain bondage on the unsat rung n = 16 stays within 12,000 ``_branch`` calls; past that the count raises."""
    raise_past(monkeypatch, 12_000, "bondage")
    report = verify(ReductionKind.BONDAGE, CnfInstance(16, UNSAT_N16_CLAUSES))
    assert report.passed and not report.satisfiable


# 98 and 100 branch steps: the decide loop from greedy and its refutation, or on
# the open masks, which split into the gadget's two sides, each side's decide.
@pytest.mark.parametrize("kind", ["bondage", "total-bondage"])
def test_public_parameter_step_bound(monkeypatch, kind):
    """``domination_number`` / ``total_domination_number`` on the n = 48 bondage gadgets stay within 1,000 ``_branch`` calls."""
    g = build(kind, random_instance(48, 96, 1)).graph
    raise_past(monkeypatch, 1_000, kind)
    result = total_domination_number(g) if kind == "total-bondage" else domination_number(g)
    assert result.value == 2 * 48 + 1 + (kind == "total-bondage")


def test_every_bound_facts_are_refuted_by_one_decide_each(monkeypatch):
    """Above the exact bound, total bondage's deep claim is 1 + n decides (s5, then each variable), no enumeration."""
    module = importlib.import_module("domkit.verify")
    decides, enumerations = [], []
    search = module._search

    def counted_search(*args):
        decides.append(args)
        return search(*args)

    monkeypatch.setattr(module, "_search", counted_search)
    monkeypatch.setattr(module, "_all_minimum_covers", lambda *args: enumerations.append(args))
    report = verify(ReductionKind.TOTAL_BONDAGE, UNSAT8, deep=True)
    entry = next(c for c in report.claims if "structure" in c.claim_id)
    assert report.passed and report.parameter_value == 2 * UNSAT8.num_vars + 3
    assert len(decides) == 1 + UNSAT8.num_vars and enumerations == []
    assert entry.observed == f"all {1 + UNSAT8.num_vars} constrained decides refuted"
    # each at the optimum, from nothing dominated
    assert {(limit, dominated) for _, limit, dominated, _ in decides} == {(report.parameter_value, 0)}


@pytest.mark.parametrize("kind", [ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE])
@pytest.mark.parametrize(
    "inst, sat",
    [(UNSAT8, False), (random_instance(3, 13, 3), False), (TINY, True)],
    ids=["unsat8", "unsat-seed3", "sat"],
)
def test_single_edge_removal_stage_runs_once_when_unsat(monkeypatch, kind, inst, sat):
    """At gamma = exact + 1 the edge-removal claim is read off the scan's k = 1 stage.

    At the exact bound, on a satisfiable instance, a checked anchor-edge
    certificate gives the value without a scan, so the one stage is the
    sweep's.  Either way it runs at exact + 1.
    """
    row = RemovalSearch.row
    single = []

    def counted_row(self, prefix):
        if not prefix:
            single.append(self.base)
        return row(self, prefix)

    monkeypatch.setattr(RemovalSearch, "row", counted_row)
    report = verify(kind, inst)
    assert report.passed and report.satisfiable == sat
    assert single == [2 * inst.num_vars + 2 + (kind is ReductionKind.TOTAL_BONDAGE)]


@pytest.mark.parametrize("kind", [ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE])
def test_satisfiable_removal_sweep_runs_no_search(monkeypatch, kind):
    """On satisfiable instances the witness's slack row and the repair settle the whole sweep: no search.

    The certificate tries first the anchor edges inside the assignment's
    set, (s2, s5) for total bondage, and makes one search of its own, the
    refutation of its hit.  Searches are counted in both namespaces that
    call the kernel, ``perturbation``'s and ``verify``'s.
    """
    searches = []
    stage = [None]
    search = perturbation._search

    def counted(*args):
        searches.append(stage[0])
        return search(*args)

    def staged(name, run):
        def wrapper(*args):
            stage[0] = name
            try:
                return run(*args)
            finally:
                stage[0] = None

        return wrapper

    monkeypatch.setattr(perturbation, "_search", counted)
    monkeypatch.setattr(verify_module, "_search", counted)
    monkeypatch.setattr(verify_module, "_first_hit", staged("sweep", _first_hit))
    monkeypatch.setattr(verify_module, "_certifies_one", staged("certificate", _certifies_one))
    for seed in range(1, 11):
        searches.clear()
        report = verify(kind, random_instance(4, 8, seed))
        assert report.passed and report.satisfiable, seed
        assert searches == ["certificate"], seed


@pytest.mark.parametrize("kind", [ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE])
def test_satisfiable_bondage_builds_one_removal_search(monkeypatch, kind):
    """The certificate builds no ``RemovalSearch`` (it asks the kernel on the cover masks); the sweep builds one."""
    builds = []
    init = RemovalSearch.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RemovalSearch, "__init__", counted)
    for seed in range(1, 11):
        builds.clear()
        report = verify(kind, random_instance(4, 8, seed))
        assert report.passed and report.satisfiable, seed
        assert len(builds) == 1, seed


REMOVAL_KINDS = (ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE)
PERTURBATION_NUMBERS = {
    ReductionKind.BONDAGE: bondage_number,
    ReductionKind.TOTAL_BONDAGE: total_bondage_number,
    ReductionKind.REINFORCEMENT: reinforcement_number,
    ReductionKind.TOTAL_REINFORCEMENT: total_reinforcement_number,
}


@pytest.fixture
def first_hits(monkeypatch):
    """Every ``_first_hit`` scan ``verify`` runs, the library's and the sweep's, by its search's class."""
    scans = []

    def counted(search, max_k):
        scans.append(type(search).__name__)
        return _first_hit(search, max_k)

    monkeypatch.setattr(perturbation, "_first_hit", counted)
    monkeypatch.setattr(verify_module, "_first_hit", counted)
    return scans


@pytest.fixture
def certificates(monkeypatch):
    """``_certifies_one``'s verdicts, in call order."""
    verdicts = []

    def recorded(*args):
        verdicts.append(_certifies_one(*args))
        return verdicts[-1]

    monkeypatch.setattr(verify_module, "_certifies_one", recorded)
    return verdicts


def scan_path_lines(monkeypatch, kind, inst):
    """The report with every certificate check failing, so that ``verify`` scans."""
    with monkeypatch.context() as patch:
        patch.setattr(verify_module, "_certifies_one", lambda *args: False)
        return verify(kind, inst).to_lines()


# Random satisfiable instances, n = 3..6 at m = 2n.
SAT_CORPUS = [
    inst
    for n in range(3, 7)
    for inst in [random_instance(n, 2 * n, seed) for seed in range(3)]
    if solve_sat(inst) is not None
]


@pytest.mark.parametrize("kind", list(ReductionKind))
def test_certificate_gives_the_scans_report(monkeypatch, first_hits, certificates, kind):
    """On satisfiable instances the certificate holds, no scan but the sweep runs, and the bytes are the scan's."""
    assert len(SAT_CORPUS) >= 10
    for inst in SAT_CORPUS:
        first_hits.clear()
        report = verify(kind, inst)
        assert report.passed and report.perturbation_value == 1
        assert first_hits == (["RemovalSearch"] if kind in REMOVAL_KINDS else []), inst
        assert report.to_lines() == scan_path_lines(monkeypatch, kind, inst)
    assert certificates == [True] * len(SAT_CORPUS)


def anchor_edges_not_hit(kind, inst):
    """Anchor-edge candidates that no certificate may accept.

    Every edge of the gadget that ``hit`` rejects at gamma (gamma_t),
    checked against a graph copy: its removal keeps a cover within it
    or, in the total variant, isolates a vertex, as removing s5-s6
    isolates s6 (not a hit, but no cover survives it either); and an
    edge the gadget lacks.
    """
    total = kind is ReductionKind.TOTAL_BONDAGE
    g = build(kind, inst).graph
    param = (total_domination_number if total else domination_number)(g).value
    search = RemovalSearch(g, total, param)
    kept = []
    for edge in search.candidates:
        covers = removal_covers(g.remove_edges([edge]), total, param)
        assert search.hit((edge,)) == (covers is False), (kind, edge)
        if covers is not False:
            kept.append(edge)
    assert (("s5", "s6") in kept) == total
    return tuple(kept) + (("s1", "s3"),)


@pytest.mark.parametrize("kind", REMOVAL_KINDS)
def test_removal_certificate_that_is_not_a_hit_falls_back_to_the_scan(monkeypatch, first_hits, certificates, kind):
    """With only non-hits as anchor edges, ``verify`` scans, and reports the library's value."""
    row = reductions._SPECS[kind]
    for inst in (TINY, random_instance(4, 8, 1)):
        unpatched = verify(kind, inst).to_lines()
        first_hits.clear()
        with monkeypatch.context() as patch:
            # The builder keeps the true row: only the certificate's candidates change.
            patch.setattr(verify_module, "_SPECS", {kind: row._replace(anchor_edges=anchor_edges_not_hit(kind, inst))})
            report = verify(kind, inst)
        assert certificates[-1] is False
        assert first_hits == ["RemovalSearch", "RemovalSearch"]  # the scan, then the sweep
        g = build(kind, inst).graph
        assert report.perturbation_value == PERTURBATION_NUMBERS[kind](g, max_k=2).value == 1
        assert report.to_lines() == unpatched


@pytest.mark.parametrize(
    "kind, anchor_edges",
    [(ReductionKind.TOTAL_BONDAGE, (("s5", "s6"),)), (ReductionKind.BONDAGE, ())],
    ids=["isolating", "empty"],
)
def test_removal_certificate_guards_fall_back_to_the_scan(monkeypatch, first_hits, certificates, kind, anchor_edges):
    """A row whose one edge isolates a vertex, or an empty row, certifies nothing: ``verify`` scans, bytes unchanged.

    Removing s5-s6 leaves s6 with no neighbour, so a search on those
    masks finds no total dominating set at all; the removal does not
    qualify, so the certificate must not read that as a hit.  Only
    ``verify``'s view of the table changes, so the gadget is the true one.
    """
    total = kind is ReductionKind.TOTAL_BONDAGE
    rows = verify_module._SPECS
    for inst in (TINY, random_instance(4, 8, 1)):
        unpatched = verify(kind, inst)
        g = build(kind, inst).graph
        masks, _ = _toggled(g, _cover_masks(g, total), anchor_edges)
        # What the certificate would read without the guard.
        assert (_search(tuple(masks), unpatched.parameter_value) is None) == bool(anchor_edges)
        first_hits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(verify_module, "_SPECS", {**rows, kind: rows[kind]._replace(anchor_edges=anchor_edges)})
            report = verify(kind, inst)
        assert certificates[-1] is False
        assert first_hits == ["RemovalSearch", "RemovalSearch"]  # the scan, then the sweep
        assert report.to_lines() == unpatched.to_lines()


@pytest.mark.parametrize("kind", REINFORCEMENT_KINDS)
@pytest.mark.parametrize("corruption", ["drop", "pad"])
def test_reinforcement_certificate_that_fails_falls_back_to_the_scan(
    monkeypatch, first_hits, certificates, kind, corruption
):
    """A witness that misses a vertex of G+e, or is not smaller than the parameter, makes ``verify`` scan."""
    for inst in (TINY, random_instance(4, 8, 1)):
        out = build(kind, inst)
        true = reductions.assignment_to_witness(out, solve_sat(inst))
        # Without variable 1's literal the set misses part of its gadget; with c1 it is as large as gamma.
        vertices = true.vertices - {"u1", "nu1"} if corruption == "drop" else true.vertices | {"c1"}
        corrupted = reductions.GadgetWitness(vertices, true.added_edge)
        monkeypatch.setattr(verify_module, "assignment_to_witness", lambda out, assignment: corrupted)
        first_hits.clear()
        report = verify(kind, inst)
        assert certificates[-1] is False
        assert first_hits == ["AdditionSearch"]
        assert report.perturbation_value == PERTURBATION_NUMBERS[kind](out.graph, max_k=1).value == 1
        round_trip = next(c for c in report.claims if c.claim_id == "witness-round-trip")
        assert not round_trip.passed
        assert round_trip.observed.endswith(f"dominating: {corruption == 'pad'}")


@pytest.mark.parametrize("kind", REINFORCEMENT_KINDS)
def test_round_trip_reads_the_cover_masks(monkeypatch, kind):
    """The witness round trip, read off the gadget's cover masks with the added edge's bits set, is G+e's verdict.

    The assignment's set dominates G+e; with any one vertex dropped it is
    smaller than gamma (gamma_t) of G+e and does not.  ``verify`` makes
    no graph copy for the check.
    """
    total = kind is ReductionKind.TOTAL_REINFORCEMENT
    dominates = is_total_dominating_set if total else is_dominating_set

    def copied(*args):
        raise AssertionError("verify copied the graph")

    for inst in SAT_CORPUS:
        out = build(kind, inst)
        g, cover = out.graph, _cover_masks(out.graph, total)
        true = reductions.assignment_to_witness(out, solve_sat(inst))
        augmented = g.add_edges([true.added_edge])
        assert _dominates_with(g, cover, true) is dominates(augmented, true.vertices) is True
        for v in sorted(true.vertices):
            dropped = reductions.GadgetWitness(true.vertices - {v}, true.added_edge)
            assert _dominates_with(g, cover, dropped) is dominates(augmented, dropped.vertices) is False, v
        with monkeypatch.context() as patch:
            for method in ("add_edges", "remove_edges"):
                patch.setattr(Graph, method, copied)
            report = verify(kind, inst)
        round_trip = next(c for c in report.claims if c.claim_id == "witness-round-trip")
        assert round_trip.passed and round_trip.observed.endswith("dominating: True")


@pytest.mark.parametrize("kind", REINFORCEMENT_KINDS)
def test_reinforcement_certificate_needs_a_parameter_above_the_floor(kind):
    """At the floor no edge lowers the parameter (value 0), so even an empty dominating witness proves nothing."""
    total = kind is ReductionKind.TOTAL_REINFORCEMENT
    out = build(kind, TINY)
    floor = 2 if total else 1
    witness = reductions.GadgetWitness(frozenset(), ("s1", "u1"))
    cover = _cover_masks(out.graph, total)
    assert not _certifies_one(out, total, floor, witness, True, cover)
    assert _certifies_one(out, total, floor + 1, witness, True, cover)


# Rows that move the parameter off the exact bound on a satisfiable instance:
# one above it, where the bondage kinds read the scan's witness.
OFF_EXACT_ROWS = {
    ReductionKind.BONDAGE: lambda row: row._replace(anchor_edges=row.anchor_edges[1:]),
    ReductionKind.TOTAL_BONDAGE: lambda row: row._replace(anchor_edges=row.anchor_edges[:3] + row.anchor_edges[4:]),
    ReductionKind.TOTAL_REINFORCEMENT: lambda row: row._replace(anchor_edges=row.anchor_edges[1:]),
}


@pytest.mark.parametrize("kind", list(OFF_EXACT_ROWS))
def test_report_off_the_exact_bound_is_the_scans(monkeypatch, certificates, kind):
    """Away from the exact bound the report is the scan path's, byte for byte; the bondage kinds do not ask."""
    monkeypatch.setitem(reductions._SPECS, kind, OFF_EXACT_ROWS[kind](reductions._SPECS[kind]))
    total = kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
    for inst in (TINY, random_instance(4, 8, 1)):
        report = verify(kind, inst)
        assert report.satisfiable and report.parameter_value == 2 * inst.num_vars + 2 + total
        assert report.to_lines() == scan_path_lines(monkeypatch, kind, inst)
    if kind in REMOVAL_KINDS:
        assert certificates == []


# Rows of total bondage's lemma: the true one, rows that some minimum set of
# every unsatisfiable gadget below breaks, and one that every set meets.
LEMMA_ROWS = [
    {}, {"held": ("s4",)}, {"held": ("s6",)}, {"held": ("s5", "s1")},
    {"one_of": ("v",)}, {"one_of": ("q",)}, {"one_of": ("p", "v", "q")},
]


@pytest.mark.parametrize("m", [13, 14])
def test_refuted_facts_match_enumeration(monkeypatch, m):
    """Above the exact bound, the decides' verdict is enumeration's, and a named violation is one a set shows."""
    kind = ReductionKind.TOTAL_BONDAGE
    row = reductions._SPECS[kind]
    unsat = [inst for inst in (random_instance(3, m, seed) for seed in range(40)) if solve_sat(inst) is None][:4]
    assert len(unsat) == 4
    verdicts = []
    for inst in unsat:
        g = build(kind, inst).graph
        param = total_domination_number(g).value
        assert param == 2 * 3 + 3  # one above the exact bound
        for mutant in LEMMA_ROWS:
            monkeypatch.setitem(reductions._SPECS, kind, row._replace(**mutant))
            out = build(kind, inst)  # its shape is read from the row once
            expected = reference_structure_violations(out, at_exact=False)
            violation = _every_bound_violation(out, _cover_masks(g, True), param)
            assert (violation is None) == (not expected), (inst, mutant)
            assert violation is None or violation in expected, (inst, mutant, violation)
            verdicts.append(violation is None)
    assert verdicts.count(True) == 2 * len(unsat)  # the true row and the weaker one


# Bondage-kind gadgets with one edge dropped, for which a single-edge removal
# breaks the bound exact + 1 on UNSAT8: a hexagon edge, an anchor edge.
BROKEN_ROWS = {
    ReductionKind.BONDAGE: lambda row: row._replace(part=row.part._replace(edges=row.part.edges[1:])),
    ReductionKind.TOTAL_BONDAGE: lambda row: row._replace(anchor_edges=row.anchor_edges[1:]),
}


@pytest.mark.parametrize("broken", [False, True], ids=["gadget", "edge-dropped"])
@pytest.mark.parametrize("kind", list(BROKEN_ROWS))
def test_edge_removal_claim_read_off_the_scan_matches_the_sweep(monkeypatch, kind, broken):
    """At gamma = exact + 1 the claim names the sweep's first breaking edge, or counts its qualifying removals."""
    if broken:
        monkeypatch.setitem(reductions._SPECS, kind, BROKEN_ROWS[kind](reductions._SPECS[kind]))
    total = kind is ReductionKind.TOTAL_BONDAGE
    exact = 2 * UNSAT8.num_vars + 1 + total
    g = build(kind, UNSAT8).graph
    dom = (total_domination_number if total else domination_number)(g)
    assert dom.value == exact + 1
    edge, swept = TestRemovalSweep.sweep(RemovalSearch(g, total, exact + 1, kept=[dom.witness]), total)
    assert (edge is not None) == broken
    entry = next(c for c in verify(kind, UNSAT8).claims if c.claim_id == "edge-removal-bound")
    assert entry.passed == (edge is None)
    assert entry.observed == (f"all {swept} removals within bound" if edge is None else f"removing {edge} exceeds it")


class TestRemovalSweep:
    """The edge-removal sweep, ``_first_hit(search, 1)`` and ``_qualifying_removals``, against one graph copy per edge."""

    @staticmethod
    def sweep(search, total):
        """(first qualifying edge whose removal breaks ``search.base`` or None, qualifying count)."""
        first = _first_hit(search, 1)
        return (first.witness[0] if first.value == 1 else None), _qualifying_removals(search.graph, total)

    @staticmethod
    def copy_sweep(g, total, bound):
        """(first qualifying edge whose removal breaks the bound or None, qualifying count)."""
        first, count = None, 0
        for edge in sorted(g.edges):
            covers = removal_covers(g.remove_edges([edge]), total, bound)
            if covers is None:
                continue
            count += 1
            if first is None and not covers:
                first = edge
        return first, count

    @pytest.mark.parametrize(
        "g, total, broken",
        [
            (PATH5, False, ("a", "b")),
            (PATH5, True, ("b", "c")),
            (STAR, False, ("c", "l1")),
            (STAR, True, None),  # every removal isolates a leaf
        ],
    )
    def test_bound_at_the_parameter_reports_the_first_breaking_edge(self, g, total, broken):
        dom = (total_domination_number if total else domination_number)(g)
        edge, _ = self.sweep(RemovalSearch(g, total, dom.value, kept=[dom.witness]), total)
        assert edge == broken == self.copy_sweep(g, total, dom.value)[0]

    @pytest.mark.parametrize("total", [False, True])
    @pytest.mark.parametrize(
        "g",
        [
            PATH5,
            STAR,
            Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
            # An edge between two leaves, beside a triangle with a pendant.
            Graph("abcdef", [("a", "b"), ("c", "d"), ("d", "e"), ("e", "c"), ("e", "f")]),
        ],
    )
    def test_count_is_the_qualifying_removals(self, g, total):
        dom = (total_domination_number if total else domination_number)(g)
        search = RemovalSearch(g, total, dom.value + 1, kept=[dom.witness])
        assert self.sweep(search, total) == self.copy_sweep(g, total, dom.value + 1)

    def test_total_count_skips_removals_that_isolate_a_leaf(self):
        dom = total_domination_number(PATH5)
        assert self.sweep(RemovalSearch(PATH5, True, dom.value + 1, kept=[dom.witness]), True) == (None, 2)

    @given(isolated_free_graphs(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_count_is_the_searchs_qualifying_edges(self, g, total):
        """``_qualifying_removals``, the edges with no leaf end, counts the single-edge removals that qualify.

        A removal qualifies when its graph copy has no isolated vertex
        (total variant), and ``hit`` accepts exactly those that qualify
        and whose copy keeps no cover within the parameter.
        """
        limit = (total_domination_number if total else domination_number)(g).value
        search = RemovalSearch(g, total, limit)
        qualifying = 0
        for edge in search.candidates:
            covers = removal_covers(g.remove_edges([edge]), total, limit)
            assert search.hit((edge,)) == (covers is False), (total, edge, g.edges)
            qualifying += covers is not None
        assert _qualifying_removals(g, total) == qualifying


class TestReportShape:
    def test_json_fields(self, fig_instance):
        report = verify(ReductionKind.BONDAGE, fig_instance)
        data = report.to_dict()
        assert data["kind"] == "bondage"
        assert data["n"] == 4 and data["m"] == 3
        assert data["seed"] is None
        assert data["sat"] is True
        assert data["gamma"] == 9
        assert data["perturbation"] == 1
        assert data["deep_checked"] is False
        assert isinstance(data["elapsed_ms"], float)
        for entry in data["claims"]:
            assert set(entry) == {"id", "expected", "observed", "pass"}

    def test_total_kinds_use_gamma_t_key(self, fig_instance):
        data = verify(ReductionKind.TOTAL_BONDAGE, fig_instance).to_dict()
        assert "gamma_t" in data and "gamma" not in data

    def test_lines_render_failures(self):
        report = VerificationReport(
            kind=ReductionKind.BONDAGE,
            num_vars=3,
            num_clauses=1,
            satisfiable=True,
            parameter_name="gamma",
            parameter_value=7,
            perturbation_name="b",
            perturbation_value=2,
            deep_checked=False,
            elapsed_ms=1.0,
            claims=[ClaimCheck("made-up", "x", "y", False)],
        )
        assert not report.passed
        text = "\n".join(report.to_lines())
        assert "[FAIL] made-up" in text
        assert text.endswith("result: FAIL")


class TestFuzz:
    def test_zero_trials(self):
        assert fuzz(ReductionKind.BONDAGE, 3, 2, 0, 1) == []

    def test_deterministic_in_seed(self):
        first = fuzz(ReductionKind.REINFORCEMENT, 3, 3, 4, 99)
        second = fuzz(ReductionKind.REINFORCEMENT, 3, 3, 4, 99)

        def strip(reports):
            out = []
            for r in reports:
                d = r.to_dict()
                d.pop("elapsed_ms")
                out.append(d)
            return out

        assert strip(first) == strip(second)

    def test_all_trials_pass_and_carry_seeds(self):
        reports = fuzz(ReductionKind.TOTAL_BONDAGE, 3, 4, 6, 5)
        assert len(reports) == 6
        for r in reports:
            assert r.passed
            assert r.seed is not None
            # the recorded seed regenerates the same instance summary
            inst = random_instance(3, 4, r.seed)
            assert (inst.num_vars, inst.num_clauses) == (r.num_vars, r.num_clauses)

    def test_parallel_matches_serial(self):
        serial = fuzz(ReductionKind.BONDAGE, 3, 3, 4, 7, jobs=1)
        parallel = fuzz(ReductionKind.BONDAGE, 3, 3, 4, 7, jobs=2)
        assert [r.seed for r in serial] == [r.seed for r in parallel]
        assert [r.passed for r in serial] == [r.passed for r in parallel]
        assert [r.parameter_value for r in serial] == [r.parameter_value for r in parallel]

    def test_workers_never_outnumber_trials(self, monkeypatch):
        # A serial stand-in for the pool: it records how many workers fuzz
        # asks for, and starts no process.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        reports = fuzz(ReductionKind.BONDAGE, 3, 3, 2, 7, jobs=64)
        assert asked == [2]
        serial = fuzz(ReductionKind.BONDAGE, 3, 3, 2, 7)
        assert [r.to_lines() for r in reports] == [r.to_lines() for r in serial]

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariablesError):
            fuzz(ReductionKind.BONDAGE, 2, 3, 1, 0)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(CnfError, match="jobs"):
            fuzz(ReductionKind.BONDAGE, 3, 2, 2, 1, jobs=jobs)

    def test_negative_trials(self):
        with pytest.raises(CnfError, match="trials"):
            fuzz(ReductionKind.BONDAGE, 3, 5, -3, 1)

    @pytest.mark.parametrize("trials", [0, 2])
    def test_negative_clause_count(self, trials):
        with pytest.raises(CnfError, match="clauses"):
            fuzz(ReductionKind.BONDAGE, 3, -1, trials, 1)

    def test_string_kind_accepted(self):
        reports = fuzz("reinforcement", 3, 2, 2, 3)
        assert all(r.kind is ReductionKind.REINFORCEMENT for r in reports)


def test_import_does_not_load_the_process_pool():
    src = str(Path(domkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, domkit; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_runtime_uses_only_the_standard_library():
    # -S leaves site-packages off sys.path and -E ignores PYTHONPATH, so only
    # the standard library and ``src`` can be imported.
    src = str(Path(domkit.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import domkit, domkit.cli\n"
        "from domkit import CnfInstance, ReductionKind, verify\n"
        "for kind in ReductionKind:\n"
        "    assert verify(kind, CnfInstance(3, ((1, 2, 3),)), deep=True).passed, kind\n"
        "print('ok')"
    )
    out = subprocess.run([sys.executable, "-S", "-E", "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
