import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from domkit import domination, perturbation
from domkit.cnf import random_instance
from domkit.domination import (
    DomResult,
    IsolatedVertexError,
    _search,
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from domkit.graph import Graph, iter_bits
from domkit.perturbation import (
    AdditionSearch,
    EmptyGraphError,
    PerturbResult,
    RemovalSearch,
    _first_hit,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from domkit.reductions import build
from oracles import (
    brute_bondage,
    brute_solve,
    brute_reinforcement,
    brute_total_bondage,
    brute_total_reinforcement,
    complete_graph,
    cycle_graph,
    oracle_dominates,
    path_graph,
    random_graph,
    removal_covers,
    scan_perturbation,
    star_graph,
)
from strategies import graphs, isolated_free_graphs


class TestBondage:
    def test_single_edge(self):
        g = Graph(["a", "b"], [("a", "b")])
        result = bondage_number(g)
        assert result.value == 1
        assert result.witness == (("a", "b"),)
        assert result.base == 1

    def test_cycle4(self):
        assert brute_bondage(cycle_graph(4)) == 3
        assert bondage_number(cycle_graph(4)).value == 3

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            bondage_number(Graph(["a", "b"], []))

    def test_max_k_exceeded(self):
        result = bondage_number(cycle_graph(4), max_k=2)
        assert result.is_undefined
        assert result.witness is None

    def test_default_cap_above_12_edges(self):
        # K6 has 15 edges and bondage value 3: the default depth cap of 2 kicks in
        k6 = complete_graph(6)
        assert bondage_number(k6).is_undefined
        assert bondage_number(k6, max_k=3).value == 3

    @given(graphs(min_vertices=2, max_vertices=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        if not g.edges:
            return
        result = bondage_number(g, max_k=g.num_edges)
        assert result.value == brute_bondage(g)

    @given(graphs(min_vertices=2, max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_exact_and_minimal(self, g):
        if not g.edges:
            return
        result = bondage_number(g, max_k=g.num_edges)
        base = result.base
        assert domination_number(g).value == base
        assert result.witness is not None
        assert set(result.witness) <= set(g.edges)
        assert domination_number(g.remove_edges(result.witness)).value == base + 1
        for r in range(len(result.witness)):
            for sub in combinations(result.witness, r):
                assert domination_number(g.remove_edges(sub)).value == base


class TestTotalBondage:
    def test_path4_middle_edge(self):
        result = total_bondage_number(path_graph(4))
        assert brute_total_bondage(path_graph(4)) == 1
        assert result.value == 1
        assert result.witness == (("x2", "x3"),)
        assert result.base == 2

    def test_star_is_undefined(self):
        assert brute_total_bondage(star_graph(3)) is None
        result = total_bondage_number(star_graph(3))
        assert result.is_undefined
        assert result.base == 2

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            total_bondage_number(Graph(["a", "b", "c"], [("a", "b")]))

    @pytest.mark.parametrize("g", [Graph([], []), Graph(["a", "b"], [])], ids=["null", "edgeless"])
    def test_no_edges_rejected(self, g):
        # like bondage, total bondage is defined only for graphs with edges
        with pytest.raises(EmptyGraphError, match="^total bondage needs at least one edge$"):
            total_bondage_number(g)
        with pytest.raises(EmptyGraphError, match="^bondage needs at least one edge$"):
            bondage_number(g)

    @given(isolated_free_graphs(max_vertices=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, g):
        result = total_bondage_number(g, max_k=g.num_edges)
        assert result.value == brute_total_bondage(g)

    @given(isolated_free_graphs(max_vertices=6))
    @settings(max_examples=30, deadline=None)
    def test_witness_leaves_no_isolated_vertex(self, g):
        # unlike plain domination, a single removal can raise the total
        # parameter by more than one, so only strict growth is guaranteed
        result = total_bondage_number(g, max_k=g.num_edges)
        if result.witness is None:
            return
        reduced = g.remove_edges(result.witness)
        assert not reduced.isolated_vertices()
        assert total_domination_number(reduced).value > result.base


class TestReinforcement:
    def test_star_is_already_minimum(self):
        result = reinforcement_number(star_graph(3))
        assert result.is_zero
        assert result.value == 0
        assert result.witness is None
        assert result.base == 1

    def test_path4(self):
        assert brute_reinforcement(path_graph(4)) == 1
        result = reinforcement_number(path_graph(4))
        assert result.value == 1
        # first success in lexicographic order: x3 covers everything once tied to x1
        assert result.witness == (("x1", "x3"),)

    @given(graphs(max_vertices=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        result = reinforcement_number(g, max_k=g.num_vertices**2)
        assert (result.value or 0) == brute_reinforcement(g)

    @given(graphs(max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_exact_and_minimal(self, g):
        result = reinforcement_number(g, max_k=g.num_vertices**2)
        if not result.witness:
            return
        base = result.base
        assert set(result.witness) <= set(g.complement_edges())
        assert domination_number(g.add_edges(result.witness)).value == base - 1
        for r in range(len(result.witness)):
            for sub in combinations(result.witness, r):
                assert domination_number(g.add_edges(sub)).value == base


class TestTotalReinforcement:
    def test_path3_at_floor(self):
        result = total_reinforcement_number(path_graph(3))
        assert result.is_zero
        assert result.base == 2

    def test_cycle6(self):
        assert brute_total_reinforcement(cycle_graph(6)) == 1
        result = total_reinforcement_number(cycle_graph(6))
        assert result.value == 1
        assert result.base == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            total_reinforcement_number(Graph(["a", "b", "c"], [("a", "b")]))

    @given(isolated_free_graphs(max_vertices=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, g):
        result = total_reinforcement_number(g, max_k=g.num_vertices**2)
        assert (result.value or 0) == brute_total_reinforcement(g)


class TestSeededSweep:
    def test_random_graphs_agree_with_brute_force(self):
        rng = random.Random(20240817)
        for trial in range(25):
            g = random_graph(rng, rng.randint(3, 6), rng.uniform(0.25, 0.7))
            if g.edges:
                assert bondage_number(g, max_k=g.num_edges).value == brute_bondage(g), trial
            assert (reinforcement_number(g, max_k=20).value or 0) == brute_reinforcement(g), trial
            if not g.isolated_vertices() and g.num_vertices >= 2:
                assert total_bondage_number(g, max_k=g.num_edges).value == brute_total_bondage(g), trial
                assert (total_reinforcement_number(g, max_k=20).value or 0) == brute_total_reinforcement(
                    g
                ), trial


class ScriptedSearch:
    """A search for ``_first_hit`` with five candidates, a fixed table of rows, and a ``hit`` that records its calls.

    The candidates are the edges of the path a-b-c-d-e-f, by endpoint
    indices; ``row`` and ``hit`` see only their positions.
    """

    ends = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    base = 7
    # Bits over the candidate positions; a prefix missing here leaves every candidate open.
    rows = {(): 0b10110, (1,): 0b00100, (0, 2): 0b01000}

    def __init__(self, num_edges, accept=None):
        self.graph = SimpleNamespace(num_edges=num_edges, vertices=tuple("abcdef"))
        self.accept = accept
        self.asked = []

    def row(self, prefix):
        return self.rows.get(prefix, -1)

    def hit(self, edges):
        self.asked.append(edges)
        return edges == self.accept


def scripted_order(max_k):
    """Sets of at most ``max_k`` candidate positions whose last is open in the others' row, by size, then lexicographically."""
    return [
        chosen
        for k in range(1, max_k + 1)
        for chosen in combinations(range(5), k)
        if ScriptedSearch.rows.get(chosen[:-1], -1) >> chosen[-1] & 1
    ]


class TestFirstHit:
    """``_first_hit`` on its own, through the scan protocol: ``ends``, ``row``, ``hit`` and ``base``."""

    def test_hit_sees_only_open_sets_in_scan_order(self):
        search = ScriptedSearch(num_edges=5)
        assert _first_hit(search, 3) == PerturbResult(None, None, 7)
        assert search.asked == scripted_order(3)
        assert search.asked == sorted(search.asked, key=lambda edges: (len(edges), edges))
        # the rows closed 0 and 3 alone, 1's partners but 2, and every last candidate after 0, 2 but 3
        assert {(0,), (3,), (1, 3), (1, 4), (0, 2, 4)}.isdisjoint(search.asked)
        assert {(1,), (1, 2), (0, 2, 3), (0, 3, 4)} <= set(search.asked)

    def test_first_accepted_set_comes_back_with_the_base(self):
        """``hit`` is asked positions; the witness names the accepted set's edges by their labels."""
        search = ScriptedSearch(num_edges=5, accept=(0, 2, 3))
        assert _first_hit(search, None) == PerturbResult(3, (("a", "b"), ("c", "d"), ("d", "e")), 7)
        order = scripted_order(3)
        assert search.asked == order[: order.index((0, 2, 3)) + 1]

    @pytest.mark.parametrize("num_edges, sizes", [(12, 5), (13, 2)])
    def test_unbounded_scan_tries_every_size_only_on_small_graphs(self, num_edges, sizes):
        search = ScriptedSearch(num_edges)
        assert _first_hit(search, None) == PerturbResult(None, None, 7)
        assert search.asked == scripted_order(sizes)


def sat_and_unsat_instances():
    """The first satisfiable and the first unsatisfiable random n=3, m=13 instance."""
    instances = [random_instance(3, 13, seed) for seed in range(20)]
    sat = next(inst for inst in instances if brute_solve(inst) is not None)
    unsat = next(inst for inst in instances if brute_solve(inst) is None)
    return sat, unsat


SOLVERS = {
    "bondage": bondage_number,
    "total-bondage": total_bondage_number,
    "reinforcement": reinforcement_number,
    "total-reinforcement": total_reinforcement_number,
}


def test_start_replaces_the_parameter_solve(monkeypatch):
    """Given the graph's own (total) domination result, no kind solves it again, and none answers differently."""
    rng = random.Random(2014)
    pool = [random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.7)) for _ in range(30)]
    pool = [g for g in pool if g.edges and not g.isolated_vertices()]
    expected = [{kind: solve(g) for kind, solve in SOLVERS.items()} for g in pool]
    starts = [(domination_number(g), total_domination_number(g)) for g in pool]

    def unexpected(*args):
        raise AssertionError("the parameter was solved again")

    monkeypatch.setattr(domination, "_minimum_cover", unexpected)
    for g, results, (gamma, gamma_t) in zip(pool, expected, starts):
        for kind, solve in SOLVERS.items():
            start = gamma_t if kind.startswith("total-") else gamma
            assert solve(g, start=start) == results[kind], (kind, g.edges)


@pytest.mark.parametrize("kind", list(SOLVERS))
def test_max_k_below_one_is_rejected_before_any_search(monkeypatch, kind):
    """A size cap of 0 or less raises ValueError, not the "undefined" of an empty scan, and solves nothing."""

    def unexpected(*args, **kwargs):
        raise AssertionError("searched")

    for name in ("domination_number", "total_domination_number", "_search"):
        monkeypatch.setattr(perturbation, name, unexpected)
    for max_k in (0, -2):
        with pytest.raises(ValueError, match=f"^max_k must be positive, got {max_k}$"):
            SOLVERS[kind](path_graph(5), max_k=max_k)


def test_parameter_does_not_depend_on_the_seed(minimum_cover_calls):
    """Without ``start`` each kind solves the parameter once, and answers as from any other minimum set.

    Only the removal kinds read the witness, as a seed for
    ``RemovalSearch``, where any minimum set serves.  Each case is
    answered again from ``start``, seeded with a minimum set other than
    the solved witness where the graph has one, as on the bondage gadgets
    of small satisfiable instances.
    """
    rng = random.Random(2014)
    pool = [random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.7)) for _ in range(30)]
    cases = [(g, kind) for g in pool if g.edges and not g.isolated_vertices() for kind in SOLVERS]
    cases += [
        (build(kind, random_instance(n, 2 * n, seed)).graph, kind)
        for kind in ("bondage", "total-bondage")
        for n in (3, 4, 5)
        for seed in range(3)
    ]
    parameter = {kind: total_domination_number if kind.startswith("total-") else domination_number for kind in SOLVERS}
    differing = 0
    for g, kind in cases:
        total = kind.startswith("total-")
        minimum_cover_calls.clear()
        result = SOLVERS[kind](g)
        assert len(minimum_cover_calls) == 1, kind
        solved = parameter[kind](g)
        seed = next((s for s in enumerate_minimum_sets(g, total) if s != solved.witness), solved.witness)
        differing += seed != solved.witness
        assert SOLVERS[kind](g, start=DomResult(solved.value, seed)) == result, (kind, g.edges)
    assert differing >= 5


def test_witnesses_match_reference_scan():
    """Value, witness and base equal the plain edge-subset scan's, for every kind.

    Gadgets of a satisfiable and an unsatisfiable instance put both
    directions of the "perturbation is 1 iff satisfiable" claims through
    the solvers.  On the unsatisfiable gadget total reinforcement runs
    up to two edges, which also puts the joined-mask search of edge
    pairs against the copied graphs.  Plain reinforcement stops at one
    edge there: its two-edge scan tries ~90,000 sets, ~25 s for both
    sides.
    """

    def check(g, kind, max_k):
        got = SOLVERS[kind](g, max_k=max_k)
        assert (got.value, got.witness, got.base) == scan_perturbation(g, kind, max_k), (kind, max_k, g.edges)

    rng = random.Random(20261017)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.8))
        for kind in SOLVERS:
            if (kind == "bondage" and not g.edges) or (kind.startswith("total-") and g.isolated_vertices()):
                continue
            for max_k in (1, 2, None):
                check(g, kind, max_k)

    sat, unsat = sat_and_unsat_instances()
    for kind in SOLVERS:
        for max_k in (1, 2, None):
            check(build(kind, sat).graph, kind, max_k)
        for max_k in {"reinforcement": (1,), "total-reinforcement": (1, 2)}.get(kind, (1, 2, None)):
            check(build(kind, unsat).graph, kind, max_k)


def assert_single_additions_match(g, total, base):
    """Every missing edge, decided by ``AdditionSearch.hit``, equals the search below ``base`` on a copied graph."""
    within = has_total_dominating_set_within if total else has_dominating_set_within
    additions = AdditionSearch(g, total, base)
    for e, edge in enumerate(g.complement_edges()):
        expected = within(g.add_edges([edge]), base - 1)
        assert additions.hit((e,)) == expected, (total, edge, g.edges)


def removal_searches(g, total, start):
    """(limit, search) pairs around the parameter of ``start``, unseeded and seeded.

    Seeded one pick below its limit, it reaches the slack rows and the
    repair of kept covers; seeded with the witness plus one vertex, a
    cover that is not minimum, at its limit; seeded above its limit,
    the witness must not vouch for any removal.
    """
    base = start.value
    removals = [(limit, RemovalSearch(g, total, limit)) for limit in range(base - 1, base + 2)]
    for limit in (base + 1, base - 1):
        removals.append((limit, RemovalSearch(g, total, limit, kept=[start.witness])))
    extra = next((v for v in g.vertices if v not in start.witness), None)
    if extra is not None:
        removals.append((base + 1, RemovalSearch(g, total, base + 1, kept=[start.witness | {extra}])))
    return removals


def assert_kept_covers_dominate(g, total, removals):
    """Every cover a search kept, seeded, found, repaired or pruned, dominates G."""
    for limit, search in removals:
        for mask in search._kept:
            assert oracle_dominates(g, map(g.label_at, iter_bits(mask)), total), (total, limit, mask, g.edges)


def test_single_edge_searches_match_graph_copies():
    """Every edge, decided on masks, equals the search on a copied graph.

    Unlike the first-hit scans, this runs past hits, so it reaches the
    reuse of covers and partner sets found by earlier edges.  An
    addition's ``hit`` asks below the parameter; a removal's, at every
    limit around it, accepts a removal exactly when it isolates no
    vertex (total variant) and the copy keeps no cover within the limit.
    """
    rng = random.Random(1990)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.7))
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            start = total_domination_number(g) if total else domination_number(g)
            assert_single_additions_match(g, total, start.value)
            removals = removal_searches(g, total, start)
            for e, edge in enumerate(sorted(g.edges)):
                reduced = g.remove_edges([edge])
                for limit, search in removals:
                    expected = removal_covers(reduced, total, limit) is False
                    assert search.hit((e,)) == expected, (total, edge, limit, g.edges)
            assert_kept_covers_dominate(g, total, removals)


def test_single_edge_additions_match_graph_copies_on_gadgets(monkeypatch):
    """The single-edge addition searches on reinforcement gadgets equal copied-graph searches.

    On the total reinforcement gadgets the dead-vertex masks of
    ``AdditionSearch`` settle cases without a search, so this also puts
    them against the copies: with the masks, the same answers take fewer
    searches than without.
    """
    sat, unsat = sat_and_unsat_instances()
    searches = []

    def counted(*args, **kwargs):
        searches.append(None)
        return _search(*args, **kwargs)

    monkeypatch.setattr(perturbation, "_search", counted)
    dead_with = AdditionSearch._dead_with
    for kind, total in (("reinforcement", False), ("total-reinforcement", True)):
        for inst in (sat, unsat):
            g = build(kind, inst).graph
            base = (total_domination_number(g) if total else domination_number(g)).value
            counts = []
            for masks in (dead_with, lambda self, x: 0):
                monkeypatch.setattr(AdditionSearch, "_dead_with", masks)
                searches.clear()
                assert_single_additions_match(g, total, base)
                counts.append(len(searches))
            # The masks fire only in the total variant; on the plain gadgets no vertex is dead.
            assert counts[0] < counts[1] if total else counts[0] == counts[1], (kind, counts)


def test_missing_both_only_in_the_total_variant_above_2():
    """``missing_both`` gives masks only in the total variant with ``base`` above 2.

    In the closed variant u and v dominate themselves, so no set holds
    both and misses both; at ``base`` at most 2 a set below it has no
    room for both.  In either case the answer is None for every missing
    edge.
    """
    rng = random.Random(1991)
    graphs = [random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.7)) for _ in range(120)]
    graphs += [star_graph(4), path_graph(4), path_graph(6), cycle_graph(6)]
    graphs += [build(kind, inst).graph for kind in ("reinforcement", "total-reinforcement")
               for inst in sat_and_unsat_instances()]
    asked = {"closed": 0, "total, base <= 2": 0}
    masks_given = 0
    for g in graphs:
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            base = (total_domination_number(g) if total else domination_number(g)).value
            additions = AdditionSearch(g, total, base)
            got = [additions.missing_both(u, v) for u, v in additions.ends]
            if total and base > 2:
                masks_given += sum(masks is not None for masks in got)
                continue
            asked["total, base <= 2" if total else "closed"] += len(got)
            assert got == [None] * len(got), (total, base, g.edges)
    assert all(asked.values()) and masks_given, (asked, masks_given)


def test_edge_pair_removals_match_graph_copies():
    """Every pair of edges and every limit, decided on masks, equals a copied-graph search.

    One search per limit runs through all pairs, as the scans do but
    past the first hit.  Before the pairs with a first edge e, the
    search's rows mark which edges, alone and after e, may be a hit;
    every edge set they drop must not be one (it keeps a cover within
    the limit, or it isolates a vertex and does not qualify), and
    ``hit`` must accept exactly the qualifying pairs whose copy keeps
    none.
    """
    rng = random.Random(1983)
    for _ in range(250):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.7))
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            start = total_domination_number(g) if total else domination_number(g)
            removals = removal_searches(g, total, start)
            edges = sorted(g.edges)
            for e, first in enumerate(edges):
                alone = g.remove_edges([first])
                rows = []
                for limit, search in removals:
                    assert search.row(()) >> e & 1 or removal_covers(alone, total, limit) is not False, (total, first, limit)
                    rows.append(search.row((e,)))
                for f in range(e + 1, len(edges)):
                    pair = (first, edges[f])
                    reduced = g.remove_edges(pair)
                    for (limit, search), row in zip(removals, rows):
                        covers = removal_covers(reduced, total, limit)
                        assert row >> f & 1 or covers is not False, (total, pair, limit, "dropped by the row")
                        assert search.hit((e, f)) == (covers is False), (total, pair, limit, g.edges)
            assert_kept_covers_dominate(g, total, removals)


def test_qualifying_rows_match_graph_copies():
    """After every prefix of up to two edges, ``hit`` rejects exactly the removals that isolate a vertex.

    The isolating removals are those whose graph copy has isolated
    vertices, in the total variant only.  Every other removal is a hit
    exactly when its copy keeps no cover within the limit, and no row
    drops a hit.  A removal that holds an edge with a degree-1 end is
    never in the row.
    """
    rng = random.Random(1999)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.7))
        edges = sorted(g.edges)
        for total in (False, True):
            if not edges or total and g.isolated_vertices():
                continue
            search = RemovalSearch(g, total, 1)
            leaves = {v for v in g.vertices if len(g.open_neighbors(v)) == 1}
            for k in range(3):
                for prefix in combinations(range(len(edges)), k):
                    row = search.row(prefix)
                    for f in set(range(len(edges))) - set(prefix):
                        removed = tuple(edges[i] for i in prefix) + (edges[f],)
                        covers = removal_covers(g.remove_edges(removed), total, 1)
                        assert row >> f & 1 or covers is not False, (total, prefix, f, "dropped by the row")
                        if total and any(a in leaves or b in leaves for a, b in removed):
                            assert not row >> f & 1, (prefix, f, "an edge with a degree-1 end stays open")
                        assert search.hit(prefix + (f,)) == (covers is False), (total, prefix, f, g.edges)


def test_isolating_removal_runs_no_search(monkeypatch):
    """``hit`` rejects a removal that isolates a vertex before any repair or search, and keeps no cover for it.

    On P4 (a-b-c-d), unseeded at gamma_t = 2, a search would find no
    cover on masks with an emptied one and read the removal as a hit.
    """
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return _search(*args, **kwargs)

    monkeypatch.setattr(perturbation, "_search", counted)
    g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    search = RemovalSearch(g, True, 2)
    # Positions in the sorted edges a-b, b-c, c-d: {ab}, {bc, cd}, {ab, cd}.
    for removed in ((0,), (1, 2), (0, 2)):
        assert search.hit(removed) is False, removed
    assert searches == [] and search._kept == []
    # Control: b-c isolates nothing, and G - bc, two K2, needs four picks.
    assert search.hit((1,)) is True
    assert len(searches) == 1


def test_scan_offers_hit_no_edge_with_a_degree_1_end():
    """Total bondage's ``_first_hit`` hands ``hit`` no removal that holds an edge with a degree-1 end.

    Such a removal isolates that vertex, so it does not qualify: the row
    drops the edge, and is empty after a prefix that holds one.  The
    random graphs' answers equal the plain scan's; the gadgets, which
    have such edges at their clause vertices and anchor, are scanned up
    to two edges.
    """
    asked = []

    class Recorded(RemovalSearch):
        def hit(self, edges):
            asked.append([tuple(map(self.graph.label_at, self.ends[e])) for e in edges])
            return super().hit(edges)

    rng = random.Random(1983)
    graphs = [random_graph(rng, rng.randint(3, 8), rng.uniform(0.15, 0.5)) for _ in range(80)]
    graphs = [g for g in graphs if g.edges and not g.isolated_vertices()]
    gadgets = [build("total-bondage", inst).graph for inst in sat_and_unsat_instances()]
    for g in graphs + gadgets:
        leaves = {v for v in g.vertices if len(g.open_neighbors(v)) == 1}
        start = total_domination_number(g)
        for max_k in (1, 2):
            asked.clear()
            got = _first_hit(Recorded(g, True, start.value, kept=[start.witness]), max_k)
            assert not any(a in leaves or b in leaves for edges in asked for a, b in edges), (max_k, g.edges)
            if g not in gadgets:
                assert (got.value, got.witness, got.base) == scan_perturbation(g, "total-bondage", max_k), g.edges


def test_edge_pair_additions_match_graph_copies():
    """Every pair of missing edges, decided on joined masks, equals a copied-graph search below the parameter.

    The first-hit scans stop at the first pair that lowers the parameter;
    this also runs through the pairs after it.
    """
    rng = random.Random(2003)
    for _ in range(400):
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.7))
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            within = has_total_dominating_set_within if total else has_dominating_set_within
            base = (total_domination_number(g) if total else domination_number(g)).value
            additions = AdditionSearch(g, total, base)
            for (e, first), (f, second) in combinations(enumerate(g.complement_edges()), 2):
                pair = (first, second)
                assert additions.hit((e, f)) == within(g.add_edges(pair), base - 1), (total, pair, g.edges)


def test_scan_positions_name_the_sorted_edges():
    """Both searches' ``ends`` name, by label pairs, the candidates in scan order, and every witness is made of them.

    A removal scan's candidates are the sorted edges, an addition scan's
    the complement edges, both normalized.  Graphs of ten or more
    vertices order their labels (``x10`` < ``x2``) apart from their
    indices, as the gadgets do.  Each kind's witness is a set of those
    pairs, in scan order: up to two edges on the random graphs, one on
    the gadgets, where some other kind's two-edge addition scan takes
    seconds.
    """
    rng = random.Random(2012)
    graphs = [random_graph(rng, rng.randint(3, 11), rng.uniform(0.2, 0.6)) for _ in range(60)]
    sat, _ = sat_and_unsat_instances()
    graphs += [build(kind, sat).graph for kind in SOLVERS]
    witnesses = 0
    for g in graphs:
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            base = (total_domination_number(g) if total else domination_number(g)).value
            for search, candidates, kind in (
                (RemovalSearch(g, total, base), sorted(g.edges), "bondage"),
                (AdditionSearch(g, total, base), g.complement_edges(), "reinforcement"),
            ):
                pairs = [(g.label_at(i), g.label_at(j)) for i, j in search.ends]
                assert pairs == candidates, (kind, total, g.edges)
                if kind == "bondage" and not g.edges:
                    continue
                max_k = 2 if g.num_vertices <= 11 else 1
                witness = SOLVERS[("total-" if total else "") + kind](g, max_k=max_k).witness
                if witness is not None:
                    witnesses += 1
                    positions = [pairs.index(edge) for edge in witness]
                    assert positions == sorted(set(positions)), (kind, total, witness)
    assert witnesses >= 100, witnesses
