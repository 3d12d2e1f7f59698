import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from domkit.cnf import random_instance
from domkit.domination import (
    IsolatedVertexError,
    domination_number,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from domkit.graph import Graph
from domkit.perturbation import (
    AdditionSearch,
    EmptyGraphError,
    RemovalSearch,
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
    path_graph,
    random_graph,
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


SOLVERS = {
    "bondage": bondage_number,
    "total-bondage": total_bondage_number,
    "reinforcement": reinforcement_number,
    "total-reinforcement": total_reinforcement_number,
}


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

    instances = [random_instance(3, 13, seed) for seed in range(20)]
    sat = next(inst for inst in instances if brute_solve(inst) is not None)
    unsat = next(inst for inst in instances if brute_solve(inst) is None)
    for kind in SOLVERS:
        for max_k in (1, 2, None):
            check(build(kind, sat).graph, kind, max_k)
        for max_k in {"reinforcement": (1,), "total-reinforcement": (1, 2)}.get(kind, (1, 2, None)):
            check(build(kind, unsat).graph, kind, max_k)


def test_single_edge_searches_match_graph_copies():
    """Every edge and every limit, decided on masks, equals the search on a copied graph.

    Unlike the first-hit scans, this runs past hits, so it reaches the
    reuse of covers and partner sets found by earlier edges.
    """
    rng = random.Random(1990)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.7))
        for total in (False, True):
            if total and g.isolated_vertices():
                continue
            within = has_total_dominating_set_within if total else has_dominating_set_within
            start = total_domination_number(g) if total else domination_number(g)
            base = start.value
            additions = AdditionSearch(g, total, base)
            removals = [(limit, RemovalSearch(g, total, limit)) for limit in range(base - 1, base + 2)]
            # seeded below its limit, so it also reaches the repair of kept covers
            removals.append((base + 1, RemovalSearch(g, total, base + 1, kept=[start.witness])))
            # seeded above its limit: the witness must not vouch for any removal
            removals.append((base - 1, RemovalSearch(g, total, base - 1, kept=[start.witness])))
            for edge in g.complement_edges():
                for limit in range(base - 3, base + 1):
                    expected = within(g.add_edges([edge]), limit)
                    assert additions.covers_after((edge,), limit) == expected, (total, edge, limit, g.edges)
            for edge in sorted(g.edges):
                reduced = g.remove_edges([edge])
                for limit, search in removals:
                    expected = None if total and reduced.isolated_vertices() else within(reduced, limit)
                    assert search.covers_after([edge]) == expected, (total, edge, limit, g.edges)


def test_edge_pair_additions_match_graph_copies():
    """Every pair of missing edges and every limit, decided on joined masks, equals a copied-graph search.

    The first-hit scans stop at the first pair that lowers the parameter;
    this also runs through the pairs after it and the limits around it.
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
            for pair in combinations(g.complement_edges(), 2):
                joined = g.add_edges(pair)
                for limit in range(base - 3, base + 1):
                    assert additions.covers_after(pair, limit) == within(joined, limit), (total, pair, limit, g.edges)
