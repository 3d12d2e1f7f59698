import random
from itertools import combinations
from typing import Callable

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domkit import domination
from domkit.cnf import CnfInstance
from domkit.domination import (
    BudgetExceededError,
    DomResult,
    IsolatedVertexError,
    _all_minimum_covers,
    _branch,
    _cover_masks,
    _greedy_cover,
    _search,
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    is_dominating_set,
    is_total_dominating_set,
    total_domination_number,
)
from domkit.graph import Graph, UnknownVertexError, iter_bits
from domkit.reductions import build
from oracles import (
    brute_domination_number,
    brute_minimum_sets,
    brute_total_domination_number,
    cycle_graph,
    oracle_dominates,
    path_graph,
    random_graph,
    reference_decide,
    reference_minimum_cover,
    star_graph,
)
from strategies import graphs, isolated_free_graphs


def p3():
    return path_graph(3)


class TestPredicates:
    def test_center_dominates_path(self):
        assert is_dominating_set(p3(), {"x2"})

    def test_end_does_not_dominate_path(self):
        assert not is_dominating_set(p3(), {"x1"})

    def test_whole_vertex_set_dominates(self):
        g = cycle_graph(5)
        assert is_dominating_set(g, set(g.vertices))

    def test_total_needs_internal_neighbor(self):
        assert not is_total_dominating_set(p3(), {"x2"})
        assert is_total_dominating_set(p3(), {"x1", "x2"})

    def test_total_fails_with_isolated_vertex(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert not is_total_dominating_set(g, {"a", "b", "c"})

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            is_dominating_set(p3(), {"zz"})


class TestDominationNumber:
    def test_path3(self):
        result = domination_number(p3())
        assert result.value == 1
        assert result.witness == frozenset({"x2"})

    def test_cycle6(self):
        assert brute_domination_number(cycle_graph(6)) == 2
        result = domination_number(cycle_graph(6))
        assert result.value == 2

    def test_edgeless(self):
        g = Graph(["a", "b", "c"], [])
        assert domination_number(g).value == 3

    def test_empty_graph(self):
        g = Graph([], [])
        assert domination_number(g).value == 0
        assert domination_number(g).witness == frozenset()

    @given(graphs())
    @settings(max_examples=100)
    def test_matches_brute_force(self, g):
        result = domination_number(g)
        assert result.value == brute_domination_number(g)
        assert is_dominating_set(g, result.witness)
        assert oracle_dominates(g, result.witness)
        assert len(result.witness) == result.value

    @given(graphs())
    def test_deterministic_witness(self, g):
        assert domination_number(g) == domination_number(g)


class TestTotalDominationNumber:
    def test_path3(self):
        assert total_domination_number(p3()).value == 2

    def test_cycle6(self):
        assert brute_total_domination_number(cycle_graph(6)) == 4
        assert total_domination_number(cycle_graph(6)).value == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            total_domination_number(Graph(["a", "b", "c"], [("a", "b")]))

    @given(isolated_free_graphs())
    @settings(max_examples=100)
    def test_matches_brute_force(self, g):
        result = total_domination_number(g)
        assert result.value == brute_total_domination_number(g)
        assert is_total_dominating_set(g, result.witness)
        assert oracle_dominates(g, result.witness, total=True)
        assert len(result.witness) == result.value

    @given(isolated_free_graphs())
    @settings(max_examples=60)
    def test_classic_sandwich(self, g):
        gamma = domination_number(g).value
        gamma_t = total_domination_number(g).value
        assert gamma <= gamma_t <= 2 * gamma


def assert_minimum(g: Graph, total: bool, value: Callable[[Graph, bool], int], hint=None) -> DomResult | None:
    """The (total) domination result, from ``hint`` if given, has the expected ``value(g, total)``, and a witness of that size that dominates.

    Returns the result, or None where the graph has none.
    """
    solve = total_domination_number if total else domination_number
    if total and g.isolated_vertices():
        with pytest.raises(IsolatedVertexError):
            solve(g, hint=hint)
        return None
    result = solve(g, hint=hint)
    assert result.value == value(g, total)
    assert len(result.witness) == result.value
    assert oracle_dominates(g, result.witness, total)
    return result


def reference_value(g: Graph, total: bool) -> int:
    return len(reference_minimum_cover(_cover_masks(g, total)))


def brute_value(g: Graph, total: bool) -> int:
    return (brute_total_domination_number if total else brute_domination_number)(g)


class TestWitnessContract:
    """γ and γ_t on random graphs: the shrinking-limit reference search's value, with a dominating witness of that size."""

    @given(graphs(min_vertices=0, max_vertices=14))
    @example(Graph([], []))
    @example(Graph([f"x{i}" for i in range(1, 6)], []))
    @settings(max_examples=150, deadline=None)
    def test_witnesses_match_reference(self, g):
        assert_minimum(g, False, reference_value)
        assert_minimum(g, True, reference_value)

    @given(isolated_free_graphs(max_vertices=14))
    @settings(max_examples=150, deadline=None)
    def test_total_witnesses_match_reference(self, g):
        assert_minimum(g, True, reference_value)


def sparse_graph(rng: random.Random, n: int) -> Graph:
    """G(n, 2n), 2n distinct edges drawn uniformly, redrawn until no vertex is isolated."""
    while True:
        edges: set[tuple[int, int]] = set()
        while len(edges) < 2 * n:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        if len({v for edge in edges for v in edge}) == n:
            break
    labels = [f"x{v}" for v in range(n)]
    return Graph(labels, [(labels[a], labels[b]) for a, b in sorted(edges)])


@given(graphs(min_vertices=0, max_vertices=12))
@example(Graph([], []))
@example(Graph([f"x{i}" for i in range(1, 6)], []))
@example(Graph(["a", "b", "c", "d", "e", "f"], [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")]))
@settings(max_examples=150, deadline=None)
def test_results_are_minimum(g):
    """γ and γ_t on graphs of up to 12 vertices: the brute-force value, with a dominating witness of that size."""
    assert_minimum(g, False, brute_value)
    assert_minimum(g, True, brute_value)


@given(graphs(min_vertices=0, max_vertices=12), st.data())
@settings(max_examples=100, deadline=None)
def test_hinted_results_are_minimum(g, data):
    """γ and γ_t from a hint that is empty, any subset, every vertex or a minimum set: the brute-force value.

    The witness has that size and dominates, and a minimum hint comes back as the witness.
    """
    drawn = data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
    for total in (False, True):
        for hint in (set(), drawn, set(g.vertices)):
            assert_minimum(g, total, brute_value, hint)
        minimum = brute_minimum_sets(g, total)
        if minimum:
            hint = data.draw(st.sampled_from(minimum))
            assert assert_minimum(g, total, brute_value, hint) == DomResult(len(hint), hint)


def test_hint_with_an_unknown_vertex_raises():
    with pytest.raises(UnknownVertexError):
        domination_number(p3(), hint={"x1", "x9"})
    with pytest.raises(UnknownVertexError):
        total_domination_number(p3(), hint={"x9"})


@pytest.mark.parametrize("total", [False, True], ids=["closed", "total"])
def test_where_greedy_misses(total):
    """On sparse graphs greedy often misses the optimum, so the decide loop, not greedy, gives the witness."""
    rng = random.Random(24)
    misses = 0
    for n in range(10, 15):
        for _ in range(8):
            g = sparse_graph(rng, n)
            assert_minimum(g, total, brute_value)
            misses += len(_greedy_cover(_cover_masks(g, total))) > brute_value(g, total)
    assert misses >= 4


@pytest.mark.parametrize("total", [False, True], ids=["closed", "total"])
def test_sparse_values_match_reference(total):
    """Values on sparse graphs of 16 to 40 vertices, above brute-force sizes, where greedy often misses the optimum.

    The hypothesis graphs above are small enough that greedy is nearly
    always minimum.
    """
    rng = random.Random(16)
    misses = 0
    for n in range(16, 41):
        for _ in range(6):
            g = sparse_graph(rng, n)
            assert_minimum(g, total, reference_value)
            misses += len(_greedy_cover(_cover_masks(g, total))) > reference_value(g, total)
    assert misses >= 20


class TestMonotonicity:
    @given(graphs(min_vertices=2, max_vertices=7))
    @settings(max_examples=60)
    def test_single_edge_removal(self, g):
        gamma = domination_number(g).value
        for edge in g.edges:
            reduced = domination_number(g.remove_edges([edge])).value
            assert reduced in (gamma, gamma + 1)

    @given(graphs(min_vertices=2, max_vertices=7))
    @settings(max_examples=60)
    def test_single_edge_addition(self, g):
        gamma = domination_number(g).value
        for edge in g.complement_edges():
            grown = domination_number(g.add_edges([edge])).value
            assert grown in (gamma - 1, gamma)


class TestEnumerate:
    def test_path3_unique_minimum(self):
        assert enumerate_minimum_sets(p3()) == [frozenset({"x2"})]

    def test_cycle4_all_pairs(self):
        expected = sorted(map(sorted, brute_minimum_sets(cycle_graph(4))))
        got = sorted(map(sorted, enumerate_minimum_sets(cycle_graph(4))))
        assert got == expected
        assert len(got) == 6

    def test_cycle6_antipodal_pairs(self):
        got = enumerate_minimum_sets(cycle_graph(6))
        assert sorted(map(sorted, got)) == sorted(map(sorted, brute_minimum_sets(cycle_graph(6))))
        assert sorted(map(sorted, got)) == [["x1", "x4"], ["x2", "x5"], ["x3", "x6"]]

    def test_budget_cap(self):
        with pytest.raises(BudgetExceededError):
            enumerate_minimum_sets(cycle_graph(4), cap=2)

    def test_total_variant_rejects_isolated_vertices(self):
        with pytest.raises(IsolatedVertexError):
            enumerate_minimum_sets(Graph(["a", "b", "c"], [("a", "b")]), total=True)

    def test_total_variant(self):
        got = enumerate_minimum_sets(star_graph(3), total=True)
        assert sorted(map(sorted, got)) == sorted(map(sorted, brute_minimum_sets(star_graph(3), total=True)))

    @given(graphs(max_vertices=6))
    @settings(max_examples=80)
    def test_matches_brute_force(self, g):
        got = sorted(map(sorted, enumerate_minimum_sets(g)))
        assert got == sorted(map(sorted, brute_minimum_sets(g)))

    @given(isolated_free_graphs(max_vertices=6))
    @settings(max_examples=60)
    def test_total_matches_brute_force(self, g):
        got = sorted(map(sorted, enumerate_minimum_sets(g, total=True)))
        assert got == sorted(map(sorted, brute_minimum_sets(g, total=True)))


class TestDecisionForm:
    @given(graphs(max_vertices=7))
    @settings(max_examples=60)
    def test_threshold_consistency(self, g):
        gamma = brute_domination_number(g)
        for k in range(g.num_vertices + 1):
            assert has_dominating_set_within(g, k) == (gamma <= k)

    @given(isolated_free_graphs(max_vertices=7))
    @settings(max_examples=40)
    def test_total_threshold_consistency(self, g):
        gamma_t = brute_total_domination_number(g)
        for k in range(g.num_vertices + 1):
            assert has_total_dominating_set_within(g, k) == (gamma_t <= k)


class TestBranchStep:
    """The kernel's shared branch step against brute force on search states."""

    def test_matches_brute_force(self):
        rng = random.Random(3)
        checked = pruned = spared = 0
        for trial in range(600):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
            closed = trial % 2 == 0
            dominators = [{v} if closed else set() for v in range(n)]
            for a, b in g.edges:
                i, j = g.index_of(a), g.index_of(b)
                dominators[i].add(j)
                dominators[j].add(i)
            undom = [v for v in range(n) if rng.random() < 0.6]
            if not undom:
                continue
            banned = {u for u in range(n) if rng.random() < 0.25}
            cover = tuple(sum(1 << u for u in dom) for dom in dominators)
            packing = _branch(cover, sum(1 << v for v in undom), sum(1 << u for u in banned))
            allowed = {v: dominators[v] - banned for v in undom}
            if any(not allowed[v] for v in undom):
                assert packing is None
                pruned += 1
                continue
            assert packing is not None
            classes, spare = packing
            fewest = min(undom, key=lambda v: (len(allowed[v]), v))
            assert classes[0] == sum(1 << u for u in allowed[fewest])
            pool = sorted(set(range(n)) - banned)
            smallest = next(
                k for k in range(1, len(pool) + 1)
                if any(all(allowed[v] & set(picks) for v in undom) for picks in combinations(pool, k))
            )
            assert 1 <= len(classes) <= smallest
            # The packing: pairwise disjoint classes, each some undominated
            # vertex's allowed dominators, that every other one meets.
            sets = [set(iter_bits(c)) for c in classes]
            assert all(not a & b for a, b in combinations(sets, 2))
            assert all(any(allowed[v] == c for v in undom) for c in sets)
            assert all(any(allowed[v] & c for c in sets) for v in undom)
            reach = set().union(*allowed.values())
            assert spare == sum(1 << u for u in reach - set().union(*sets))
            spared += spare != 0
            checked += 1
        assert checked > 200 and pruned > 20 and spared > 100


def raw_masks(g: Graph, closed: bool) -> tuple[int, ...]:
    """``g``'s closed or open cover masks, with no check for isolated vertices."""
    return tuple(mask | 1 << v if closed else mask for v, mask in enumerate(g.adjacency_masks()))


def random_start(rng: random.Random, closed: bool, max_vertices: int = 12):
    """Cover masks of a random graph, random nonempty ``dominated`` and ``banned`` starts, and the allowed picks."""
    n = rng.randint(1, max_vertices)
    cover = raw_masks(random_graph(rng, n, rng.choice((0.15, 0.3, 0.5))), closed)
    dominated = sum(1 << v for v in range(n) if rng.random() < 0.3) or 1 << rng.randrange(n)
    banned = sum(1 << v for v in range(n) if rng.random() < 0.25) or 1 << rng.randrange(n)
    return cover, dominated, banned, [u for u in range(n) if not banned >> u & 1]


def brute_covers(cover, dominated, pool, sizes):
    """Every pick set from ``pool`` with a size in ``sizes`` that covers the rest, smallest first."""
    full = (1 << len(cover)) - 1
    found = []
    for k in sizes:
        for picks in combinations(pool, k):
            reached = dominated
            for u in picks:
                reached |= cover[u]
            if reached == full:
                found.append(picks)
    return found


def smallest_cover(cover, dominated, pool):
    """The fewest picks from ``pool`` that cover the rest, or None."""
    return next((k for k in range(len(pool) + 1) if brute_covers(cover, dominated, pool, [k])), None)


class TestStartingMasks:
    """Decide and enumerate searches from nonzero starting masks against brute force.

    ``dominated`` and ``banned`` are how the perturbation deciders start
    a search part-way; the public entry points always pass zero.
    """

    def test_matches_brute_force(self):
        rng = random.Random(5)
        hits = misses = 0
        for trial in range(400):
            cover, dominated, banned, pool = random_start(rng, closed=trial % 2 == 0)
            smallest = smallest_cover(cover, dominated, pool)
            for limit in range(len(cover) + 2):
                got = _search(cover, limit, dominated, banned)
                if smallest is None or smallest > limit:
                    assert got is None, (trial, limit)
                    misses += 1
                    continue
                assert got is not None, (trial, limit)
                assert len(got) <= limit
                assert not any(banned >> u & 1 for u in got)
                assert brute_covers(cover, dominated, sorted(got), [len(got)])
                hits += 1
        assert hits > 500 and misses > 500

    def test_enumeration_matches_brute_force(self):
        """Every cover within the limit that no smaller one reaches is reached, each exactly once.

        At the optimum these are all the covers, and every node on a
        cover's path is tight.  One pick above it, tight nodes sit deeper,
        and a search may also reach a cover with a pick to spare.  Both are
        where a ban could lose a cover.
        """
        rng = random.Random(8)
        enumerated = 0
        for trial in range(300):
            cover, dominated, banned, pool = random_start(rng, closed=trial % 2 == 0)
            smallest = smallest_cover(cover, dominated, pool)
            if smallest is None:
                continue
            for limit in (smallest, smallest + 1):
                got: list[tuple[int, ...]] = []
                _search(cover, limit, dominated, banned, found=lambda chosen: got.append(tuple(sorted(chosen))))
                every = brute_covers(cover, dominated, pool, range(limit + 1))
                minimal = [c for c in every if not any(set(d) < set(c) for d in every)]
                assert len(set(got)) == len(got), (trial, limit)
                assert set(minimal) <= set(got) <= set(every), (trial, limit)
                if limit == smallest:
                    assert sorted(got) == every
                enumerated += len(got)
        assert enumerated > 1000


class TestAllMinimumCovers:
    """``_all_minimum_covers`` at the brute-force optimum."""

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for trial in range(150):
            n = rng.randint(1, 11)
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
            total = trial % 2 == 1
            if total and g.isolated_vertices():
                continue
            cover = _cover_masks(g, total)
            expected = sorted(tuple(sorted(g.index_of(v) for v in s)) for s in brute_minimum_sets(g, total))
            size = len(expected[0])
            assert _all_minimum_covers(cover, size, 10**6) == expected, trial



def random_union(rng: random.Random) -> Graph:
    """A disjoint union of two to four random graphs of one to four vertices, its vertices in shuffled order."""
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    for part in range(rng.randint(2, 4)):
        g = random_graph(rng, rng.randint(1, 4), rng.choice((0.3, 0.6, 1.0)))
        labels += [f"p{part}{v}" for v in g.vertices]
        edges += [(f"p{part}{a}", f"p{part}{b}") for a, b in g.edges]
    rng.shuffle(labels)
    return Graph(labels, edges)


def random_bipartite(rng: random.Random, n: int, edges_per_vertex: float) -> Graph:
    """A random bipartite graph on n vertices, sides of random sizes, its vertices in shuffled order.

    Each side-crossing pair is an edge with the probability that gives
    about ``edges_per_vertex`` * n edges.
    """
    left = rng.randint(1, n - 1)
    p = min(1.0, edges_per_vertex * n / (left * (n - left)))
    labels = [f"a{v}" for v in range(left)] + [f"b{v}" for v in range(n - left)]
    edges = [(f"a{i}", f"b{j}") for i in range(left) for j in range(n - left) if rng.random() < p]
    rng.shuffle(labels)
    return Graph(labels, edges)


def sparse_union(rng: random.Random, n: int) -> Graph:
    """Two or three ``sparse_graph`` parts of about n vertices in all, side by side, vertices shuffled."""
    labels: list[str] = []
    edges: list[tuple[str, str]] = []
    parts = rng.randint(2, 3)
    for part in range(parts):
        g = sparse_graph(rng, max(4, n // parts))
        labels += [f"p{part}{v}" for v in g.vertices]
        edges += [(f"p{part}{a}", f"p{part}{b}") for a, b in g.edges]
    rng.shuffle(labels)
    return Graph(labels, edges)


class TestComponentSplit:
    """Decide and enumerate searches split into components, against the brute-force oracles and the reference search."""

    def test_components_are_the_shared_dominator_classes(self):
        # The path a-b-c-d: closed masks make one component, open masks split it by parity.
        g = path_graph(4)
        assert domination._components(_cover_masks(g, False)) == (0b1111,)
        assert domination._components(_cover_masks(g, True)) == (0b0101, 0b1010)
        assert domination._components(()) == ()

    def test_components_match_the_definition(self):
        """Against merging, pair by pair, every two vertices that share a dominator, on random closed and open masks."""
        rng = random.Random(4)
        for trial in range(400):
            g = random_union(rng) if trial % 2 == 0 else random_graph(rng, rng.randint(0, 12), rng.choice((0.1, 0.3, 0.6)))
            for total in (False, True):
                adj = g.adjacency_masks()
                cover = tuple(mask if total else mask | 1 << v for v, mask in enumerate(adj))
                comps = [1 << v for v in range(len(cover))]
                for mask in cover:
                    shared = [c for c in comps if c & mask]
                    comps = [c for c in comps if not c & mask] + [sum(shared)] if shared else comps
                assert domination._components(cover) == tuple(sorted(comps, key=lambda c: c & -c)), trial

    def test_matches_brute_force(self):
        """γ, γ_t, their witnesses, decides at every limit and every minimum set, on disjoint unions and bipartite graphs.

        Closed and total masks both.
        """
        rng = random.Random(27)
        split = 0
        for trial in range(160):
            g = random_union(rng) if trial % 2 == 0 else random_bipartite(rng, rng.randint(2, 12), 1.5)
            for total in (False, True):
                if (result := assert_minimum(g, total, brute_value)) is None:
                    continue
                cover = _cover_masks(g, total)
                for limit in range(g.num_vertices + 1):
                    got = _search(cover, limit)
                    assert (got is not None) == (limit >= result.value), (trial, total, limit)
                    assert got is None or len(got) <= limit and oracle_dominates(g, [g.label_at(u) for u in got], total)
                got = sorted(map(sorted, enumerate_minimum_sets(g, total=total)))
                assert got == sorted(map(sorted, brute_minimum_sets(g, total=total))), (trial, total)
                split += len(domination._components(cover)) > 1
        assert split > 150

    @pytest.mark.parametrize("total", [False, True], ids=["closed", "total"])
    def test_values_above_brute_force_sizes_match_reference(self, total):
        """γ and γ_t on disjoint unions of sparse graphs and on bipartite graphs of 16 to 40 vertices, none isolated."""
        rng = random.Random(12)
        for n in range(16, 41, 2):
            while (bipartite := random_bipartite(rng, n, 2.0)).isolated_vertices():
                pass
            for g in (sparse_union(rng, n), bipartite):
                assert_minimum(g, total, reference_value)

    def test_cap_counts_the_product(self):
        """Two disjoint 4-cycles have 6 minimum dominating sets each: 36 in all, so a cap of 35 raises."""
        g = Graph(
            [f"{side}{i}" for side in "xy" for i in range(4)],
            [(f"{side}{i}", f"{side}{(i + 1) % 4}") for side in "xy" for i in range(4)],
        )
        assert len(domination._components(_cover_masks(g, False))) == 2
        assert len(enumerate_minimum_sets(g, cap=36)) == 36
        with pytest.raises(BudgetExceededError, match="more than 35 minimum sets"):
            enumerate_minimum_sets(g, cap=35)

    def test_cache_is_bounded(self):
        rng = random.Random(3)
        for _ in range(50):
            domination_number(random_union(rng))
        info = domination._components.cache_info()
        assert info.currsize <= info.maxsize == 16


def nested_graph(rng: random.Random, n: int, edge_prob: float, extra: float) -> Graph:
    """A random graph on n vertices with pendant vertices and false twins added, its vertices in shuffled order.

    Each vertex gets a pendant neighbor, and a false twin (a copy of its
    neighbors), with probability ``extra`` each.  A pendant vertex's closed
    neighborhood lies inside its neighbor's, and false twins have the same
    open neighborhood, so on closed and open masks alike some branch
    candidates' new coverage nests in another's.
    """
    base = random_graph(rng, n, edge_prob)
    labels = list(base.vertices)
    edges = list(base.edges)
    for v in base.vertices:
        if rng.random() < extra:
            labels.append(f"p{v}")
            edges.append((v, f"p{v}"))
        if rng.random() < extra:
            labels.append(f"t{v}")
            edges += [(f"t{v}", b if a == v else a) for a, b in base.edges if v in (a, b)]
    rng.shuffle(labels)
    return Graph(labels, edges)


class TestDominatedCandidates:
    """A decide node skips a candidate whose new coverage a refuted sibling's contains; nothing else may change."""

    def test_decide_returns_the_reference_witness(self, monkeypatch):
        """The same pick list as the search that tries every candidate, at every limit, closed and total.

        On random starts, and on graphs of 30 to 45 vertices with pendant
        vertices and false twins, where candidates nest.  The graphs are
        that large because on small ones the packing bound refutes at the
        root and no candidate is ever skipped; the package's fewer branch
        steps show that some are.
        """
        calls = count_branch_steps(monkeypatch)
        reference_calls = [0]
        branch = oracles._branch

        def counted(*args):
            reference_calls[0] += 1
            return branch(*args)

        monkeypatch.setattr(oracles, "_branch", counted)
        rng = random.Random(30)
        found = 0
        for trial in range(400):
            closed = trial % 2 == 0
            if trial % 4 < 2:
                cover, dominated, banned, _ = random_start(rng, closed)
            else:
                n = rng.randint(30, 45)
                cover, dominated, banned = raw_masks(nested_graph(rng, n, 4 / n, 0.05), closed), 0, 0
            for limit in range(len(cover) + 2):
                expected = reference_decide(cover, limit, dominated, banned)
                assert _search(cover, limit, dominated, banned) == expected, (trial, limit)
                found += expected is not None
        assert found > 1000 and calls[0] < reference_calls[0]

    def test_enumeration_on_nested_graphs_matches_brute_force(self):
        """Every minimum cover of a graph with pendant vertices and false twins, closed and total: enumeration skips none."""
        rng = random.Random(31)
        enumerated = 0
        for trial in range(400):
            g = nested_graph(rng, rng.randint(2, 7), rng.choice((0.2, 0.4, 0.6)), 0.3)
            cover = raw_masks(g, closed=trial % 2 == 0)
            pool = list(range(len(cover)))
            if (size := smallest_cover(cover, 0, pool)) is None:
                continue
            expected = brute_covers(cover, 0, pool, [size])
            assert _all_minimum_covers(cover, size, 10**6) == expected, trial
            enumerated += len(expected)
        assert enumerated > 800


# An unsatisfiable n = 8, m = 34 instance: random_clauses(random.Random(2), 8, 34)
# of perfbench/workloads.py, written out.
UNSAT_N8_CLAUSES = (
    (1, 7, -8), (3, 5, -8), (-4, -6, -7), (-4, -5, -6), (-3, 4, -6), (2, 3, 5), (3, -5, -7),
    (-4, -7, -8), (3, -4, -6), (5, 6, 8), (-4, 6, -8), (4, 6, -8), (-3, 5, 8), (3, -6, -7),
    (-2, -3, 7), (-1, 2, 5), (2, 5, -7), (-1, 4, 6), (1, -4, 6), (1, -3, -7), (1, -4, 5),
    (-1, -3, -8), (3, 4, -5), (-1, -3, 4), (-1, -4, 6), (-3, 5, 7), (-3, 6, 7), (1, 3, 6),
    (-2, -6, -8), (2, 4, -6), (3, -6, 8), (1, -4, 7), (1, 2, 7), (-3, 4, -8),
)


def count_branch_steps(monkeypatch) -> list[int]:
    """Patch ``_branch`` to count its calls; the count is the one item of the returned list."""
    calls = [0]
    branch = domination._branch

    def counted(*args):
        calls[0] += 1
        return branch(*args)

    monkeypatch.setattr(domination, "_branch", counted)
    return calls


# Nodes without tight-packing propagation: 52,179 and 125,696.
@pytest.mark.parametrize("kind, max_nodes", [("bondage", 1_000), ("total-bondage", 60_000)])
def test_tight_refutation_node_bound(monkeypatch, kind, max_nodes):
    """The unsat gadgets' refutations at the exact bound stay cheap: the packing is tight from the root."""
    total = kind == "total-bondage"
    calls = count_branch_steps(monkeypatch)
    g = build(kind, CnfInstance(8, UNSAT_N8_CLAUSES)).graph
    assert _search(_cover_masks(g, total), 2 * 8 + 1 + total) is None
    assert calls[0] <= max_nodes


# Nodes: 4,398 and 5,370; without the skip of dominated candidates, 10,914 and
# 14,658; with an unpropagated index-order witness search, 242,435 and 147,054.
@pytest.mark.parametrize("kind", ["total-bondage", "total-reinforcement"])
def test_greedy_miss_node_bound(monkeypatch, kind):
    """γ of the total gadgets, where greedy misses the optimum, stays cheap: the decide loop and its refutation."""
    calls = count_branch_steps(monkeypatch)
    assert domination_number(build(kind, CnfInstance(8, UNSAT_N8_CLAUSES)).graph).value == 16
    assert calls[0] <= 8_000


# 822 and 741 branch steps; without the skip of dominated candidates, 4,996 and
# 4,206; as one search, without the split into components, 666,049 and 436,264,
# nearly all of them in the refutation at γ_t − 1.
@pytest.mark.parametrize("kind, gamma_t", [("bondage", 28), ("reinforcement", 27)])
def test_split_refutation_node_bound(monkeypatch, kind, gamma_t):
    """γ_t of the bipartite gadgets stays cheap: each side of the open masks is decided on its own."""
    calls = count_branch_steps(monkeypatch)
    assert total_domination_number(build(kind, CnfInstance(8, UNSAT_N8_CLAUSES)).graph).value == gamma_t
    assert calls[0] <= 2_000
