import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.graph import (
    DuplicateEdgeError,
    DuplicateLabelError,
    EdgeAlreadyPresentError,
    Graph,
    GraphError,
    GraphFormatError,
    SelfLoopError,
    UnknownEdgeError,
    UnknownEndpointError,
    UnknownVertexError,
    normalize_edge,
)
from oracles import cycle_graph
from strategies import graphs


def p3():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


class TestConstruction:
    def test_single_vertex(self):
        g = Graph(["a"], [])
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_path(self):
        g = p3()
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_edges_normalized(self):
        g = Graph(["b", "a"], [("b", "a")])
        assert g.edges == (("a", "b"),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(["a", "b"], [("a", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            Graph(["a", "a"], [])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpointError):
            Graph(["a"], [("a", "b")])

    def test_bad_labels_rejected(self):
        with pytest.raises(GraphError):
            Graph([""], [])
        with pytest.raises(GraphError):
            Graph(["a b"], [])


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestValidation:
    @pytest.mark.parametrize("ch", WHITESPACE, ids=[f"U+{ord(ch):04X}" for ch in WHITESPACE])
    def test_every_whitespace_character_is_rejected_anywhere(self, ch):
        for label in (ch, ch + "a", "a" + ch + "b", "a" + ch):
            with pytest.raises(GraphError, match="invalid vertex label"):
                Graph(["x", label], [])

    def test_label_errors_come_in_label_order(self):
        with pytest.raises(DuplicateLabelError, match="duplicate vertex label 'a'"):
            Graph(["a", "a", ""], [])
        with pytest.raises(GraphError, match="invalid vertex label ''"):
            Graph(["a", "", "a"], [])
        with pytest.raises(GraphError, match="invalid vertex label 3"):
            Graph(["a", 3], [])

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            ([("a", "b"), ("c", "c"), ("z", "a"), ("b", "a")], SelfLoopError, "self-loop at 'c'"),
            ([("a", "b"), ("z", "y"), ("c", "c"), ("b", "a")], UnknownEndpointError, "edge endpoint 'z' is not a vertex"),
            ([("a", "b"), ("a", "y"), ("z", "c"), ("b", "a")], UnknownEndpointError, "edge endpoint 'y' is not a vertex"),
            ([("b", "c"), ("c", "b"), ("a", "z"), ("a", "a")], DuplicateEdgeError, "duplicate edge \\('b', 'c'\\)"),
            ([("c", "a"), ("a", "c"), ("b", "b")], DuplicateEdgeError, "duplicate edge \\('a', 'c'\\)"),
        ],
    )
    def test_edge_errors_come_in_edge_order(self, edges, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Graph(["a", "b", "c"], edges)


class TestEquality:
    def test_edge_order_and_direction_do_not_matter(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        h = Graph(["a", "b", "c"], [("c", "b"), ("b", "a")])
        assert g == h and hash(g) == hash(h)
        assert g.edges != h.edges

    def test_label_order_matters(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        h = Graph(["b", "a", "c"], [("a", "b")])
        assert g != h

    def test_adjacency_matters(self):
        assert Graph(["a", "b", "c"], [("a", "b")]) != Graph(["a", "b", "c"], [("b", "c")])

    @given(graphs(), st.randoms(use_true_random=False))
    def test_equal_under_shuffled_reversed_edges(self, g, rng):
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.edges]
        rng.shuffle(edges)
        h = Graph(g.vertices, edges)
        assert h == g and hash(h) == hash(g)

    def test_has_edge_is_false_for_unknown_labels(self):
        g = p3()
        assert not g.has_edge("a", "z")
        assert not g.has_edge("z", "a")
        assert not g.has_edge("z", "z")
        assert not g.has_edge("a", "a")
        assert g.has_edge("b", "a")


class TestEdgeEnds:
    @given(graphs(max_vertices=12), st.randoms(use_true_random=False))
    def test_ends_agree_with_index_of(self, g, rng):
        labels = list(g.vertices)
        rng.shuffle(labels)
        h = Graph(labels, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.edges])
        for graph in (g, h):
            assert len(graph.edge_ends()) == graph.num_edges
            for (a, b), (i, j) in zip(graph.edges, graph.edge_ends()):
                assert (i, j) == (graph.index_of(a), graph.index_of(b))


class TestNeighbors:
    def test_open_neighbors_middle(self):
        assert p3().open_neighbors("b") == {"a", "c"}

    def test_open_neighbors_end(self):
        assert p3().open_neighbors("a") == {"b"}

    def test_open_neighbors_isolated(self):
        assert Graph(["a"], []).open_neighbors("a") == set()

    def test_closed_neighbors(self):
        g = p3()
        assert g.closed_neighbors("b") == {"a", "b", "c"}
        assert g.closed_neighbors("a") == {"a", "b"}
        assert Graph(["a"], []).closed_neighbors("a") == {"a"}

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            p3().open_neighbors("z")

    def test_isolated_vertices(self):
        assert p3().isolated_vertices() == set()
        assert p3().remove_edges([("a", "b")]).isolated_vertices() == {"a"}
        assert Graph(["a", "b"], []).isolated_vertices() == {"a", "b"}


class TestEdgeCopies:
    def test_remove_edge(self):
        g = p3().remove_edges([("a", "b")])
        assert g.edges == (("b", "c"),)
        assert g.vertices == ("a", "b", "c")

    def test_remove_nothing_is_identity(self):
        assert p3().remove_edges([]) == p3()

    def test_remove_opposite_edges_of_c4(self):
        c4 = cycle_graph(4)
        g = c4.remove_edges([("x1", "x2"), ("x3", "x4")])
        assert set(g.edges) == {("x2", "x3"), ("x1", "x4")}

    def test_remove_unknown_edge(self):
        with pytest.raises(UnknownEdgeError):
            p3().remove_edges([("a", "c")])

    def test_add_edge(self):
        g = p3().add_edges([("a", "c")])
        assert g.has_edge("a", "c")

    def test_add_present_edge(self):
        with pytest.raises(EdgeAlreadyPresentError):
            p3().add_edges([("b", "a")])

    def test_add_self_loop(self):
        with pytest.raises(SelfLoopError):
            p3().add_edges([("a", "a")])

    def test_add_unknown_endpoint(self):
        with pytest.raises(UnknownEndpointError):
            p3().add_edges([("a", "z")])

    @given(graphs())
    def test_remove_then_add_is_identity(self, g):
        if not g.edges:
            return
        removed = g.edges[: max(1, len(g.edges) // 2)]
        assert g.remove_edges(removed).add_edges(removed) == g

    @given(graphs())
    def test_vertex_order_stable_across_copies(self, g):
        assert g.remove_edges(g.edges).vertices == g.vertices


class TestComplement:
    def test_complete_graph(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        assert g.complement_edges() == []

    def test_path(self):
        assert p3().complement_edges() == [("a", "c")]

    def test_edgeless(self):
        g = Graph(["a", "b", "c"], [])
        assert g.complement_edges() == [("a", "b"), ("a", "c"), ("b", "c")]

    @given(graphs())
    def test_partition_of_all_pairs(self, g):
        labels = g.vertices
        all_pairs = {
            normalize_edge(labels[i], labels[j])
            for i in range(len(labels))
            for j in range(i + 1, len(labels))
        }
        comp = set(g.complement_edges())
        assert comp | set(g.edges) == all_pairs
        assert not comp & set(g.edges)

    @given(graphs(min_vertices=10, max_vertices=13), st.randoms(use_true_random=False))
    def test_sorted_by_label_not_by_index(self, g, rng):
        """Labels x1..x13 sort apart from their indices (``x10`` < ``x2``), more so shuffled."""
        labels = list(g.vertices)
        rng.shuffle(labels)
        for graph in (g, Graph(labels, g.edges)):
            present = set(graph.edges)
            expected = sorted((a, b) for a in graph.vertices for b in graph.vertices if a < b and (a, b) not in present)
            assert graph.complement_edges() == expected
            assert graph.complement_ends() == [(graph.index_of(a), graph.index_of(b)) for a, b in expected]


class TestBipartite:
    def test_even_cycle(self):
        assert cycle_graph(6).is_bipartite()

    def test_odd_cycle(self):
        assert not cycle_graph(5).is_bipartite()
        assert cycle_graph(5).two_coloring() is None

    @given(graphs())
    @settings(max_examples=80)
    def test_coloring_is_proper(self, g):
        coloring = g.two_coloring()
        if coloring is None:
            # verify no 2-coloring exists at all (graphs are small)
            n = g.num_vertices
            assert not any(
                all(
                    (bits >> g.index_of(a) & 1) != (bits >> g.index_of(b) & 1)
                    for a, b in g.edges
                )
                for bits in range(1 << n)
            )
            return
        assert set(coloring) == set(g.vertices)
        for a, b in g.edges:
            assert coloring[a] != coloring[b]


class TestTextFormat:
    def test_round_trip(self):
        g = p3()
        assert Graph.from_text(g.to_text()) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n\np graph 2 1\nv a\n# another\nv b\ne a b\n"
        g = Graph.from_text(text)
        assert g.vertices == ("a", "b") and g.edges == (("a", "b"),)

    @given(graphs())
    def test_round_trip_random(self, g):
        parsed = Graph.from_text(g.to_text())
        assert parsed == g
        assert parsed.vertices == g.vertices

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "v a\n",
            "p graph x 0\n",
            "p graph 2 0\nv a\n",
            "p graph 1 1\nv a\n",
            "p graph 1 0\nv a\ne a a\n",
            "p graph 1 0\nv a\nq nonsense\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises((GraphFormatError, GraphError)):
            Graph.from_text(text)

    def test_dot_export(self):
        dot = p3().to_dot()
        assert dot.startswith("graph {")
        assert '"a" -- "b";' in dot
        assert dot.rstrip().endswith("}")
