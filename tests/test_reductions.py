import pytest
from hypothesis import given, settings

from domkit.cnf import CnfInstance, evaluate, random_instance, solve_sat
from domkit.domination import (
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    is_dominating_set,
    is_total_dominating_set,
    total_domination_number,
)
from domkit.reductions import (
    ROLE_ANCHOR,
    ROLE_AUX,
    ROLE_CLAUSE,
    ROLE_LITERAL_NEG,
    ROLE_LITERAL_POS,
    KindMismatchError,
    ReductionKind,
    UnsatisfyingAssignmentError,
    assignment_to_witness,
    build,
    build_bondage,
    build_reinforcement,
    build_total_bondage,
    build_total_reinforcement,
    roles_to_text,
    witness_to_assignment,
)
from strategies import cnf_instances

TINY = CnfInstance(3, ((1, 2, 3),))

SIZE_FORMS = {
    ReductionKind.BONDAGE: (lambda n, m: 6 * n + m + 3, lambda n, m: 6 * n + 5 * m + 2),
    ReductionKind.TOTAL_BONDAGE: (lambda n, m: 5 * n + m + 6, lambda n, m: 6 * n + 5 * m + 7),
    ReductionKind.REINFORCEMENT: (lambda n, m: 6 * n + m + 1, lambda n, m: 6 * n + 4 * m),
    ReductionKind.TOTAL_REINFORCEMENT: (lambda n, m: 5 * n + m + 3, lambda n, m: 6 * n + 4 * m + 2),
}


class TestBuilders:
    def test_worked_example_sizes(self, fig_instance, fig4_instance):
        assert (build_bondage(fig_instance).graph.num_vertices, build_bondage(fig_instance).graph.num_edges) == (30, 41)
        out = build_total_bondage(fig_instance)
        assert (out.graph.num_vertices, out.graph.num_edges) == (29, 46)
        out = build_reinforcement(fig_instance)
        assert (out.graph.num_vertices, out.graph.num_edges) == (28, 36)
        out = build_total_reinforcement(fig4_instance)
        assert (out.graph.num_vertices, out.graph.num_edges) == (26, 38)

    def test_single_clause_sizes(self):
        assert (build_bondage(TINY).graph.num_vertices, build_bondage(TINY).graph.num_edges) == (22, 25)
        out = build_total_bondage(TINY)
        assert (out.graph.num_vertices, out.graph.num_edges) == (22, 30)
        out = build_reinforcement(TINY)
        assert (out.graph.num_vertices, out.graph.num_edges) == (20, 22)
        # 18 gadget edges + 3 clause edges + 2 path edges + 1 apex edge
        out = build_total_reinforcement(TINY)
        assert (out.graph.num_vertices, out.graph.num_edges) == (19, 24)

    @given(cnf_instances())
    @settings(max_examples=50, deadline=None)
    def test_closed_forms_and_bipartite(self, inst):
        for kind, (vform, eform) in SIZE_FORMS.items():
            out = build(kind, inst)
            assert out.graph.num_vertices == vform(inst.num_vars, inst.num_clauses)
            assert out.graph.num_edges == eform(inst.num_vars, inst.num_clauses)
            assert out.graph.is_bipartite()

    def test_literals_share_color_class_in_total_bondage(self, fig_instance):
        coloring = build_total_bondage(fig_instance).graph.two_coloring()
        for i in range(1, 5):
            assert coloring[f"u{i}"] == coloring[f"nu{i}"]

    @given(cnf_instances(max_vars=4, max_clauses=5))
    @settings(max_examples=30, deadline=None)
    def test_role_map_total(self, inst):
        for kind in ReductionKind:
            out = build(kind, inst)
            assert set(out.roles) == set(out.graph.vertices)
            counts = {}
            for role in out.roles.values():
                counts[role] = counts.get(role, 0) + 1
            assert counts.get(ROLE_LITERAL_POS, 0) == inst.num_vars
            assert counts.get(ROLE_LITERAL_NEG, 0) == inst.num_vars
            assert counts.get(ROLE_CLAUSE, 0) == inst.num_clauses
            assert ROLE_ANCHOR in counts
            assert set(counts) <= {ROLE_LITERAL_POS, ROLE_LITERAL_NEG, ROLE_AUX, ROLE_CLAUSE, ROLE_ANCHOR}

    def test_deterministic(self, fig_instance):
        for kind in ReductionKind:
            first = build(kind, fig_instance)
            second = build(kind, fig_instance)
            assert first.graph == second.graph
            assert first.graph.vertices == second.graph.vertices
            assert first.graph.edges == second.graph.edges
            assert first.roles == second.roles

    def test_no_clauses_accepted(self):
        inst = CnfInstance(3, ())
        for kind, (vform, eform) in SIZE_FORMS.items():
            out = build(kind, inst)
            assert out.graph.num_vertices == vform(3, 0)
            assert out.graph.num_edges == eform(3, 0)

    def test_clause_vertices_wired_to_their_literals(self, fig_instance):
        out = build_bondage(fig_instance)
        assert out.graph.open_neighbors("c1") == {"u1", "u2", "nu3", "s1", "s3"}
        assert out.graph.open_neighbors("c2") == {"nu1", "u2", "u4", "s1", "s3"}
        assert out.graph.open_neighbors("c3") == {"nu2", "u3", "u4", "s1", "s3"}

    def test_build_dispatch(self, fig_instance):
        assert build("bondage", fig_instance).kind is ReductionKind.BONDAGE
        with pytest.raises(KindMismatchError):
            build("nonsense", fig_instance)

    def test_roles_sidecar_format(self):
        out = build_reinforcement(TINY)
        lines = roles_to_text(out).splitlines()
        assert len(lines) == out.graph.num_vertices
        assert lines[0] == "u1 literal+"
        assert lines[-1] == "s anchor"
        for line, label in zip(lines, out.graph.vertices):
            name, role = line.split()
            assert name == label and role == out.roles[label]


class TestWitnessConverters:
    def test_bondage_witness_from_worked_example(self, fig_instance):
        out = build_bondage(fig_instance)
        t = {1: False, 2: True, 3: False, 4: True}
        witness = assignment_to_witness(out, t)
        assert witness.added_edge is None
        assert witness.vertices == frozenset(
            {"nu1", "p1", "u2", "r2", "nu3", "p3", "u4", "r4", "s2"}
        )
        assert len(witness.vertices) == 9
        assert is_dominating_set(out.graph, witness.vertices)

    def test_total_bondage_witness_from_worked_example(self, fig_instance):
        out = build_total_bondage(fig_instance)
        t = {1: False, 2: True, 3: False, 4: True}
        witness = assignment_to_witness(out, t)
        assert witness.added_edge is None
        assert witness.vertices == frozenset(
            {"nu1", "v1", "u2", "v2", "nu3", "v3", "u4", "v4", "s2", "s5"}
        )
        assert is_total_dominating_set(out.graph, witness.vertices)

    def test_reinforcement_witness_from_worked_example(self, fig_instance):
        out = build_reinforcement(fig_instance)
        t = {1: False, 2: True, 3: False, 4: True}
        witness = assignment_to_witness(out, t)
        assert witness.added_edge == ("nu1", "s")
        assert witness.vertices == frozenset({"nu1", "p1", "u2", "r2", "nu3", "p3", "u4", "r4"})
        assert is_dominating_set(out.graph.add_edges([witness.added_edge]), witness.vertices)

    def test_total_reinforcement_witness_from_worked_example(self, fig4_instance):
        out = build_total_reinforcement(fig4_instance)
        t = {1: True, 2: False, 3: False, 4: True}
        witness = assignment_to_witness(out, t)
        assert witness.added_edge == ("s2", "u1")
        assert len(witness.vertices) == 9
        augmented = out.graph.add_edges([witness.added_edge])
        assert is_total_dominating_set(augmented, witness.vertices)

    def test_unsatisfying_assignment_rejected(self, fig_instance):
        out = build_bondage(fig_instance)
        with pytest.raises(UnsatisfyingAssignmentError):
            assignment_to_witness(out, {1: False, 2: False, 3: True, 4: False})

    def test_assignment_read_back_from_named_set(self, fig_instance):
        out = build_bondage(fig_instance)
        chosen = {"s2", "v1", "q1", "u2", "r2", "u3", "r3", "u4", "r4"}
        assert is_dominating_set(out.graph, chosen)
        assert witness_to_assignment(out, chosen) == {1: False, 2: True, 3: True, 4: True}

    def test_no_literals_means_all_false(self, fig_instance):
        out = build_bondage(fig_instance)
        assert witness_to_assignment(out, {"s2", "v1"}) == {1: False, 2: False, 3: False, 4: False}

    @given(cnf_instances(max_vars=4, max_clauses=6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_membership(self, inst):
        model = solve_sat(inst)
        if model is None:
            return
        n = inst.num_vars
        for kind, expected_size, total in (
            (ReductionKind.BONDAGE, 2 * n + 1, False),
            (ReductionKind.TOTAL_BONDAGE, 2 * n + 2, True),
            (ReductionKind.REINFORCEMENT, 2 * n, False),
            (ReductionKind.TOTAL_REINFORCEMENT, 2 * n + 1, True),
        ):
            out = build(kind, inst)
            witness = assignment_to_witness(out, model)
            assert len(witness.vertices) == expected_size
            target = out.graph
            if witness.added_edge is not None:
                target = target.add_edges([witness.added_edge])
            if total:
                assert is_total_dominating_set(target, witness.vertices)
            else:
                assert is_dominating_set(target, witness.vertices)
            assert witness_to_assignment(out, witness.vertices) == model

    @pytest.mark.parametrize("seed, expected_sets", [(0, 426), (1, 284)])
    def test_every_minimum_set_reads_back_a_satisfying_assignment(self, seed, expected_sets):
        """The converse direction: each minimum set at the exact bound maps to a model.

        That is every minimum set of the gadget (bondage kinds), or of G+e
        for every edge e that lowers the parameter by exactly one
        (reinforcement kinds), each on its own graph copy.
        """
        inst = random_instance(3, 13, seed)
        assert solve_sat(inst) is not None
        checked = 0
        for kind in ReductionKind:
            out = build(kind, inst)
            total = kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
            size = 2 * inst.num_vars + 1 + total
            if kind in (ReductionKind.BONDAGE, ReductionKind.TOTAL_BONDAGE):
                parameter = total_domination_number if total else domination_number
                assert parameter(out.graph).value == size
                graphs = [out.graph]
            else:
                size -= 1
                within = has_total_dominating_set_within if total else has_dominating_set_within
                copies = (out.graph.add_edges([edge]) for edge in out.graph.complement_edges())
                graphs = [copy for copy in copies if within(copy, size) and not within(copy, size - 1)]
                assert graphs
            for graph in graphs:
                for chosen in enumerate_minimum_sets(graph, total):
                    assert len(chosen) == size
                    assert evaluate(inst, witness_to_assignment(out, chosen)), (kind, sorted(chosen))
                    checked += 1
        assert checked == expected_sets
