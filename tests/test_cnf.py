import random

import pytest
from hypothesis import given, settings

from conftest import FIG_DIMACS
from domkit.cnf import (
    ClauseArityError,
    CnfError,
    CnfInstance,
    DimacsSyntaxError,
    PartialAssignmentError,
    TautologicalClauseError,
    TooFewVariablesError,
    VariableOutOfRangeError,
    evaluate,
    parse_dimacs,
    random_instance,
    solve_sat,
    to_dimacs,
)
from oracles import brute_solve, reference_solve_sat
from strategies import cnf_instances


class TestParsing:
    def test_minimal(self):
        inst = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert inst.num_vars == 3
        assert inst.clauses == ((1, 2, 3),)

    def test_worked_example_instance(self):
        inst = parse_dimacs(FIG_DIMACS)
        assert inst.num_vars == 4
        assert inst.clauses == ((1, 2, -3), (-1, 2, 4), (-2, 3, 4))

    def test_clause_spanning_lines(self):
        inst = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert inst.clauses == ((1, 2, 3),)

    def test_comments_ignored(self):
        inst = parse_dimacs("c hello\np cnf 3 1\nc mid\n1 2 3 0\n")
        assert inst.num_clauses == 1

    def test_tautology_rejected(self):
        with pytest.raises(TautologicalClauseError):
            parse_dimacs("p cnf 3 1\n1 -1 2 0\n")

    def test_duplicate_literal_rejected(self):
        with pytest.raises(ClauseArityError):
            parse_dimacs("p cnf 3 1\n1 1 2 0\n")

    @pytest.mark.parametrize("clause", ["1 2 0", "1 2 3 4 0"])
    def test_wrong_arity(self, clause):
        with pytest.raises(ClauseArityError):
            parse_dimacs(f"p cnf 4 1\n{clause}\n")

    def test_variable_out_of_range(self):
        with pytest.raises(VariableOutOfRangeError):
            parse_dimacs("p cnf 3 1\n1 2 4 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 2 3 0\n",
            "p cnf 3\n1 2 3 0\n",
            "p cnf 3 2\n1 2 3 0\n",
            "p cnf 3 1\n1 2 3\n",
            "p cnf 3 1\n1 two 3 0\n",
            "p cnf 3 1\np cnf 3 1\n1 2 3 0\n",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(DimacsSyntaxError):
            parse_dimacs(text)

    def test_first_fault_in_file_order(self):
        # the bad token comes before the repeated header, so it is reported
        with pytest.raises(DimacsSyntaxError, match="unexpected token 'x' in clause data"):
            parse_dimacs("p cnf 3 1\n1 x 3 0\np cnf 3 1\n")

    def test_serializer_round_trip(self):
        inst = parse_dimacs(FIG_DIMACS)
        assert parse_dimacs(to_dimacs(inst)) == inst

    @given(cnf_instances())
    def test_serializer_round_trip_random(self, inst):
        assert parse_dimacs(to_dimacs(inst)) == inst

    def test_serializer_sorts_literals(self):
        inst = CnfInstance(3, ((3, -1, 2),))
        assert to_dimacs(inst) == "p cnf 3 1\n-1 2 3 0\n"


class TestEvaluate:
    def test_worked_example_true(self):
        # u2 and u4 true covers all three clauses: C1 and C2 via u2, C3 via u4
        inst = parse_dimacs(FIG_DIMACS)
        t = {1: False, 2: True, 3: False, 4: True}
        assert evaluate(inst, t) is True

    def test_all_false_on_positive_clause(self):
        inst = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        assert evaluate(inst, {1: False, 2: False, 3: False}) is False

    def test_empty_clause_list(self):
        inst = CnfInstance(3, ())
        assert evaluate(inst, {1: False, 2: False, 3: False}) is True

    def test_partial_assignment_rejected(self):
        inst = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
        with pytest.raises(PartialAssignmentError):
            evaluate(inst, {1: True, 2: True})
        with pytest.raises(PartialAssignmentError):
            evaluate(inst, {1: True, 2: True, 3: True, 4: True})


class TestSolver:
    def test_worked_example_satisfiable(self, fig_instance):
        model = solve_sat(fig_instance)
        assert model is not None
        assert evaluate(fig_instance, model)

    def test_unsat_all_sign_patterns(self, unsat8_instance):
        assert brute_solve(unsat8_instance) is None
        assert solve_sat(unsat8_instance) is None

    def test_empty_instance(self):
        model = solve_sat(CnfInstance(3, ()))
        assert model == {1: False, 2: False, 3: False}

    @given(cnf_instances(max_vars=5))
    @settings(max_examples=100)
    def test_agrees_with_brute_force(self, inst):
        model = solve_sat(inst)
        brute = brute_solve(inst)
        assert (model is None) == (brute is None)
        if model is not None:
            assert evaluate(inst, model)

    def test_agrees_with_brute_force_larger(self):
        for seed in range(30):
            inst = random_instance(6 + seed % 7, 3 * (6 + seed % 7), seed)
            model = solve_sat(inst)
            brute = brute_solve(inst)
            assert (model is None) == (brute is None), f"seed {seed}"
            if model is not None:
                assert evaluate(inst, model)


class TestAssignmentContract:
    """``solve_sat`` returns the reference DPLL's assignment, not just its verdict.

    Reports print the edge a reinforcement witness adds, and the
    assignment picks it, so a different satisfying assignment is a
    different report.
    """

    @given(cnf_instances(max_vars=8, max_clauses=30))
    @settings(max_examples=200)
    def test_matches_reference(self, inst):
        assert solve_sat(inst) == reference_solve_sat(inst)

    def test_matches_reference_seeded(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(3, 12)
            inst = random_instance(n, rng.randint(0, int(5.5 * n)), rng.randrange(1 << 30))
            assert solve_sat(inst) == reference_solve_sat(inst), to_dimacs(inst)


class TestRandomInstance:
    def test_zero_clauses(self):
        assert random_instance(3, 0, 1).clauses == ()

    def test_deterministic(self):
        assert random_instance(5, 10, 42) == random_instance(5, 10, 42)

    def test_clauses_valid(self):
        inst = random_instance(3, 8, 7)
        assert inst.num_clauses == 8
        for clause in inst.clauses:
            assert len({abs(lit) for lit in clause}) == 3
            assert all(1 <= abs(lit) <= 3 for lit in clause)

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariablesError):
            random_instance(2, 1, 0)

    def test_negative_clause_count(self):
        with pytest.raises(CnfError, match="non-negative"):
            random_instance(3, -5, 0)
