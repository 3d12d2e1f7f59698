import importlib
import io
import json

import pytest

from conftest import FIG_DIMACS, UNSAT8_DIMACS
from domkit.cli import main
from domkit.graph import Graph
from domkit.reductions import ReductionKind
from domkit.verify import ClaimCheck, VerificationReport

P4_TEXT = "p graph 4 3\nv x1\nv x2\nv x3\nv x4\ne x1 x2\ne x2 x3\ne x3 x4\n"
K2_TEXT = "p graph 2 1\nv a\nv b\ne a b\n"
C4_TEXT = "p graph 4 4\nv x1\nv x2\nv x3\nv x4\ne x1 x2\ne x2 x3\ne x3 x4\ne x1 x4\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fig_cnf(tmp_path):
    path = tmp_path / "fig.cnf"
    path.write_text(FIG_DIMACS)
    return str(path)


@pytest.fixture
def p4_graph(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(P4_TEXT)
    return str(path)


class TestComputeCommands:
    def test_reduce_then_gamma(self, capsys, tmp_path, fig_cnf):
        graph_path = tmp_path / "out.graph"
        roles_path = tmp_path / "out.roles"
        code, out, _ = run(
            capsys, "reduce", "--kind", "bondage", fig_cnf, "-o", str(graph_path), "--roles", str(roles_path)
        )
        assert code == 0 and out == ""
        g = Graph.from_text(graph_path.read_text())
        assert (g.num_vertices, g.num_edges) == (30, 41)
        assert len(roles_path.read_text().splitlines()) == 30

        code, out, _ = run(capsys, "gamma", str(graph_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma 9"
        assert lines[1].startswith("witness ")
        assert len(lines[1].split()) == 10

    def test_reduce_to_stdout(self, capsys, fig_cnf):
        code, out, _ = run(capsys, "reduce", "--kind", "reinforcement", fig_cnf)
        assert code == 0
        assert out.startswith("p graph 28 36\n")

    def test_gamma_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(P4_TEXT))
        code, out, _ = run(capsys, "gamma", "-")
        assert code == 0
        assert out.splitlines()[0] == "gamma 2"

    def test_gamma_t(self, capsys, p4_graph):
        code, out, _ = run(capsys, "gamma-t", p4_graph)
        assert code == 0
        assert out.splitlines()[0] == "gamma_t 2"

    def test_bondage_command(self, capsys, tmp_path):
        path = tmp_path / "k2.graph"
        path.write_text(K2_TEXT)
        code, out, _ = run(capsys, "bondage", str(path))
        assert code == 0
        assert out == "bondage 1\nbase 1\nwitness-edge a b\n"

    def test_max_k_flag(self, capsys, tmp_path):
        path = tmp_path / "c4.graph"
        path.write_text(C4_TEXT)
        code, out, _ = run(capsys, "bondage", str(path), "--max-k", "1")
        assert code == 0
        assert out.splitlines()[0] == "bondage undefined"

    def test_total_bondage_command(self, capsys, p4_graph):
        code, out, _ = run(capsys, "total-bondage", p4_graph)
        assert code == 0
        assert out == "total_bondage 1\nbase 2\nwitness-edge x2 x3\n"

    def test_reinforcement_command(self, capsys, p4_graph):
        code, out, _ = run(capsys, "reinforcement", p4_graph)
        assert code == 0
        assert out == "reinforcement 1\nbase 2\nwitness-edge x1 x3\n"

    def test_total_reinforcement_zero_marker(self, capsys, tmp_path):
        path = tmp_path / "p3.graph"
        path.write_text("p graph 3 2\nv a\nv b\nv c\ne a b\ne b c\n")
        code, out, _ = run(capsys, "total-reinforcement", str(path))
        assert code == 0
        assert out == "total_reinforcement 0\nbase 2\n"

    def test_sat_command(self, capsys, fig_cnf, tmp_path):
        code, out, _ = run(capsys, "sat", fig_cnf)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "satisfiable"
        assert lines[1].startswith("assignment 1=")

        unsat = tmp_path / "unsat.cnf"
        unsat.write_text(UNSAT8_DIMACS)
        code, out, _ = run(capsys, "sat", str(unsat))
        assert code == 0
        assert out == "unsatisfiable\n"

    def test_export_dot(self, capsys, p4_graph):
        code, out, _ = run(capsys, "export-dot", p4_graph)
        assert code == 0
        assert out.startswith("graph {")
        assert '"x1" -- "x2";' in out


class TestVerifyCommands:
    def test_verify_json(self, capsys, fig_cnf):
        code, out, _ = run(capsys, "verify", "--kind", "reinforcement", fig_cnf, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "reinforcement"
        assert data["gamma"] == 9
        assert data["perturbation"] == 1
        assert all(entry["pass"] for entry in data["claims"])

    def test_reduce_output_reproducible(self, capsys, fig_cnf):
        _, out1, _ = run(capsys, "reduce", "--kind", "total-bondage", fig_cnf)
        _, out2, _ = run(capsys, "reduce", "--kind", "total-bondage", fig_cnf)
        assert out1 == out2

    def test_verify_human_output_reproducible(self, capsys, fig_cnf):
        code1, out1, _ = run(capsys, "verify", "--kind", "bondage", fig_cnf)
        code2, out2, _ = run(capsys, "verify", "--kind", "bondage", fig_cnf)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result: PASS" in out1

    def test_verify_exit_1_on_failed_claim(self, capsys, monkeypatch, fig_cnf):
        failing = VerificationReport(
            kind=ReductionKind.BONDAGE,
            num_vars=4,
            num_clauses=3,
            satisfiable=True,
            parameter_name="gamma",
            parameter_value=8,
            perturbation_name="b",
            perturbation_value=2,
            deep_checked=False,
            elapsed_ms=0.1,
            claims=[ClaimCheck("made-up", "x", "y", False)],
        )
        monkeypatch.setattr("domkit.cli.verify", lambda *a, **kw: failing)
        code, out, _ = run(capsys, "verify", "--kind", "bondage", fig_cnf)
        assert code == 1
        assert "result: FAIL" in out

    def test_fuzz_human(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--kind", "bondage", "-n", "3", "-m", "2", "--trials", "3", "--seed", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines if l.startswith("trial ")]) == 3
        assert lines[-1] == "fuzz bondage: 3/3 passed"

    def test_fuzz_json(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--kind", "total-reinforcement", "-n", "3", "-m", "2",
            "--trials", "2", "--seed", "9", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert all(d["kind"] == "total-reinforcement" for d in data)


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gamma", "/nonexistent/file.graph")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("this is not a graph\n")
        code, _, err = run(capsys, "gamma", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_cnf(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 3 1\n1 -1 2 0\n")
        code, _, err = run(capsys, "sat", str(path))
        assert code == 2
        assert "error:" in err

    def test_gamma_t_isolated_vertex(self, capsys, tmp_path):
        path = tmp_path / "iso.graph"
        path.write_text("p graph 3 1\nv a\nv b\nv c\ne a b\n")
        code, _, err = run(capsys, "gamma-t", str(path))
        assert code == 2
        assert "isolated" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_negative_max_k(self, capsys, p4_graph):
        code, out, err = run(capsys, "bondage", p4_graph, "--max-k", "-1")
        assert code == 2 and out == ""
        assert "error:" in err and "--max-k" in err

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "fuzz", "--kind", "bondage", "-n", "3", "-m", "2", "--trials", "-3")
        assert code == 2 and out == ""
        assert "error:" in err and "--trials" in err

    def test_negative_clause_count(self, capsys):
        code, out, err = run(capsys, "fuzz", "--kind", "bondage", "-n", "3", "-m", "-5", "--trials", "2")
        assert code == 2 and out == ""
        assert "error:" in err and "--num-clauses" in err

    def test_negative_jobs(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--kind", "bondage", "-n", "3", "-m", "2", "--trials", "1", "--jobs", "-4"
        )
        assert code == 2 and out == ""
        assert "error:" in err and "--jobs" in err

    def test_fuzz_too_few_variables(self, capsys):
        code, _, err = run(capsys, "fuzz", "--kind", "bondage", "-n", "2", "-m", "2", "--trials", "1")
        assert code == 2
        assert "error:" in err

    def test_verify_reinforcement_kinds_reject_zero_variables(self, capsys, monkeypatch):
        verify_module = importlib.import_module("domkit.verify")
        searched = []
        for name in ("reinforcement_number", "total_reinforcement_number"):
            monkeypatch.setattr(verify_module, name, lambda *a, name=name, **kw: searched.append(name))
        for kind in ("reinforcement", "total-reinforcement"):
            monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 0 0\n"))
            code, out, err = run(capsys, "verify", "--kind", kind, "-")
            assert code == 2 and out == ""
            assert err == f"error: {kind} needs an instance with at least 1 variable, got 0\n"
        assert searched == []
        for kind in ("bondage", "total-bondage"):
            monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 0 0\n"))
            code, out, _ = run(capsys, "verify", "--kind", kind, "-")
            assert code == 0
            assert out.endswith("result: PASS\n")
