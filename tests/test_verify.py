import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import domkit
from domkit.cnf import CnfInstance, TooFewVariablesError, random_instance
from domkit.domination import BudgetExceededError
from domkit.reductions import KindMismatchError, ReductionKind, build
from domkit.verify import ClaimCheck, VerificationReport, fuzz, verify

TINY = CnfInstance(3, ((1, 2, 3),))


def claim_ids(report):
    return [c.claim_id for c in report.claims]


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
    def test_enumeration_cap_gives_an_undetermined_claim(self, monkeypatch, kind):
        full = verify(kind, TINY, deep=True)

        def capped(*args, **kwargs):
            raise BudgetExceededError("more than 7 minimum sets")

        # ``domkit.verify`` is the function; the module has to be looked up
        monkeypatch.setattr(importlib.import_module("domkit.verify"), "enumerate_minimum_sets", capped)
        report = verify(kind, TINY, deep=True)
        assert report.deep_checked and not report.passed
        assert claim_ids(report) == claim_ids(full)
        for entry, unpatched in zip(report.claims, full.claims):
            if "structure" in entry.claim_id:
                assert not entry.passed
                assert entry.observed == "undetermined: more than 7 minimum sets"
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

    def test_too_few_variables(self):
        with pytest.raises(TooFewVariablesError):
            fuzz(ReductionKind.BONDAGE, 2, 3, 1, 0)

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
