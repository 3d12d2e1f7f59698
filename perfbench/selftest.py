"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its name and
unit, that traced counts repeat exactly for one seed, that a wrong
verdict is counted as a failed call, that a raising call does not break
the trace summary, and that the benchmark refuses to run without the
domkit sources.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import run
import tracing
from workloads import GraphWorkload, VerifyWorkload, covers, random_graph, verdict_error

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".candidates", ".sets")


def tiny_pool() -> list[dict]:
    """Three 9-10 vertex graphs, their values found by trying every vertex subset."""
    rng = random.Random(7)
    pool = []
    for _ in range(3):
        n, edges = random_graph(rng, 9, 10)
        values = [next(k for k in range(1, n + 1)
                       if any(covers(n, edges, list(c), closed) for c in combinations(range(n), k)))
                  for closed in (True, False)]
        pool.append({"n": n, "edges": edges, "gamma": values[0], "gamma_t": values[1]})
    return pool


TINY_VERIFY = VerifyWorkload("tiny-verify", num_vars=3, num_clauses=4, deep=True, balanced=False, item_seconds=0.05)
TINY_GRAPHS = GraphWorkload("tiny-graphs", pool=tiny_pool, item_seconds=0.01)
TINY_SECONDS = 0.2


class WrongAnswers(VerifyWorkload):
    """Expects the opposite of the brute-force answer on the first instance."""

    def make_items(self, domkit, seed, count):
        items = super().make_items(domkit, seed, count)
        return [replace(items[0], sat=not items[0].sat)] + items[1:]


def run_quietly(fn, *args):
    out = io.StringIO()
    return fn(*args, out=out), out.getvalue()


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_printed_with_name_and_unit(self):
        for trace, fn, section in ((0, run.timed_run, "end_to_end"), (1, run.traced_run, "per_layer")):
            for workload in (TINY_VERIFY, TINY_GRAPHS):
                with self.subTest(workload=workload.name, trace=trace):
                    result, text = run_quietly(fn, workload, 1, TINY_SECONDS)
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for name, unit in expected.items():
                        self.assertRegex(text, rf"(?m)^{name} = \S+ {unit}\b")

    def test_traced_counts_repeat_for_one_seed(self):
        for workload in (TINY_VERIFY, TINY_GRAPHS):
            with self.subTest(workload=workload.name):
                first, second = (run_quietly(run.traced_run, workload, 3, TINY_SECONDS)[0]["metrics"]
                                 for _ in range(2))
                counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)
                self.assertGreater(first["domination.optimize.calls"]["value"], 0)

    def test_wrong_verdict_raises_failed_ratio(self):
        wrong = WrongAnswers(**vars(TINY_VERIFY))
        result, _ = run_quietly(run.timed_run, wrong, 1, TINY_SECONDS)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 4)  # every kind disagrees on that instance

        def report(sat, perturbation):
            return SimpleNamespace(passed=True, claims=[], satisfiable=sat, perturbation_value=perturbation)

        self.assertIsNone(verdict_error(report(True, 1), sat=True))
        self.assertIsNone(verdict_error(report(False, 2), sat=False))
        self.assertIn("perturbation 2", verdict_error(report(True, 2), sat=True))
        self.assertIn("perturbation 1", verdict_error(report(False, 1), sat=False))

    def test_trace_summary_survives_raising_calls(self):
        def boom(*args):
            raise ValueError("boom")

        tracer = tracing.Tracer()
        for layer, args in ((tracing.VERIFY, ("bondage",)), (tracing.ENUMERATE, ()), (tracing.DECIDE, ())):
            with self.assertRaises(ValueError):
                tracer.wrap(layer, boom)(*args)
        metrics = tracing.layer_metrics(tracer.spans)
        self.assertEqual(metrics["domination.enumerate.calls"], 1)
        self.assertEqual(metrics["domination.enumerate.sets"], 0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-sat", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
