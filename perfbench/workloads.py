"""Workload inputs, the calls each item makes, and the answer checks.

Every input is made here from the run seed with the benchmark's own
generators, and every answer is checked against the benchmark's own
code: a brute force over all 2^n assignments for 3SAT instances, and
bitmask domination checks plus pinned values for graphs.  domkit only
receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import KINDS

PINNED_PATH = Path(__file__).with_name("pinned_graphs.json")


@dataclass
class Call:
    """One top-level call: its wall time and why it failed, if it did."""

    label: str
    seconds: float
    error: str | None = None


# -- 3SAT instances ----------------------------------------------------


def random_clauses(rng: random.Random, num_vars: int, num_clauses: int) -> tuple[tuple[int, ...], ...]:
    """Uniform random 3-clauses over distinct variables, signs uniform."""
    clauses = []
    for _ in range(num_clauses):
        chosen = sorted(rng.sample(range(1, num_vars + 1), 3))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return tuple(clauses)


def brute_force_sat(num_vars: int, clauses) -> bool:
    """Whether some assignment of the 2^n satisfies every clause."""
    for bits in range(1 << num_vars):
        if all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause) for clause in clauses):
            return True
    return False


@dataclass(frozen=True)
class VerifyItem:
    instance: object  # domkit.CnfInstance
    sat: bool  # the benchmark's own answer


def verdict_error(report, sat: bool) -> str | None:
    """Why a verification report disagrees with the benchmark, or None."""
    if not report.passed:
        failed = [c.claim_id for c in report.claims if not c.passed]
        return f"report failed claims {failed}"
    if report.satisfiable != sat:
        return f"report says sat={report.satisfiable}, brute force says {sat}"
    if (report.perturbation_value == 1) != sat:
        return f"perturbation {report.perturbation_value} but brute force says sat={sat}"
    return None


@dataclass(frozen=True)
class VerifyWorkload:
    """`verify(kind, instance)` for all four kinds on each instance."""

    name: str
    num_vars: int
    num_clauses: int
    deep: bool
    balanced: bool  # alternate sat and unsat instances, drawn until each fits
    item_seconds: float  # rough cost of one item here; sizes pools only

    @property
    def group(self) -> int:
        """Items run as a whole before the loop may stop: a sat/unsat pair when balanced.

        A run that stops after an odd item has more calls of one kind of
        instance than of the other, and the median call time moves with it.
        """
        return 2 if self.balanced else 1

    def make_items(self, domkit, seed: int, count: int) -> list[VerifyItem]:
        rng = random.Random(seed)
        items: list[VerifyItem] = []
        while len(items) < count:
            clauses = random_clauses(rng, self.num_vars, self.num_clauses)
            sat = brute_force_sat(self.num_vars, clauses)
            if self.balanced and sat != (len(items) % 2 == 0):
                continue
            items.append(VerifyItem(domkit.CnfInstance(self.num_vars, clauses), sat))
        return items

    def warm_up(self, domkit) -> None:
        inst = domkit.CnfInstance(3, ((1, 2, 3), (-1, -2, 3)))
        for kind in KINDS:
            domkit.verify(kind, inst, deep=self.deep)

    def run_item(self, domkit, item: VerifyItem) -> list[Call]:
        calls = []
        for kind in KINDS:
            start = time.perf_counter()
            try:
                report = domkit.verify(kind, item.instance, deep=self.deep)
            except Exception as exc:  # a raising call is a failed call; keep measuring
                error = f"raised {exc!r}"
            else:
                error = verdict_error(report, item.sat)
            calls.append(Call(kind, time.perf_counter() - start, error))
        return calls

    def describe(self, items: list[VerifyItem]) -> str:
        sat = sum(item.sat for item in items)
        return f"sat {sat}, unsat {len(items) - sat}"


# -- graphs --------------------------------------------------------------


def random_graph(rng: random.Random, min_n: int, max_n: int) -> tuple[int, list[tuple[int, int]]]:
    """G(n, 2n) without isolated vertices (so gamma_t exists), n uniform."""
    n = rng.randint(min_n, max_n)
    while True:
        edges: set[tuple[int, int]] = set()
        while len(edges) < 2 * n:
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        touched = {v for edge in edges for v in edge}
        if len(touched) == n:
            return n, sorted(edges)


def graph_fingerprint(n: int, edges) -> str:
    return hashlib.sha256(f"{n}:{edges}".encode()).hexdigest()[:16]


def covers(n: int, edges, chosen: list[int], closed: bool) -> bool:
    """Whether `chosen` (total, if not closed) dominates, by bitmask."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    covered = 0
    for v in chosen:
        covered |= adj[v] | ((1 << v) if closed else 0)
    return covered == (1 << n) - 1


@dataclass(frozen=True)
class GraphItem:
    pool_index: int
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str  # vertex v is labelled x<v>; edge lines in a seeded order
    gamma: int
    gamma_t: int


@dataclass(frozen=True)
class GraphWorkload:
    """`Graph.from_text`, then `domination_number` and `total_domination_number`.

    The graphs form a fixed pool whose values are pinned, visited in
    passes, each pass in a seeded order.  The pool is fixed rather than
    drawn per seed because the solver's time per graph is heavy-tailed
    (one vertex order of a graph took 0.11 s, another 0.77 s): a run of
    one pool pass sees the same work on every seed, and a fresh draw of
    ~60 graphs per run moved the median call time by ~25% between seeds.
    """

    name: str
    pool: Callable[[], list[dict]]  # n, edges, gamma, gamma_t per graph
    item_seconds: float
    group = 1  # items run as a whole before the loop may stop

    def make_items(self, domkit, seed: int, count: int) -> list[GraphItem]:
        rng = random.Random(seed)
        pool = self.pool()
        items: list[GraphItem] = []
        while len(items) < count:
            for index in rng.sample(range(len(pool)), len(pool)):
                entry = pool[index]
                n, edges = entry["n"], entry["edges"]
                lines = [f"p graph {n} {len(edges)}"] + [f"v x{v}" for v in range(n)]
                lines += [f"e x{a} x{b}" if rng.random() < 0.5 else f"e x{b} x{a}"
                          for a, b in rng.sample(edges, len(edges))]
                items.append(GraphItem(index, n, tuple(edges), "\n".join(lines) + "\n",
                                       entry["gamma"], entry["gamma_t"]))
        return items[:count]

    def warm_up(self, domkit) -> None:
        g = domkit.Graph.from_text("p graph 4 3\nv a\nv b\nv c\nv d\ne a b\ne b c\ne c d\n")
        domkit.domination_number(g)
        domkit.total_domination_number(g)

    def run_item(self, domkit, item: GraphItem) -> list[Call]:
        start = time.perf_counter()
        try:
            g = domkit.Graph.from_text(item.text)
            results = (domkit.domination_number(g), domkit.total_domination_number(g))
        except Exception as exc:  # a raising call is a failed call; keep measuring
            error = f"raised {exc!r}"
        else:
            error = None
            for name, result, pinned, closed in (("gamma", results[0], item.gamma, True),
                                                 ("gamma_t", results[1], item.gamma_t, False)):
                chosen = [int(label[1:]) for label in result.witness]
                if result.value != pinned:
                    error = f"{name} {result.value}, pinned {pinned}"
                elif len(chosen) != result.value:
                    error = f"{name} witness has {len(chosen)} vertices, value {result.value}"
                elif not covers(item.n, item.edges, chosen, closed):
                    error = f"{name} witness {sorted(chosen)} does not dominate"
                if error:
                    error = f"pool graph {item.pool_index}: {error}"
                    break
        return [Call("graph", time.perf_counter() - start, error)]

    def describe(self, items: list[GraphItem]) -> str:
        return f"{len({item.pool_index for item in items})} distinct pool graphs"


def pinned_pool() -> list[dict]:
    """The graph-params pool, regenerated and checked against its pinned values."""
    pinned = json.loads(PINNED_PATH.read_text())
    rng = random.Random(pinned["pool_seed"])
    pool = []
    for entry in pinned["graphs"]:
        n, edges = random_graph(rng, *pinned["vertices"])
        if graph_fingerprint(n, edges) != entry["fingerprint"]:
            raise RuntimeError(f"pool graph {len(pool)} does not match {PINNED_PATH.name}")
        pool.append({"n": n, "edges": edges, "gamma": entry["gamma"], "gamma_t": entry["gamma_t"]})
    return pool


WORKLOADS = {
    w.name: w
    for w in (
        # The reinforcement addition scan's workload: random m = 2n
        # instances are essentially all satisfiable, so removal searches
        # stop at their first hit while the addition scan dominates.
        VerifyWorkload("verify-sat", num_vars=4, num_clauses=8, deep=False, balanced=False, item_seconds=1.6),
        # Near the 3SAT threshold, alternating sat and unsat: unsat forces
        # exhaustive removal and addition searches, and deep mode runs
        # enumeration.  n = 3 because unsat n = 4 items cost ~26 s each.
        VerifyWorkload("verify-threshold", num_vars=3, num_clauses=13, deep=True, balanced=True, item_seconds=2.4),
        # The optimize-mode kernel alone: the control that perturbation
        # work should not move.
        GraphWorkload("graph-params", pool=pinned_pool, item_seconds=0.7),
    )
}
