"""Pinned witnesses: the exact γ/γ_t witnesses and enumeration order.

The γ/γ_t witness is the last cover of the decide loop (see
``domkit.domination``): deterministic, but it moves when the kernel's
branch order does, while the order of every enumeration is fixed.  The
fixture ``data/pinned_witnesses.json`` records both for seeded random
connected graphs with 8 to 40 vertices (enumerations only up to 16
vertices, where they stay small and fast), so a change that moves
either shows here.  The graphs are rebuilt from their seeds, so the
fixture holds only the outputs.

A deliberate change to the witnesses must say so and rewrite the
fixture with ``python tests/test_pinned_witnesses.py`` (from the repo
root, with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from domkit.domination import domination_number, enumerate_minimum_sets, total_domination_number
from domkit.graph import Graph

FIXTURE = Path(__file__).parent / "data" / "pinned_witnesses.json"
SEEDS = range(99)
ENUMERATE_MAX_N = 16


def seeded_graph(seed: int) -> Graph:
    """A connected graph: a random tree plus n/4 to 5n/4 random edge draws."""
    rng = random.Random(seed)
    n = 8 + seed % 33
    labels = [f"v{i}" for i in range(n)]
    edges = {tuple(sorted((i, rng.randrange(i)))) for i in range(1, n)}
    for _ in range(rng.randint(n // 4, 5 * n // 4)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(labels, [(labels[a], labels[b]) for a, b in sorted(edges)])


def pinned_outputs(seed: int) -> dict:
    g = seeded_graph(seed)
    record = {
        "seed": seed,
        "n": g.num_vertices,
        "gamma": sorted(domination_number(g).witness),
        "gamma_t": sorted(total_domination_number(g).witness),
    }
    if g.num_vertices <= ENUMERATE_MAX_N:
        record["minimum_sets"] = [sorted(s) for s in enumerate_minimum_sets(g)]
        record["minimum_total_sets"] = [sorted(s) for s in enumerate_minimum_sets(g, total=True)]
    return record


def test_witnesses_and_enumeration_order_are_pinned():
    pinned = json.loads(FIXTURE.read_text())
    assert [record["seed"] for record in pinned] == list(SEEDS)
    for record in pinned:
        assert pinned_outputs(record["seed"]) == record, f"seed {record['seed']}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    records = (json.dumps(pinned_outputs(seed)) for seed in SEEDS)
    FIXTURE.write_text("[\n" + ",\n".join(records) + "\n]\n")
