"""Regenerate the graph-params pool and record its values in pinned_graphs.json.

    python3 perfbench/pin_graphs.py

Run only at a commit whose domkit answers are trusted: the benchmark
checks every later run against the values written here.
"""

from __future__ import annotations

import json
import random

from run import fresh_import
from workloads import PINNED_PATH, graph_fingerprint, random_graph

POOL_SEED = 1403
POOL_SIZE = 64
VERTICES = (56, 60)


def main() -> None:
    domkit = fresh_import()
    rng = random.Random(POOL_SEED)
    graphs = []
    for _ in range(POOL_SIZE):
        n, edges = random_graph(rng, *VERTICES)
        g = domkit.Graph([f"x{v}" for v in range(n)], [(f"x{a}", f"x{b}") for a, b in edges])
        graphs.append({
            "fingerprint": graph_fingerprint(n, edges),
            "n": n,
            "m": len(edges),
            "gamma": domkit.domination_number(g).value,
            "gamma_t": domkit.total_domination_number(g).value,
        })
        print(graphs[-1], flush=True)
    pinned = {"pool_seed": POOL_SEED, "vertices": list(VERTICES), "graphs": graphs}
    PINNED_PATH.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
