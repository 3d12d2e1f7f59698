"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify-sat --seeds 1-10 [--trace 1] [--seconds N]

For every metric: the median of the per-seed values, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect, {result['failed']}/{result['attempted']} failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                          if not args.trace or not k.endswith(("_s", "_ms", ".s"))), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        note = "" if bound is None else f" bound {bound}" + (" OVER" if spread > bound else "")
        print(f"{name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{note}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                      "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
