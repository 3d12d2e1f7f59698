"""domkit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-sat --seed 1 --seconds 30 --trace 0

Run from the repository root; domkit is imported from `src/` next to
this directory.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` reports the end-to-end metrics of a closed
loop that runs items for `--seconds`; `--trace 1` runs a fixed, seeded
list of items once untraced and once traced and reports per-layer
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from itertools import cycle
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
# The traced run's items take this share of --seconds untraced; each is
# also run traced, so the whole run takes about --seconds.
TRACE_SHARE = 0.5
TAIL_BEYOND = 10
# Milliseconds `reference_loop` takes on the baseline machine when quiet.
REFERENCE_MS = 8.0

UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("calls", "candidates", "sets")):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    return "ms" if name.endswith("_ms") else "s"


def fresh_import():
    """Import domkit from this checkout's `src/`, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "domkit" or m.startswith("domkit.")]:
        del sys.modules[name]
    domkit = importlib.import_module("domkit")
    if Path(domkit.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"domkit imported from {domkit.__file__}, not from {SRC}")
    return domkit


def reference_loop() -> float:
    """Milliseconds this host now takes for a fixed loop of integer bit work.

    The loop is the benchmark's own and never changes.  The host this
    benchmark was built on drifts in speed by up to 75% over minutes and
    in spells of a few seconds; end-to-end times are scaled by
    REFERENCE_MS over this loop's time, measured right before and right
    after what is timed, so that the drift cancels.
    """
    start = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(40_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += (x & (x >> 7)).bit_count()
    return (time.perf_counter() - start) * 1000


def set_up(workload, seed: int, count: int):
    """Import, make and check inputs, warm up; repeated, median time kept.

    The time is scaled to the reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        start = time.perf_counter()
        domkit = fresh_import()
        items = workload.make_items(domkit, seed, count)
        workload.warm_up(domkit)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 * REFERENCE_MS / (before + reference_loop()))
    return domkit, items, statistics.median(times)


def median_hd(samples: list[float]) -> float:
    """The Harrell-Davis estimate of the median.

    A weighted mean of the order statistics, the weight of the i-th being
    the Beta((n+1)/2, (n+1)/2) mass over ((i-1)/n, i/n], here by the
    midpoint rule.  Per-call times cluster by kind, and where half the
    calls fall in one cluster the sample median jumps across the gap
    from run to run; this estimate moves smoothly.
    """
    points_per_sample = 16
    ordered = sorted(samples)
    n = len(ordered)
    shape = (n + 1) / 2 - 1
    steps = n * points_per_sample
    log_pdf = [shape * (math.log((j + 0.5) / steps) + math.log(1 - (j + 0.5) / steps)) for j in range(steps)]
    top = max(log_pdf)
    weights = [0.0] * n
    for j, value in enumerate(log_pdf):
        weights[j // points_per_sample] += math.exp(value - top)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    With too few samples for that, the maximum.
    """
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def report_failures(calls, out) -> int:
    failed = [c for c in calls if c.error]
    for call in failed[:5]:
        print(f"FAILED {call.label}: {call.error}", file=sys.stderr)
    print(f"failed_ratio = {len(failed)}/{len(calls)} = {len(failed) / len(calls):.6g}", file=out)
    return len(failed)


def call_counts(calls) -> str:
    counts: dict[str, int] = {}
    for call in calls:
        counts[call.label] = counts.get(call.label, 0) + 1
    return " ".join(f"{label}={n}" for label, n in counts.items())


def timed_run(workload, seed: int, seconds: float, out=sys.stdout) -> dict:
    """Closed loop: the next item starts when the previous one returns.

    Times are scaled to the reference speed, item by item, by the
    reference loop run between items.
    """
    count = math.ceil(3 * seconds / workload.item_seconds) + 2
    count += -count % workload.group
    domkit, items, setup_s = set_up(workload, seed, count)
    calls, done, durations, references = [], [], [], [reference_loop()]
    raw_s = scaled_s = 0.0
    deadline = time.perf_counter() + seconds
    for item in cycle(items):
        start = time.perf_counter()
        item_calls = workload.run_item(domkit, item)
        item_s = time.perf_counter() - start
        references.append(reference_loop())
        scale = 2 * REFERENCE_MS / (references[-2] + references[-1])
        raw_s += item_s
        scaled_s += item_s * scale
        durations += [c.seconds * scale * 1000 for c in item_calls]
        calls += item_calls
        done.append(item)
        if len(done) % workload.group == 0 and time.perf_counter() >= deadline:
            break

    print(f"inputs: {len(items)} items ({workload.describe(items)})", file=out)
    print(f"ran: {len(done)} items ({workload.describe(done)}); calls {call_counts(calls)}", file=out)
    print(f"host: reference loop median {statistics.median(references):.3g} ms (reference {REFERENCE_MS:g} ms); "
          f"unscaled items_per_s {len(done) / raw_s:.6g}, call_p50_ms {median_hd([c.seconds * 1000 for c in calls]):.6g}",
          file=out)
    failed = report_failures(calls, out)
    tail_ms, tail_pct = tail(durations)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(done) / scaled_s,
        "call_p50_ms": median_hd(durations),
        "call_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, value in metrics.items():
        note = f"  (p{tail_pct:.1f} of {len(durations)} calls)" if name == "call_tail_ms" else ""
        print(f"{name} = {value:.6g} {UNITS[name]}{note}", file=out)
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}}


def traced_run(workload, seed: int, seconds: float, out=sys.stdout) -> dict:
    """Each seeded item untraced and traced, in alternating order; per-layer metrics."""
    count = max(2, round(TRACE_SHARE * seconds / workload.item_seconds))
    count += -count % workload.group
    domkit, items, _ = set_up(workload, seed, count)

    tracer = Tracer()
    calls = []
    wall = {False: 0.0, True: 0.0}
    for index, item in enumerate(items):
        tracer.item = index
        for traced in (False, True) if index % 2 == 0 else (True, False):
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                calls += workload.run_item(domkit, item)
                wall[traced] += time.perf_counter() - start

    print(f"traced items: {len(items)} ({workload.describe(items)}); calls over both passes "
          f"{call_counts(calls)}", file=out)
    print(f"spans: {len(tracer.spans)}", file=out)
    failed = report_failures(calls, out)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {per_layer_unit(name)}", file=out)
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {name: {"value": value, "unit": per_layer_unit(name)} for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "domkit" / "__init__.py").is_file():
        print(f"error: no domkit sources at {SRC}; run from a domkit checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
