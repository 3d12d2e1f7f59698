"""Spans around the calls one domkit module makes into another.

A traced run swaps, for its duration only, each public function that a
domkit module imports from another module (and the `Graph` copy and
parse methods) for a wrapper that records a span: layer name, start,
end, the span that caused it, and the workload item it belongs to.
Spans stay in memory; `layer_metrics` reduces them to the per-layer
figures once the run is over.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

DECIDE = "domination.decide"
OPTIMIZE = "domination.optimize"
ENUMERATE = "domination.enumerate"
REMOVAL = "perturbation.removal"
ADDITION = "perturbation.addition"
COPY = "graph.copy"
PARSE = "graph.parse"
SOLVE = "cnf.solve"
BUILD = "reductions.build"
VERIFY = "verify"

KINDS = ("bondage", "total-bondage", "reinforcement", "total-reinforcement")

# (module, attribute, layer): every cross-module call the layers make.
# `perturbation` and `verify` import the domination and builder functions
# by name, so each importing namespace is patched, not `domination`.
_FUNCTION_TARGETS = (
    [(mod, name, DECIDE) for mod in ("perturbation", "verify")
     for name in ("has_dominating_set_within", "has_total_dominating_set_within")]
    + [(mod, name, OPTIMIZE) for mod in ("", "perturbation", "verify")
       for name in ("domination_number", "total_domination_number")]
    + [("verify", "enumerate_minimum_sets", ENUMERATE)]
    + [("verify", name, REMOVAL) for name in ("bondage_number", "total_bondage_number")]
    + [("verify", name, ADDITION) for name in ("reinforcement_number", "total_reinforcement_number")]
    + [("verify", "solve_sat", SOLVE)]
    + [("verify", f"build_{kind.replace('-', '_')}", BUILD) for kind in KINDS]
    + [("", "verify", VERIFY)]
)


@dataclass
class Span:
    layer: str
    parent: int  # index of the causing span in Tracer.spans, -1 at top level
    item: int  # index of the workload item being processed
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    tag: object = None  # decide: the verdict; enumerate: sets found; verify: kind
    # (None where the call raised, except for verify)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = -1
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        spans, open_stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(layer, open_stack[-1] if open_stack else -1, self.item)
            if layer == VERIFY:
                span.tag = args[0]  # the kind, as the benchmark passes it
            index = len(spans)
            spans.append(span)
            open_stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if layer == DECIDE:
                span.tag = result
            elif layer == ENUMERATE:
                span.tag = len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target in the currently imported domkit; restore on exit."""
        saved = []
        for mod_name, attr, layer in _FUNCTION_TARGETS:
            module = importlib.import_module("domkit" + ("." + mod_name if mod_name else ""))
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(layer, getattr(module, attr)))
        graph_cls = importlib.import_module("domkit.graph").Graph
        for attr in ("remove_edges", "add_edges"):
            saved.append((graph_cls, attr, graph_cls.__dict__[attr]))
            setattr(graph_cls, attr, self.wrap(COPY, graph_cls.__dict__[attr]))
        from_text = graph_cls.__dict__["from_text"]
        saved.append((graph_cls, "from_text", from_text))
        graph_cls.from_text = classmethod(self.wrap(PARSE, from_text.__func__))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls, inclusive and self seconds, candidates and hit ratios."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    candidates = {REMOVAL: 0, ADDITION: 0, VERIFY: 0}
    hits = {REMOVAL: 0, ADDITION: 0}
    enumerated = 0
    per_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for span in spans:
        duration = span.end - span.start
        calls[span.layer] = calls.get(span.layer, 0) + 1
        total[span.layer] = total.get(span.layer, 0.0) + duration
        self_s[span.layer] = self_s.get(span.layer, 0.0) + duration - span.child_s
        if span.layer == DECIDE and span.parent >= 0:
            parent = spans[span.parent].layer
            if parent in candidates:
                candidates[parent] += 1
            # A removal candidate hits when the cover no longer fits the
            # old value; an addition candidate hits when a smaller one does.
            if (parent == REMOVAL and span.tag is False) or (parent == ADDITION and span.tag is True):
                hits[parent] += 1
        elif span.layer == ENUMERATE:
            enumerated += span.tag or 0
        elif span.layer == VERIFY:
            per_kind[span.tag].append(duration * 1000)

    out: dict[str, float] = {}
    for layer in (DECIDE, OPTIMIZE, ENUMERATE):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = total.get(layer, 0.0)
    out[f"{ENUMERATE}.sets"] = enumerated
    for layer in (REMOVAL, ADDITION):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.candidates"] = candidates[layer]
        out[f"{layer}.hit_ratio"] = hits[layer] / candidates[layer] if candidates[layer] else 0.0
    out[f"{COPY}.calls"] = calls.get(COPY, 0)
    out[f"{COPY}.s"] = total.get(COPY, 0.0)
    out[f"{PARSE}.s"] = total.get(PARSE, 0.0)
    for layer in (SOLVE, BUILD):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = total.get(layer, 0.0)
    out[f"{VERIFY}.self_s"] = self_s.get(VERIFY, 0.0)
    out[f"{VERIFY}.sweep.candidates"] = candidates[VERIFY]
    for kind in KINDS:
        out[f"{VERIFY}.{kind}.p50_ms"] = statistics.median(per_kind[kind]) if per_kind[kind] else 0.0
    return out
