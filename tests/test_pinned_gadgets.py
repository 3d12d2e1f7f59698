"""Pinned gadgets: the exact output of ``reduce`` for all four kinds.

The vertex order, the edge order and the role of every vertex are part
of the output contract: ``domkit reduce`` writes them, and the pinned
witnesses and reports depend on them.  The fixture
``data/pinned_gadgets.json`` records the graph text and the role map of
each kind's gadget on the worked example, on its total-reinforcement
variant and on the clause-free instance with three variables.  The
instances are rebuilt here, so the fixture holds only the outputs.

A deliberate change to a gadget must say so and rewrite the fixture
with ``python tests/test_pinned_gadgets.py`` (from the repo root, with
``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import FIG4_DIMACS, FIG_DIMACS
from domkit.cnf import CnfInstance, parse_dimacs
from domkit.reductions import ReductionKind, build, roles_to_text

FIXTURE = Path(__file__).parent / "data" / "pinned_gadgets.json"

CASES = {
    "worked-example": lambda: parse_dimacs(FIG_DIMACS),
    "worked-example-variant": lambda: parse_dimacs(FIG4_DIMACS),
    "no-clauses": lambda: CnfInstance(3, ()),
}


def pinned_gadget(case: str, kind: ReductionKind) -> dict:
    out = build(kind, CASES[case]())
    return {"case": case, "kind": kind.value, "graph": out.graph.to_text(), "roles": roles_to_text(out)}


def all_keys() -> list[tuple[str, ReductionKind]]:
    return [(case, kind) for case in CASES for kind in ReductionKind]


def test_gadgets_are_pinned():
    pinned = json.loads(FIXTURE.read_text())
    assert [(r["case"], r["kind"]) for r in pinned] == [(case, kind.value) for case, kind in all_keys()]
    for record in pinned:
        key = (record["case"], ReductionKind(record["kind"]))
        assert pinned_gadget(*key) == record, key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    records = (json.dumps(pinned_gadget(*key)) for key in all_keys())
    FIXTURE.write_text("[\n" + ",\n".join(records) + "\n]\n")
