"""Pinned reports: the exact claim texts of ``verify`` for all four kinds.

Every claim id, expected and observed text, parameter and perturbation
value, and the rendered report lines are part of the output contract.
The fixture ``data/pinned_reports.json`` records ``to_lines()`` and
``to_dict()`` (less ``elapsed_ms``) for each kind, with and without
``deep``, on the instances below.  They cover both directions of every
"iff" claim:

  * n=3, m=13 seeds, five unsatisfiable and three satisfiable: the
    unsatisfiable ones reach total bondage's deep check above the exact
    bound, bondage's skipped deep check and the "0 augmenting edges"
    reinforcement branch;
  * the 8-clause unsatisfiable instance and the clause-free instance;
  * n=4, m=8 (deep runs) and n=5, m=10 (deep is skipped, above the
    variable limit).

The instances are rebuilt from their seeds, so the fixture holds only
the outputs.  A deliberate change to a report must say so and rewrite
the fixture with ``python tests/test_pinned_reports.py`` (from the repo
root, with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import UNSAT8_DIMACS
from domkit.cnf import CnfInstance, parse_dimacs, random_instance
from domkit.reductions import ReductionKind
from domkit.verify import verify

FIXTURE = Path(__file__).parent / "data" / "pinned_reports.json"

CASES = {
    **{f"n3-m13-seed{seed}": (3, 13, seed) for seed in (3, 16, 23, 32, 35, 0, 1, 2)},
    "n4-m8-seed1": (4, 8, 1),
    "n5-m10-seed1": (5, 10, 1),
    "unsat8": None,
    "no-clauses": None,
}


def case_instance(case: str) -> CnfInstance:
    if case == "unsat8":
        return parse_dimacs(UNSAT8_DIMACS)
    if case == "no-clauses":
        return CnfInstance(3, ())
    return random_instance(*CASES[case])


def pinned_report(case: str, kind: ReductionKind, deep: bool) -> dict:
    report = verify(kind, case_instance(case), deep=deep)
    as_dict = report.to_dict()
    del as_dict["elapsed_ms"]
    return {"case": case, "kind": kind.value, "deep": deep, "lines": report.to_lines(), "dict": as_dict}


def all_keys() -> list[tuple[str, ReductionKind, bool]]:
    return [(case, kind, deep) for case in CASES for kind in ReductionKind for deep in (False, True)]


def test_reports_are_pinned():
    pinned = json.loads(FIXTURE.read_text())
    assert [(r["case"], r["kind"], r["deep"]) for r in pinned] == [
        (case, kind.value, deep) for case, kind, deep in all_keys()
    ]
    for record in pinned:
        key = (record["case"], ReductionKind(record["kind"]), record["deep"])
        assert pinned_report(*key) == record, key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    records = (json.dumps(pinned_report(*key)) for key in all_keys())
    FIXTURE.write_text("[\n" + ",\n".join(records) + "\n]\n")
