"""Command-line front end: one verb per operation.

Exit codes: 0 success, 1 failed verification (some claim check did not
hold), 2 usage or input format errors.  Every input path accepts ``-``
for stdin.  Identical invocations produce identical primary output;
timing only appears in the JSON reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cnf import CnfError, parse_dimacs, solve_sat
from .domination import (
    BudgetExceededError,
    IsolatedVertexError,
    domination_number,
    total_domination_number,
)
from .graph import Graph, GraphError
from .perturbation import (
    EmptyGraphError,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from .reductions import KindMismatchError, ReductionKind, UnsatisfyingAssignmentError, build, roles_to_text
from .verify import fuzz, verify

_CLI_ERRORS = (
    GraphError,
    CnfError,
    IsolatedVertexError,
    BudgetExceededError,
    EmptyGraphError,
    UnsatisfyingAssignmentError,
    KindMismatchError,
    OSError,
    UnicodeDecodeError,
)

_KINDS = [k.value for k in ReductionKind]


def _count(text: str) -> int:
    """argparse type for counts and caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type for sizes and worker counts: a positive integer."""
    value = _count(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive, got 0")
    return value


def _read_input(path: str) -> str:
    if path == "-":  # decoded strictly, as a file is
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_dom(args: argparse.Namespace) -> int:
    result = args.solver(Graph.from_text(_read_input(args.input)))
    print(f"{args.command.replace('-', '_')} {result.value}")
    print(("witness " + " ".join(sorted(result.witness))).rstrip())
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    result = args.solver(Graph.from_text(_read_input(args.input)), max_k=args.max_k)
    print(f"{args.command.replace('-', '_')} {'undefined' if result.value is None else result.value}")
    print(f"base {result.base}")
    for a, b in result.witness or ():
        print(f"witness-edge {a} {b}")
    return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    inst = parse_dimacs(_read_input(args.input))
    assignment = solve_sat(inst)
    if assignment is None:
        print("unsatisfiable")
    else:
        print("satisfiable")
        print("assignment " + " ".join(f"{v}={'T' if assignment[v] else 'F'}" for v in sorted(assignment)))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    out = build(args.kind, parse_dimacs(_read_input(args.input)))
    _write_output(args.output, out.graph.to_text())
    if args.roles:
        _write_output(args.roles, roles_to_text(out))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.kind, parse_dimacs(_read_input(args.input)), deep=args.deep)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print("\n".join(report.to_lines()))
    return 0 if report.passed else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    reports = fuzz(
        args.kind,
        args.num_vars,
        args.num_clauses,
        args.trials,
        args.seed,
        deep=args.deep,
        jobs=args.jobs,
    )
    failures = [r for r in reports if not r.passed]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for i, r in enumerate(reports):
            pert = "undefined" if r.perturbation_value is None else r.perturbation_value
            print(
                f"trial {i}: seed={r.seed} sat={'yes' if r.satisfiable else 'no'} "
                f"{r.parameter_name}={r.parameter_value} {r.perturbation_name}={pert} "
                f"{'PASS' if r.passed else 'FAIL'}"
            )
            if not r.passed:
                for line in r.to_lines():
                    print("  " + line)
        print(f"fuzz {args.kind}: {len(reports) - len(failures)}/{len(reports)} passed")
    return 0 if not failures else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _write_output(args.output, Graph.from_text(_read_input(args.input)).to_dot())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domkit",
        description="Exact domination-family graph parameters, 3SAT gadget reductions, and claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, solver in (("gamma", domination_number), ("gamma-t", total_domination_number)):
        p = sub.add_parser(name, help=f"compute {name.replace('-', '_')} of a graph")
        p.add_argument("input", help="graph file, or - for stdin")
        p.set_defaults(func=_cmd_dom, solver=solver)

    for name, solver in (
        ("bondage", bondage_number),
        ("total-bondage", total_bondage_number),
        ("reinforcement", reinforcement_number),
        ("total-reinforcement", total_reinforcement_number),
    ):
        p = sub.add_parser(name, help=f"compute the {name.replace('-', ' ')} number of a graph")
        p.add_argument("input", help="graph file, or - for stdin")
        p.add_argument("--max-k", type=_positive, default=None, help="cap the edge-subset search size")
        p.set_defaults(func=_cmd_perturb, solver=solver)

    p = sub.add_parser("sat", help="decide satisfiability of a DIMACS CNF instance")
    p.add_argument("input", help="CNF file, or - for stdin")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("reduce", help="build the gadget graph for a CNF instance")
    p.add_argument("input", help="CNF file, or - for stdin")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("-o", "--output", default=None, help="graph output path (default stdout)")
    p.add_argument("--roles", default=None, help="also write the vertex role map to this path")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="machine-check the gadget facts for a CNF instance")
    p.add_argument("input", help="CNF file, or - for stdin")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--deep", action="store_true", help="also check the structure of every minimum set")
    p.add_argument("--json", action="store_true", help="emit the structured JSON report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="verify many random instances")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("-n", "--num-vars", type=int, required=True)
    p.add_argument("-m", "--num-clauses", type=_count, required=True)
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deep", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_positive, default=1, help="run trials in this many processes")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("export-dot", help="convert a graph file to DOT")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("-o", "--output", default=None, help="DOT output path (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CLI_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
