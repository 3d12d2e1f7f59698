"""3SAT instances, DIMACS I/O, and a complete DPLL satisfiability oracle.

A literal is a signed variable index: ``3`` is the positive literal of
variable 3, ``-3`` its negation.  Every clause must contain exactly
three literals over three distinct variables, and may not contain a
variable together with its negation.  Instances at the scale handled
here (a few dozen variables) are comfortably in reach of plain DPLL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Clause = tuple[int, int, int]
Assignment = dict[int, bool]


class CnfError(ValueError):
    """Base class for instance validation and parse failures."""


class DimacsSyntaxError(CnfError):
    pass


class ClauseArityError(CnfError):
    """A clause does not consist of exactly 3 literals over 3 distinct variables."""


class TautologicalClauseError(CnfError):
    """A clause contains both a variable and its negation."""


class VariableOutOfRangeError(CnfError):
    pass


class PartialAssignmentError(CnfError):
    pass


class TooFewVariablesError(CnfError):
    pass


def _validated_clause(literals: tuple[int, ...], num_vars: int) -> Clause:
    if len(literals) != 3:
        raise ClauseArityError(f"clause {literals} must have exactly 3 literals")
    for lit in literals:
        if lit == 0 or not (1 <= abs(lit) <= num_vars):
            raise VariableOutOfRangeError(f"literal {lit} outside variables 1..{num_vars}")
    variables = {abs(lit) for lit in literals}
    if any(-lit in literals for lit in literals):
        raise TautologicalClauseError(f"clause {literals} contains a variable and its negation")
    if len(variables) != 3:
        raise ClauseArityError(f"clause {literals} repeats a literal")
    return tuple(sorted(literals, key=abs))  # type: ignore[return-value]


@dataclass(frozen=True)
class CnfInstance:
    """A 3SAT instance over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise CnfError("variable count must be nonnegative")
        object.__setattr__(
            self, "clauses", tuple(_validated_clause(tuple(c), self.num_vars) for c in self.clauses)
        )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text into a validated instance.

    Accepts ``c`` comment lines, one ``p cnf <n> <m>`` header, and
    clauses as nonzero integers terminated by 0 (line breaks inside a
    clause are allowed).
    """
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsSyntaxError(f"line {lineno}: repeated header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsSyntaxError(f"line {lineno}: expected 'p cnf <n> <m>'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsSyntaxError(f"line {lineno}: non-integer counts in header") from None
            if header[0] < 0 or header[1] < 0:
                raise DimacsSyntaxError(f"line {lineno}: negative counts in header")
            continue
        if header is None:
            raise DimacsSyntaxError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsSyntaxError(f"unexpected token {tok!r} in clause data") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)

    if header is None:
        raise DimacsSyntaxError("missing 'p cnf <n> <m>' header")
    num_vars, num_clauses = header
    if current:
        raise DimacsSyntaxError("last clause is not terminated by 0")
    if len(clauses) != num_clauses:
        raise DimacsSyntaxError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfInstance(num_vars, tuple(clauses))  # type: ignore[arg-type]


def to_dimacs(inst: CnfInstance) -> str:
    """Canonical DIMACS: header, one clause per line, literals ascending by variable."""
    lines = [f"p cnf {inst.num_vars} {inst.num_clauses}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in inst.clauses)
    return "\n".join(lines) + "\n"


def evaluate(inst: CnfInstance, assignment: Assignment) -> bool:
    """True iff every clause has at least one true literal under the assignment."""
    expected = set(range(1, inst.num_vars + 1))
    if set(assignment) != expected:
        raise PartialAssignmentError(f"assignment must cover exactly variables 1..{inst.num_vars}")
    for clause in inst.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
            return False
    return True


def _simplify(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    """Apply literal=true: drop satisfied clauses, shrink the rest.

    Returns None when an empty clause appears (conflict).
    """
    out: list[tuple[int, ...]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = tuple(x for x in clause if x != -lit)
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _dpll(clauses: list[tuple[int, ...]]) -> Assignment | None:
    """Values that satisfy ``clauses`` for the variables the search sets, or None."""
    assignment: Assignment = {}
    while clauses:
        lit = next((c[0] for c in clauses if len(c) == 1), None)
        if lit is None:
            polarity: dict[int, int] = {}
            for clause in clauses:
                for x in clause:
                    polarity[abs(x)] = polarity.get(abs(x), 0) | (1 if x > 0 else 2)
            pure = min((v for v, sides in polarity.items() if sides != 3), default=None)
            if pure is None:
                break
            lit = pure if polarity[pure] == 1 else -pure
        assignment[abs(lit)] = lit > 0
        reduced = _simplify(clauses, lit)
        if reduced is None:
            return None
        clauses = reduced
    if not clauses:
        return assignment

    # simplified clauses hold only unset variables
    var = min(abs(lit) for clause in clauses for lit in clause)
    for lit in (var, -var):
        reduced = _simplify(clauses, lit)
        rest = None if reduced is None else _dpll(reduced)
        if rest is not None:
            return {**assignment, var: lit > 0, **rest}
    return None


def solve_sat(inst: CnfInstance) -> Assignment | None:
    """A satisfying assignment if one exists, else None.

    DPLL with unit propagation and pure-literal elimination, branching
    on the lowest-index unassigned variable, true before false.  The
    result is total: variables untouched by the search are set false.
    """
    assignment = _dpll(list(inst.clauses))
    if assignment is None:
        return None
    return {v: assignment.get(v, False) for v in range(1, inst.num_vars + 1)}


def random_instance(num_vars: int, num_clauses: int, seed: int) -> CnfInstance:
    """A uniform random instance, deterministic in the seed.

    Each clause picks 3 distinct variables uniformly, then signs each
    uniformly.  Requires at least 3 variables and a non-negative clause
    count.
    """
    if num_vars < 3:
        raise TooFewVariablesError(f"need at least 3 variables, got {num_vars}")
    if num_clauses < 0:
        raise CnfError(f"number of clauses must be non-negative, got {num_clauses}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = sorted(rng.sample(range(1, num_vars + 1), 3))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfInstance(num_vars, tuple(clauses))
