"""Builders for the four 3SAT-to-bipartite-graph constructions.

Each builder turns a 3SAT instance into a gadget graph consisting of
one variable gadget per variable, one clause vertex per clause wired to
its three literal vertices, and a kind-specific anchor component.  One
``build`` assembles all four from a per-kind table row: the variable
gadget (a hexagon or a 5-vertex gadget), the anchor's vertices and
edges, and the anchor vertices joined to every clause vertex.  All four
outputs are bipartite, and their vertex and edge counts are fixed
closed forms in the instance size.

Vertex naming is stable and parseable: ``u<i>`` / ``nu<i>`` for the
positive / negative literal of variable i, ``v<i> p<i> q<i> r<i>`` for
the remaining gadget vertices, ``c<j>`` for clause j, and ``s<k>`` (or
plain ``s``) for the anchor.  The role map records what each vertex is
for, so downstream checks never have to parse labels.

The witness converters implement both directions of the equivalence:
a satisfying assignment yields a small (total) dominating set of the
gadget (for the reinforcement kinds, of the gadget plus one added
edge), and a (total) dominating set maps back to an assignment by
reading off which positive literal vertices were picked.  The first
direction reads the same table row as ``build``: the two picks of each
variable gadget for a false or a true variable, the anchor vertices the
witness holds, and, for the reinforcement kinds, the anchor end of the
added edge, whose other end is the true literal of variable 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .cnf import Assignment, CnfInstance, TooFewVariablesError, evaluate
from .graph import Edge, Graph, normalize_edge


class ReductionKind(str, Enum):
    BONDAGE = "bondage"
    TOTAL_BONDAGE = "total-bondage"
    REINFORCEMENT = "reinforcement"
    TOTAL_REINFORCEMENT = "total-reinforcement"

    @classmethod
    def _missing_(cls, value: object) -> ReductionKind:
        # ``ReductionKind(value)`` is how every entry point resolves a kind,
        # so an unknown one raises this error everywhere.
        raise KindMismatchError(f"unknown reduction kind {value!r}")


ROLE_LITERAL_POS = "literal+"
ROLE_LITERAL_NEG = "literal-"
ROLE_AUX = "aux"
ROLE_CLAUSE = "clause"
ROLE_ANCHOR = "anchor"


class UnsatisfyingAssignmentError(ValueError):
    """The assignment handed to the witness converter falsifies a clause."""


class KindMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class ReductionOutput:
    """A gadget graph plus the bookkeeping needed to interpret it."""

    kind: ReductionKind
    graph: Graph
    roles: dict[str, str]
    num_vars: int
    num_clauses: int
    instance: CnfInstance

    def positive_label(self, i: int) -> str:
        return f"u{i}"

    def negative_label(self, i: int) -> str:
        return f"nu{i}"

    def clause_label(self, j: int) -> str:
        return f"c{j}"

    def variable_gadget(self, i: int) -> tuple[str, ...]:
        """All vertices of the gadget for variable i."""
        return tuple(f"{p}{i}" for p in _SPECS[self.kind].part.prefixes)


def _literal_label(lit: int) -> str:
    return f"u{lit}" if lit > 0 else f"nu{-lit}"


def roles_to_text(out: ReductionOutput) -> str:
    """Sidecar role map: one ``<label> <role>`` line per vertex, in order."""
    return "".join(f"{lab} {out.roles[lab]}\n" for lab in out.graph.vertices)


class _Part(NamedTuple):
    """One variable gadget: label prefixes in vertex order, edges between them, witness picks."""

    prefixes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    picks: tuple[tuple[str, str], tuple[str, str]]  # the witness's two picks, variable false / true


_HEXAGON = _Part(
    ("u", "v", "nu", "r", "q", "p"),
    (("u", "v"), ("v", "nu"), ("nu", "r"), ("r", "q"), ("q", "p"), ("p", "u")),
    (("nu", "p"), ("u", "r")),
)
_FIVE = _Part(
    ("u", "nu", "v", "p", "q"),
    (("u", "v"), ("u", "q"), ("nu", "v"), ("v", "p"), ("p", "q"), ("nu", "q")),
    (("nu", "v"), ("u", "v")),
)
_PART_ROLES = {"u": ROLE_LITERAL_POS, "nu": ROLE_LITERAL_NEG}


class _Spec(NamedTuple):
    """What sets one kind's gadget apart from the others."""

    part: _Part
    anchor: tuple[str, ...]
    anchor_edges: tuple[Edge, ...]
    joined: tuple[str, ...]  # anchor vertices joined to every clause vertex
    picks: tuple[str, ...]  # anchor vertices in the witness
    edge_end: str | None  # anchor end of the witness's added edge (reinforcement kinds)


_PATH3 = (("s1", "s2"), ("s2", "s3"))
_SPECS = {
    ReductionKind.BONDAGE: _Spec(_HEXAGON, ("s1", "s2", "s3"), _PATH3, ("s1", "s3"), ("s2",), None),
    ReductionKind.TOTAL_BONDAGE: _Spec(
        _FIVE,
        ("s1", "s2", "s3", "s4", "s5", "s6"),
        (("s1", "s2"), ("s1", "s4"), ("s2", "s3"), ("s2", "s5"), ("s3", "s4"), ("s4", "s5"), ("s5", "s6")),
        ("s1", "s3"),
        ("s2", "s5"),
        None,
    ),
    ReductionKind.REINFORCEMENT: _Spec(_HEXAGON, ("s",), (), ("s",), (), "s"),
    ReductionKind.TOTAL_REINFORCEMENT: _Spec(_FIVE, ("s1", "s2", "s3"), _PATH3, ("s1",), ("s2",), "s2"),
}


def build(kind: ReductionKind | str, inst: CnfInstance) -> ReductionOutput:
    """The gadget of one kind: variable gadgets, clause vertices, then the anchor."""
    kind = ReductionKind(kind)
    spec = _SPECS[kind]
    roles: dict[str, str] = {}  # in vertex order
    edges: list[Edge] = []
    for i in range(1, inst.num_vars + 1):
        roles.update((f"{p}{i}", _PART_ROLES.get(p, ROLE_AUX)) for p in spec.part.prefixes)
        edges.extend((f"{a}{i}", f"{b}{i}") for a, b in spec.part.edges)
    for j, clause in enumerate(inst.clauses, start=1):
        roles[f"c{j}"] = ROLE_CLAUSE
        edges.extend((f"c{j}", _literal_label(lit)) for lit in clause)
    roles.update(dict.fromkeys(spec.anchor, ROLE_ANCHOR))
    edges.extend(spec.anchor_edges)
    edges.extend((f"c{j}", s) for j in range(1, inst.num_clauses + 1) for s in spec.joined)
    return ReductionOutput(kind, Graph(roles, edges), roles, inst.num_vars, inst.num_clauses, inst)


def build_bondage(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 6n+m+3 vertices and 6n+5m+2 edges.

    Hexagons per variable, clause vertices, and a 3-vertex path anchor
    whose endpoints are joined to every clause vertex.
    """
    return build(ReductionKind.BONDAGE, inst)


def build_total_bondage(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 5n+m+6 vertices and 6n+5m+7 edges.

    5-vertex gadgets per variable, clause vertices, and a 6-vertex
    anchor whose s1/s3 are joined to every clause vertex.
    """
    return build(ReductionKind.TOTAL_BONDAGE, inst)


def build_reinforcement(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 6n+m+1 vertices and 6n+4m edges.

    Hexagons per variable, clause vertices, and a single apex vertex
    joined to every clause vertex.
    """
    return build(ReductionKind.REINFORCEMENT, inst)


def build_total_reinforcement(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 5n+m+3 vertices and 6n+4m+2 edges.

    5-vertex gadgets per variable, clause vertices, and a 3-vertex path
    anchor whose first vertex is joined to every clause vertex.
    """
    return build(ReductionKind.TOTAL_REINFORCEMENT, inst)


@dataclass(frozen=True)
class GadgetWitness:
    """A dominating-set witness produced from a satisfying assignment.

    For the reinforcement kinds the set dominates the gadget after
    adding ``added_edge``; for the bondage kinds no edge is involved.
    """

    vertices: frozenset[str]
    added_edge: Edge | None


def assignment_to_witness(out: ReductionOutput, assignment: Assignment) -> GadgetWitness:
    """Convert a satisfying assignment into the canonical small witness.

    Sizes: 2n+1 (bondage), 2n+2 (total bondage), 2n (reinforcement,
    plus the edge apex-to-literal), 2n+1 (total reinforcement, plus the
    edge s2-to-literal).  The added edge always ends at the chosen
    literal vertex of variable 1, the lowest-index true literal.
    """
    n = out.num_vars
    spec = _SPECS[out.kind]
    if n == 0 and spec.edge_end is not None:
        raise TooFewVariablesError(f"{out.kind.value} needs an instance with at least 1 variable, got {n}")
    if not evaluate(out.instance, assignment):
        raise UnsatisfyingAssignmentError("assignment does not satisfy the instance")
    chosen = set(spec.picks)
    for i in range(1, n + 1):
        chosen.update(f"{p}{i}" for p in spec.part.picks[bool(assignment[i])])
    if spec.edge_end is None:
        return GadgetWitness(frozenset(chosen), None)
    literal = _literal_label(1 if assignment[1] else -1)
    return GadgetWitness(frozenset(chosen), normalize_edge(spec.edge_end, literal))


def witness_to_assignment(out: ReductionOutput, vertex_set: frozenset[str] | set[str]) -> Assignment:
    """Read an assignment off a dominating set: variable i is true iff u<i> was picked."""
    return {i: f"u{i}" in vertex_set for i in range(1, out.num_vars + 1)}
