"""Builders for the four 3SAT-to-bipartite-graph constructions.

Each builder turns a 3SAT instance into a gadget graph consisting of
one variable gadget per variable, one clause vertex per clause wired to
its three literal vertices, and a kind-specific anchor component.  All
four outputs are bipartite, and their vertex and edge counts are fixed
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
reading off which positive literal vertices were picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cnf import Assignment, CnfInstance, evaluate
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
        if self.kind in (ReductionKind.BONDAGE, ReductionKind.REINFORCEMENT):
            return (f"u{i}", f"v{i}", f"nu{i}", f"r{i}", f"q{i}", f"p{i}")
        return (f"u{i}", f"nu{i}", f"v{i}", f"p{i}", f"q{i}")


def _literal_label(lit: int) -> str:
    return f"u{lit}" if lit > 0 else f"nu{-lit}"


def roles_to_text(out: ReductionOutput) -> str:
    """Sidecar role map: one ``<label> <role>`` line per vertex, in order."""
    return "".join(f"{lab} {out.roles[lab]}\n" for lab in out.graph.vertices)


def _clause_part(inst: CnfInstance, labels: list[str], edges: list[Edge], roles: dict[str, str]) -> None:
    for j, clause in enumerate(inst.clauses, start=1):
        cj = f"c{j}"
        labels.append(cj)
        roles[cj] = ROLE_CLAUSE
        edges.extend((cj, _literal_label(lit)) for lit in clause)


def _hexagon_part(inst: CnfInstance, labels: list[str], edges: list[Edge], roles: dict[str, str]) -> None:
    # 6-cycle u-v-nu-r-q-p per variable
    for i in range(1, inst.num_vars + 1):
        cycle = (f"u{i}", f"v{i}", f"nu{i}", f"r{i}", f"q{i}", f"p{i}")
        labels.extend(cycle)
        roles[f"u{i}"] = ROLE_LITERAL_POS
        roles[f"nu{i}"] = ROLE_LITERAL_NEG
        for aux in (f"v{i}", f"r{i}", f"q{i}", f"p{i}"):
            roles[aux] = ROLE_AUX
        edges.extend((cycle[k], cycle[(k + 1) % 6]) for k in range(6))


def _five_gadget_part(inst: CnfInstance, labels: list[str], edges: list[Edge], roles: dict[str, str]) -> None:
    # 5-vertex gadget: edges u-v, u-q, nu-v, v-p, p-q, nu-q per variable
    for i in range(1, inst.num_vars + 1):
        u, nu, v, p, q = f"u{i}", f"nu{i}", f"v{i}", f"p{i}", f"q{i}"
        labels.extend((u, nu, v, p, q))
        roles[u] = ROLE_LITERAL_POS
        roles[nu] = ROLE_LITERAL_NEG
        roles[v] = roles[p] = roles[q] = ROLE_AUX
        edges.extend(((u, v), (u, q), (nu, v), (v, p), (p, q), (nu, q)))


def build_bondage(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 6n+m+3 vertices and 6n+5m+2 edges.

    Hexagons per variable, clause vertices, and a 3-vertex path anchor
    whose endpoints are joined to every clause vertex.
    """
    labels: list[str] = []
    edges: list[Edge] = []
    roles: dict[str, str] = {}
    _hexagon_part(inst, labels, edges, roles)
    _clause_part(inst, labels, edges, roles)
    labels.extend(("s1", "s2", "s3"))
    roles["s1"] = roles["s2"] = roles["s3"] = ROLE_ANCHOR
    edges.extend((("s1", "s2"), ("s2", "s3")))
    for j in range(1, inst.num_clauses + 1):
        edges.extend(((f"c{j}", "s1"), (f"c{j}", "s3")))
    return ReductionOutput(
        ReductionKind.BONDAGE, Graph(labels, edges), roles, inst.num_vars, inst.num_clauses, inst
    )


def build_total_bondage(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 5n+m+6 vertices and 6n+5m+7 edges.

    5-vertex gadgets per variable, clause vertices, and a 6-vertex
    anchor whose s1/s3 are joined to every clause vertex.
    """
    labels: list[str] = []
    edges: list[Edge] = []
    roles: dict[str, str] = {}
    _five_gadget_part(inst, labels, edges, roles)
    _clause_part(inst, labels, edges, roles)
    labels.extend(f"s{k}" for k in range(1, 7))
    for k in range(1, 7):
        roles[f"s{k}"] = ROLE_ANCHOR
    edges.extend(
        (("s1", "s2"), ("s1", "s4"), ("s2", "s3"), ("s2", "s5"), ("s3", "s4"), ("s4", "s5"), ("s5", "s6"))
    )
    for j in range(1, inst.num_clauses + 1):
        edges.extend(((f"c{j}", "s1"), (f"c{j}", "s3")))
    return ReductionOutput(
        ReductionKind.TOTAL_BONDAGE, Graph(labels, edges), roles, inst.num_vars, inst.num_clauses, inst
    )


def build_reinforcement(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 6n+m+1 vertices and 6n+4m edges.

    Hexagons per variable, clause vertices, and a single apex vertex
    joined to every clause vertex.
    """
    labels: list[str] = []
    edges: list[Edge] = []
    roles: dict[str, str] = {}
    _hexagon_part(inst, labels, edges, roles)
    _clause_part(inst, labels, edges, roles)
    labels.append("s")
    roles["s"] = ROLE_ANCHOR
    edges.extend((f"c{j}", "s") for j in range(1, inst.num_clauses + 1))
    return ReductionOutput(
        ReductionKind.REINFORCEMENT, Graph(labels, edges), roles, inst.num_vars, inst.num_clauses, inst
    )


def build_total_reinforcement(inst: CnfInstance) -> ReductionOutput:
    """Gadget with 5n+m+3 vertices and 6n+4m+2 edges.

    5-vertex gadgets per variable, clause vertices, and a 3-vertex path
    anchor whose first vertex is joined to every clause vertex.
    """
    labels: list[str] = []
    edges: list[Edge] = []
    roles: dict[str, str] = {}
    _five_gadget_part(inst, labels, edges, roles)
    _clause_part(inst, labels, edges, roles)
    labels.extend(("s1", "s2", "s3"))
    roles["s1"] = roles["s2"] = roles["s3"] = ROLE_ANCHOR
    edges.extend((("s1", "s2"), ("s2", "s3")))
    edges.extend((f"c{j}", "s1") for j in range(1, inst.num_clauses + 1))
    return ReductionOutput(
        ReductionKind.TOTAL_REINFORCEMENT, Graph(labels, edges), roles, inst.num_vars, inst.num_clauses, inst
    )


def build(kind: ReductionKind | str, inst: CnfInstance) -> ReductionOutput:
    builder = {
        ReductionKind.BONDAGE: build_bondage,
        ReductionKind.TOTAL_BONDAGE: build_total_bondage,
        ReductionKind.REINFORCEMENT: build_reinforcement,
        ReductionKind.TOTAL_REINFORCEMENT: build_total_reinforcement,
    }[ReductionKind(kind)]
    return builder(inst)


@dataclass(frozen=True)
class GadgetWitness:
    """A dominating-set witness produced from a satisfying assignment.

    For the reinforcement kinds the set dominates the gadget after
    adding ``added_edge``; for the bondage kinds no edge is involved.
    """

    vertices: frozenset[str]
    added_edge: Edge | None


def _chosen_literal(i: int, value: bool) -> str:
    return f"u{i}" if value else f"nu{i}"


def assignment_to_witness(out: ReductionOutput, assignment: Assignment) -> GadgetWitness:
    """Convert a satisfying assignment into the canonical small witness.

    Sizes: 2n+1 (bondage), 2n+2 (total bondage), 2n (reinforcement,
    plus the edge apex-to-literal), 2n+1 (total reinforcement, plus the
    edge s2-to-literal).  The added edge always ends at the chosen
    literal vertex of variable 1, the lowest-index true literal.
    """
    if not evaluate(out.instance, assignment):
        raise UnsatisfyingAssignmentError("assignment does not satisfy the instance")
    n = out.num_vars
    kind = out.kind
    chosen: set[str] = set()
    if kind in (ReductionKind.BONDAGE, ReductionKind.REINFORCEMENT):
        for i in range(1, n + 1):
            chosen.update((f"u{i}", f"r{i}") if assignment[i] else (f"nu{i}", f"p{i}"))
        if kind is ReductionKind.BONDAGE:
            chosen.add("s2")
            return GadgetWitness(frozenset(chosen), None)
        if n == 0:
            raise KindMismatchError("reinforcement witness needs at least one variable")
        return GadgetWitness(frozenset(chosen), normalize_edge("s", _chosen_literal(1, assignment[1])))
    if kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT):
        chosen.update(_chosen_literal(i, assignment[i]) for i in range(1, n + 1))
        chosen.update(f"v{i}" for i in range(1, n + 1))
        chosen.add("s2")
        if kind is ReductionKind.TOTAL_BONDAGE:
            chosen.add("s5")
            return GadgetWitness(frozenset(chosen), None)
        if n == 0:
            raise KindMismatchError("total reinforcement witness needs at least one variable")
        return GadgetWitness(frozenset(chosen), normalize_edge("s2", _chosen_literal(1, assignment[1])))
    raise KindMismatchError(f"unknown reduction kind {kind!r}")


def witness_to_assignment(out: ReductionOutput, vertex_set: frozenset[str] | set[str]) -> Assignment:
    """Read an assignment off a dominating set: variable i is true iff u<i> was picked."""
    return {i: f"u{i}" in vertex_set for i in range(1, out.num_vars + 1)}
