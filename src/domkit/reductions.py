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

The table also holds each kind's gadget lemma, the shape of every
minimum set, which ``structure_violation`` checks: at the exact bound,
fixed anchor picks, two vertices per variable gadget, at most one
literal (so ``witness_to_assignment`` reads an assignment back) and no
clause vertex; for total bondage, at every bound, s5 and one of v/q.
``every_bound_facts`` lists the every-bound half as vertex sets, each
with the violation that names a set missing it, for a caller that
refutes each one by a search instead of listing the sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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

# A vertex set that every minimum set meets, and the violation naming a set that misses it.
Fact = tuple[frozenset[str], str]


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
    instance: CnfInstance

    def variable_gadget(self, i: int) -> tuple[str, ...]:
        """All vertices of the gadget for variable i."""
        return tuple(f"{p}{i}" for p in _SPECS[self.kind].part.prefixes)

    @cached_property
    def _shape(self) -> tuple[frozenset[str], list[tuple[frozenset[str], frozenset[str]]], list[Fact]]:
        """For ``structure_violation``: clause vertices; per variable its gadget and literals; ``every_bound_facts``."""
        spec = _SPECS[self.kind]
        neither = f"neither {' nor '.join(spec.one_of)} picked"
        facts = [(frozenset((s,)), f"a minimum set misses {s}") for s in spec.held]
        gadgets = []
        for i in range(1, self.instance.num_vars + 1):
            gadget = frozenset(self.variable_gadget(i))
            literals = frozenset(v for v in gadget if self.roles[v] in (ROLE_LITERAL_POS, ROLE_LITERAL_NEG))
            gadgets.append((gadget, literals))
            if spec.one_of:
                facts.append((frozenset(f"{p}{i}" for p in spec.one_of), f"variable {i}: {neither}"))
        return frozenset(v for v, role in self.roles.items() if role == ROLE_CLAUSE), gadgets, facts


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
    """What sets one kind's gadget, and its minimum sets, apart from the others."""

    part: _Part
    anchor: tuple[str, ...]
    anchor_edges: tuple[Edge, ...]
    joined: tuple[str, ...]  # anchor vertices joined to every clause vertex
    picks: tuple[str, ...]  # anchor vertices in the witness
    edge_end: str | None  # anchor end of the witness's added edge (reinforcement kinds)
    # The minimum-set structure that ``structure_violation`` checks:
    fixed: tuple[str, ...]  # anchor vertices whose picks are fixed at the exact bound
    fixed_picks: tuple[tuple[str, ...], ...]  # the picks allowed among them, sorted
    held: tuple[str, ...] = ()  # anchor vertices in every minimum set, at every bound
    one_of: tuple[str, ...] = ()  # gadget prefixes: every minimum set holds one per variable


_PATH3 = (("s1", "s2"), ("s2", "s3"))
_S3 = ("s1", "s2", "s3")
_S6 = ("s1", "s2", "s3", "s4", "s5", "s6")
_SPECS = {
    ReductionKind.BONDAGE: _Spec(_HEXAGON, _S3, _PATH3, ("s1", "s3"), ("s2",), None, _S3, (("s2",),)),
    ReductionKind.TOTAL_BONDAGE: _Spec(
        _FIVE, _S6,  # part, anchor
        (("s1", "s2"), ("s1", "s4"), ("s2", "s3"), ("s2", "s5"), ("s3", "s4"), ("s4", "s5"), ("s5", "s6")),
        ("s1", "s3"), ("s2", "s5"), None,  # joined, picks, edge_end
        _S6, (("s2", "s5"), ("s4", "s5")), held=("s5",), one_of=("v", "q"),
    ),
    ReductionKind.REINFORCEMENT: _Spec(_HEXAGON, ("s",), (), ("s",), (), "s", ("s",), ((),)),
    ReductionKind.TOTAL_REINFORCEMENT: _Spec(_FIVE, _S3, _PATH3, ("s1",), ("s2",), "s2", ("s1",), ((),)),
}


def build(kind: ReductionKind | str, inst: CnfInstance) -> ReductionOutput:
    """The gadget of one kind: variable gadgets, clause vertices, then the anchor.

    Each vertex label is made once, and the edges reuse those strings:
    a clause vertex's edges take the literal labels of their variable
    gadgets.
    """
    kind = ReductionKind(kind)
    spec = _SPECS[kind]
    part = spec.part
    part_roles = [_PART_ROLES.get(p, ROLE_AUX) for p in part.prefixes]
    roles: dict[str, str] = {}  # in vertex order
    edges: list[Edge] = []
    literals: dict[int, str] = {}  # literal -> its vertex label
    for i in range(1, inst.num_vars + 1):
        names = {p: f"{p}{i}" for p in part.prefixes}
        roles.update(zip(names.values(), part_roles))
        edges += [(names[a], names[b]) for a, b in part.edges]
        literals[i], literals[-i] = names["u"], names["nu"]
    clauses = [f"c{j}" for j in range(1, inst.num_clauses + 1)]
    roles.update(dict.fromkeys(clauses, ROLE_CLAUSE))
    edges += [(c, literals[lit]) for c, clause in zip(clauses, inst.clauses) for lit in clause]
    roles.update(dict.fromkeys(spec.anchor, ROLE_ANCHOR))
    edges += spec.anchor_edges
    edges += [(c, s) for c in clauses for s in spec.joined]
    return ReductionOutput(kind, Graph(roles, edges), roles, inst)


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
    n = out.instance.num_vars
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


def every_bound_facts(out: ReductionOutput) -> list[Fact]:
    """The vertex sets that every minimum set meets, at every bound, each with the violation that misses it.

    Each ``held`` vertex, then each variable's ``one_of`` vertices, in
    the order ``structure_violation`` checks them: a minimum set that
    meets the facts before one and misses that one is named by its text.
    """
    return out._shape[2]


def structure_violation(out: ReductionOutput, chosen: frozenset[str], at_exact: bool) -> str | None:
    """The first way the minimum (total) dominating set ``chosen`` breaks the kind's lemma, or None.

    At every bound: the row's ``held`` vertices, one ``one_of`` vertex per
    variable (``every_bound_facts``).  At the exact bound (for the reinforcement kinds, one below
    it on G+e): picks among ``fixed`` from ``fixed_picks``, no clause
    vertex, two vertices per variable gadget, at most one literal.
    """
    spec = _SPECS[out.kind]
    clauses, gadgets, facts = out._shape
    for vertices, text in facts:
        if not chosen & vertices:
            return text
    if not at_exact:
        return None
    anchor_pick = sorted(s for s in spec.fixed if s in chosen)
    if tuple(anchor_pick) not in spec.fixed_picks:
        return f"anchor pick {anchor_pick}"
    if chosen & clauses:
        return f"clause vertices {sorted(chosen & clauses)} picked"
    for i, (gadget, literals) in enumerate(gadgets, 1):
        if len(chosen & gadget) != 2:
            return f"variable {i} gadget holds {len(chosen & gadget)} of {sorted(chosen)}"
        if len(chosen & literals) > 1:
            return f"both literals of variable {i} in {sorted(chosen)}"
    return None


def witness_to_assignment(out: ReductionOutput, vertex_set: frozenset[str] | set[str]) -> Assignment:
    """Read an assignment off a dominating set: variable i is true iff u<i> was picked."""
    return {i: f"u{i}" in vertex_set for i in range(1, out.instance.num_vars + 1)}
