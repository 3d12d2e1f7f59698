"""Immutable undirected simple graphs over string labels.

Vertices are nonempty, whitespace-free text labels.  Insertion order
assigns each vertex a dense index; every deterministic tie-break in the
package (solver witnesses, candidate orderings, colorings) is anchored
to that index.  Adjacency is kept as one bitmask per vertex over the
dense indices, so subset-search solvers get O(1) neighborhood unions.

Edge pairs are normalized with the lexicographically smaller label
first, and each edge's endpoint indices are kept with it, in edge
order, so that searches number edges without looking labels up.  Edge
tests, duplicate checks and equality all read the adjacency bits: two
graphs are equal when they have the same labels in the same order and
the same adjacency, whatever the order or direction their edges were
given in.  "Mutating" operations (edge removal/addition) return new
Graph values; instances are safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    """Base class for graph construction and lookup failures."""


class DuplicateLabelError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    """An edge names a vertex that is not part of the graph."""


class UnknownVertexError(GraphError):
    """A query names a vertex that is not part of the graph."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class EdgeAlreadyPresentError(GraphError):
    pass


class GraphFormatError(GraphError):
    """Malformed graph text format."""


Edge = tuple[str, str]


def normalize_edge(a: str, b: str) -> Edge:
    """Return the pair ordered with the lexicographically smaller label first."""
    return (a, b) if a <= b else (b, a)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An undirected simple graph: no self-loops, no parallel edges.

    Equal, and of equal hash, exactly when the labels are the same in
    the same order and the adjacency masks are the same.  ``edge_ends``
    gives the endpoint indices of ``edges``, pair by pair.
    """

    __slots__ = ("_labels", "_index", "_adj", "_edges", "_ends")

    def __init__(self, vertex_labels: Iterable[str], edge_pairs: Iterable[Edge] = ()):
        labels = tuple(vertex_labels)
        index: dict[str, int] = {}
        for lab in labels:
            # ``str.split`` breaks at exactly the ``str.isspace`` characters
            if not isinstance(lab, str) or lab.split() != [lab]:
                raise GraphError(f"invalid vertex label {lab!r}: need nonempty text without whitespace")
            if lab in index:
                raise DuplicateLabelError(f"duplicate vertex label {lab!r}")
            index[lab] = len(index)

        adj = [0] * len(labels)
        edges: list[Edge] = []
        ends: list[tuple[int, int]] = []
        for a, b in edge_pairs:
            if a == b:
                raise SelfLoopError(f"self-loop at {a!r}")
            try:
                ia, ib = index[a], index[b]
            except KeyError:
                raise UnknownEndpointError(f"edge endpoint {b if a in index else a!r} is not a vertex") from None
            bit = 1 << ib
            if adj[ia] & bit:
                raise DuplicateEdgeError(f"duplicate edge {normalize_edge(a, b)!r}")
            adj[ia] |= bit
            adj[ib] |= 1 << ia
            if a <= b:
                edges.append((a, b))
                ends.append((ia, ib))
            else:
                edges.append((b, a))
                ends.append((ib, ia))

        self._labels = labels
        self._index = index
        self._adj = tuple(adj)
        self._edges = tuple(edges)
        self._ends = tuple(ends)

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._labels

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Normalized edges in insertion order."""
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._labels, self._adj))

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {label!r}") from None

    def label_at(self, i: int) -> str:
        return self._labels[i]

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks over the dense vertex indices."""
        return self._adj

    def edge_ends(self) -> tuple[tuple[int, int], ...]:
        """The endpoint indices of each edge, in the order of ``edges`` and of each normalized pair."""
        return self._ends

    def has_edge(self, a: str, b: str) -> bool:
        ia, ib = self._index.get(a), self._index.get(b)
        return ia is not None and ib is not None and self._adj[ia] >> ib & 1 == 1

    def open_neighbors(self, v: str) -> set[str]:
        """All vertices adjacent to v."""
        mask = self._adj[self.index_of(v)]
        return {self._labels[i] for i in iter_bits(mask)}

    def closed_neighbors(self, v: str) -> set[str]:
        """open_neighbors(v) plus v itself."""
        out = self.open_neighbors(v)
        out.add(v)
        return out

    def isolated_vertices(self) -> set[str]:
        return {lab for lab, mask in zip(self._labels, self._adj) if mask == 0}

    # -- copies with modified edges ------------------------------------

    def remove_edges(self, edge_pairs: Iterable[Edge]) -> "Graph":
        """A copy without the given edges; every pair must be present."""
        drop: set[Edge] = set()
        for a, b in edge_pairs:
            e = normalize_edge(a, b)
            if not self.has_edge(a, b):
                raise UnknownEdgeError(f"edge {e!r} is not in the graph")
            drop.add(e)
        return Graph(self._labels, (e for e in self._edges if e not in drop))

    def add_edges(self, edge_pairs: Iterable[Edge]) -> "Graph":
        """A copy with the given edges appended; every pair must be new (the constructor checks the rest)."""
        extra: dict[Edge, None] = {}  # in order
        for a, b in edge_pairs:
            e = normalize_edge(a, b)
            if self.has_edge(a, b) or e in extra:
                raise EdgeAlreadyPresentError(f"edge {e!r} already present")
            extra[e] = None
        return Graph(self._labels, self._edges + tuple(extra))

    def complement_edges(self) -> list[Edge]:
        """All missing vertex pairs, sorted by normalized label pair."""
        labels = self._labels
        return [(labels[i], labels[j]) for i, j in self.complement_ends()]

    def complement_ends(self) -> list[tuple[int, int]]:
        """The endpoint indices of each missing pair, in the order of ``complement_edges``.

        Walks the vertices in label order, so each pair comes out
        normalized and the list sorted, read off the adjacency bits.
        """
        order = sorted(range(len(self._labels)), key=self._labels.__getitem__)
        adj = self._adj
        return [(i, j) for pos, i in enumerate(order) for j in order[pos + 1:] if not adj[i] >> j & 1]

    # -- bipartiteness -------------------------------------------------

    def two_coloring(self) -> dict[str, int] | None:
        """A proper 2-coloring (labels to 0/1), or None if none exists.

        BFS from the lowest-index uncolored vertex of each component;
        the start vertex gets color 0, so the coloring is deterministic.
        """
        n = self.num_vertices
        color = [-1] * n
        for start in range(n):
            if color[start] != -1:
                continue
            color[start] = 0
            frontier = [start]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in iter_bits(self._adj[v]):
                        if color[u] == -1:
                            color[u] = 1 - color[v]
                            nxt.append(u)
                        elif color[u] == color[v]:
                            return None
                frontier = nxt
        return {lab: color[i] for i, lab in enumerate(self._labels)}

    def is_bipartite(self) -> bool:
        return self.two_coloring() is not None

    # -- text formats ----------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the line-oriented graph format.

        Header ``p graph <n> <m>``, then one ``v <label>`` line per vertex
        in order, then one ``e <label1> <label2>`` line per edge.
        """
        lines = [f"p graph {self.num_vertices} {self.num_edges}"]
        lines.extend(f"v {lab}" for lab in self._labels)
        lines.extend(f"e {a} {b}" for a, b in self._edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        header: tuple[int, int] | None = None
        labels: list[str] = []
        edges: list[Edge] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 4 or parts[0] != "p" or parts[1] != "graph":
                    raise GraphFormatError(f"line {lineno}: expected header 'p graph <n> <m>'")
                try:
                    header = (int(parts[2]), int(parts[3]))
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: non-integer counts in header") from None
                if header[0] < 0 or header[1] < 0:
                    raise GraphFormatError(f"line {lineno}: negative counts in header")
            elif parts[0] == "v":
                if len(parts) != 2:
                    raise GraphFormatError(f"line {lineno}: expected 'v <label>'")
                labels.append(parts[1])
            elif parts[0] == "e":
                if len(parts) != 3:
                    raise GraphFormatError(f"line {lineno}: expected 'e <label1> <label2>'")
                edges.append((parts[1], parts[2]))
            else:
                raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
        if header is None:
            raise GraphFormatError("missing 'p graph <n> <m>' header")
        if len(labels) != header[0]:
            raise GraphFormatError(f"header declares {header[0]} vertices, found {len(labels)}")
        if len(edges) != header[1]:
            raise GraphFormatError(f"header declares {header[1]} edges, found {len(edges)}")
        return cls(labels, edges)

    def to_dot(self) -> str:
        """DOT text for visualization: an undirected graph, one edge per line."""

        def q(label: str) -> str:
            return '"' + label.replace('"', '\\"') + '"'

        lines = ["graph {"]
        lines.extend(f"  {q(lab)};" for lab in self._labels)
        lines.extend(f"  {q(a)} -- {q(b)};" for a, b in self._edges)
        lines.append("}")
        return "\n".join(lines) + "\n"
