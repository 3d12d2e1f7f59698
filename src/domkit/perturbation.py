"""Bondage, total bondage, reinforcement, and total reinforcement numbers.

Each parameter is the size of the smallest edge set whose removal
(bondage kinds) or addition (reinforcement kinds) moves the domination
number, or the total domination number, of the graph.  Candidate sets
are tried in ascending cardinality and, within one size, in
lexicographic order of the normalized edge list, so witnesses are
deterministic and the first hit is provably minimum.

One loop, ``_first_hit``, walks the candidate sets of a search, which
owns the scan: its ``candidates`` in scan order, the ``row`` of those
still open after a prefix, and the ``hit`` test; ``verify``'s sweep of
single-edge removals runs it too.  No candidate set gets a graph copy.
Each is decided on the cover bitmasks of the unperturbed graph, with
the candidate's edges toggled at their endpoints, and the searches
reuse what earlier searches found:

  * Removals (``RemovalSearch``).  A cover of G - R is also a cover of
    G, and a cover C of G survives the removal of R exactly when R
    holds no vertex's *dominator edges* E_v(C), the edges from v to its
    dominators in C (in the closed variant a vertex of C dominates
    itself and has none to lose).  Every cover a search finds is kept,
    and a candidate that some kept cover survives, or survives once
    repaired within the limit, is not a hit, so it gets no search at
    all (the witness argument of Bauer, Harary, Nieminen and Suffel,
    1983, extended by one repair step).  For one or two edges only
    dominator-edge sets of one or two edges matter, so each kept cover
    is summarised by bits over the edges: its *fragile* edges (the lone
    dominator edge of some vertex), its *doubly fragile* edges (the lone
    dominator edge of both endpoints) and its *fragile pairs* (the two
    dominator edges of a vertex with exactly two).  A single edge is
    settled by a cover according to its *slack*, the limit less its
    size: with none, unless it holds the edge as fragile; with some,
    unless it holds it as doubly fragile, since one pick restores the
    endpoint that lost its lone dominator.  A pair of edges is settled
    by a cover that holds neither as fragile and does not hold them as
    a fragile pair.  So the scans settle all single edges, or all
    partners of a first edge, with one AND per cover.  A candidate that
    isolates a vertex (in the total variant) does not qualify.  When it
    holds an edge with a degree-1 end, the row drops it at every prefix,
    as one mask made once; when it isolates a vertex of higher degree,
    as a pair does with both edges of a degree-2 vertex, ``hit`` toggles
    its edges, finds that endpoint's mask empty and rejects it before
    any repair or search.  Every other candidate
    left in the row gets one pass over the kept covers, newest first.
    Each is repaired: plus one dominator for each endpoint it lost
    (none, if it survives), and, when that is one pick over the limit,
    less one redundant pick, a pick all of whose dominated vertices are
    dominated twice.  The first repaired cover that fits the limit
    settles the candidate and joins the kept covers, as a cover of
    G - R is one of G; only when none fits is there a search.
  * Single-edge additions (``AdditionSearch``).  Every set it seeks
    has one vertex fewer than the parameter.  Such a set S does not
    dominate G, so it can dominate G + uv only through the new edge: S
    holds u and misses only v in G, or the other way round (Kok and
    Mynhardt, 1990).  In the total variant, with the parameter above 2,
    S may instead hold both endpoints and miss exactly both.  So the
    single edges are settled per vertex: the row decides once for each
    vertex x whether some set of one below the parameter misses only x
    (a memoised search from the root), and keeps only the edges with
    such an endpoint, and in the total variant those whose "both
    endpoints" case the dead masks below leave open.  ``hit`` decides
    each of those by one search from an already-dominated mask with the
    endpoint forced in; every set found also settles the other edges
    into x from its members.  Both searches bar the dominators of the
    vertices they must leave undominated (x, or u and v), so either
    fails at its root when some other vertex it must dominate has only
    barred dominators.  The *dead* mask of x, made on first use, holds
    the vertices w all of whose dominators also dominate x (cover[w] a
    subset of cover[x]).  It settles the search for x without a search
    when it holds a vertex other than x, and the "both endpoints" search
    for uv when the dead masks of u and v hold a vertex other than u, v
    and the vertices they dominate.  The same cases, as the masks
    ``missing_only`` and ``missing_both`` give them, let ``verify``
    read the minimum sets of every G + e from per-vertex pools.  A set
    of two or more added edges is decided by one search on the cover
    masks with those edges joined.

Every search first needs the unperturbed parameter.  A caller that has
already solved it, as ``verify`` has, passes that result as ``start``
so it is not solved twice.

Result encoding: ``value`` is the parameter when a witness exists, 0
when the parameter cannot be realized by any edge set (reinforcement of
a graph that is already at the floor), and None when the search bound
was exhausted without success (including total bondage of graphs like
stars where no qualifying edge set exists at all).  A ``max_k`` below 1
raises ValueError before any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

# ``perfbench/tracing.py`` wraps the ``has_*_within`` names here while it
# runs, so they stay imported although nothing here calls them.
from .domination import (  # noqa: F401
    DomResult,
    _cover_masks,
    _search,
    domination_number,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from .graph import Edge, Graph, iter_bits


class EmptyGraphError(ValueError):
    """Bondage and total bondage are undefined for graphs without edges."""


@dataclass(frozen=True)
class PerturbResult:
    """Outcome of a minimum edge-perturbation search.

    value    -- positive size of the witness, 0 for the cannot-realize
                marker, None when undefined / not found within the bound
    witness  -- the minimum edge set, present iff value is positive
    base     -- the unperturbed parameter value
    """

    value: int | None
    witness: tuple[Edge, ...] | None
    base: int

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_undefined(self) -> bool:
        return self.value is None


def _bits(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _toggled(g: Graph, cover: tuple[int, ...], edges: Iterable[Edge]) -> tuple[list[int], list[int]]:
    """``cover`` with ``edges`` removed if present, joined if absent; and their endpoints."""
    masks = list(cover)
    touched: list[int] = []
    for a, b in edges:
        i, j = g.index_of(a), g.index_of(b)
        masks[i] ^= 1 << j
        masks[j] ^= 1 << i
        touched += (i, j)
    return masks, touched


def _isolates(cover: list[int], touched: list[int]) -> bool:
    """Whether toggled cover masks leave an endpoint in ``touched`` without a dominator: a removal that isolates it (total variant)."""
    return not all(cover[i] for i in touched)


def _isolating(g: Graph, total: bool, ends: Iterable[tuple[int, int]]) -> int:
    """Bits, over ``ends``, endpoint indices of edges of ``g``, of the edges whose removal isolates a vertex.

    In the total variant those with a degree-1 end; in the closed
    variant, where a vertex dominates itself, none.
    """
    if not total:
        return 0
    leaf = [mask.bit_count() == 1 for mask in g.adjacency_masks()]
    return _bits(e for e, (i, j) in enumerate(ends) if leaf[i] or leaf[j])


def _pruned(cover: list[int], chosen: int) -> int:
    """``chosen`` less its first redundant pick, one that dominates only vertices dominated twice; as it is if none."""
    once = twice = 0
    for u in iter_bits(chosen):
        twice |= once & cover[u]
        once |= cover[u]
    for u in iter_bits(chosen):
        if not cover[u] & ~twice:
            return chosen ^ 1 << u
    return chosen


class RemovalSearch:
    """Decides whether G - R keeps a (total) dominating set of at most ``base`` vertices.

    As a scan, its ``candidates`` are the edges of G, sorted, and ``hit``
    accepts a removal that qualifies and leaves no cover within ``base``.
    The candidates are numbered by their position in that order, and
    the edge numbers by endpoint indices come from the graph's
    ``edge_ends``, so no label is looked up.  ``kept`` seeds the store
    of known covers of G; those within ``base`` are kept, and every
    cover a search finds or a repair makes joins them.  ``row`` drops
    the edges whose removal isolates a vertex (``_isolating``: in the
    total variant, those with a degree-1 end) and settles whole rows at
    once from each kept cover's slack, fragile and doubly fragile edges
    and fragile pairs (see the module docstring), worked out the first
    time a row needs the cover; ``hit`` rejects any other removal that
    isolates a vertex (``_isolates``) before any repair or search.
    """

    def __init__(self, g: Graph, total: bool, base: int, kept: Iterable[Iterable[str]] = ()):
        self.graph = g
        self.base = base
        # The candidates' positions in ``g.edges``, and their endpoint indices.
        edges, edge_ends = g.edges, g.edge_ends()
        order = sorted(range(len(edges)), key=edges.__getitem__)
        self.candidates = [edges[e] for e in order]
        ends = [edge_ends[e] for e in order]
        self._cover = _cover_masks(g, total)
        # A seeded cover larger than ``base`` proves nothing about it.
        seeds = (_bits(g.index_of(v) for v in chosen) for chosen in kept)
        self._kept = [mask for mask in seeds if mask.bit_count() <= base]
        # Edge numbers, as positions in ``candidates``, by endpoint indices in either order.
        self._edge_ids: dict[tuple[int, int], int] = {}
        for e, (i, j) in enumerate(ends):
            self._edge_ids[i, j] = self._edge_ids[j, i] = e
        # Per kept cover, in the same order: its slack, fragile and doubly fragile
        # edges, and for each edge the edges it forms a fragile pair with.
        self._fragile: list[tuple[int, int, int, dict[int, int]]] = []
        self._isolating = _isolating(g, total, ends)

    def _summaries(self) -> list[tuple[int, int, int, dict[int, int]]]:
        """Slack, fragile and doubly fragile edges, and fragile pairs of each kept cover, brought up to date."""
        ids = self._edge_ids
        for chosen in self._kept[len(self._fragile):]:
            fragile = doubly = 0
            mates: dict[int, int] = {}
            for v, mask in enumerate(self._cover):
                doms = mask & chosen
                if doms >> v & 1:  # held by a closed cover: dominates itself
                    continue
                first = doms.bit_length() - 1
                rest = doms ^ 1 << first
                if not rest:
                    # each endpoint marks its lone dominator edge once, so a second mark is the other's
                    edge = 1 << ids[v, first]
                    doubly |= fragile & edge
                    fragile |= edge
                elif not rest & rest - 1:
                    e, f = ids[v, first], ids[v, rest.bit_length() - 1]
                    mates[e] = mates.get(e, 0) | 1 << f
                    mates[f] = mates.get(f, 0) | 1 << e
            self._fragile.append((self.base - chosen.bit_count(), fragile, doubly, mates))
        return self._fragile

    def row(self, prefix: tuple[int, ...]) -> int:
        """Bits of the edges whose removal along with ``prefix`` may be a hit.

        Edges are numbered by their position in ``candidates``.  An edge
        with a degree-1 end (total variant) is never open: its removal
        isolates that vertex, so no set holding it qualifies, and after
        a prefix that holds one the row is empty.  Every other edge is
        open unless a kept cover settles it: a settled edge set keeps a
        cover within the limit, so it is not a hit.  Alone, an edge is
        settled by a kept cover with no slack that does not hold it as
        fragile, or with slack that does not hold it as doubly fragile.
        After one edge, a pair is settled by a kept cover that holds
        neither edge as fragile nor both as a fragile pair.  Kept covers
        are looked at only after prefixes of at most one edge.
        """
        if _bits(prefix) & self._isolating:
            return 0
        still = ~self._isolating
        if len(prefix) > 1:
            return still
        for slack, fragile, doubly, mates in self._summaries():
            if not prefix:
                still &= fragile if slack == 0 else doubly
            elif not fragile >> prefix[0] & 1:
                still &= fragile | mates.get(prefix[0], 0)
        return still

    def hit(self, edges: Iterable[Edge]) -> bool:
        """Whether removing ``edges`` qualifies and leaves no cover within ``base``.

        A removal that empties an endpoint's mask isolates it (total
        variant): it does not qualify, so the answer is False before any
        repair or search.  Otherwise one pass over the kept covers,
        newest first, repairs each: one dominator for each endpoint it
        lost, and, when that is one pick over ``base``, less its first
        redundant pick.  The first that fits ``base`` answers False and,
        if it changed, joins the kept covers; only when none fits is
        there a search, and a cover it finds joins them too.
        """
        cover, touched = _toggled(self.graph, self._cover, edges)
        if _isolates(cover, touched):
            return False
        # A cover that lost no dominator survives as it is.
        for chosen in reversed(self._kept):
            repaired = chosen
            for i in touched:
                if not cover[i] & repaired:
                    repaired |= cover[i] & -cover[i]
            if repaired.bit_count() == self.base + 1:
                repaired = _pruned(cover, repaired)
            if repaired.bit_count() <= self.base:
                if repaired != chosen:
                    self._kept.append(repaired)
                return False
        found = _search(tuple(cover), self.base)
        if found is not None:
            self._kept.append(_bits(found))
        return found is None


class AdditionSearch:
    """Decides whether G plus missing edges has a (total) dominating set below ``base``.

    ``base`` must be the unperturbed parameter, above its floor (1, or 2
    in the total variant), so that a set below it does not dominate G
    and dominates G + uv only through uv (see the module docstring).
    As a scan, its ``candidates`` are the missing edges of G, sorted,
    and ``hit`` accepts an addition that leaves a cover below ``base``:
    one edge by the forced-endpoint tests, more by the joined cover
    masks.  ``row`` settles the single edges per vertex (see its
    docstring), and ``ends`` holds each candidate's endpoint indices,
    in candidate order.
    """

    def __init__(self, g: Graph, total: bool, base: int):
        self.graph = g
        self.base = base
        labels = g.vertices
        # In candidate order, so that no hit looks a label up.
        self.ends = {(labels[i], labels[j]): (i, j) for i, j in g.complement_ends()}
        self.candidates = list(self.ends)
        # Whether a set below ``base`` may hold both endpoints and miss exactly both:
        # in the closed variant each dominates itself, and such a set needs base - 1 >= 2.
        self._both = total and base > 2
        self._cover = _cover_masks(g, total)
        # x -> members other than x of sets of ``base`` - 1 vertices that
        # dominate everything but x; None when no such set exists
        self._partners: dict[int, int | None] = {}
        # x -> the vertices w with cover[w] a subset of cover[x], made on first use
        self._dead: dict[int, int] = {}

    def row(self, prefix: tuple[int, ...]) -> int:
        """Bits of the candidates that may be a hit when added along with ``prefix``.

        Alone, an edge uv is open when u or v has a set of ``base`` - 1
        vertices that misses only it (``missing_only``), each vertex's
        decided once, or when its "both endpoints" case survives the
        dead masks (``missing_both``; total variant, ``base`` above 2).
        A set below ``base`` that dominates G + uv is one of those
        cases, so no other single edge is a hit.  After a nonempty
        prefix every candidate is open (-1).
        """
        if prefix:
            return -1
        lone = _bits(x for x in range(len(self._cover)) if self.missing_only(x))
        return _bits(
            e
            for e, (u, v) in enumerate(self.ends.values())
            if (lone >> u | lone >> v) & 1 or self._both and self.missing_both(u, v)
        )

    def hit(self, edges: tuple[Edge, ...]) -> bool:
        """Whether adding ``edges`` leaves a cover smaller than ``base``.

        One edge uv is a hit when a set of ``base`` - 1 vertices holds u
        and misses only v, or the other way round (``_misses_only``), or
        holds both and misses exactly both (``missing_both``), its rest
        found by a search for ``base`` - 3 vertices.  Two or more edges
        are decided by one search for ``base`` - 1 vertices on the cover
        masks with them joined.
        """
        ends = [self.ends[edge] for edge in edges]
        if len(ends) > 1:
            cover = list(self._cover)
            for u, v in ends:
                cover[u] |= 1 << v
                cover[v] |= 1 << u
            return _search(tuple(cover), self.base - 1) is not None
        (u, v), = ends
        if self._misses_only(u, v) or self._misses_only(v, u):
            return True
        # Both endpoints in the set and, the cases above having failed,
        # neither dominated in G.
        both = self.missing_both(u, v)
        return both is not None and _search(self._cover, self.base - 3, *both) is not None

    def _dead_with(self, x: int) -> int:
        """The vertices left without a dominator once every dominator of x is barred."""
        if x not in self._dead:
            out = self._cover[x]
            self._dead[x] = _bits(w for w, mask in enumerate(self._cover) if not mask & ~out)
        return self._dead[x]

    def _partnered(self, x: int) -> int | None:
        """Members other than x of the sets found so far of ``base`` - 1 vertices that dominate all of G but x.

        None when no such set exists.  Such a set is smaller than the
        parameter, so it really misses x: no dominator of x may join it,
        and none exists when that leaves another vertex without a
        dominator.  The first call per vertex makes the one search from the root.
        """
        if x not in self._partners:
            if self._dead_with(x) & ~(1 << x):
                found = None
            else:
                found = _search(self._cover, self.base - 1, 1 << x, self._cover[x])
            self._partners[x] = None if found is None else _bits(found) & ~(1 << x)
        return self._partners[x]

    def missing_only(self, x: int) -> tuple[int, int] | None:
        """``(dominated, banned)`` of the sets of ``base`` - 1 vertices that dominate all of G but x.

        None when there is none.  Such a set dominates G + ux for each of
        its members u, and every one has exactly ``base`` - 1 vertices:
        with one neighbour of x added, it dominates G.
        """
        if self._partnered(x) is None:
            return None
        return 1 << x, self._cover[x]

    def missing_both(self, u: int, v: int) -> tuple[int, int] | None:
        """``(dominated, banned)`` of the rest of the sets of ``base`` - 1 vertices that hold u and v and dominate all of G but both.

        None in the closed variant, where u and v dominate themselves,
        and when ``base`` is at most 2, which leaves no room for both.
        Cover masks are symmetric, so the vertices u and v dominate are
        also the ones that may not join; any other vertex whose
        dominators are all among them stays undominated, so no such set
        exists, and the answer is None.
        """
        if not self._both:
            return None
        near = self._cover[u] | self._cover[v]
        ends = 1 << u | 1 << v
        if (self._dead_with(u) | self._dead_with(v)) & ~(near | ends):
            return None
        return near | ends, near

    def _misses_only(self, u: int, x: int) -> bool:
        """Some set of ``base`` - 1 vertices holds u and dominates all of G but x.

        Its rest is found by a search for ``base`` - 2 vertices, unless a
        set found earlier already holds u; a set found joins x's partners.
        """
        partners = self._partnered(x)
        if partners is None:
            return False
        if partners >> u & 1:
            return True
        found = _search(self._cover, self.base - 2, self._cover[u] | 1 << x, self._cover[x])
        if found is None:
            return False
        self._partners[x] = partners | (_bits(found) | 1 << u) & ~(1 << x)
        return True


def _first_hit(search: RemovalSearch | AdditionSearch, max_k: int | None) -> PerturbResult:
    """The first set of ``search.candidates``, by size and then lexicographically, that ``search.hit`` accepts.

    A set of k candidates is a prefix of k - 1 and one later candidate;
    ``search.row(prefix)`` gives, as bits over the candidate positions,
    the last candidates that are not already known to miss (-1: all),
    and ``search.hit`` decides each of those, qualification included.
    """
    candidates = search.candidates
    count = len(candidates)
    if max_k is None:  # every size while an exhaustive scan stays desk-scale
        max_k = count if search.graph.num_edges <= 12 else 2
    for k in range(1, min(max_k, count) + 1):
        for prefix in combinations(range(count), k - 1):
            head = tuple(candidates[i] for i in prefix)
            first = prefix[-1] + 1 if prefix else 0
            for last in iter_bits(search.row(prefix) & ((1 << count) - (1 << first))):
                subset = head + (candidates[last],)
                if search.hit(subset):
                    return PerturbResult(k, subset, search.base)
    return PerturbResult(None, None, search.base)


def _parameter(g: Graph, total: bool, start: DomResult | None) -> DomResult:
    """``start`` if given, else the (total) domination number of ``g``, solved here.

    Its witness only seeds a ``RemovalSearch``, where any minimum set
    serves.
    """
    if start is not None:
        return start
    return total_domination_number(g) if total else domination_number(g)


def _check_max_k(max_k: int | None) -> None:
    """Reject a size cap below 1, which would leave no size to try and read as "undefined"."""
    if max_k is not None and max_k < 1:
        raise ValueError(f"max_k must be positive, got {max_k}")


def _removal_number(g: Graph, total: bool, max_k: int | None, start: DomResult | None) -> PerturbResult:
    _check_max_k(max_k)
    if g.num_edges == 0:
        raise EmptyGraphError(f"{'total ' if total else ''}bondage needs at least one edge")
    start = _parameter(g, total, start)
    return _first_hit(RemovalSearch(g, total, start.value, kept=[start.witness]), max_k)


def _addition_number(g: Graph, total: bool, max_k: int | None, start: DomResult | None) -> PerturbResult:
    _check_max_k(max_k)
    base = _parameter(g, total, start).value
    if base <= (2 if total else 1):
        return PerturbResult(0, None, base)
    return _first_hit(AdditionSearch(g, total, base), max_k)


def bondage_number(g: Graph, max_k: int | None = None, *, start: DomResult | None = None) -> PerturbResult:
    """Minimum number of edge removals that raise the domination number."""
    return _removal_number(g, total=False, max_k=max_k, start=start)


def total_bondage_number(g: Graph, max_k: int | None = None, *, start: DomResult | None = None) -> PerturbResult:
    """Minimum number of edge removals that raise the total domination number.

    Edge sets whose removal isolates a vertex do not qualify and are
    skipped; when every set at every size is skipped or fails, the
    parameter is undefined (value None).  Raises EmptyGraphError on a
    graph without edges and IsolatedVertexError when the graph already
    has isolated vertices.
    """
    return _removal_number(g, total=True, max_k=max_k, start=start)


def reinforcement_number(g: Graph, max_k: int | None = None, *, start: DomResult | None = None) -> PerturbResult:
    """Minimum number of edge additions that lower the domination number.

    When the domination number is already 1 no addition can lower it;
    the result is the 0 marker by convention.
    """
    return _addition_number(g, total=False, max_k=max_k, start=start)


def total_reinforcement_number(g: Graph, max_k: int | None = None, *, start: DomResult | None = None) -> PerturbResult:
    """Minimum number of edge additions that lower the total domination number.

    When the total domination number is already 2 (its floor) the result
    is the 0 marker by convention.  Raises IsolatedVertexError when the
    graph has isolated vertices.
    """
    return _addition_number(g, total=True, max_k=max_k, start=start)
