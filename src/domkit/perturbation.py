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
    isolates a vertex (in the total variant) is never settled: it holds
    all that vertex's dominator edges in every cover and leaves none to
    repair them with, so alone, as an edge with a degree-1 end, it stays
    in the row of a cover with slack too.  It does not qualify either:
    ``hit`` toggles its edges, finds the isolated endpoint's mask empty
    and rejects it before any repair or search.  Every other candidate
    left in the row gets one pass over the kept covers, newest first.
    Each is repaired: plus one dominator for each endpoint it lost
    (none, if it survives), and, when that is one pick over the limit,
    less one redundant pick, a pick all of whose dominated vertices are
    dominated twice.  The first repaired cover that fits the limit
    settles the candidate and joins the kept covers, as a cover of
    G - R is one of G; only when none fits is there a search.
  * Single-edge additions (``AdditionSearch``).  A set S smaller than
    the parameter does not dominate G, so it can dominate G + uv only
    through the new edge: S holds u and misses at most v in G, or the
    other way round (Kok and Mynhardt, 1990).  In the total variant S
    may instead hold both endpoints and miss at most both.  Each case is
    one search from an already-dominated mask with the endpoint forced
    in, gated by a memoised per-vertex search ("some such set misses
    only x"); every set found also settles the other edges into x from
    its members.  Both searches bar the dominators of the vertices they
    must leave undominated (x, or u and v), so either fails at its root
    when some other vertex it must dominate has only barred dominators.
    The *dead* mask of x, made on first use, holds the vertices w all of
    whose dominators also dominate x (cover[w] a subset of cover[x]).
    It settles the search for x without a search when it holds a vertex
    other than x, and the "both endpoints" search for uv when the dead
    masks of u and v hold a vertex other than u, v and the vertices they
    dominate.  A set of two or more added edges is decided by one search
    on the cover masks with those edges joined.

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
    ``kept`` seeds the store of known covers of G; those within ``base``
    are kept, and every cover a search finds or a repair makes joins
    them.  ``row`` settles whole rows at once from each kept cover's
    slack, fragile and doubly fragile edges and fragile pairs (see the
    module docstring), worked out the first time a row needs the cover;
    ``hit`` rejects a removal that isolates a vertex before any repair
    or search.
    """

    def __init__(self, g: Graph, total: bool, base: int, kept: Iterable[Iterable[str]] = ()):
        self.graph = g
        self.base = base
        self.candidates = sorted(g.edges)
        self._cover = _cover_masks(g, total)
        # A seeded cover larger than ``base`` proves nothing about it.
        seeds = (_bits(g.index_of(v) for v in chosen) for chosen in kept)
        self._kept = [mask for mask in seeds if mask.bit_count() <= base]
        # Edge numbers, as positions in ``candidates``, by endpoint indices in either order.
        self._edge_ids: dict[tuple[int, int], int] = {}
        for e, (a, b) in enumerate(self.candidates):
            i, j = g.index_of(a), g.index_of(b)
            self._edge_ids[i, j] = self._edge_ids[j, i] = e
        # Per kept cover, in the same order: its slack, fragile and doubly fragile
        # edges, and for each edge the edges it forms a fragile pair with.
        self._fragile: list[tuple[int, int, int, dict[int, int]]] = []
        # Total variant: the edges with a degree-1 end, a vertex whose open mask has one bit.
        self._isolating = _bits(e for (i, _), e in self._edge_ids.items() if total and self._cover[i].bit_count() == 1)

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
        """Bits of the edges that no kept cover yet settles when removed along with ``prefix``.

        Edges are numbered by their position in ``candidates``.  A
        settled edge set keeps a cover within the limit, so it is not
        a hit.  Alone, an edge is settled by a kept cover with no slack
        that does not hold it as fragile, or with slack that does not
        hold it as doubly fragile, unless it has a degree-1 end (total
        variant): its removal isolates that vertex, which leaves no
        dominator to repair with.  After one edge, a pair is settled by
        a kept cover that holds neither edge as fragile nor both as a
        fragile pair.  Only prefixes of at most one edge are looked at;
        after a longer one, every edge is open (-1).
        """
        if len(prefix) > 1:
            return -1
        still = -1
        for slack, fragile, doubly, mates in self._summaries():
            if not prefix:
                still &= fragile if slack == 0 else doubly | self._isolating
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
        if any(cover[i] == 0 for i in touched):
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
    """Decides whether G plus missing edges has a (total) dominating set within ``limit``.

    As a scan, its ``candidates`` are the missing edges of G, sorted,
    ``row`` keeps every one open, and ``hit`` accepts an addition that
    leaves a cover below ``base``, the unperturbed parameter.  Each
    added edge lowers the domination number by at most 1 and the total
    domination number by at most 2, so only limits in that window reach
    a search: the forced-endpoint test for one edge, the joined cover
    masks for more.
    """

    def __init__(self, g: Graph, total: bool, base: int):
        self.graph = g
        self.base = base
        self.candidates = g.complement_edges()
        self._total = total
        self._cover = _cover_masks(g, total)
        # (x, limit) -> members other than x of sets of at most ``limit``
        # vertices that dominate everything but x; None when no such set exists
        self._partners: dict[tuple[int, int], int | None] = {}
        # x -> the vertices w with cover[w] a subset of cover[x], made on first use
        self._dead: dict[int, int] = {}

    def row(self, prefix: tuple[int, ...]) -> int:
        """Every candidate is open: additions are settled only by ``hit``."""
        return -1

    def hit(self, edges: tuple[Edge, ...]) -> bool:
        """Whether adding ``edges`` leaves a cover smaller than ``base``."""
        return self.covers_after(edges, self.base - 1)

    def _dead_with(self, x: int) -> int:
        """The vertices left without a dominator once every dominator of x is barred."""
        if x not in self._dead:
            out = self._cover[x]
            self._dead[x] = _bits(w for w, mask in enumerate(self._cover) if not mask & ~out)
        return self._dead[x]

    def _misses_only(self, u: int, x: int, limit: int) -> bool:
        """Some set of at most ``limit`` vertices holds u and dominates all of G but x.

        Such a set is smaller than the parameter, so it really misses x:
        no dominator of x may join it, and none exists when that leaves
        another vertex without a dominator.
        """
        key = (x, limit)
        if key not in self._partners:
            if self._dead_with(x) & ~(1 << x):
                found = None
            else:
                found = _search(self._cover, limit, 1 << x, self._cover[x])
            self._partners[key] = None if found is None else _bits(found) & ~(1 << x)
        partners = self._partners[key]
        if partners is None:
            return False
        if partners >> u & 1:
            return True
        found = _search(self._cover, limit - 1, self._cover[u] | 1 << x, self._cover[x])
        if found is None:
            return False
        self._partners[key] = partners | (_bits(found) | 1 << u) & ~(1 << x)
        return True

    def covers_after(self, edges: tuple[Edge, ...], limit: int) -> bool:
        """Whether G plus the missing ``edges`` has a cover of at most ``limit`` vertices."""
        if limit >= self.base:
            return True
        if limit < max(1, self.base - len(edges) * (2 if self._total else 1)):
            return False
        if len(edges) > 1:
            cover, _ = _toggled(self.graph, self._cover, edges)
            return _search(tuple(cover), limit) is not None
        (a, b), = edges
        u, v = self.graph.index_of(a), self.graph.index_of(b)
        if self._misses_only(u, v, limit) or self._misses_only(v, u, limit):
            return True
        if not self._total or limit < 2:
            return False
        # Both endpoints in the set and, the cases above having failed,
        # neither dominated in G.  Cover masks are symmetric, so the
        # vertices u and v dominate are also the ones that may not join;
        # any other vertex whose dominators are all among them stays
        # undominated, so no such set exists.
        near = self._cover[u] | self._cover[v]
        if (self._dead_with(u) | self._dead_with(v)) & ~(near | 1 << u | 1 << v):
            return False
        return _search(self._cover, limit - 2, near | 1 << u | 1 << v, near) is not None


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
