"""Bondage, total bondage, reinforcement, and total reinforcement numbers.

Each parameter is the size of the smallest edge set whose removal
(bondage kinds) or addition (reinforcement kinds) moves the domination
number, or the total domination number, of the graph.  Candidate sets
are tried in ascending cardinality and, within one size, in
lexicographic order of the normalized edge list, so witnesses are
deterministic and the first hit is provably minimum.

Removals and single-edge additions, all that ``verify`` asks for, get
no graph copy.  Each is decided on the cover bitmasks of the
unperturbed graph, adjusted at the candidate's endpoints, and the
searches reuse what earlier searches found:

  * Removals (``RemovalSearch``).  A cover of G - R is also a cover of
    G, and it still covers G - R' unless an endpoint of R' loses its
    last dominator in it, which is one mask test per endpoint.  Every
    cover a search finds is kept, and a candidate that some kept cover
    survives is not a hit, so it gets no search at all (the witness
    argument of Bauer, Harary, Nieminen and Suffel, 1983).  Below the
    limit, a kept cover plus one dominator for each endpoint it lost
    settles the candidate the same way.
  * Single-edge additions (``AdditionSearch``).  A set S smaller than
    the parameter does not dominate G, so it can dominate G + uv only
    through the new edge: S holds u and misses at most v in G, or the
    other way round (Kok and Mynhardt, 1990).  In the total variant S
    may instead hold both endpoints and miss at most both.  Each case is
    one search from an already-dominated mask with the endpoint forced
    in, gated by a memoised per-vertex search ("some such set misses
    only x"); every set found also settles the other edges into x from
    its members.  Additions of two or more edges are each decided on a
    copy of the graph.

Result encoding: ``value`` is the parameter when a witness exists, 0
when the parameter cannot be realized by any edge set (reinforcement of
a graph that is already at the floor), and None when the search bound
was exhausted without success (including total bondage of graphs like
stars where no qualifying edge set exists at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .domination import (
    _cover_masks,
    _exists_cover,
    domination_number,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from .graph import Edge, Graph


class EmptyGraphError(ValueError):
    """Bondage is undefined for graphs without edges."""


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


class RemovalSearch:
    """Decides whether G - R keeps a (total) dominating set of at most ``limit`` vertices.

    ``kept`` seeds the store of known covers of G; those within the
    limit are kept, and every cover a search finds joins them.
    """

    def __init__(self, g: Graph, total: bool, limit: int, kept: Iterable[Iterable[str]] = ()):
        self._graph = g
        self._cover = _cover_masks(g, total)
        self._full = (1 << g.num_vertices) - 1
        self._limit = limit
        # A seeded cover larger than the limit proves nothing about it.
        seeds = (_bits(g.index_of(v) for v in chosen) for chosen in kept)
        self._kept = [mask for mask in seeds if mask.bit_count() <= limit]

    def covers_after(self, edges: Iterable[Edge]) -> bool | None:
        """Whether G minus ``edges`` has a cover within the limit.

        None when the removal leaves a vertex that nothing can dominate
        (an isolated vertex, in the total variant): such sets do not
        qualify as candidates.
        """
        cover = list(self._cover)
        touched: list[int] = []
        for a, b in edges:
            i, j = self._graph.index_of(a), self._graph.index_of(b)
            cover[i] &= ~(1 << j)
            cover[j] &= ~(1 << i)
            touched += (i, j)
        if any(cover[i] == 0 for i in touched):
            return None
        for chosen in reversed(self._kept):
            if all(cover[i] & chosen for i in touched):
                return True
        # Repair: one dominator for each endpoint a kept cover lost, if that fits.
        for chosen in reversed(self._kept):
            for i in touched:
                if not cover[i] & chosen:
                    chosen |= cover[i] & -cover[i]
            if chosen.bit_count() <= self._limit:
                self._kept.append(chosen)
                return True
        found = _exists_cover(tuple(cover), self._full, len(cover), self._limit)
        if found is None:
            return False
        self._kept.append(_bits(found))
        return True


class AdditionSearch:
    """Decides whether G + uv has a (total) dominating set of at most ``limit`` vertices.

    ``base`` is the unperturbed parameter.  An added edge lowers the
    domination number by at most 1 and the total domination number by
    at most 2, so only limits in that window reach a search.
    """

    def __init__(self, g: Graph, total: bool, base: int):
        self._graph = g
        self._total = total
        self._cover = _cover_masks(g, total)
        self._full = (1 << g.num_vertices) - 1
        self._base = base
        # (x, limit) -> members other than x of sets of at most ``limit``
        # vertices that dominate everything but x; None when no such set exists
        self._partners: dict[tuple[int, int], int | None] = {}

    def _search(self, limit: int, dominated: int, banned: int) -> list[int] | None:
        return _exists_cover(self._cover, self._full, len(self._cover), limit, dominated, banned)

    def _misses_only(self, u: int, x: int, limit: int) -> bool:
        """Some set of at most ``limit`` vertices holds u and dominates all of G but x.

        Such a set is smaller than the parameter, so it really misses x:
        no dominator of x may join it.
        """
        key = (x, limit)
        if key not in self._partners:
            found = self._search(limit, 1 << x, self._cover[x])
            self._partners[key] = None if found is None else _bits(found) & ~(1 << x)
        partners = self._partners[key]
        if partners is None:
            return False
        if partners >> u & 1:
            return True
        found = self._search(limit - 1, self._cover[u] | 1 << x, self._cover[x])
        if found is None:
            return False
        self._partners[key] = partners | (_bits(found) | 1 << u) & ~(1 << x)
        return True

    def covers_after(self, edge: Edge, limit: int) -> bool:
        """Whether G plus the missing ``edge`` has a cover of at most ``limit`` vertices."""
        if limit >= self._base:
            return True
        if limit < max(1, self._base - (2 if self._total else 1)):
            return False
        u, v = self._graph.index_of(edge[0]), self._graph.index_of(edge[1])
        if self._misses_only(u, v, limit) or self._misses_only(v, u, limit):
            return True
        if not self._total or limit < 2:
            return False
        # Both endpoints in the set and, the cases above having failed,
        # neither dominated in G.  Cover masks are symmetric, so the
        # vertices u and v dominate are also the ones that may not join.
        near = self._cover[u] | self._cover[v]
        return self._search(limit - 2, near | 1 << u | 1 << v, near) is not None


def _resolve_max_k(g: Graph, max_k: int | None, space_size: int) -> int:
    # Default switches to a depth-2 cap once exhaustive search over all
    # edge subsets stops being a desk-scale affair.
    if max_k is not None:
        return max_k
    return space_size if g.num_edges <= 12 else 2


def _removal_number(g: Graph, total: bool, max_k: int | None) -> PerturbResult:
    start = total_domination_number(g) if total else domination_number(g)
    base = start.value
    search = RemovalSearch(g, total, base, kept=[start.witness])
    candidates = sorted(g.edges)
    limit = min(_resolve_max_k(g, max_k, len(candidates)), len(candidates))
    for k in range(1, limit + 1):
        for subset in combinations(candidates, k):
            if search.covers_after(subset) is False:
                return PerturbResult(k, subset, base)
    return PerturbResult(None, None, base)


def _addition_number(g: Graph, total: bool, max_k: int | None) -> PerturbResult:
    base = (total_domination_number(g) if total else domination_number(g)).value
    if base <= (2 if total else 1):
        return PerturbResult(0, None, base)
    candidates = g.complement_edges()
    limit = min(_resolve_max_k(g, max_k, len(candidates)), len(candidates))
    if limit >= 1:
        search = AdditionSearch(g, total, base)
        for edge in candidates:
            if search.covers_after(edge, base - 1):
                return PerturbResult(1, (edge,), base)
    within = has_total_dominating_set_within if total else has_dominating_set_within
    for k in range(2, limit + 1):
        for subset in combinations(candidates, k):
            if within(g.add_edges(subset), base - 1):
                return PerturbResult(k, subset, base)
    return PerturbResult(None, None, base)


def bondage_number(g: Graph, max_k: int | None = None) -> PerturbResult:
    """Minimum number of edge removals that raise the domination number."""
    if g.num_edges == 0:
        raise EmptyGraphError("bondage needs at least one edge")
    return _removal_number(g, total=False, max_k=max_k)


def total_bondage_number(g: Graph, max_k: int | None = None) -> PerturbResult:
    """Minimum number of edge removals that raise the total domination number.

    Edge sets whose removal isolates a vertex do not qualify and are
    skipped; when every set at every size is skipped or fails, the
    parameter is undefined (value None).  Raises IsolatedVertexError
    when the graph already has isolated vertices.
    """
    return _removal_number(g, total=True, max_k=max_k)


def reinforcement_number(g: Graph, max_k: int | None = None) -> PerturbResult:
    """Minimum number of edge additions that lower the domination number.

    When the domination number is already 1 no addition can lower it;
    the result is the 0 marker by convention.
    """
    return _addition_number(g, total=False, max_k=max_k)


def total_reinforcement_number(g: Graph, max_k: int | None = None) -> PerturbResult:
    """Minimum number of edge additions that lower the total domination number.

    When the total domination number is already 2 (its floor) the result
    is the 0 marker by convention.  Raises IsolatedVertexError when the
    graph has isolated vertices.
    """
    return _addition_number(g, total=True, max_k=max_k)
