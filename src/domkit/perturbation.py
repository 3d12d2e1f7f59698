"""Bondage, total bondage, reinforcement, and total reinforcement numbers.

Each parameter is the size of the smallest edge set whose removal
(bondage kinds) or addition (reinforcement kinds) moves the domination
number, or the total domination number, of the graph.  Candidate sets
are tried in ascending cardinality and, within one size, in
lexicographic order of the normalized edge list, so witnesses are
deterministic and the first hit is provably minimum.

No candidate set gets a graph copy.  Each is decided on the cover
bitmasks of the unperturbed graph, with the candidate's edges toggled
at their endpoints, and the searches reuse what earlier searches found:

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
    its members.  A set of two or more added edges is decided by one
    search on the cover masks with those edges joined.

Result encoding: ``value`` is the parameter when a witness exists, 0
when the parameter cannot be realized by any edge set (reinforcement of
a graph that is already at the floor), and None when the search bound
was exhausted without success (including total bondage of graphs like
stars where no qualifying edge set exists at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

# ``perfbench/tracing.py`` wraps the ``has_*_within`` names here while it
# runs, so they stay imported although nothing here calls them.
from .domination import (  # noqa: F401
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
        cover, touched = _toggled(self._graph, self._cover, edges)
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
        found = _exists_cover(tuple(cover), self._full, self._limit)
        if found is None:
            return False
        self._kept.append(_bits(found))
        return True


class AdditionSearch:
    """Decides whether G plus missing edges has a (total) dominating set within ``limit``.

    ``base`` is the unperturbed parameter.  Each added edge lowers the
    domination number by at most 1 and the total domination number by
    at most 2, so only limits in that window reach a search: the
    forced-endpoint test for one edge, the joined cover masks for more.
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
        return _exists_cover(self._cover, self._full, limit, dominated, banned)

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

    def covers_after(self, edges: tuple[Edge, ...], limit: int) -> bool:
        """Whether G plus the missing ``edges`` has a cover of at most ``limit`` vertices."""
        if limit >= self._base:
            return True
        if limit < max(1, self._base - len(edges) * (2 if self._total else 1)):
            return False
        if len(edges) > 1:
            cover, _ = _toggled(self._graph, self._cover, edges)
            return _exists_cover(tuple(cover), self._full, limit) is not None
        (a, b), = edges
        u, v = self._graph.index_of(a), self._graph.index_of(b)
        if self._misses_only(u, v, limit) or self._misses_only(v, u, limit):
            return True
        if not self._total or limit < 2:
            return False
        # Both endpoints in the set and, the cases above having failed,
        # neither dominated in G.  Cover masks are symmetric, so the
        # vertices u and v dominate are also the ones that may not join.
        near = self._cover[u] | self._cover[v]
        return self._search(limit - 2, near | 1 << u | 1 << v, near) is not None


def _first_hit(g: Graph, base: int, candidates: list[Edge], max_k: int | None, hit: Callable) -> PerturbResult:
    """The first candidate set, by size and then lexicographically, that ``hit`` accepts."""
    if max_k is None:  # every size while an exhaustive scan stays desk-scale
        max_k = len(candidates) if g.num_edges <= 12 else 2
    for k in range(1, min(max_k, len(candidates)) + 1):
        for subset in combinations(candidates, k):
            if hit(subset):
                return PerturbResult(k, subset, base)
    return PerturbResult(None, None, base)


def _removal_number(g: Graph, total: bool, max_k: int | None) -> PerturbResult:
    start = total_domination_number(g) if total else domination_number(g)
    search = RemovalSearch(g, total, start.value, kept=[start.witness])
    return _first_hit(g, start.value, sorted(g.edges), max_k, lambda edges: search.covers_after(edges) is False)


def _addition_number(g: Graph, total: bool, max_k: int | None) -> PerturbResult:
    base = (total_domination_number(g) if total else domination_number(g)).value
    if base <= (2 if total else 1):
        return PerturbResult(0, None, base)
    search = AdditionSearch(g, total, base)
    return _first_hit(g, base, g.complement_edges(), max_k, lambda edges: search.covers_after(edges, base - 1))


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
