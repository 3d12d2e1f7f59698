"""Exact minimum dominating set and total dominating set computation.

The solver is a branch and bound over vertex bitmasks.  At each node it
selects an undominated vertex with the fewest remaining candidate
dominators and branches over those candidates in index order; branches
are made disjoint by forbidding, inside the t-th branch, the candidates
tried before it, so every vertex set is reachable along exactly one
path.  The initial upper bound comes from a greedy max-coverage pass,
and nodes are cut with the admissible bound

    needed >= ceil(#undominated / max coverage of any allowed vertex).

The same search, run at the proven optimum size without the best-so-far
cut, enumerates all minimum sets (used by the structural claim checks),
with a hard cap to keep that bounded.

Domination uses closed neighborhoods (a chosen vertex covers itself);
total domination uses open neighborhoods, so a vertex never covers
itself and graphs with isolated vertices have no total dominating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph


class IsolatedVertexError(ValueError):
    """Total domination is undefined on graphs with isolated vertices."""


class BudgetExceededError(RuntimeError):
    """Minimum-set enumeration hit its configured cap."""


@dataclass(frozen=True)
class DomResult:
    """A parameter value together with one minimum witness set."""

    value: int
    witness: frozenset[str]


def is_dominating_set(g: Graph, vertex_set: Iterable[str]) -> bool:
    """True iff every vertex outside the set has a neighbor in it."""
    adj = g.adjacency_masks()
    covered = 0
    for v in vertex_set:
        i = g.index_of(v)
        covered |= adj[i] | (1 << i)
    return covered == (1 << g.num_vertices) - 1


def is_total_dominating_set(g: Graph, vertex_set: Iterable[str]) -> bool:
    """True iff every vertex of the graph has a neighbor in the set."""
    adj = g.adjacency_masks()
    covered = 0
    for v in vertex_set:
        covered |= adj[g.index_of(v)]
    return covered == (1 << g.num_vertices) - 1


def _cover_masks(g: Graph, total: bool) -> tuple[int, ...]:
    adj = g.adjacency_masks()
    if total:
        if g.num_vertices and any(mask == 0 for mask in adj):
            bad = sorted(g.isolated_vertices())
            raise IsolatedVertexError(f"graph has isolated vertices: {bad}")
        return adj
    return tuple(mask | (1 << i) for i, mask in enumerate(adj))


def _greedy_cover(cover: tuple[int, ...], full: int, n: int) -> list[int]:
    dominated = 0
    chosen: list[int] = []
    while dominated != full:
        best_u = -1
        best_gain = 0
        for u in range(n):
            gain = (cover[u] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        chosen.append(best_u)
        dominated |= cover[best_u]
    return chosen


def _minimum_cover(cover: tuple[int, ...], full: int, n: int) -> list[int]:
    """Indices of a minimum cover; the witness is deterministic."""
    if full == 0:
        return []
    best = _greedy_cover(cover, full, n)
    best_size = len(best)

    def dfs(dominated: int, banned: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        if dominated == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        depth = len(chosen)
        if depth + 1 >= best_size:
            return
        undom = full & ~dominated
        branch_cands = -1
        branch_count = n + 1
        m = undom
        while m:
            low = m & -m
            m ^= low
            cands = cover[low.bit_length() - 1] & ~banned
            c = cands.bit_count()
            if c == 0:
                return
            if c < branch_count:
                branch_count = c
                branch_cands = cands
                if c == 1:
                    break
        need = undom.bit_count()
        cmax = 0
        for u in range(n):
            if banned >> u & 1:
                continue
            gain = (cover[u] & undom).bit_count()
            if gain > cmax:
                cmax = gain
        if depth + (need + cmax - 1) // cmax >= best_size:
            return
        tried = 0
        m = branch_cands
        while m:
            low = m & -m
            m ^= low
            chosen.append(low.bit_length() - 1)
            dfs(dominated | cover[low.bit_length() - 1], banned | tried, chosen)
            chosen.pop()
            tried |= low
            if depth + 1 >= best_size:
                return

    dfs(0, 0, [])
    return sorted(best)


def _exists_cover(
    cover: tuple[int, ...], full: int, n: int, limit: int, dominated: int = 0, banned: int = 0
) -> list[int] | None:
    """Indices of some cover of size at most ``limit``, or None (early exit).

    The search starts from ``dominated``: vertices already covered by
    choices made outside it, which the returned indices need not cover.
    Vertices in ``banned`` are never chosen.
    """
    if dominated == full:
        return []
    if limit <= 0:
        return None

    def dfs(dominated: int, banned: int, depth: int) -> list[int] | None:
        if dominated == full:
            return []
        if depth >= limit:
            return None
        undom = full & ~dominated
        branch_cands = -1
        branch_count = n + 1
        m = undom
        while m:
            low = m & -m
            m ^= low
            cands = cover[low.bit_length() - 1] & ~banned
            c = cands.bit_count()
            if c == 0:
                return None
            if c < branch_count:
                branch_count = c
                branch_cands = cands
                if c == 1:
                    break
        need = undom.bit_count()
        cmax = 0
        for u in range(n):
            if banned >> u & 1:
                continue
            gain = (cover[u] & undom).bit_count()
            if gain > cmax:
                cmax = gain
        if depth + (need + cmax - 1) // cmax > limit:
            return None
        tried = 0
        m = branch_cands
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            found = dfs(dominated | cover[u], banned | tried, depth + 1)
            if found is not None:
                found.append(u)
                return found
            tried |= low
        return None

    return dfs(dominated, banned, 0)


def has_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some dominating set of at most ``size`` vertices exists."""
    cover = _cover_masks(g, total=False)
    return _exists_cover(cover, (1 << g.num_vertices) - 1, g.num_vertices, size) is not None


def has_total_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some total dominating set of at most ``size`` vertices exists."""
    cover = _cover_masks(g, total=True)
    return _exists_cover(cover, (1 << g.num_vertices) - 1, g.num_vertices, size) is not None


def _all_minimum_covers(
    cover: tuple[int, ...], full: int, n: int, size: int, cap: int
) -> list[tuple[int, ...]]:
    """Every cover of exactly the optimum size, each found once."""
    if full == 0:
        return [()]
    results: list[tuple[int, ...]] = []

    def dfs(dominated: int, banned: int, chosen: list[int]) -> None:
        if dominated == full:
            if len(chosen) == size:
                if len(results) >= cap:
                    raise BudgetExceededError(f"more than {cap} minimum sets")
                results.append(tuple(sorted(chosen)))
            return
        depth = len(chosen)
        if depth >= size:
            return
        undom = full & ~dominated
        branch_cands = -1
        branch_count = n + 1
        m = undom
        while m:
            low = m & -m
            m ^= low
            cands = cover[low.bit_length() - 1] & ~banned
            c = cands.bit_count()
            if c == 0:
                return
            if c < branch_count:
                branch_count = c
                branch_cands = cands
                if c == 1:
                    break
        need = undom.bit_count()
        cmax = 0
        for u in range(n):
            if banned >> u & 1:
                continue
            gain = (cover[u] & undom).bit_count()
            if gain > cmax:
                cmax = gain
        if depth + (need + cmax - 1) // cmax > size:
            return
        tried = 0
        m = branch_cands
        while m:
            low = m & -m
            m ^= low
            chosen.append(low.bit_length() - 1)
            dfs(dominated | cover[low.bit_length() - 1], banned | tried, chosen)
            chosen.pop()
            tried |= low

    dfs(0, 0, [])
    results.sort()
    return results


def domination_number(g: Graph) -> DomResult:
    """The minimum size of a dominating set, with one witness."""
    cover = _cover_masks(g, total=False)
    chosen = _minimum_cover(cover, (1 << g.num_vertices) - 1, g.num_vertices)
    return DomResult(len(chosen), frozenset(g.label_at(i) for i in chosen))


def total_domination_number(g: Graph) -> DomResult:
    """The minimum size of a total dominating set, with one witness.

    Raises IsolatedVertexError when the graph has isolated vertices.
    """
    cover = _cover_masks(g, total=True)
    chosen = _minimum_cover(cover, (1 << g.num_vertices) - 1, g.num_vertices)
    return DomResult(len(chosen), frozenset(g.label_at(i) for i in chosen))


def enumerate_minimum_sets(g: Graph, total: bool = False, cap: int = 100_000) -> list[frozenset[str]]:
    """All minimum (total) dominating sets, in index order.

    Raises BudgetExceededError when more than ``cap`` sets exist.
    """
    cover = _cover_masks(g, total)
    full = (1 << g.num_vertices) - 1
    optimum = len(_minimum_cover(cover, full, g.num_vertices))
    covers = _all_minimum_covers(cover, full, g.num_vertices, optimum, cap)
    return [frozenset(g.label_at(i) for i in chosen) for chosen in covers]
