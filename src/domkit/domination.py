"""Exact minimum dominating set and total dominating set computation.

The solver is one branch and bound over vertex bitmasks, ``_search``:
it looks for covers of at most ``limit`` picks, hands each cover it
reaches to a callback, which returns the limit for the rest of the
search, and returns the last cover it reached.  The three modes are
three callbacks:

  * optimize (``_minimum_cover``) returns the cover's size minus one,
    so only strictly smaller covers follow and the last one is minimum;
    the starting limit is one below the size of a greedy max-coverage
    cover, which is the answer when no smaller cover exists;
  * decide "at most k" (``_exists_cover``) returns -1, so the first
    cover ends the search;
  * enumerate "exactly k" (``_all_minimum_covers``), run at an optimum
    its caller has already proven, records the cover and returns the
    same limit, with a hard cap on the number of sets.  ``verify``'s
    structure claim calls it on cover masks directly: at the parameter
    it has solved, and for G + uv on the toggled masks of G, rooted at
    u and then at v, since every set below the optimum of G that
    dominates G + uv holds one of them.

Each node makes one branch step, ``_branch``, a single pass over the
undominated vertices.  It branches on the undominated vertex with the
fewest allowed dominators (lowest index among ties); branches are made
disjoint by forbidding, inside the t-th branch, the dominators tried
before it, so every vertex set is reachable along exactly one path,
whatever order the dominators are tried in.  One child loop tries
them; only its order depends on the mode:

  * optimize tries them in index order, because its witness (the last
    cover reached) is pinned, and so is its node count; so does
    enumerate, which reaches every cover in any order and sorts them;
  * decide tries them by descending gain, the number of vertices each
    newly dominates (lowest index among ties).  Its cover is never
    shown, only kept for reuse by ``perturbation``, so it may be any
    qualifying cover, and the greediest branch tends to reach one first:
    on the searches ``verify`` makes, this about halves the nodes.

The same pass gives the lower bound, a packing: taken in order of
(dominator count, index), the undominated vertices whose allowed
dominators are disjoint from those of all vertices kept before each need
a pick of their own.  The bound is admissible, so it cuts only subtrees
without a qualifying cover and the witnesses do not depend on it.

Domination uses closed neighborhoods (a chosen vertex covers itself);
total domination uses open neighborhoods, so a vertex never covers
itself and graphs with isolated vertices have no total dominating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import Graph, iter_bits


class IsolatedVertexError(ValueError):
    """Total domination is undefined on graphs with isolated vertices."""


class BudgetExceededError(RuntimeError):
    """Minimum-set enumeration hit its configured cap."""


@dataclass(frozen=True)
class DomResult:
    """A parameter value together with one minimum witness set."""

    value: int
    witness: frozenset[str]


def _dominates(g: Graph, vertex_set: Iterable[str], closed: bool) -> bool:
    """Whether the neighborhoods of the set, closed or open, cover every vertex."""
    adj = g.adjacency_masks()
    covered = 0
    for v in vertex_set:
        i = g.index_of(v)
        covered |= adj[i] | closed << i
    return covered == (1 << g.num_vertices) - 1


def is_dominating_set(g: Graph, vertex_set: Iterable[str]) -> bool:
    """True iff every vertex outside the set has a neighbor in it."""
    return _dominates(g, vertex_set, closed=True)


def is_total_dominating_set(g: Graph, vertex_set: Iterable[str]) -> bool:
    """True iff every vertex of the graph has a neighbor in the set."""
    return _dominates(g, vertex_set, closed=False)


def _cover_masks(g: Graph, total: bool) -> tuple[int, ...]:
    adj = g.adjacency_masks()
    if total:
        if g.num_vertices and any(mask == 0 for mask in adj):
            bad = sorted(g.isolated_vertices())
            raise IsolatedVertexError(f"graph has isolated vertices: {bad}")
        return adj
    return tuple(mask | (1 << i) for i, mask in enumerate(adj))


def _greedy_cover(cover: tuple[int, ...]) -> list[int]:
    full = (1 << len(cover)) - 1
    dominated = 0
    chosen: list[int] = []
    while dominated != full:
        best_u = -1
        best_gain = 0
        for u, mask in enumerate(cover):
            gain = (mask & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_u = u
        chosen.append(best_u)
        dominated |= cover[best_u]
    return chosen


def _branch(cover: tuple[int, ...], undom: int, banned: int) -> tuple[int | None, int]:
    """Where a search node branches, and how many more picks it needs.

    Cover masks are symmetric, so ``cover[v]`` minus ``banned`` is the set
    of allowed dominators of v.  ``undom`` must be nonempty.  Returns
    ``(None, 0)`` when some vertex in it has no allowed dominator.
    Otherwise returns the allowed dominators of the undominated vertex
    with the fewest (lowest index among ties), and ``need``: taking the
    undominated vertices by (dominator count, index), the number kept
    whose dominators are disjoint from those of all kept before.  Each
    kept vertex needs a pick of its own.
    """
    allowed = ~banned
    keyed: list[tuple[int, int, int]] = []
    m = undom
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        cands = cover[v] & allowed
        if not cands:
            return None, 0
        keyed.append((cands.bit_count(), v, cands))
    keyed.sort()
    used = 0
    need = 0
    for _, _, cands in keyed:
        if not cands & used:
            used |= cands
            need += 1
    return keyed[0][2], need


def _search(
    cover: tuple[int, ...],
    limit: int,
    found: Callable[[list[int]], int],
    dominated: int = 0,
    banned: int = 0,
    by_gain: bool = False,
) -> list[int] | None:
    """Branch and bound over covers, by at most ``limit`` picks, of the vertices outside ``dominated``.

    ``cover`` has one mask per vertex, so a cover dominates every vertex.
    Vertices in ``banned`` are never picked.  Each cover reached, as a
    list of its picks in branch order, goes to ``found``, which returns
    the limit for the rest of the search: the search stops once the depth
    of every open node has reached it.  Returns the last cover reached,
    or None.  Each node tries its branch vertex's dominators in index
    order, or with ``by_gain`` by descending number of newly dominated
    vertices (lowest index among ties).
    """
    full = (1 << len(cover)) - 1
    chosen: list[int] = []
    last: list[int] | None = None

    def dfs(dominated: int, banned: int) -> None:
        nonlocal limit, last
        if dominated == full:
            last = list(chosen)
            limit = found(last)
            return
        depth = len(chosen)
        if depth >= limit:
            return
        branch_cands, need = _branch(cover, full & ~dominated, banned)
        if branch_cands is None or depth + need > limit:
            return
        order = iter_bits(branch_cands)
        if by_gain:
            undom = ~dominated
            order = sorted(order, key=lambda u: -(cover[u] & undom).bit_count())
        tried = 0
        for u in order:
            chosen.append(u)
            dfs(dominated | cover[u], banned | tried)
            chosen.pop()
            if depth >= limit:
                return
            tried |= 1 << u

    dfs(dominated, banned)
    return last


def _smaller(chosen: list[int]) -> int:
    """Optimize: only strictly smaller covers may follow."""
    return len(chosen) - 1


def _stop(chosen: list[int]) -> int:
    """Decide: the first cover ends the search."""
    return -1


def _minimum_cover(cover: tuple[int, ...]) -> list[int]:
    """Indices of a minimum cover; the witness is deterministic."""
    greedy = _greedy_cover(cover)
    best = _search(cover, len(greedy) - 1, _smaller)
    return sorted(greedy if best is None else best)


def _exists_cover(cover: tuple[int, ...], limit: int, dominated: int = 0, banned: int = 0) -> list[int] | None:
    """Indices of some cover of size at most ``limit``, or None.

    The search starts from ``dominated``: vertices already covered by
    choices made outside it, which the returned indices need not cover.
    Vertices in ``banned`` are never chosen.  No caller shows the cover,
    so the search branches by gain.
    """
    return _search(cover, limit, _stop, dominated, banned, by_gain=True)


def has_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some dominating set of at most ``size`` vertices exists."""
    return _exists_cover(_cover_masks(g, total=False), size) is not None


def has_total_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some total dominating set of at most ``size`` vertices exists."""
    return _exists_cover(_cover_masks(g, total=True), size) is not None


def _all_minimum_covers(
    cover: tuple[int, ...], size: int, cap: int, through: tuple[int, int] | None = None
) -> list[tuple[int, ...]]:
    """Every cover of exactly ``size`` picks, the proven optimum, each found once, in index order.

    With ``through = (u, v)`` only the covers that hold u or v are
    enumerated: one search rooted at u, then one rooted at v with u
    banned, so the two are disjoint.  On the cover masks of G + uv at an
    optimum below that of G, these are all the covers, since a set that
    avoids both endpoints dominates G + uv only if it dominates G.
    Raises BudgetExceededError past ``cap`` covers.
    """
    results: list[tuple[int, ...]] = []

    def collect(root: list[int]) -> Callable[[list[int]], int]:
        def found(chosen: list[int]) -> int:
            if len(results) >= cap:
                raise BudgetExceededError(f"more than {cap} minimum sets")
            results.append(tuple(sorted(chosen + root)))
            return size - len(root)

        return found

    if through is None:
        _search(cover, size, collect([]))
    else:
        u, v = through
        _search(cover, size - 1, collect([u]), cover[u], 1 << u)
        _search(cover, size - 1, collect([v]), cover[v], 1 << u | 1 << v)
    results.sort()
    return results


def domination_number(g: Graph) -> DomResult:
    """The minimum size of a dominating set, with one witness."""
    chosen = _minimum_cover(_cover_masks(g, total=False))
    return DomResult(len(chosen), frozenset(g.label_at(i) for i in chosen))


def total_domination_number(g: Graph) -> DomResult:
    """The minimum size of a total dominating set, with one witness.

    Raises IsolatedVertexError when the graph has isolated vertices.
    """
    chosen = _minimum_cover(_cover_masks(g, total=True))
    return DomResult(len(chosen), frozenset(g.label_at(i) for i in chosen))


def enumerate_minimum_sets(g: Graph, total: bool = False, cap: int = 100_000) -> list[frozenset[str]]:
    """All minimum (total) dominating sets, in index order.

    Raises BudgetExceededError when more than ``cap`` sets exist.
    """
    cover = _cover_masks(g, total)
    covers = _all_minimum_covers(cover, len(_minimum_cover(cover)), cap)
    return [frozenset(g.label_at(i) for i in chosen) for chosen in covers]
