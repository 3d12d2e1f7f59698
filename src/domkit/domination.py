"""Exact minimum dominating set and total dominating set computation.

The solver is one branch and bound over vertex bitmasks, ``_search``.
It asks one question at a fixed ``limit``, which covers have at most
``limit`` picks, and returns the first one it reaches; given a
``found`` callback, it hands each cover it reaches to that instead and
stops at the first one accepted.  Two questions are asked of it:

  * decide "at most k" takes the first cover: ``_minimum_cover``,
    ``has_*_within`` and ``perturbation`` ask it with no callback, and
    so does ``verify``'s structure claim above the exact bound, once per
    every-bound fact with that fact's vertices banned;
  * enumerate "exactly k" (``_all_minimum_covers``), run at an optimum
    its caller has already proven, records every cover and accepts
    none, with a hard cap on the number of sets.  ``verify``'s
    structure claim at the exact bound calls it on cover masks
    directly: at the parameter it has solved, and on the toggled masks
    of G + e at the optimum that its window test proved for G + e.

Both split the vertices into components first, as #SAT solvers split a
formula into variable-disjoint parts (Bacchus, Dalmao & Pitassi 2003).
The components are the classes of the transitive closure of "shares a
dominator" in the full cover masks (``_components``), worked out once
per cover tuple and kept in a small least-recently-used cache, not per
node: splitting at every node costs a pass per node on graphs that
never split.  Their dominator sets are disjoint: if u dominates v1 and
v2, both lie in ``cover[u]``, so they share a dominator and one
component.  That holds under any ban, so a cover is one cover per
component, each independent of the others, and its size is the sum of
theirs.  Closed masks of a connected
graph form one component.  Open masks of a bipartite graph with an edge
form two or more: a vertex is dominated only from the other side, so
each side is a separate set cover, and every gadget is bipartite.  So:

  * a decide ``_search`` whose undominated vertices lie in two or more
    components splits at its root, once the root's packing bound fits
    the limit.  That packing is the union of the components' own, so it
    gives each one's bound.  It decides them in turn, upward from that
    bound, within ``limit`` less the picks so far and the later
    components' bounds, and fails as soon as one has no cover in that
    budget (``_group_minima``).  Its answer is each component's minimum
    cover, in component order, so ``_minimum_cover`` stops after one
    split decide that succeeds.  A root refuted by its bound never asks
    for the components;
  * ``_all_minimum_covers`` enumerates each component's covers at that
    component's own optimum, and returns their product, sorted.  It
    reads those optima off one split decide at the proven optimum: each
    pick dominates inside a single component, so a component's optimum
    is the number of picks that dominate its vertices.  The product is
    exactly the minimum covers, since a minimum cover takes a minimum
    cover of each component.  It raises at the same cap, as soon as
    the product would pass it.

γ and γ_t (``_minimum_cover``) are decide refutations: from a first
cover, decide "one pick fewer than the last cover found" until that
fails.  The first cover is greedy's, or, given a ``hint`` (any vertex
set), the hint repaired into a cover: each vertex it leaves undominated,
in index order, that is still undominated gets its lowest-index
dominator.  The repaired set is a cover by construction and the loop
still refutes one fewer, so a hint moves no value, only the work:
``verify`` passes the set a satisfying assignment maps to, which
repairs to a cover of the exact bound (for the reinforcement kinds, by
the pick that the added edge stood in for); on the gadgets measured the
first decide, at one fewer, is refuted at its root.  The witness is the
last cover found, sorted: the first cover if it was minimum (so a hint
that is a minimum cover comes back as it is), else whichever minimum
cover the last successful decide reached.  That is the witness
contract, for every caller.  It is deterministic, since every search
step is, but it is not a canonical set: which cover decide reaches
first depends on the kernel's branch order and propagation, and on the
split.  No bondage or reinforcement answer depends on which minimum set
it is.  Only ``tests/data/pinned_witnesses.json`` and the CLI
expectations record particular witnesses; a change to the branch order
that moves them regenerates the fixture with its writer and names the
change.

Each node makes one branch step, ``_branch``, a single pass over the
undominated vertices.  It branches on the undominated vertex with the
fewest allowed dominators (lowest index among ties); branches are made
disjoint by forbidding, inside the t-th branch, the dominators tried
before it, so every vertex set is reachable along exactly one path,
whatever order the dominators are tried in.  Every node tries them in
one order, by descending gain, the number of vertices each newly
dominates (lowest index among ties): the greediest branch tends to reach
a cover first, and on the searches ``verify`` makes this about halves
the decide nodes.  The order shows only in the γ and γ_t witnesses:
every other decide cover is only measured or kept as a seed, so it may
be any qualifying cover, and enumerate reaches every cover whatever the
order, and sorts them.

A decide node also skips candidates, as branch and bound for set cover
drops a set whose new coverage another set's contains (the subsumption
rule of Fomin, Grandoni & Kratsch 2009, used for dominating set by van
Rooij & Bodlaender 2011).  Once a sibling k is refuted, a later sibling u
that newly dominates no vertex outside k's new coverage is not tried; it
is added to the siblings' bans as a refuted one would be.  A test
against the union of the refuted siblings' coverage comes first, so most
candidates cost one AND.  The skip is sound by a swap: a cover through u
that avoids the earlier siblings, with u replaced by k, is a cover
through k of no greater size within the bans of k's branch, and that
branch held none.  So a skipped subtree holds no cover, the search
reaches the same first cover, and no witness moves.  Banning u inside
the earlier siblings' branches too would save a few nodes more but move
witnesses, since those branches could have reached a cover through u.
Enumerate does not skip: there a sibling is "refuted" only because
``found`` accepts no cover, and the covers through u would be lost.

The same pass gives the lower bound, a packing: taken in order of
(dominator count, index), the undominated vertices whose allowed
dominators are disjoint from those of all vertices kept before each need
a pick of their own.  The bound is admissible, so it cuts only subtrees
without a qualifying cover.

When the bound is tight (depth + need == limit), every cover within the
limit below the node takes exactly one pick from each kept vertex's
dominator set, its class, and no pick outside them.  Such a node
propagates this, as unit propagation does for one-pick-per-clause
constraints (Davis, Logemann & Loveland 1962): it bans the dominators
outside every class; an undominated vertex that lost dominators to a ban
and has all its remaining ones in one class shrinks that class to them,
banning the rest; a vertex left without a dominator fails the node;
otherwise it branches on the smallest class.  A banned vertex lies in
no cover within the limit, so decide finds a cover exactly when it did
without the rule, and enumerate reaches the same covers, which it
sorts.  The gadgets' refutations at the exact bound are tight from the
root; on them the rule takes hundreds of times fewer nodes for plain
bondage and several times fewer for total bondage.

Domination uses closed neighborhoods (a chosen vertex covers itself);
total domination uses open neighborhoods, so a vertex never covers
itself and graphs with isolated vertices have no total dominating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
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


def _branch(cover: tuple[int, ...], undom: int, banned: int) -> tuple[list[int], int] | None:
    """The packing at a search node: its classes and its spare dominators.

    Cover masks are symmetric, so ``cover[v]`` minus ``banned`` is the set
    of allowed dominators of v.  ``undom`` must be nonempty.  Returns
    None when some vertex in it has no allowed dominator.  Otherwise,
    taking the undominated vertices by (dominator count, index), keeps
    each whose dominators are disjoint from those of all kept before,
    since each kept vertex needs a pick of its own, and returns their
    dominator sets, the classes, in that order, so the first is a
    smallest and their number is the picks the node needs at least;
    and ``spare``, the allowed dominators of undominated vertices that
    lie in no class.
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
            return None
        keyed.append((cands.bit_count(), v, cands))
    keyed.sort()
    used = reach = 0
    classes: list[int] = []
    for _, _, cands in keyed:
        if cands & used:
            reach |= cands
        else:
            used |= cands
            classes.append(cands)
    return classes, reach & ~used


def _tighten(cover: tuple[int, ...], undom: int, banned: int, classes: list[int], spare: int) -> int | None:
    """Propagate a tight node's packing: the new ``banned``, or None if no cover fits.

    At a node where exactly ``len(classes)`` picks are left, every cover
    within the limit takes one pick from each (pairwise disjoint) class
    and none elsewhere.  So ban ``spare``; then, while some undominated
    vertex that lost a dominator to a ban has all its remaining
    dominators in one class, shrink that class to them by banning the
    rest of it.  ``classes`` is shrunk in place.
    """
    banned |= spare
    fresh = spare
    while fresh:
        touched = 0
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            touched |= cover[low.bit_length() - 1]
        touched &= undom
        while touched:
            low = touched & -touched
            touched ^= low
            rest = cover[low.bit_length() - 1] & ~banned
            if not rest:
                return None
            for i, c in enumerate(classes):
                if c & rest:
                    break
            cut = c & ~rest
            if cut and not rest & ~c:
                classes[i] = rest
                banned |= cut
                fresh |= cut
    return banned


# Bounded, so a scan over many perturbed graphs keeps only the latest few.
@lru_cache(maxsize=16)
def _components(cover: tuple[int, ...]) -> tuple[int, ...]:
    """The components of ``cover`` (see the module docstring), as vertex masks by lowest vertex, cached per tuple.

    Two vertices share a dominator when a walk of two steps along the
    masks joins them, so a component is a class of walks of even length.
    One breadth-first pass over each part connected by the masks finds
    them: the part is one component if some mask joins two vertices of
    the same layer (an odd cycle, or a closed mask's own vertex), and
    otherwise two, its even and its odd layers.
    """
    found: list[int] = []
    rest = (1 << len(cover)) - 1
    while rest:
        layer = rest & -rest
        sides = [0, 0]
        parity = 0
        odd = False
        while layer:
            sides[parity] |= layer
            reach = 0
            while layer:
                low = layer & -layer
                layer ^= low
                reach |= cover[low.bit_length() - 1]
            odd = odd or bool(reach & sides[parity])
            parity ^= 1
            layer = reach & ~(sides[0] | sides[1])
        part = sides[0] | sides[1]
        found += [part] if odd else [side for side in sides if side]
        rest &= ~part
    found.sort(key=lambda comp: comp & -comp)
    return tuple(found)


def _groups(cover: tuple[int, ...], dominated: int) -> list[int]:
    """The vertices outside ``dominated``, split by component, in component order."""
    return [undom for comp in _components(cover) if (undom := comp & ~dominated)]


def _group_minima(
    cover: tuple[int, ...], limit: int, groups: list[int], banned: int, classes: list[int]
) -> list[list[int]] | None:
    """A minimum cover of each group, by at most ``limit`` picks in all, or None if there is none.

    ``classes`` is the packing of all the groups' vertices together; the
    classes of each group's own packing are the ones among them that
    dominate it, since dominator sets are disjoint across groups.  So a
    cover of all the groups is one cover per group, and it is within
    ``limit`` exactly when their minima are.  Each group is decided upward
    from its own packing bound, within ``limit`` less the picks so far and
    the later groups' bounds.
    """
    bounds = [sum(1 for c in classes if cover[(c & -c).bit_length() - 1] & undom) for undom in groups]
    spare = limit - sum(bounds)
    full = (1 << len(cover)) - 1
    minima = []
    for undom, bound in zip(groups, bounds):
        for size in range(bound, bound + spare + 1):
            picks = _search(cover, size, full & ~undom, banned)
            if picks is not None:
                break
        else:
            return None
        spare -= len(picks) - bound
        minima.append(picks)
    return minima


def _search(
    cover: tuple[int, ...],
    limit: int,
    dominated: int = 0,
    banned: int = 0,
    found: Callable[[list[int]], bool] | None = None,
) -> list[int] | None:
    """Branch and bound over covers, by at most ``limit`` picks, of the vertices outside ``dominated``.

    ``cover`` has one mask per vertex, so a cover dominates every vertex.
    Vertices in ``banned`` are never picked, and ``limit`` never changes.
    Returns the first cover reached, as a list of its picks in branch
    order, or None.  Given ``found``, every cover reached goes to it
    instead, and the search stops at, and returns, the first cover for
    which ``found`` returns True.  Without ``found``, a root whose bound
    fits and whose undominated vertices lie in two or more components
    answers with each one's minimum cover (``_group_minima``), in
    component order.  Each node tries its branch vertex's dominators by
    descending number of newly dominated vertices (lowest index among
    ties), and propagates when tight (see the module docstring).  Without
    ``found``, it skips a dominator whose newly dominated vertices a
    refuted sibling's include, which moves no cover it returns.
    """
    full = (1 << len(cover)) - 1
    chosen: list[int] = []

    def dfs(dominated: int, banned: int) -> bool:
        if dominated == full:
            return found is None or found(chosen)
        depth = len(chosen)
        if depth >= limit:
            return False
        undom = full & ~dominated
        packing = _branch(cover, undom, banned)
        if packing is None:
            return False
        classes, spare = packing
        need = len(classes)
        if depth + need > limit:
            return False
        if not depth and found is None and len(groups := _groups(cover, dominated)) > 1:
            minima = _group_minima(cover, limit, groups, banned, classes)
            for picks in minima or ():
                chosen.extend(picks)
            return minima is not None
        branch_cands = classes[0]
        # Classes are kept by ascending size, so before any ban no vertex's
        # dominators are a strict subset of one: without spare, nothing to propagate.
        if spare and depth + need == limit:
            banned = _tighten(cover, undom, banned, classes, spare)
            if banned is None:
                return False
            branch_cands = min(classes, key=int.bit_count)
        tried = seen = 0
        refuted: list[int] = []
        for u in sorted(iter_bits(branch_cands), key=lambda u: -(cover[u] & undom).bit_count()):
            gain = cover[u] & undom
            # A decide skips u when a refuted sibling newly dominates all it does.
            if found is None and not gain & ~seen and any(not gain & ~k for k in refuted):
                tried |= 1 << u
                continue
            chosen.append(u)
            if dfs(dominated | cover[u], banned | tried):
                return True
            chosen.pop()
            tried |= 1 << u
            refuted.append(gain)
            seen |= gain
        return False

    return chosen if dfs(dominated, banned) else None


def _repaired(cover: tuple[int, ...], hint: Iterable[int]) -> list[int]:
    """``hint`` plus, for each vertex it leaves undominated, in index order, its lowest-index dominator if still needed."""
    chosen = dominated = 0
    for u in hint:
        chosen |= 1 << u
        dominated |= cover[u]
    for v in iter_bits(((1 << len(cover)) - 1) & ~dominated):
        if not dominated >> v & 1:
            low = cover[v] & -cover[v]
            chosen |= low
            dominated |= cover[low.bit_length() - 1]
    return list(iter_bits(chosen))


def _minimum_cover(cover: tuple[int, ...], hint: Iterable[int] | None = None) -> list[int]:
    """Indices of a minimum cover: the last one the decide loop found, sorted (see the module docstring).

    The loop starts from greedy's cover, or from ``hint`` repaired into
    one.  The null graph's first cover is empty, so no decide call is made.
    """
    best = _greedy_cover(cover) if hint is None else _repaired(cover, hint)
    while best and (smaller := _search(cover, len(best) - 1)) is not None:
        best = smaller
        if len(_components(cover)) > 1:  # a split decide returns each component's minimum
            break
    return sorted(best)


def has_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some dominating set of at most ``size`` vertices exists."""
    return _search(_cover_masks(g, total=False), size) is not None


def has_total_dominating_set_within(g: Graph, size: int) -> bool:
    """Whether some total dominating set of at most ``size`` vertices exists."""
    return _search(_cover_masks(g, total=True), size) is not None


def _all_minimum_covers(cover: tuple[int, ...], size: int, cap: int) -> list[tuple[int, ...]]:
    """Every cover of exactly ``size`` picks, each found once, in index order.

    ``size`` must be the proven optimum of ``cover``: only there are the
    covers within it exactly the minimum ones.  Each component's covers
    are enumerated at its own optimum, and the answer is their product.
    Raises BudgetExceededError past ``cap`` covers.
    """
    full = (1 << len(cover)) - 1
    groups, sizes = [full], [size]
    if len(split := _groups(cover, 0)) > 1:
        # A split decide at the optimum: each pick dominates inside one component.
        picks = _search(cover, size)
        groups, sizes = split, [sum(1 for u in picks if cover[u] & undom) for undom in split]
    parts: list[list[tuple[int, ...]]] = []
    count = 1
    for undom, k in zip(groups, sizes):
        part: list[tuple[int, ...]] = []
        room = cap // count  # this part's sets times those before must stay within cap

        def found(chosen: list[int]) -> bool:
            if len(part) >= room:
                raise BudgetExceededError(f"more than {cap} minimum sets")
            part.append(tuple(chosen))
            return False

        _search(cover, k, full & ~undom, found=found)
        count *= len(part)
        parts.append(part)
    results = [tuple(sorted(chain.from_iterable(picks))) for picks in product(*parts)]
    results.sort()
    return results


def _solved(g: Graph, total: bool, hint: Iterable[str] | None) -> DomResult:
    cover = _cover_masks(g, total)
    chosen = _minimum_cover(cover, None if hint is None else [g.index_of(v) for v in hint])
    return DomResult(len(chosen), frozenset(g.label_at(i) for i in chosen))


def domination_number(g: Graph, *, hint: Iterable[str] | None = None) -> DomResult:
    """The minimum size of a dominating set, with one witness (see the module docstring).

    ``hint``, any set of ``g``'s vertices, is where the search starts:
    repaired into a dominating set, it is the witness if it is minimum.
    It never changes the value.  Raises UnknownVertexError for a label
    not in ``g``.
    """
    return _solved(g, False, hint)


def total_domination_number(g: Graph, *, hint: Iterable[str] | None = None) -> DomResult:
    """The minimum size of a total dominating set, with one witness and ``hint`` as for ``domination_number``.

    Raises IsolatedVertexError when the graph has isolated vertices.
    """
    return _solved(g, True, hint)


def enumerate_minimum_sets(g: Graph, total: bool = False, cap: int = 100_000) -> list[frozenset[str]]:
    """All minimum (total) dominating sets, in index order.

    Raises BudgetExceededError when more than ``cap`` sets exist.
    """
    cover = _cover_masks(g, total)
    covers = _all_minimum_covers(cover, len(_minimum_cover(cover)), cap)
    return [frozenset(g.label_at(i) for i in chosen) for chosen in covers]
