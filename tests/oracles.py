"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles: full subset
enumeration over neighbor masks rebuilt from the raw edge list.  None
of it shares search code with the package, so agreement between the
two is meaningful evidence.  The exceptions follow.
``scan_perturbation``, the reference for perturbation witnesses, shares
the package's bounded search, but decides every candidate edge set on
its own copy of the graph, with none of the perturbation module's
shortcuts.  ``reference_minimum_cover``, the reference for γ and γ_t
values above brute-force sizes, shares the package's branch step and
greedy cover, but finds the optimum by one search that lowers its limit
at every cover it reaches, not by decide searches at fixed limits.
``reference_decide``, the reference for decide witnesses, shares the
package's branch step, propagation and components, and is the package's
decide without its skip of dominated candidates, so the package must
reach the very same first cover.
``reference_structure_violations``, the reference for the deep claim's
refutations, lists every minimum set with the package's enumeration and
asks ``structure_violation`` about each, as ``verify`` itself did before
it refuted the every-bound facts by constrained decides.
``reference_solve_sat``, the reference for satisfying assignments, is a
copy of the former DPLL oracle, which pins the assignment the package's
solver must return, not only its verdict.
"""

from __future__ import annotations

from itertools import combinations

from domkit.cnf import CnfInstance
from domkit.domination import (
    _branch,
    _greedy_cover,
    _groups,
    _tighten,
    domination_number,
    enumerate_minimum_sets,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from domkit.graph import Graph, iter_bits
from domkit.reductions import ReductionKind, ReductionOutput, structure_violation


def _neighbor_masks(labels: tuple[str, ...], edges) -> list[int]:
    index = {lab: i for i, lab in enumerate(labels)}
    adj = [0] * len(labels)
    for a, b in edges:
        ia, ib = index[a], index[b]
        adj[ia] |= 1 << ib
        adj[ib] |= 1 << ia
    return adj


def _minimum_covers(adj: list[int], total: bool) -> tuple[int | None, list[int]]:
    """Optimum size and all optimum cover masks, by enumerating all subsets."""
    n = len(adj)
    full = (1 << n) - 1
    covers = adj if total else [m | (1 << i) for i, m in enumerate(adj)]
    best: int | None = None
    masks: list[int] = []
    for mask in range(1 << n):
        cov = 0
        mm = mask
        while mm:
            low = mm & -mm
            cov |= covers[low.bit_length() - 1]
            mm ^= low
        if cov == full:
            k = mask.bit_count()
            if best is None or k < best:
                best, masks = k, [mask]
            elif k == best:
                masks.append(mask)
    return best, masks


def _value(labels, edges, total: bool) -> int | None:
    best, _ = _minimum_covers(_neighbor_masks(labels, edges), total)
    return best


def oracle_dominates(g: Graph, subset, total: bool = False) -> bool:
    nbrs = {v: set() for v in g.vertices}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    chosen = set(subset)
    for v in g.vertices:
        if not total and v in chosen:
            continue
        if not nbrs[v] & chosen:
            return False
    return True


def brute_domination_number(g: Graph) -> int:
    return _value(g.vertices, g.edges, total=False)


def brute_total_domination_number(g: Graph) -> int | None:
    """None when no total dominating set exists (isolated vertices)."""
    return _value(g.vertices, g.edges, total=True)


def brute_minimum_sets(g: Graph, total: bool = False) -> list[frozenset[str]]:
    _, masks = _minimum_covers(_neighbor_masks(g.vertices, g.edges), total)
    out = []
    for mask in masks:
        out.append(frozenset(g.vertices[i] for i in range(g.num_vertices) if mask >> i & 1))
    return out


def brute_bondage(g: Graph) -> int | None:
    base = brute_domination_number(g)
    edges = sorted(g.edges)
    for k in range(1, len(edges) + 1):
        for subset in combinations(edges, k):
            kept = [e for e in edges if e not in set(subset)]
            if _value(g.vertices, kept, total=False) > base:
                return k
    return None


def brute_total_bondage(g: Graph) -> int | None:
    base = brute_total_domination_number(g)
    edges = sorted(g.edges)
    for k in range(1, len(edges) + 1):
        for subset in combinations(edges, k):
            kept = [e for e in edges if e not in set(subset)]
            value = _value(g.vertices, kept, total=True)
            if value is None:
                continue  # removal isolates a vertex: does not qualify
            if value > base:
                return k
    return None


def brute_reinforcement(g: Graph) -> int:
    base = brute_domination_number(g)
    if base <= 1:
        return 0
    present = {tuple(sorted(e)) for e in g.edges}
    labels = g.vertices
    missing = sorted(
        tuple(sorted((labels[i], labels[j])))
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if tuple(sorted((labels[i], labels[j]))) not in present
    )
    for k in range(1, len(missing) + 1):
        for subset in combinations(missing, k):
            if _value(labels, list(g.edges) + list(subset), total=False) < base:
                return k
    raise AssertionError("reinforcement must succeed before exhausting the complement")


def brute_total_reinforcement(g: Graph) -> int:
    base = brute_total_domination_number(g)
    if base <= 2:
        return 0
    present = {tuple(sorted(e)) for e in g.edges}
    labels = g.vertices
    missing = sorted(
        tuple(sorted((labels[i], labels[j])))
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if tuple(sorted((labels[i], labels[j]))) not in present
    )
    for k in range(1, len(missing) + 1):
        for subset in combinations(missing, k):
            value = _value(labels, list(g.edges) + list(subset), total=True)
            if value is not None and value < base:
                return k
    raise AssertionError("total reinforcement must succeed before exhausting the complement")


def scan_perturbation(g: Graph, kind: str, max_k: int | None = None):
    """(value, witness, base) by the plain edge-subset scan.

    The reference for the ``*_number`` functions in ``domkit.perturbation``:
    every candidate set, in ascending size and lexicographic order, is
    applied to a copy of the graph and decided there with a bounded
    search.  ``kind`` is one of bondage, total-bondage, reinforcement,
    total-reinforcement.
    """
    total = kind.startswith("total-")
    base = (total_domination_number(g) if total else domination_number(g)).value
    within = has_total_dominating_set_within if total else has_dominating_set_within
    removal = kind.endswith("bondage")
    if removal:
        candidates = sorted(g.edges)
    else:
        if base <= (2 if total else 1):
            return 0, None, base
        candidates = g.complement_edges()
    if max_k is None:
        max_k = len(candidates) if g.num_edges <= 12 else 2
    for k in range(1, min(max_k, len(candidates)) + 1):
        for subset in combinations(candidates, k):
            if removal:
                reduced = g.remove_edges(subset)
                if total and reduced.isolated_vertices():
                    continue
                if not within(reduced, base):
                    return k, subset, base
            elif within(g.add_edges(subset), base - 1):
                return k, subset, base
    return None, None, base


def reference_minimum_cover(cover: tuple[int, ...]) -> list[int]:
    """Indices of a minimum cover, by a shrinking-limit search: the γ/γ_t reference above brute-force sizes.

    One index-order branch and bound, started one pick below the greedy
    cover, lowers its limit to one below each cover it reaches, so only
    strictly smaller covers follow and the last one reached is minimum;
    the greedy cover is the answer when none is reached.  Its size is
    the reference value; the package may return any minimum set.
    """
    full = (1 << len(cover)) - 1
    greedy = _greedy_cover(cover)
    limit = len(greedy) - 1
    chosen: list[int] = []
    last = greedy

    def dfs(dominated: int, banned: int) -> None:
        nonlocal limit, last
        if dominated == full:
            last = list(chosen)
            limit = len(chosen) - 1
            return
        depth = len(chosen)
        if depth >= limit:
            return
        packing = _branch(cover, full & ~dominated, banned)
        if packing is None:
            return
        classes, _ = packing
        if depth + len(classes) > limit:
            return
        tried = 0
        for u in iter_bits(classes[0]):
            chosen.append(u)
            dfs(dominated | cover[u], banned | tried)
            chosen.pop()
            if depth >= limit:
                return
            tried |= 1 << u

    dfs(0, 0)
    return sorted(last)


def reference_decide(cover: tuple[int, ...], limit: int, dominated: int = 0, banned: int = 0) -> list[int] | None:
    """The first cover, by at most ``limit`` picks, of ``_search``'s decide with every candidate tried: the witness reference.

    The same search as the package's decide: its branch step, its
    tight-node propagation, its gain order and its split of the root into
    components, each decided upward from its own packing bound.  It does
    not skip a candidate whose new coverage a refuted sibling's contains.
    Such a skip cuts only subtrees without a cover, so the package must
    return this pick list, pick for pick.
    """
    full = (1 << len(cover)) - 1
    chosen: list[int] = []

    def split(groups: list[int], banned: int, classes: list[int]) -> bool:
        bounds = [sum(1 for c in classes if cover[(c & -c).bit_length() - 1] & undom) for undom in groups]
        spare = limit - sum(bounds)
        for undom, bound in zip(groups, bounds):
            for size in range(bound, bound + spare + 1):
                picks = reference_decide(cover, size, full & ~undom, banned)
                if picks is not None:
                    break
            else:
                return False
            spare -= len(picks) - bound
            chosen.extend(picks)
        return True

    def dfs(dominated: int, banned: int) -> bool:
        if dominated == full:
            return True
        depth = len(chosen)
        if depth >= limit:
            return False
        undom = full & ~dominated
        packing = _branch(cover, undom, banned)
        if packing is None:
            return False
        classes, spare = packing
        if depth + len(classes) > limit:
            return False
        if not depth and len(groups := _groups(cover, dominated)) > 1:
            return split(groups, banned, classes)
        branch_cands = classes[0]
        if spare and depth + len(classes) == limit:
            banned = _tighten(cover, undom, banned, classes, spare)
            if banned is None:
                return False
            branch_cands = min(classes, key=int.bit_count)
        tried = 0
        for u in sorted(iter_bits(branch_cands), key=lambda u: -(cover[u] & undom).bit_count()):
            chosen.append(u)
            if dfs(dominated | cover[u], banned | tried):
                return True
            chosen.pop()
            tried |= 1 << u
        return False

    return chosen if dfs(dominated, banned) else None


def reference_structure_violations(out: ReductionOutput, at_exact: bool) -> set[str]:
    """What ``structure_violation`` says of each minimum set of the gadget; empty when every set conforms."""
    total = out.kind in (ReductionKind.TOTAL_BONDAGE, ReductionKind.TOTAL_REINFORCEMENT)
    sets = enumerate_minimum_sets(out.graph, total)
    return {violation for chosen in sets if (violation := structure_violation(out, chosen, at_exact))}


def brute_solve(inst: CnfInstance) -> dict[int, bool] | None:
    """First satisfying assignment in binary counting order, or None."""
    n = inst.num_vars
    for bits in range(1 << n):
        assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in inst.clauses):
            return assignment
    return None


def _reference_simplify(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    out: list[tuple[int, ...]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = tuple(x for x in clause if x != -lit)
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _reference_dpll(clauses: list[tuple[int, ...]], assignment: dict[int, bool]) -> bool:
    while True:
        changed = False
        # unit propagation
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is not None:
            assignment[abs(unit)] = unit > 0
            reduced = _reference_simplify(clauses, unit)
            if reduced is None:
                return False
            clauses = reduced
            continue
        # pure literal elimination
        polarity: dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                polarity[abs(lit)] = polarity.get(abs(lit), 0) | (1 if lit > 0 else 2)
        pure = next((v for v in sorted(polarity) if polarity[v] != 3), None)
        if pure is not None:
            lit = pure if polarity[pure] == 1 else -pure
            assignment[abs(lit)] = lit > 0
            reduced = _reference_simplify(clauses, lit)
            if reduced is None:
                return False
            clauses = reduced
            changed = True
        if not changed:
            break

    if not clauses:
        return True

    var = min(abs(lit) for clause in clauses for lit in clause if abs(lit) not in assignment)
    for value in (True, False):
        trial = dict(assignment)
        trial[var] = value
        reduced = _reference_simplify(clauses, var if value else -var)
        if reduced is not None and _reference_dpll(reduced, trial):
            assignment.clear()
            assignment.update(trial)
            return True
    return False


def reference_solve_sat(inst: CnfInstance) -> dict[int, bool] | None:
    """The assignment DPLL finds, or None.

    Unit propagation first, then the lowest pure literal, repeated until
    neither applies; then a branch on the lowest-index unassigned
    variable, true before false.  Variables the search never sets are
    false.
    """
    assignment: dict[int, bool] = {}
    if not _reference_dpll([tuple(c) for c in inst.clauses], assignment):
        return None
    for v in range(1, inst.num_vars + 1):
        assignment.setdefault(v, False)
    return dict(sorted(assignment.items()))


# small named graphs used throughout the tests


def path_graph(k: int) -> Graph:
    labels = [f"x{i}" for i in range(1, k + 1)]
    return Graph(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    labels = [f"x{i}" for i in range(1, k + 1)]
    edges = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
    return Graph(labels, edges)


def star_graph(leaves: int) -> Graph:
    labels = ["hub"] + [f"leaf{i}" for i in range(1, leaves + 1)]
    return Graph(labels, [("hub", leaf) for leaf in labels[1:]])


def complete_graph(k: int) -> Graph:
    labels = [f"x{i}" for i in range(1, k + 1)]
    return Graph(labels, [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)])


def random_graph(rng, num_vertices: int, edge_prob: float) -> Graph:
    labels = [f"x{i}" for i in range(1, num_vertices + 1)]
    edges = [
        (labels[i], labels[j])
        for i in range(num_vertices)
        for j in range(i + 1, num_vertices)
        if rng.random() < edge_prob
    ]
    return Graph(labels, edges)
