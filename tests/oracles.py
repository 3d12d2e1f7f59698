"""Independent brute-force oracles used to pin expected values.

Everything here recomputes from first principles: full subset
enumeration over neighbor masks rebuilt from the raw edge list.  None
of it shares search code with the package, so agreement between the
two is meaningful evidence.  The one exception is ``scan_perturbation``,
the reference for perturbation witnesses: it shares the package's
bounded search, but decides every candidate edge set on its own copy of
the graph, with none of the perturbation module's shortcuts.
"""

from __future__ import annotations

from itertools import combinations

from domkit.cnf import CnfInstance
from domkit.domination import (
    domination_number,
    has_dominating_set_within,
    has_total_dominating_set_within,
    total_domination_number,
)
from domkit.graph import Graph


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


def brute_solve(inst: CnfInstance) -> dict[int, bool] | None:
    """First satisfying assignment in binary counting order, or None."""
    n = inst.num_vars
    for bits in range(1 << n):
        assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in inst.clauses):
            return assignment
    return None


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
