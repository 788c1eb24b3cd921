"""Divisive detection by repeated removal of the least-transitive link.

The edge-clustering coefficient (triangles through the edge + 1, divided by
the smaller endpoint degree - 1) is lowest on inter-community bridges,
which lack triangle support. Removing edges in that order and recording the
component structure at every split yields a divisive hierarchy; the level
of maximal modularity is returned.

The removal order does not depend on the components, so it is found first,
from a heap of lower bounds on the coefficients. The splits are then found
offline: adding the removed edges back in reverse order with a union-find,
an edge that joins two components is one whose removal split them.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph import Graph, Partition, connected_components
from . import _require_edges


def _coefficient(tri, du, dv):
    low = min(du, dv) - 1
    if low < 1:
        # Pendant edges cannot be triangle-supported bridges; drop them last.
        return float("inf")
    return (tri + 1) / low


def _removal_order(graph):
    """Every edge in the order of removal: smallest (c, u, v) first, each
    coefficient taken on the graph left by the earlier removals."""
    n = graph.node_count
    adj = [set(a) for a in graph.row_view[0]]
    deg = graph.degrees()
    # Edge (u, v), u < v, is keyed u * n + v, so (c, key) sorts as (c, u, v).
    tri = {u * n + v: len(adj[u] & adj[v]) for u, v in graph.edges}
    bound = {k: _coefficient(t, deg[k // n], deg[k % n]) for k, t in tri.items()}
    heap = [(c, k) for k, c in bound.items()]
    heapq.heapify(heap)

    # bound[e] is at most e's current coefficient, and the heap holds
    # (bound[e], e) for every live edge e; other entries are stale. A top
    # entry whose bound equals its edge's current coefficient is therefore
    # the smallest (c, u, v) over all live edges, ties included: every other
    # live edge f has (c_f, f) >= (bound[f], f) >= the top entry. A degree
    # fall only raises a coefficient, so it pushes nothing; the edge goes
    # back in at its new value when it reaches the top. Only a lost triangle
    # lowers a coefficient, and those edges are pushed at once.
    order = []
    while heap:
        c, key = heap[0]
        if bound.get(key) != c:
            heapq.heappop(heap)
            continue
        u, v = divmod(key, n)
        now = _coefficient(tri[key], deg[u], deg[v])
        if now > c:
            bound[key] = now
            heapq.heapreplace(heap, (now, key))
            continue
        heapq.heappop(heap)
        del bound[key]
        order.append((u, v))
        adj[u].discard(v)
        adj[v].discard(u)
        deg[u] -= 1
        deg[v] -= 1
        for w in adj[u] & adj[v]:
            for x in (u, v):
                k = x * n + w if x < w else w * n + x
                tri[k] -= 1
                c = _coefficient(tri[k], deg[x], deg[w])
                if c < bound[k]:
                    bound[k] = c
                    heapq.heappush(heap, (c, k))
    return order


def _splits(n, order):
    """One node list per split, in removal order: the smaller side of the
    component that the removal disconnected."""
    # Small-to-large: a node moves to another list at most log2(n) times.
    members = [[v] for v in range(n)]
    sides = []
    for u, v in reversed(order):
        a, b = members[u], members[v]
        if a is b:
            continue
        if len(a) < len(b):
            a, b = b, a
        a.extend(b)
        for x in b:
            members[x] = a
        sides.append(b)
    return sides[::-1]


def radetal(graph: Graph) -> Partition:
    """Divisive clustering on the edge-clustering coefficient.

    Deterministic: coefficient ties resolve to the lexicographically
    smallest edge. Q is scored on the original graph after every split,
    and the first level of largest Q is returned.
    """
    _require_edges(graph)
    n = graph.node_count
    m = graph.edge_count
    four_m2 = 4.0 * m * m
    adj = graph.row_view[0]
    deg = graph.degrees()

    start = connected_components(graph)
    labels = np.asarray(start.membership, dtype=np.int64)
    # Original-graph degree sums and edge counts per current component: an
    # edge's endpoints share a component, so each edge adds 2 to its d_comp.
    d_comp = np.bincount(labels[graph.rows()], minlength=start.num_communities).tolist()
    l_comp = [d // 2 for d in d_comp]

    q = sum(e / m - d**2 / four_m2 for e, d in zip(l_comp, d_comp))
    best_q = q
    best_labels = labels.copy()
    # Either side may take the new label: the Q increment is symmetric in
    # the two sides, and from_labels renumbers by first appearance.
    for side in _splits(n, _removal_order(graph)):
        old = int(labels[side[0]])
        new = len(l_comp)
        labels[side] = new
        in_side = set(side)
        d_side = sum(deg[x] for x in side)
        within2 = 0
        cross = 0
        for x in side:
            for y in adj[x]:
                if y in in_side:
                    within2 += 1
                elif labels[y] == old:
                    cross += 1
        l_side = within2 // 2
        l_other = l_comp[old] - l_side - cross
        d_other = d_comp[old] - d_side
        q += (
            (l_side + l_other - l_comp[old]) / m
            - (d_side**2 + d_other**2 - d_comp[old] ** 2) / four_m2
        )
        l_comp.append(l_side)
        d_comp.append(d_side)
        l_comp[old] = l_other
        d_comp[old] = d_other
        if q > best_q:
            best_q = q
            best_labels = labels.copy()

    return Partition.from_labels(best_labels.tolist())
