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

import functools
import heapq
import math
import struct

import numpy as np

from ..graph import Graph, Partition, connected_components
from . import _require_edges


def _removal_order(graph):
    """Every edge in the order of removal: smallest (c, u, v) first, each
    coefficient taken on the graph left by the earlier removals.

    Edge e is edges[e], so edge ids order as (u, v) does. A heap entry is
    the int code(c) << shift | e, where code(c) is the IEEE-754 bit pattern
    of c: bit patterns of positive floats, ∞ included, order as the floats
    do and are equal exactly when the floats are, so entries order as
    (c, u, v). Codes are memoized for the (triangles + 1, smaller endpoint
    degree) pairs that occur.
    """
    n = graph.node_count
    edges = graph.edges
    deg = graph.degrees()
    nbr = [{} for _ in range(n)]  # nbr[x]: neighbour of x -> edge id
    for e, (u, v) in enumerate(edges):
        nbr[u][v] = nbr[v][u] = e
    # code(support[e] + d) is e's code when its smaller endpoint degree is d.
    support = [(len(nbr[u].keys() & nbr[v].keys()) + 1) * n for u, v in edges]

    @functools.cache
    def code(key):
        t1, d = divmod(key, n)  # (triangles + 1, smaller endpoint degree)
        c = t1 / (d - 1) if d > 1 else math.inf  # a pendant edge goes last
        return int.from_bytes(struct.pack("<d", c), "little")

    shift = len(edges).bit_length()
    mask = (1 << shift) - 1
    bound = [
        code(s + min(deg[u], deg[v])) << shift | e
        for e, ((u, v), s) in enumerate(zip(edges, support))
    ]
    heap = bound[:]
    heapq.heapify(heap)

    # bound[e] is at most e's current entry, and the heap holds bound[e] for
    # every live edge e; other entries are stale. A top entry equal to its
    # edge's current entry is therefore the smallest (c, u, v) over all live
    # edges, ties included: every other live edge f has a current entry of
    # at least bound[f], which is at least the top. A degree fall only raises
    # a coefficient, so it pushes nothing; the edge goes back in at its new
    # entry when it reaches the top. Only a lost triangle lowers a
    # coefficient, and those edges are pushed at once.
    order = []
    while heap:
        top = heap[0]
        e = top & mask
        if bound[e] != top:
            heapq.heappop(heap)
            continue
        u, v = edges[e]
        du, dv = deg[u], deg[v]
        now = code(support[e] + (du if du < dv else dv)) << shift | e
        if now > top:
            bound[e] = now
            heapq.heapreplace(heap, now)
            continue
        heapq.heappop(heap)
        bound[e] = -1
        order.append((u, v))
        del nbr[u][v], nbr[v][u]
        deg[u] = du = du - 1
        deg[v] = dv = dv - 1
        common = nbr[u].keys() & nbr[v].keys()
        for nx, dx in ((nbr[u], du), (nbr[v], dv)):
            for w in common:
                f = nx[w]
                support[f] = s = support[f] - n
                dw = deg[w]
                now = code(s + (dx if dx < dw else dw)) << shift | f
                if now < bound[f]:
                    bound[f] = now
                    heapq.heappush(heap, now)
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
    adj = graph.row_view
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
