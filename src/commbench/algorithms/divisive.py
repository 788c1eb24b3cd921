"""Divisive detection by repeated removal of the least-transitive link.

The edge-clustering coefficient (triangles through the edge + 1, divided by
the smaller endpoint degree - 1) is lowest on inter-community bridges,
which lack triangle support. Removing edges in that order and recording the
component structure at every split yields a divisive hierarchy; the level
of maximal modularity is returned.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..graph import Graph, Partition, connected_components


def _coefficient(tri, du, dv):
    low = min(du, dv) - 1
    if low < 1:
        # Pendant edges cannot be triangle-supported bridges; drop them last.
        return float("inf")
    return (tri + 1) / low


def _bidirectional_split(adj, u, v):
    """After removing {u,v}: None if u and v are still connected, else the
    node set of the smaller (first-exhausted) side."""
    seen_u = {u}
    seen_v = {v}
    frontier_u = deque([u])
    frontier_v = deque([v])
    while frontier_u and frontier_v:
        if len(frontier_u) <= len(frontier_v):
            frontier, seen, other = frontier_u, seen_u, seen_v
        else:
            frontier, seen, other = frontier_v, seen_v, seen_u
        for _ in range(len(frontier)):
            x = frontier.popleft()
            for y in adj[x]:
                if y in other:
                    return None
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen_u if not frontier_u else seen_v


def radetal(graph: Graph) -> Partition:
    """Divisive clustering on the edge-clustering coefficient.

    Deterministic: coefficient ties resolve to the lexicographically
    smallest edge.
    """
    if graph.edge_count == 0:
        raise ValueError("needs at least one edge")
    n = graph.node_count
    m = graph.edge_count
    four_m2 = 4.0 * m * m

    orig_adj = [graph.neighbors(v) for v in range(n)]
    orig_deg = graph.degrees()
    adj = [set(a) for a in orig_adj]
    deg = list(orig_deg)
    tri = {}
    coeff = {}
    heap = []
    for u, v in graph.edges:
        a, b = adj[u], adj[v]
        if len(b) < len(a):
            a, b = b, a
        t = sum(1 for w in a if w in b)
        tri[(u, v)] = t
        c = _coefficient(t, deg[u], deg[v])
        coeff[(u, v)] = c
        heapq.heappush(heap, (c, u, v))

    start = connected_components(graph)
    labels = np.asarray(start.membership, dtype=np.int64)
    comp_count = start.num_communities
    # Original-graph edge counts and degree sums per current component.
    l_comp = {}
    d_comp = {}
    member = start.membership
    for u, v in graph.edges:
        l_comp[member[u]] = l_comp.get(member[u], 0) + 1
    for v in range(n):
        d_comp[member[v]] = d_comp.get(member[v], 0) + deg[v]
    for cid in range(comp_count):
        l_comp.setdefault(cid, 0)
        d_comp.setdefault(cid, 0)

    q = sum(l_comp[c] / m - d_comp[c] ** 2 / four_m2 for c in range(comp_count))
    best_q = q
    best_labels = labels.copy()

    # Every live edge keeps an entry (c, u, v) with its current
    # coefficient, and entries of different edges differ, so skipping a
    # push that leaves c as it was does not change the pop order.
    def push_edge(u, v):
        key = (u, v) if u < v else (v, u)
        c = _coefficient(tri[key], deg[u], deg[v])
        if c == coeff[key]:
            return
        coeff[key] = c
        heapq.heappush(heap, (c, key[0], key[1]))

    while heap:
        c, u, v = heapq.heappop(heap)
        key = (u, v)
        if coeff.get(key) != c or v not in adj[u]:
            continue
        del coeff[key]
        del tri[key]
        adj[u].discard(v)
        adj[v].discard(u)
        deg[u] -= 1
        deg[v] -= 1
        shared = adj[u] & adj[v]
        for w in shared:
            k1 = (u, w) if u < w else (w, u)
            k2 = (v, w) if v < w else (w, v)
            tri[k1] -= 1
            tri[k2] -= 1
        # (x, w) at x in {u, v} moves only if w lost a triangle or
        # min(deg[x], deg[w]) fell with deg[x], i.e. deg[w] > deg[x] now.
        for x in (u, v):
            dx = deg[x]
            for w in adj[x]:
                if w in shared or deg[w] > dx:
                    push_edge(x, w)

        # A shared neighbour still joins u and v.
        if shared:
            continue
        split_side = _bidirectional_split(adj, u, v)
        if split_side is None:
            continue
        old = int(labels[u])
        new = comp_count
        comp_count += 1
        split_list = list(split_side)
        labels[split_list] = new
        d_side = sum(orig_deg[x] for x in split_side)
        within2 = 0
        cross = 0
        for x in split_side:
            for y in orig_adj[x]:
                if y in split_side:
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
        l_comp[new] = l_side
        d_comp[new] = d_side
        l_comp[old] = l_other
        d_comp[old] = d_other
        if q > best_q:
            best_q = q
            best_labels = labels.copy()

    return Partition.from_labels(best_labels.tolist())
