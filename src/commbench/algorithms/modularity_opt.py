"""Modularity-optimizing detectors: greedy agglomeration, two-phase local
moving with graph aggregation, and simulated annealing over spin states.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from ..graph import Graph, Partition, quotient_graph
from ..metrics import modularity


def _require_edges(graph):
    if graph.edge_count == 0:
        raise ValueError("needs at least one edge")


class _Agglomeration:
    """Pairwise merging of adjacent communities from singletons, tracking
    modularity to return the best level; the caller's heap and pair score
    choose which pair to merge next.

    A community is named by one of its nodes. Heap entries end with
    (lo, hi, stamp[lo], stamp[hi]); each merge bumps both members'
    stamps, so an entry is current exactly while neither community has
    changed since it was pushed. An instance runs once.
    """

    def __init__(self, graph):
        n = graph.node_count
        self.m = graph.edge_count
        self.two_m2 = 2.0 * self.m * self.m
        #: community -> {adjacent community: summed edge weight}
        self.links = [dict.fromkeys(graph.neighbors(v), 1.0) for v in range(n)]
        self.degree = [float(d) for d in graph.degrees()]

    def delta_q(self, a, b):
        """Modularity change from merging adjacent communities a and b."""
        return self.links[a][b] / self.m - self.degree[a] * self.degree[b] / self.two_m2

    def run(self, heap, score, merged=None) -> Partition:
        """Merge the pair of each current entry popped from `heap`, the
        community with more neighbours surviving; call merged(survivor,
        absorbed), then push score(survivor, x) + (lo, hi, stamps) for
        each neighbour x, in neighbour-dict order. Returns the level of
        maximal modularity, later levels winning ties."""
        n = len(self.links)
        links, degree = self.links, self.degree
        stamp = [0] * n
        q = -sum(d * d for d in degree) / (4.0 * self.m * self.m)
        best_q = q
        merges = []
        best_merges = 0
        heapq.heapify(heap)
        while heap:
            lo, hi, stamp_lo, stamp_hi = heapq.heappop(heap)[-4:]
            if stamp[lo] != stamp_lo or stamp[hi] != stamp_hi:
                continue
            a, b = (hi, lo) if len(links[hi]) > len(links[lo]) else (lo, hi)
            q += self.delta_q(a, b)
            merges.append((a, b))
            wa, wb = links[a], links[b]
            links[b] = None
            for nbr, weight in wb.items():
                if nbr == a:
                    continue
                wa[nbr] = wa.get(nbr, 0.0) + weight
                wn = links[nbr]
                del wn[b]
                wn[a] = wa[nbr]
            del wa[b]
            degree[a] += degree[b]
            stamp[a] += 1
            stamp[b] += 1
            if q >= best_q:
                best_q = q
                best_merges = len(merges)
            if merged is not None:
                merged(a, b)
            for nbr in wa:
                lo, hi = (a, nbr) if a < nbr else (nbr, a)
                heapq.heappush(heap, score(a, nbr) + (lo, hi, stamp[lo], stamp[hi]))
        # Backwards, each survivor already holds its final root when the
        # community it absorbed copies it.
        root = list(range(n))
        for a, b in reversed(merges[:best_merges]):
            root[b] = root[a]
        return Partition.from_labels(root)


def fastgreedy(graph: Graph) -> Partition:
    """Agglomerative merging from singletons, always taking the connected
    community pair with the largest modularity increase (or smallest
    decrease); returns the dendrogram level of maximal modularity.

    Ties pick the lexicographically smallest pair, so the result is
    deterministic without a seed.
    """
    _require_edges(graph)
    agg = _Agglomeration(graph)
    delta_q = agg.delta_q
    heap = [(-delta_q(u, v), u, v, 0, 0) for u, v in graph.edges]
    return agg.run(heap, lambda a, x: (-delta_q(a, x),))


def _local_moving_pass(graph, rng):
    """One seeded sweep-until-stable phase of greedy modularity moves on a
    WeightedGraph. Returns (membership labels, moved_any)."""
    n = graph.node_count
    adj = [graph.neighbors(v) for v in range(n)]
    strength = [graph.strength(v) for v in range(n)]
    two_w = graph.total_strength
    comm = list(range(n))
    sigma_tot = list(strength)
    moved_any = False
    for _ in range(1000):  # safety cap; the sweep loop settles long before
        improved = False
        for v in rng.permutation(n):
            v = int(v)
            k_v = strength[v]
            cur = comm[v]
            links = {}
            for u, wt in adj[v]:
                links[comm[u]] = links.get(comm[u], 0.0) + wt
            sigma_tot[cur] -= k_v
            best_comm = cur
            best_gain = links.get(cur, 0.0) - sigma_tot[cur] * k_v / two_w
            ties = 1
            for cand in sorted(links):
                if cand == cur:
                    continue
                gain = links[cand] - sigma_tot[cand] * k_v / two_w
                if gain > best_gain:
                    best_comm, best_gain, ties = cand, gain, 1
                elif gain == best_gain and best_comm != cur:
                    # Ties with the current community never move; ties among
                    # strictly better candidates break uniformly.
                    ties += 1
                    if rng.random() < 1.0 / ties:
                        best_comm = cand
            sigma_tot[best_comm] += k_v
            if best_comm != cur:
                comm[v] = best_comm
                improved = True
                moved_any = True
        if not improved:
            break
    return comm, moved_any


def _aggregate_levels(level, local_pass, rng):
    """Run `local_pass(level, rng) -> (labels, moved_any)` on the
    WeightedGraph `level`, then on the quotient graph of each pass's
    communities, until a pass moves nothing or merges nothing. Returns the
    community label of each node of the first level."""
    n = level.node_count
    member = list(range(n))
    while True:
        labels, moved = local_pass(level, rng)
        if not moved:
            break
        part = Partition.from_labels(labels)
        member = [part.membership[member[v]] for v in range(n)]
        if part.num_communities == level.node_count:
            break
        level = quotient_graph(level, part)
    return member


def louvain(graph: Graph, params) -> Partition:
    """Two-phase agglomeration: seeded greedy local moves, then recursion on
    the community quotient graph, until a pass yields no improvement."""
    _require_edges(graph)
    rng = np.random.default_rng(params.seed)
    return Partition.from_labels(_aggregate_levels(graph.weighted(), _local_moving_pass, rng))


def spinglass(graph: Graph, params) -> Partition:
    """Simulated annealing over spin assignments with energy -Q.

    Geometric cooling with single-spin-flip Metropolis proposals; move
    energies are scaled by 2m (the natural coupling of the spin model) so
    the default temperature range brackets them. Returns the best-energy
    assignment seen, compacted over occupied spins.
    """
    _require_edges(graph)
    params.validate()
    rng = random.Random(params.seed)
    n = graph.node_count
    m = graph.edge_count
    q_spins = min(params.spinglass_max_spins, n)
    adj = [graph.neighbors(v) for v in range(n)]
    deg = graph.degrees()

    spins = [rng.randrange(q_spins) for _ in range(n)]
    d_sum = [0.0] * q_spins
    for v in range(n):
        d_sum[spins[v]] += deg[v]
    q_val = modularity(graph, Partition.from_labels(spins))
    best_q = q_val
    best_spins = list(spins)

    temp = params.sa_initial_temperature
    proposals_per_temp = params.sa_sweeps_per_temperature * n
    inv_m = 1.0 / m
    while temp > params.sa_min_temperature:
        for _ in range(proposals_per_temp):
            v = rng.randrange(n)
            nbrs = adj[v]
            if nbrs and rng.random() < 0.9:
                target = spins[nbrs[rng.randrange(len(nbrs))]]
            else:
                target = rng.randrange(q_spins)
            cur = spins[v]
            if target == cur:
                continue
            e_cur = 0
            e_tgt = 0
            for u in nbrs:
                su = spins[u]
                if su == cur:
                    e_cur += 1
                elif su == target:
                    e_tgt += 1
            k_v = deg[v]
            gain2m = 2.0 * (e_tgt - e_cur) - k_v * (d_sum[target] - (d_sum[cur] - k_v)) * inv_m
            if gain2m >= 0.0 or rng.random() < math.exp(gain2m / temp):
                spins[v] = target
                d_sum[cur] -= k_v
                d_sum[target] += k_v
                q_val += gain2m / (2.0 * m)
                if q_val > best_q + 1e-12:
                    best_q = q_val
                    best_spins = list(spins)
        temp *= params.sa_cooling_factor
    return Partition.from_labels(best_spins)
