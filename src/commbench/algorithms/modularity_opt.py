"""Modularity-optimizing detectors: greedy agglomeration, two-phase local
moving with graph aggregation, and simulated annealing over spin states.
`_local_moves` is the one local-moving pass, shared by louvain and infomap;
each supplies only its move score.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

from ..graph import Graph, Partition, quotient_graph
from ..metrics import modularity
from . import _require_edges


class _Agglomeration:
    """Pairwise merging of adjacent communities from singletons, tracking
    modularity to return the best level; the caller's heap and pair score
    choose which pair to merge next.

    A community is named by one of its nodes. Heap entries end with
    (lo, hi, stamp[lo], stamp[hi]); each merge bumps both members'
    stamps, so an entry is current exactly while neither community has
    changed since it was pushed. An entry's key may sit below its pair's
    exact score, never above it; a popped entry is merged only if it is
    current and exact, and is otherwise dropped or re-keyed. Each live
    adjacent pair always has an entry that sorts at or below its exact
    one, so the first entry merged is the smallest exact current entry;
    current entries of distinct pairs are distinct tuples, so the merge
    order is the one eager re-scoring of every pair would give, whatever
    stale or loose entries the heap still holds. An instance runs once.
    """

    def __init__(self, graph):
        self.m = graph.edge_count
        self.two_m2 = 2.0 * self.m * self.m
        #: community -> {adjacent community: summed edge weight}
        self.links = [dict.fromkeys(row, 1.0) for row in graph.row_view[0]]
        self.degree = [float(d) for d in graph.degrees()]

    def delta_q(self, a, b):
        """Modularity change from merging adjacent communities a and b."""
        return self.links[a][b] / self.m - self.degree[a] * self.degree[b] / self.two_m2

    def run(self, heap, score, merged=None, exact=None) -> Partition:
        """Merge the pair of each current, exact entry popped from `heap`
        (one entry per adjacent pair, all with zero stamps), the community
        with more neighbours surviving; call merged(survivor, absorbed),
        then push score(survivor, x) + (lo, hi, stamps) for neighbours x,
        in neighbour-dict order. Returns the level of maximal modularity,
        later levels winning ties. There are two modes.

        Without `exact` (fastgreedy) every key is exact when pushed, and
        the caller promises that a merge never lowers the score of a pair
        whose link weight it left unchanged. Only the absorbed community's
        neighbours are re-scored; the survivor's other pairs keep their
        old, now stale, entries as lower bounds. A stale entry of a live
        pair goes back in at its current score when popped, and a heap
        rebuild re-scores every live pair.

        With `exact` (walktrap) every neighbour of the survivor is
        re-scored, stale entries are dropped, and `score` may return a
        lower bound. A popped current entry goes to exact(entry), which
        returns None if the entry's key is exact, or else the entry with
        its exact key, which goes back in. A heap rebuild keeps the
        current entries. Either way every live pair keeps an entry at or
        below its exact one, the invariant that fixes the merge order."""
        n = len(self.links)
        links, degree = self.links, self.degree
        stamp = [0] * n
        q = -sum(d * d for d in degree) / (4.0 * self.m * self.m)
        best_q = q
        merges = []
        best_merges = 0
        live = len(heap)  # adjacent pairs
        heapq.heapify(heap)
        while heap:
            entry = heap[0]
            lo, hi, stamp_lo, stamp_hi = entry[-4:]
            if stamp[lo] != stamp_lo or stamp[hi] != stamp_hi:
                if exact is None and links[lo] is not None and links[hi] is not None:
                    heapq.heapreplace(heap, score(lo, hi) + (lo, hi, stamp[lo], stamp[hi]))
                else:
                    heapq.heappop(heap)
                continue
            if exact is not None:
                entry = exact(entry)
                if entry is not None:
                    heapq.heapreplace(heap, entry)
                    continue
            heapq.heappop(heap)
            a, b = (hi, lo) if len(links[hi]) > len(links[lo]) else (lo, hi)
            q += self.delta_q(a, b)
            merges.append((a, b))
            wa, wb = links[a], links[b]
            links[b] = None
            live -= 1
            for nbr, weight in wb.items():
                if nbr == a:
                    continue
                if nbr in wa:
                    live -= 1
                wa[nbr] = wa.get(nbr, 0.0) + weight
                wn = links[nbr]
                del wn[b]
                wn[a] = wa[nbr]
            del wa[b], wb[a]
            degree[a] += degree[b]
            stamp[a] += 1
            stamp[b] += 1
            if q >= best_q:
                best_q = q
                best_merges = len(merges)
            if merged is not None:
                merged(a, b)
            for nbr in wb if exact is None else wa:
                lo, hi = (a, nbr) if a < nbr else (nbr, a)
                heapq.heappush(heap, score(a, nbr) + (lo, hi, stamp[lo], stamp[hi]))
            if len(heap) > 4 * live + 1024:
                if exact is None:  # one current entry per live pair
                    heap = [
                        score(c, x) + (c, x, stamp[c], stamp[x])
                        for c, wc in enumerate(links) if wc is not None
                        for x in wc if c < x
                    ]
                else:
                    heap = [e for e in heap if stamp[e[-4]] == e[-2] and stamp[e[-3]] == e[-1]]
                heapq.heapify(heap)
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

    Merging b into a changes the key -dQ(a, x) = d_a d_x / 2m^2 - e_ax / m
    of each other pair (a, x). Where x is not adjacent to b, e_ax is
    unchanged and d_a only grows, so the key can only rise. That holds in
    floating point too: degrees are integer-valued sums, exact below 2^53,
    and round-to-nearest is monotone, so each rounded step (d_a d_x, its
    quotient by 2m^2, e_ax / m minus that) moves the way its exact value
    does or not at all. The merge engine, run without `exact`, therefore
    re-scores only b's neighbours (`_Agglomeration.run`), and the merge
    order is the one eager re-scoring gives.
    """
    _require_edges(graph)
    agg = _Agglomeration(graph)
    delta_q = agg.delta_q
    heap = [(-delta_q(u, v), u, v, 0, 0) for u, v in graph.edges]
    return agg.run(heap, lambda a, x: (-delta_q(a, x),))


def _local_moves(graph, rng, objective, tol):
    """One seeded sweep-until-stable phase of greedy local moves on one
    aggregation level; returns (membership labels, moved_any).
    `objective(graph)` returns `leave(v, cur, e_cur, links)`, giving the
    score of node v staying in `cur` (weight e_cur into it) and one score
    per community in `links` (the others adjacent to v, with v's weight
    into each), higher being better, and `join(v, cur, best, e_cur, links)`,
    which moves v. Scanned in increasing order, a candidate that beats the
    best score by more than `tol` replaces it and one within `tol` ties. A
    tie with staying never moves; ties among strictly better candidates
    break uniformly, one draw per tie."""
    n = graph.node_count
    nbrs, wts = graph.row_view
    unit = bool((graph.weights == 1.0).all())
    leave, join = objective(graph)
    comm = list(range(n))
    moved_any = False
    for _ in range(1000):  # safety cap; the sweep loop settles long before
        improved = False
        for v in rng.permutation(n).tolist():
            cur = comm[v]
            links = {}
            if unit:  # input graphs: no (node, weight) pairs to unpack in the costliest loop
                for u in nbrs[v]:
                    c = comm[u]
                    links[c] = links.get(c, 0.0) + 1.0
            else:
                for u, wt in zip(nbrs[v], wts[v]):
                    c = comm[u]
                    links[c] = links.get(c, 0.0) + wt
            e_cur = links.pop(cur, 0.0)
            stay, scores = leave(v, cur, e_cur, links)
            if not scores or max(scores) <= stay + tol:
                continue  # nothing beats staying, so the scan would draw nothing
            best_comm, best, ties = cur, stay, 1
            for cand, score in sorted(zip(links, scores)):
                if score > best + tol:
                    best_comm, best, ties = cand, score, 1
                elif best_comm != cur and abs(score - best) <= tol:
                    ties += 1
                    if rng.random() < 1.0 / ties:
                        best_comm = cand
            join(v, cur, best_comm, e_cur, links)  # the scan always finds a better one
            comm[v] = best_comm
            improved = moved_any = True
        if not improved:
            break
    return comm, moved_any


def _aggregate_levels(level, objective, tol, rng):
    """Run `_local_moves` on the graph `level`, then on the quotient graph
    of each pass's communities, until a pass moves or merges nothing.
    Returns the community label of each node of the first level."""
    member = list(range(level.node_count))
    while True:
        labels, moved = _local_moves(level, rng, objective, tol)
        if not moved:
            break
        part = Partition.from_labels(labels)
        member = [part.membership[m] for m in member]
        if part.num_communities == level.node_count:
            break
        level = quotient_graph(level, part)
    return member


def _modularity_gain(graph):
    """Louvain's move score: the modularity gain, in edge weight, of v
    joining a community with v out of its own. Totals are sums of integer
    weights, so `leave` can take v out without storing it."""
    strength = graph.strengths().tolist()
    two_w = graph.total_strength
    sigma_tot = list(strength)

    def leave(v, cur, e_cur, links):
        k_v = strength[v]
        stay = e_cur - (sigma_tot[cur] - k_v) * k_v / two_w
        return stay, [w - sigma_tot[c] * k_v / two_w for c, w in links.items()]

    def join(v, cur, best, e_cur, links):
        sigma_tot[cur] -= strength[v]
        sigma_tot[best] += strength[v]

    return leave, join


def louvain(graph: Graph, params) -> Partition:
    """Two-phase agglomeration: seeded greedy local moves, then recursion on
    the community quotient graph, until a pass yields no improvement."""
    _require_edges(graph)
    rng = np.random.default_rng(params.seed)
    return Partition.from_labels(_aggregate_levels(graph, _modularity_gain, 0.0, rng))


def spinglass(graph: Graph, params) -> Partition:
    """Simulated annealing over spin assignments with energy -Q.

    Geometric cooling with single-spin-flip Metropolis proposals; move
    energies are scaled by 2m (the natural coupling of the spin model) so
    the default temperature range brackets them. Returns the best-energy
    assignment seen, compacted over occupied spins.

    `count[v * q + s]` is the number of v's neighbours holding spin s, so a
    proposal reads both of its edge counts in O(1); an accepted flip moves
    one unit between two counts at each neighbour of the flipped node.
    The table holds n * q entries, q = min(spinglass_max_spins, n): small
    at the default cap of 25, about 200 MB at n = q = 5000.
    Each draw below k inlines the loop of CPython's `randrange(k)`:
    `getrandbits(k.bit_length())`, drawn again while it is >= k, so the
    random stream and every result are those of `rng.randrange(k)`.
    """
    _require_edges(graph)
    params.validate()
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits
    n = graph.node_count
    m = graph.edge_count
    q_spins = min(params.spinglass_max_spins, n)
    adj = graph.row_view[0]
    deg = graph.degrees()
    n_bits, q_bits = n.bit_length(), q_spins.bit_length()
    deg_bits = [k.bit_length() for k in deg]

    spins = [rng.randrange(q_spins) for _ in range(n)]
    spin_of = np.asarray(spins)
    key = graph.rows() * q_spins + spin_of[graph.indices]
    count = np.bincount(key, minlength=n * q_spins).tolist()
    d_sum = np.bincount(spin_of, weights=deg, minlength=q_spins).tolist()
    q_val = modularity(graph, Partition.from_labels(spins))
    best_q = q_val
    best_spins = list(spins)

    temp = params.sa_initial_temperature
    proposals_per_temp = params.sa_sweeps_per_temperature * n
    inv_m = 1.0 / m
    while temp > params.sa_min_temperature:
        for _ in range(proposals_per_temp):
            v = getrandbits(n_bits)
            while v >= n:
                v = getrandbits(n_bits)
            k_v = deg[v]
            if k_v and rng.random() < 0.9:
                r = getrandbits(deg_bits[v])
                while r >= k_v:
                    r = getrandbits(deg_bits[v])
                target = spins[adj[v][r]]
            else:
                target = getrandbits(q_bits)
                while target >= q_spins:
                    target = getrandbits(q_bits)
            cur = spins[v]
            if target == cur:
                continue
            row = v * q_spins
            e_gain = count[row + target] - count[row + cur]
            gain2m = 2.0 * e_gain - k_v * (d_sum[target] - (d_sum[cur] - k_v)) * inv_m
            if gain2m >= 0.0 or rng.random() < math.exp(gain2m / temp):
                spins[v] = target
                d_sum[cur] -= k_v
                d_sum[target] += k_v
                for u in adj[v]:
                    row = u * q_spins
                    count[row + cur] -= 1
                    count[row + target] += 1
                q_val += gain2m / (2.0 * m)
                if q_val > best_q + 1e-12:
                    best_q = q_val
                    best_spins = list(spins)
        temp *= params.sa_cooling_factor
    return Partition.from_labels(best_spins)
