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

# The merge engine rebuilds its heap from the current entries once it holds
# more than four entries per live pair plus this many.
_REBUILD_SLACK = 1024


class _Agglomeration:
    """Pairwise merging of adjacent communities from singletons, tracking
    modularity to return the best level; the caller's heap and pair score
    choose which pair to merge next.

    A community is named by one of its nodes, and a pair lo < hi by
    lo * n + hi. A heap entry is (key, pair), so entries of distinct
    pairs are distinct and equal keys tie in (lo, hi) order. `current`
    maps each live adjacent pair to its latest entry, the one store of
    that pair's key; any other entry is stale and is dropped when popped.
    A current entry's key may sit below its pair's exact one, never above
    it, so the first current entry that is exact when popped is the
    smallest exact entry of any live pair, and the merge order is the one
    eager re-scoring of every pair would give. An instance runs once.
    """

    def __init__(self, graph):
        self.m = graph.edge_count
        self.two_m2 = 2.0 * self.m * self.m
        #: community -> {adjacent community: summed edge weight}
        self.links = [dict.fromkeys(row, 1.0) for row in graph.row_view]
        self.degree = [float(d) for d in graph.degrees()]

    def delta_q(self, a, b):
        """Modularity change from merging adjacent communities a and b."""
        return self.links[a][b] / self.m - self.degree[a] * self.degree[b] / self.two_m2

    def run(self, heap, score, exact, merged) -> Partition:
        """Merge pairs from `heap`, one (key, pair) entry per adjacent pair,
        each key at or below its pair's exact one. A popped current entry
        goes to exact(key, pair), which returns None if the key is exact,
        and the pair is merged, or else the exact key, whose entry replaces
        it. The community with more neighbours survives a merge; then
        merged(survivor, absorbed, merged pair's key, gone), `gone` mapping
        each other former neighbour of the absorbed to its pair's key,
        returns the survivor's neighbours x to re-score, and the key
        score(survivor, x, entry) is pushed for each, in their order, with
        the pair's current entry, None if x is new to the survivor. Every
        pair it leaves out must keep its entry at or below its exact key.
        Returns the level of maximal modularity, later levels winning
        ties."""
        n = len(self.links)
        links, degree = self.links, self.degree
        current = {entry[1]: entry for entry in heap}
        q = -sum(d * d for d in degree) / (4.0 * self.m * self.m)
        best_q = q
        merges = []
        best_merges = 0
        heapq.heapify(heap)
        while heap:
            entry = heap[0]
            key, pair = entry
            if current.get(pair) is not entry:
                heapq.heappop(heap)
                continue
            rekey = exact(key, pair)
            if rekey is not None:
                current[pair] = entry = (rekey, pair)
                heapq.heapreplace(heap, entry)
                continue
            heapq.heappop(heap)
            del current[pair]
            lo, hi = divmod(pair, n)
            a, b = (hi, lo) if len(links[hi]) > len(links[lo]) else (lo, hi)
            q += self.delta_q(a, b)
            merges.append((a, b))
            wa, wb = links[a], links[b]
            links[b] = None
            gone = {}
            for nbr, weight in wb.items():
                if nbr == a:
                    continue
                gone[nbr] = current.pop(b * n + nbr if b < nbr else nbr * n + b)[0]
                wa[nbr] = wa.get(nbr, 0.0) + weight
                wn = links[nbr]
                del wn[b]
                wn[a] = wa[nbr]
            del wa[b]
            degree[a] += degree[b]
            if q >= best_q:
                best_q = q
                best_merges = len(merges)
            for nbr in merged(a, b, key, gone):
                pair = a * n + nbr if a < nbr else nbr * n + a
                current[pair] = entry = (score(a, nbr, current.get(pair)), pair)
                heapq.heappush(heap, entry)
            if len(heap) > 4 * len(current) + _REBUILD_SLACK:
                heap = list(current.values())
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
    does or not at all. So after a merge only b's neighbours are
    re-scored, and any other pair keeps its entry as a lower bound until
    it is popped, when `exact` re-scores it (`_Agglomeration.run`); the
    merge order is the one eager re-scoring gives.
    """
    _require_edges(graph)
    agg = _Agglomeration(graph)
    delta_q = agg.delta_q
    n = graph.node_count

    def exact(key, pair):
        now = -delta_q(*divmod(pair, n))
        return None if now == key else now

    heap = [(-delta_q(u, v), u * n + v) for u, v in graph.edges]
    return agg.run(heap, lambda a, x, entry: -delta_q(a, x), exact, lambda a, b, key, gone: gone)


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
    nbrs = graph.row_view
    # None on unit-weight levels; else v's weights are wts[bounds[v]:bounds[v + 1]].
    wts = None if (graph.weights == 1.0).all() else graph.weights.tolist()
    bounds = graph.indptr.tolist()
    leave, join = objective(graph)
    comm = list(range(n))
    moved_any = False
    for _ in range(1000):  # safety cap; the sweep loop settles long before
        improved = False
        for v in rng.permutation(n).tolist():
            cur = comm[v]
            links = {}
            if wts is None:  # input graphs: no weight to read in the costliest loop
                for u in nbrs[v]:
                    c = comm[u]
                    links[c] = links.get(c, 0.0) + 1.0
            else:
                for u, wt in zip(nbrs[v], wts[bounds[v]:bounds[v + 1]]):
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
    rng = random.Random(params.seed)
    getrandbits = rng.getrandbits
    n = graph.node_count
    m = graph.edge_count
    q_spins = min(params.spinglass_max_spins, n)
    adj = graph.row_view
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
