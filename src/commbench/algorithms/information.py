"""Information-theoretic detection: minimize the two-level description
length of a random walk (index codebook for modules, one codebook per
module for its nodes and exits).

Node visit rates are degree-proportional for the undirected walk; module
exit rates are proportional to inter-module edge weight. Optimization is
Louvain-style local moving with graph aggregation, with an optional
simulated-annealing refinement pass.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..graph import Graph, Partition
from .modularity_opt import _aggregate_levels


def _plogp(x):
    return x * math.log(x) if x > 0.0 else 0.0


def _module_state(graph, comm, count):
    p_mod = [0.0] * count
    w_out = [0.0] * count
    for v, c in enumerate(comm):
        p_mod[c] += graph.strength(v)
        for u, wt in graph.neighbors(v):
            if comm[u] != c:
                w_out[c] += wt
    return p_mod, w_out


def _node_term(graph, two_w):
    return sum(_plogp(graph.strength(v) / two_w) for v in range(graph.node_count))


def _length_from_state(p_mod, w_out, two_w, node_term):
    q_tot = sum(w_out) / two_w
    length = _plogp(q_tot) - node_term
    for p, w in zip(p_mod, w_out):
        q = w / two_w
        length += -2.0 * _plogp(q) + _plogp(q + p / two_w)
    return length


def description_length(graph, partition: Partition) -> float:
    """Two-level description length (nats) of the walk under a partition
    of a Graph or WeightedGraph."""
    graph = graph.weighted()
    two_w = graph.total_strength
    if two_w <= 0:
        raise ValueError("needs at least one edge")
    p_mod, w_out = _module_state(graph, partition.membership, partition.num_communities)
    return _length_from_state(p_mod, w_out, two_w, _node_term(graph, two_w))


def _map_local_pass(graph, rng):
    """Sweep-until-stable local moves minimizing description length on one
    aggregation level, a WeightedGraph. Returns (labels, moved_any)."""
    n = graph.node_count
    adj = [graph.neighbors(v) for v in range(n)]
    self_w = graph.self_loops
    strength = [graph.strength(v) for v in range(n)]
    two_w = graph.total_strength
    comm = list(range(n))
    p_mod = list(strength)
    w_out = [strength[v] - self_w[v] for v in range(n)]
    q_tot = sum(w_out)
    moved_any = False

    for _ in range(1000):
        improved = False
        for v in rng.permutation(n):
            v = int(v)
            cur = comm[v]
            links = {}
            for u, wt in adj[v]:
                links[comm[u]] = links.get(comm[u], 0.0) + wt
            k_cross = strength[v] - self_w[v]
            e_cur = links.get(cur, 0.0)
            s_v = strength[v]

            # State with v removed from its module.
            out_cur_removed = w_out[cur] - k_cross + 2.0 * e_cur
            p_cur_removed = p_mod[cur] - s_v
            base_q_tot = q_tot - w_out[cur] + out_cur_removed

            def terms(out_w, p):
                q = out_w / two_w
                return -2.0 * _plogp(q) + _plogp(q + p / two_w)

            plogp_q_tot = _plogp(q_tot / two_w)
            delta_cur = terms(out_cur_removed, p_cur_removed) - terms(w_out[cur], p_mod[cur])
            best_comm, best_delta, ties = cur, 0.0, 1
            for cand in sorted(links):
                if cand == cur:
                    continue
                out_new = w_out[cand] + k_cross - 2.0 * links[cand]
                q_tot_new = base_q_tot - w_out[cand] + out_new
                delta = (
                    _plogp(q_tot_new / two_w)
                    - plogp_q_tot
                    + delta_cur
                    + terms(out_new, p_mod[cand] + s_v)
                    - terms(w_out[cand], p_mod[cand])
                )
                if delta < best_delta - 1e-13:
                    best_comm, best_delta, ties = cand, delta, 1
                elif best_comm != cur and abs(delta - best_delta) <= 1e-13:
                    ties += 1
                    if rng.random() < 1.0 / ties:
                        best_comm = cand
            if best_comm != cur:
                e_new = links[best_comm]
                w_out[cur] = out_cur_removed
                p_mod[cur] = p_cur_removed
                new_out = w_out[best_comm] + k_cross - 2.0 * e_new
                q_tot = base_q_tot - w_out[best_comm] + new_out
                w_out[best_comm] = new_out
                p_mod[best_comm] += s_v
                comm[v] = best_comm
                improved = True
                moved_any = True
        if not improved:
            break
    return comm, moved_any


def _anneal_refine(graph, labels, params):
    """Metropolis refinement of module assignments at the original-node
    level, a WeightedGraph; returns the best labeling encountered."""
    n = graph.node_count
    adj = [graph.neighbors(v) for v in range(n)]
    self_w = graph.self_loops
    strength = [graph.strength(v) for v in range(n)]
    two_w = graph.total_strength
    rng = random.Random(params.seed + 0x5EED)
    part = Partition.from_labels(labels)
    comm = list(part.membership)
    p_mod, w_out = _module_state(graph, comm, part.num_communities)
    q_tot = sum(w_out)
    length = _length_from_state(p_mod, w_out, two_w, _node_term(graph, two_w))
    best_length = length
    best = list(comm)

    temp = params.sa_initial_temperature
    while temp > params.sa_min_temperature:
        for _ in range(params.sa_sweeps_per_temperature * n):
            v = rng.randrange(n)
            if not adj[v]:
                continue
            cand = comm[adj[v][rng.randrange(len(adj[v]))][0]]
            cur = comm[v]
            if cand == cur:
                continue
            e_cur = sum(wt for u, wt in adj[v] if comm[u] == cur)
            e_new = sum(wt for u, wt in adj[v] if comm[u] == cand)
            k_cross = strength[v] - self_w[v]
            s_v = strength[v]

            def terms(out_w, p):
                q = out_w / two_w
                return -2.0 * _plogp(q) + _plogp(q + p / two_w)

            out_cur2 = w_out[cur] - k_cross + 2.0 * e_cur
            out_new2 = w_out[cand] + k_cross - 2.0 * e_new
            q_tot2 = q_tot - w_out[cur] - w_out[cand] + out_cur2 + out_new2
            delta = (
                _plogp(q_tot2 / two_w)
                - _plogp(q_tot / two_w)
                + terms(out_cur2, p_mod[cur] - s_v)
                - terms(w_out[cur], p_mod[cur])
                + terms(out_new2, p_mod[cand] + s_v)
                - terms(w_out[cand], p_mod[cand])
            )
            if delta <= 0.0 or rng.random() < math.exp(-delta * n / temp):
                comm[v] = cand
                w_out[cur] = out_cur2
                w_out[cand] = out_new2
                p_mod[cur] -= s_v
                p_mod[cand] += s_v
                q_tot = q_tot2
                length += delta
                if length < best_length - 1e-12:
                    best_length = length
                    best = list(comm)
        temp *= params.sa_cooling_factor
    return best


def infomap(graph: Graph, params) -> Partition:
    """Minimize the two-level description length by seeded local moves with
    aggregation (plus optional annealing refinement); the all-in-one
    partition is always a candidate, so the result never describes the walk
    worse than no partition at all."""
    if graph.edge_count == 0:
        raise ValueError("needs at least one edge")
    params.validate()
    rng = np.random.default_rng(params.seed)
    base = graph.weighted()
    member = _aggregate_levels(base, _map_local_pass, rng)
    if params.infomap_anneal:
        member = _anneal_refine(base, member, params)
    result = Partition.from_labels(member)
    all_in_one = Partition([0] * graph.node_count)
    if description_length(base, all_in_one) < description_length(base, result):
        return all_in_one
    return result
