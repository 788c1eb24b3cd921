"""Information-theoretic detection: minimize the two-level description
length of a random walk (index codebook for modules, one codebook per
module for its nodes and exits).

Node visit rates are degree-proportional for the undirected walk; module
exit rates are proportional to inter-module edge weight. Optimization is
the local-moving pass shared with louvain, `modularity_opt._local_moves`,
fed this module's move score, with graph aggregation and an optional
simulated-annealing refinement pass.
"""

from __future__ import annotations

import math
import random

import numpy as np

from ..graph import Graph, Partition
from . import _require_edges
from .modularity_opt import _aggregate_levels


def _plogp(x):
    return x * math.log(x) if x > 0.0 else 0.0


def _module_terms(out_w, p, two_w):
    """One module's terms of the description length, from its exit weight
    out_w and its summed node strength p; two_w is the total strength."""
    q = out_w / two_w
    return -2.0 * _plogp(q) + _plogp(q + p / two_w)


def _module_state(graph, strength, comm, count):
    nbrs, wts = graph.row_view
    p_mod = [0.0] * count
    w_out = [0.0] * count
    for v, c in enumerate(comm):
        p_mod[c] += strength[v]
        for u, wt in zip(nbrs[v], wts[v]):
            if comm[u] != c:
                w_out[c] += wt
    return p_mod, w_out


def _node_term(strength, two_w):
    return sum(_plogp(s / two_w) for s in strength)


def _length_from_state(p_mod, w_out, two_w, node_term):
    q_tot = sum(w_out) / two_w
    length = _plogp(q_tot) - node_term
    for p, w in zip(p_mod, w_out):
        length += _module_terms(w, p, two_w)
    return length


def description_length(graph, partition: Partition) -> float:
    """Two-level description length (nats) of the walk under a partition
    of a graph."""
    two_w = graph.total_strength
    if two_w <= 0:
        raise ValueError("needs at least one edge")
    strength = graph.strengths().tolist()
    p_mod, w_out = _module_state(graph, strength, partition.membership, partition.num_communities)
    return _length_from_state(p_mod, w_out, two_w, _node_term(strength, two_w))


def _map_gain(graph):
    """Infomap's move score on one level: minus the change in description
    length when node v leaves its module for another (0 for staying)."""
    self_w = graph.self_loops.tolist()
    strength = graph.strengths().tolist()
    two_w = graph.total_strength
    p_mod = list(strength)
    w_out = [s - w for s, w in zip(strength, self_w)]
    q_tot = sum(w_out)

    def without(v, cur, e_cur):  # v's cross weight; exit weights with v taken out
        k_cross = strength[v] - self_w[v]
        out_cur = w_out[cur] - k_cross + 2.0 * e_cur
        return k_cross, out_cur, q_tot - w_out[cur] + out_cur

    def leave(v, cur, e_cur, links):
        s_v = strength[v]
        k_cross, out_cur, base_q_tot = without(v, cur, e_cur)
        plogp_q_tot = _plogp(q_tot / two_w)
        delta_cur = _module_terms(out_cur, p_mod[cur] - s_v, two_w)
        delta_cur -= _module_terms(w_out[cur], p_mod[cur], two_w)
        scores = []
        for c, e_c in links.items():
            out_new = w_out[c] + k_cross - 2.0 * e_c
            delta = (
                _plogp((base_q_tot - w_out[c] + out_new) / two_w)
                - plogp_q_tot
                + delta_cur
                + _module_terms(out_new, p_mod[c] + s_v, two_w)
                - _module_terms(w_out[c], p_mod[c], two_w)
            )
            scores.append(-delta)
        return 0.0, scores

    def join(v, cur, best, e_cur, links):
        nonlocal q_tot
        k_cross, w_out[cur], base_q_tot = without(v, cur, e_cur)
        p_mod[cur] -= strength[v]
        out_new = w_out[best] + k_cross - 2.0 * links[best]
        q_tot = base_q_tot - w_out[best] + out_new
        w_out[best] = out_new
        p_mod[best] += strength[v]

    return leave, join


def _anneal_refine(graph, labels, params):
    """Metropolis refinement of module assignments at the original-node
    level; returns the best labeling encountered."""
    n = graph.node_count
    nbrs, wts = graph.row_view
    self_w = graph.self_loops.tolist()
    strength = graph.strengths().tolist()
    two_w = graph.total_strength
    rng = random.Random(params.seed + 0x5EED)
    part = Partition.from_labels(labels)
    comm = list(part.membership)
    p_mod, w_out = _module_state(graph, strength, comm, part.num_communities)
    q_tot = sum(w_out)
    length = _length_from_state(p_mod, w_out, two_w, _node_term(strength, two_w))
    best_length = length
    best = list(comm)

    temp = params.sa_initial_temperature
    while temp > params.sa_min_temperature:
        for _ in range(params.sa_sweeps_per_temperature * n):
            v = rng.randrange(n)
            row = nbrs[v]
            if not row:
                continue
            cand = comm[row[rng.randrange(len(row))]]
            cur = comm[v]
            if cand == cur:
                continue
            e_cur = sum(wt for u, wt in zip(row, wts[v]) if comm[u] == cur)
            e_new = sum(wt for u, wt in zip(row, wts[v]) if comm[u] == cand)
            k_cross = strength[v] - self_w[v]
            s_v = strength[v]
            out_cur2 = w_out[cur] - k_cross + 2.0 * e_cur
            out_new2 = w_out[cand] + k_cross - 2.0 * e_new
            q_tot2 = q_tot - w_out[cur] - w_out[cand] + out_cur2 + out_new2
            delta = (
                _plogp(q_tot2 / two_w)
                - _plogp(q_tot / two_w)
                + _module_terms(out_cur2, p_mod[cur] - s_v, two_w)
                - _module_terms(w_out[cur], p_mod[cur], two_w)
                + _module_terms(out_new2, p_mod[cand] + s_v, two_w)
                - _module_terms(w_out[cand], p_mod[cand], two_w)
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
    _require_edges(graph)
    params.validate()
    rng = np.random.default_rng(params.seed)
    member = _aggregate_levels(graph, _map_gain, 1e-13, rng)
    if params.infomap_anneal:
        member = _anneal_refine(graph, member, params)
    result = Partition.from_labels(member)
    all_in_one = Partition([0] * graph.node_count)
    if description_length(graph, all_in_one) < description_length(graph, result):
        return all_in_one
    return result
