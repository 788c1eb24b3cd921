"""Information-theoretic detection: minimize the two-level description
length of a random walk (index codebook for modules, one codebook per
module for its nodes and exits).

Node visit rates are degree-proportional for the undirected walk; module
exit rates are proportional to inter-module edge weight. Optimization is
the local-moving pass shared with louvain, `modularity_opt._local_moves`,
fed this module's move score, with graph aggregation.
"""

from __future__ import annotations

import math

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


def description_length(graph, partition: Partition) -> float:
    """Two-level description length (nats) of the walk under a partition
    of a graph. `np.bincount` adds its weights in input order, so module
    strengths and exit weights are summed in node and CSR row order."""
    two_w = graph.total_strength
    if two_w <= 0:
        raise ValueError("needs at least one edge")
    count = partition.num_communities
    member = np.asarray(partition.membership)
    strength = graph.strengths()
    rows, cols = member[graph.rows()], member[graph.indices]
    cross = rows != cols
    p_mod = np.bincount(member, weights=strength, minlength=count).tolist()
    w_out = np.bincount(rows[cross], weights=graph.weights[cross], minlength=count).tolist()
    length = _plogp(sum(w_out) / two_w) - sum(_plogp(s / two_w) for s in strength.tolist())
    for p, w in zip(p_mod, w_out):
        length += _module_terms(w, p, two_w)
    return length


def _map_gain(graph):
    """Infomap's move score on one level: minus the change in description
    length when node v leaves its module for another (0 for staying)."""
    self_w = graph.self_loops.tolist()
    strength = graph.strengths().tolist()
    two_w = graph.total_strength
    p_mod = list(strength)
    w_out = [s - w for s, w in zip(strength, self_w)]
    q_tot = sum(w_out)
    # Each module's _module_terms and the index term _plogp(q_tot / two_w),
    # kept current by `join` for the two modules a move changes.
    terms = [_module_terms(w, p, two_w) for w, p in zip(w_out, p_mod)]
    plogp_q_tot = _plogp(q_tot / two_w)
    log = math.log

    def without(v, cur, e_cur):  # v's cross weight; exit weights with v taken out
        k_cross = strength[v] - self_w[v]
        out_cur = w_out[cur] - k_cross + 2.0 * e_cur
        return k_cross, out_cur, q_tot - w_out[cur] + out_cur

    def leave(v, cur, e_cur, links):
        s_v = strength[v]
        k_cross, out_cur, base_q_tot = without(v, cur, e_cur)
        delta_cur = _module_terms(out_cur, p_mod[cur] - s_v, two_w)
        delta_cur -= terms[cur]
        scores = []
        for c, e_c in links.items():
            out_new = w_out[c] + k_cross - 2.0 * e_c
            # _plogp(x) - plogp_q_tot + delta_cur + _module_terms(out_new,
            # p_mod[c] + s_v, two_w) - terms[c], with _plogp written out.
            x = (base_q_tot - w_out[c] + out_new) / two_w
            q = out_new / two_w
            y = q + (p_mod[c] + s_v) / two_w
            delta = (
                (x * log(x) if x > 0.0 else 0.0)
                - plogp_q_tot
                + delta_cur
                + (-2.0 * (q * log(q) if q > 0.0 else 0.0) + (y * log(y) if y > 0.0 else 0.0))
                - terms[c]
            )
            scores.append(-delta)
        return 0.0, scores

    def join(v, cur, best, e_cur, links):
        nonlocal q_tot, plogp_q_tot
        k_cross, w_out[cur], base_q_tot = without(v, cur, e_cur)
        p_mod[cur] -= strength[v]
        out_new = w_out[best] + k_cross - 2.0 * links[best]
        q_tot = base_q_tot - w_out[best] + out_new
        w_out[best] = out_new
        p_mod[best] += strength[v]
        for c in (cur, best):
            terms[c] = _module_terms(w_out[c], p_mod[c], two_w)
        plogp_q_tot = _plogp(q_tot / two_w)

    return leave, join


def infomap(graph: Graph, params) -> Partition:
    """Minimize the two-level description length by seeded local moves with
    aggregation, one trial from `params.seed`; the all-in-one partition is
    always a candidate, so the result never describes the walk worse than
    no partition at all."""
    _require_edges(graph)
    rng = np.random.default_rng(params.seed)
    member = _aggregate_levels(graph, _map_gain, 1e-13, rng)
    result = Partition.from_labels(member)
    all_in_one = Partition([0] * graph.node_count)
    if description_length(graph, all_in_one) < description_length(graph, result):
        return all_in_one
    return result
