"""Label propagation: communities emerge from local majority voting."""

from __future__ import annotations

import random
import warnings

from ..graph import Graph, Partition
from . import ConvergenceWarning


def _is_fixed_point(adj, labels):
    """True when every node's label is among the most frequent labels of
    its neighborhood (isolated nodes are vacuously stable)."""
    for v, nbrs in enumerate(adj):
        if not nbrs:
            continue
        counts = {}
        for u in nbrs:
            lab = labels[u]
            counts[lab] = counts.get(lab, 0) + 1
        own = counts.get(labels[v], 0)
        if own < max(counts.values()):
            return False
    return True


def label_propagation(graph: Graph, params) -> Partition:
    """Asynchronous label propagation with a fresh random node order per
    round and random tie-breaking.

    Stops at a fixed point (every node holds a majority label of its
    neighborhood) or after lp_max_rounds, in which case a
    ConvergenceWarning is emitted and the current labels are returned.
    """
    n = graph.node_count
    rng = random.Random(params.seed)
    adj = graph.row_view[0]
    labels = list(range(n))
    order = list(range(n))
    for _ in range(params.lp_max_rounds):
        rng.shuffle(order)
        for v in order:
            nbrs = adj[v]
            if not nbrs:
                continue
            counts = {}
            best_c = 0
            for u in nbrs:
                lab = labels[u]
                c = counts.get(lab, 0) + 1
                counts[lab] = c
                if c > best_c:
                    best_c = c
            cands = [lab for lab, c in counts.items() if c == best_c]
            if len(cands) == 1:
                labels[v] = cands[0]
            else:
                cands.sort()
                labels[v] = cands[rng.randrange(len(cands))]
        if _is_fixed_point(adj, labels):
            break
    else:
        warnings.warn(
            ConvergenceWarning(
                f"label propagation hit the round cap ({params.lp_max_rounds}) "
                f"before reaching a fixed point"
            )
        )
    return Partition.from_labels(labels)
