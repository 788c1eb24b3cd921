"""Label propagation: communities emerge from local majority voting."""

from __future__ import annotations

import random
import warnings

from ..graph import Graph, Partition
from . import ConvergenceWarning


def label_propagation(graph: Graph, params) -> Partition:
    """Asynchronous label propagation with a fresh random node order per
    round and random tie-breaking.

    Stops at a fixed point (every node holds a majority label of its
    neighborhood) or after lp_max_rounds, in which case a
    ConvergenceWarning is emitted and the current labels are returned.

    A node's tally (its sorted most-frequent neighbour labels) is kept
    until a neighbour's label changes; until then a recount would give the
    same list, so the node reuses it and draws the same tie-break, or none
    when one label leads. For the same reason a node that holds a label
    from a tally still valid is stable, and the end-of-round test recounts
    only the other nodes.
    """
    n = graph.node_count
    rng = random.Random(params.seed)
    adj = graph.row_view
    labels = list(range(n))
    order = list(range(n))
    ties = [None] * n
    # Nodes whose tally is missing or out of date; isolated nodes have none.
    stale = {v for v in range(n) if adj[v]}

    def tally(v):
        counts = {}
        best_c = 0
        for u in adj[v]:
            lab = labels[u]
            c = counts.get(lab, 0) + 1
            counts[lab] = c
            if c > best_c:
                best_c = c
        cands = [lab for lab, c in counts.items() if c == best_c]
        cands.sort()
        ties[v] = cands
        return cands

    for _ in range(params.lp_max_rounds):
        rng.shuffle(order)
        for v in order:
            if v in stale:
                stale.remove(v)
                cands = tally(v)
            else:
                cands = ties[v]
                if cands is None:
                    continue
            new = cands[0] if len(cands) == 1 else cands[rng.randrange(len(cands))]
            if new != labels[v]:
                labels[v] = new
                stale.update(adj[v])
        while stale:
            v = stale.pop()
            if labels[v] not in tally(v):
                break
        else:
            break
    else:
        warnings.warn(
            ConvergenceWarning(
                f"label propagation hit the round cap ({params.lp_max_rounds}) "
                f"before reaching a fixed point"
            )
        )
    return Partition.from_labels(labels)
