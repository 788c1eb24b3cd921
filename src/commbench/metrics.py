"""Partition-quality and similarity measures.

All operations are pure and safe for concurrent use on shared inputs.
Natural logarithms are used throughout; normalized mutual information is a
ratio, so the log base cancels.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .graph import Graph, Partition


class ConfusionMatrix:
    """Cross-tabulation of estimated (rows) against actual (columns)
    communities; generally rectangular."""

    __slots__ = ("counts", "row_marginals", "col_marginals", "total")

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be 2-dimensional")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        self.counts = counts
        self.row_marginals = counts.sum(axis=1)
        self.col_marginals = counts.sum(axis=0)
        self.total = int(counts.sum())

    def __repr__(self):
        return f"ConfusionMatrix(shape={self.counts.shape}, n={self.total})"


def confusion(actual: Partition, estimated: Partition) -> ConfusionMatrix:
    """Entry (i, j) counts nodes placed in estimated community i that belong
    to actual community j."""
    if actual.node_count != estimated.node_count:
        raise ValueError(
            f"partitions cover different node sets "
            f"({actual.node_count} vs {estimated.node_count} nodes)"
        )
    est = np.asarray(estimated.membership)
    act = np.asarray(actual.membership)
    counts = np.zeros((estimated.num_communities, actual.num_communities), dtype=np.int64)
    np.add.at(counts, (est, act), 1)
    return ConfusionMatrix(counts)


def nmi(cm: ConfusionMatrix) -> float:
    """Normalized mutual information of the two community assignments.

    1 for identical partitions (up to relabeling), 0 for independent ones.
    0*log(0) is taken as 0. When both partitions are the all-in-one
    assignment the degenerate 0/0 is defined as 1 (the partitions are
    identical).
    """
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    n = cm.total
    rows = cm.row_marginals.astype(float)
    cols = cm.col_marginals.astype(float)
    # math.fsum is correctly rounded regardless of term order, which keeps
    # the value bit-identical under matrix transposition.
    denom = math.fsum(
        [r * math.log(r / n) for r in rows if r > 0]
        + [c * math.log(c / n) for c in cols if c > 0]
    )
    if denom == 0.0:
        # Both marginals put everything in one community.
        return 1.0
    counts = cm.counts
    nz = counts > 0
    vals = counts[nz].astype(float)
    outer = np.outer(rows, cols)[nz]
    num = -2.0 * math.fsum(vals * np.log(n * vals / outer))
    return float(min(1.0, max(0.0, num / denom)))


def partition_nmi(actual: Partition, estimated: Partition) -> float:
    """NMI straight from two partitions."""
    return nmi(confusion(actual, estimated))


def modularity(graph: Graph, partition: Partition) -> float:
    """Newman-Girvan modularity Q = sum_c [l_c/m - (d_c/2m)^2], with edge
    and self-loop weights (a quotient graph scores the partition it
    collapsed under its singletons)."""
    if partition.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    two_m = graph.total_strength
    if two_m == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    member = np.asarray(partition.membership)
    c = partition.num_communities
    rows, cols = member[graph.rows()], member[graph.indices]
    intra = rows == cols
    # Both directions of each intra edge, and self-loops at twice their
    # intra weight: 2 l_c.
    two_l_c = np.bincount(rows[intra], weights=graph.weights[intra], minlength=c) + np.bincount(
        member, weights=graph.self_loops, minlength=c
    )
    d_c = np.bincount(member, weights=graph.strengths(), minlength=c)
    return float(np.sum(two_l_c / two_m - (d_c / two_m) ** 2))


class MixingReport(NamedTuple):
    """Realized mixing: per-node average (the primary statistic) and the
    global inter-community edge fraction."""

    per_node: float
    global_fraction: float


def measured_mixing(graph: Graph, partition: Partition) -> MixingReport:
    """Mean over non-isolated nodes of the fraction of their links leaving
    their community, plus the global inter-community edge fraction."""
    if partition.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    m = graph.edge_count
    if m == 0:
        raise ValueError("mixing undefined: all nodes are isolated")
    member = np.asarray(partition.membership)
    rows = graph.rows()
    cross = member[rows] != member[graph.indices]
    ext = np.bincount(rows[cross], minlength=graph.node_count)
    deg = np.diff(graph.indptr)
    linked = deg > 0
    ratios = (ext[linked] / deg[linked]).tolist()
    return MixingReport(math.fsum(ratios) / len(ratios), int(cross.sum()) // 2 / m)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance input")
    return float(np.dot(dx, dy) / (sx * sy))
