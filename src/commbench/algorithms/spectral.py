"""Spectral bisection on the modularity matrix (Newman, physics/0602124).

Each group g of nodes is split by the signs of the eigenvector belonging to
the algebraically largest eigenvalue of its generalized modularity matrix
B_ij - δ_ij Σ_{k∈g} B_ik, where B_ij = A_ij - d_i*d_j/2m. Groups larger than
_DENSE_MAX_SIZE are solved by Lanczos (ARPACK's eigsh) on a sparse
matrix-vector product, smaller ones by a dense eigendecomposition. A group
stays whole when the eigenvalue is not positive, when the split does not
strictly increase modularity, or when ARPACK does not converge.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ..graph import Graph, Partition
from . import ConvergenceWarning, _require_edges

#: Groups up to this size are solved densely; ARPACK gains nothing on them.
_DENSE_MAX_SIZE = 64


def leading_eigenvector(graph: Graph, params) -> Partition:
    """Recursive sign-split on the leading modularity-matrix eigenvector;
    indivisible groups (non-positive leading eigenvalue, non-positive
    modularity gain, or non-converged eigensolver) become communities."""
    _require_edges(graph)
    rng = np.random.default_rng(params.seed)
    n = graph.node_count
    two_m = 2.0 * graph.edge_count
    deg = np.asarray(graph.degrees(), dtype=float)
    adjacency = graph.adjacency()

    labels = np.full(n, -1, dtype=int)
    next_label = 0
    stack = [np.arange(n)]
    while stack:
        group = stack.pop()
        split = _try_split(adjacency, deg, two_m, group, params, rng)
        if split is None:
            labels[group] = next_label
            next_label += 1
        else:
            left, right = split
            stack.append(right)
            stack.append(left)
    return Partition.from_labels(labels.tolist())


class _GroupMatrix:
    """The generalized modularity matrix of one group; its rows sum to zero,
    so it annihilates constant vectors."""

    def __init__(self, adjacency, deg, two_m, group):
        self.sub = adjacency[group][:, group]
        self.d = deg[group]
        self.two_m = two_m
        self.row_sums = np.asarray(self.sub.sum(axis=1)).ravel() - self.d * self.d.sum() / two_m

    def matvec(self, x):
        return self.sub @ x - self.d * (self.d @ x) / self.two_m - self.row_sums * x

    def leading_eigenpair(self, v0, params):
        """(λ, x) for the algebraically largest eigenvalue λ, with `v0` as
        the Lanczos start; raises ArpackNoConvergence past the budget."""
        size = len(self.d)
        if size <= _DENSE_MAX_SIZE:
            dense = self.sub.toarray() - np.outer(self.d, self.d) / self.two_m
            values, vectors = np.linalg.eigh(dense - np.diag(self.row_sums))
        else:
            op = LinearOperator((size, size), matvec=self.matvec, dtype=float)
            values, vectors = eigsh(
                op, k=1, which="LA", v0=v0,
                tol=params.eigen_tolerance, maxiter=params.eigen_max_iterations,
            )
        return values[-1], vectors[:, -1]


def _try_split(adjacency, deg, two_m, group, params, rng):
    """Return (left, right) node-index arrays or None if indivisible."""
    size = len(group)
    if size < 2:
        return None
    b = _GroupMatrix(adjacency, deg, two_m, group)
    v0 = rng.normal(size=size)  # drawn even when unused: the stream ignores _DENSE_MAX_SIZE
    try:
        leading, x = b.leading_eigenpair(v0, params)
    except ArpackNoConvergence:
        warnings.warn(
            ConvergenceWarning(
                f"eigsh did not converge on a subgroup of size {size}; "
                f"treating it as indivisible"
            )
        )
        return None
    if leading <= 1e-10:
        return None
    s = np.where(x >= 0.0, 1.0, -1.0)
    if np.all(s > 0) or np.all(s < 0):
        return None
    gain = (s @ b.matvec(s)) / (2.0 * two_m)
    if gain <= 1e-12:
        return None
    return group[s > 0], group[s < 0]
