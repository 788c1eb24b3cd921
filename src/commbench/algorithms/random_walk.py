"""Random-walk detectors: agglomerative walk-distance clustering and the
expansion/inflation diffusion process.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

from ..graph import Graph, Partition
from . import ConvergenceWarning
from .modularity_opt import _Agglomeration


def walktrap(graph: Graph, params) -> Partition:
    """Agglomerative clustering on t-step random-walk profiles.

    Communities at squared distance r2(C1,C2) = sum_k (P^t_C1,k -
    P^t_C2,k)^2 / degree(k) are merged (adjacent pairs only) by smallest
    Ward-style increase of the mean squared distance; the dendrogram level
    of maximal modularity is returned. Isolated nodes stay singleton
    communities.
    """
    if graph.edge_count == 0:
        raise ValueError("needs at least one edge")
    params.validate()
    rng = random.Random(params.seed)
    n = graph.node_count
    deg = np.asarray(graph.degrees(), dtype=float)
    inv_d = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)

    adjacency = np.zeros((n, n))
    edges = np.asarray(graph.edges)
    adjacency[edges[:, 0], edges[:, 1]] = 1.0
    adjacency[edges[:, 1], edges[:, 0]] = 1.0
    walk = adjacency * inv_d[:, None]
    profile = np.linalg.matrix_power(walk, params.walktrap_t)
    del adjacency, walk

    # Community state, indexed by representative node id. `profile` rows
    # are reused in place as per-community probability sums.
    size = [1] * n

    def direct_sigma(a, b):
        diff = profile[a] / size[a] - profile[b] / size[b]
        return size[a] * size[b] / (size[a] + size[b]) * float(diff @ (diff * inv_d)) / n

    sigma = {}
    heap = []
    for u, v in graph.edges:
        sig = direct_sigma(u, v)
        sigma[(u, v)] = sig
        heap.append((sig, rng.random(), u, v, 0, 0))
    last = None  # (absorbed, size_a, size_b, sigma_ab) of the latest merge

    def merged(a, b):
        nonlocal last
        last = (b, size[a], size[b], sigma.pop((a, b) if a < b else (b, a)))
        profile[a] += profile[b]
        size[a] += size[b]

    def score(a, x):
        b, size_a, size_b, sigma_ab = last
        s_ax = sigma.pop((a, x) if a < x else (x, a), None)
        s_bx = sigma.pop((b, x) if b < x else (x, b), None)
        if s_ax is not None and s_bx is not None:
            # Ward update from the three previous increases.
            s_new = (
                (size_a + size[x]) * s_ax + (size_b + size[x]) * s_bx - size[x] * sigma_ab
            ) / (size_a + size_b + size[x])
        else:
            s_new = direct_sigma(a, x)
        sigma[(a, x) if a < x else (x, a)] = s_new
        return s_new, rng.random()

    return _Agglomeration(graph).run(heap, score, merged)


def markov_cluster(graph: Graph, params) -> Partition:
    """Expansion/inflation iteration on the column-stochastic transfer
    matrix (unit self-loops added); communities are the weakly connected
    components of the limit matrix's support.

    Entries below mcl_prune_threshold are dropped (the column maximum is
    always kept) and the pruned mass is renormalized. Emits
    ConvergenceWarning and uses the last iterate if the cap is reached.
    """
    params.validate()
    n = graph.node_count
    rows = [v for v in range(n)]
    cols = [v for v in range(n)]
    for u, v in graph.edges:
        rows += [u, v]
        cols += [v, u]
    matrix = sp.csc_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    )
    matrix = _column_normalize(matrix)

    converged = False
    for _ in range(params.mcl_max_iterations):
        previous = matrix
        expanded = matrix
        for _ in range(params.mcl_expansion - 1):
            expanded = expanded @ matrix
        matrix = expanded
        matrix.data **= params.mcl_inflation
        matrix = _column_normalize(matrix)
        matrix = _prune(matrix, params.mcl_prune_threshold)
        matrix = _column_normalize(matrix)
        delta = abs(matrix - previous)
        diff = delta.data.max() if delta.nnz else 0.0
        if diff < params.mcl_convergence_epsilon:
            converged = True
            break
    if not converged:
        warnings.warn(
            ConvergenceWarning(
                f"expansion/inflation did not converge within "
                f"{params.mcl_max_iterations} iterations; clustering the last iterate"
            )
        )
    support = matrix + matrix.T
    _, labels = _cc(support.tocsr(), directed=False)
    return Partition.from_labels(labels.tolist())


def _column_normalize(matrix):
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    matrix = matrix.tocsc()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    matrix.data *= np.repeat(scale, np.diff(matrix.indptr))
    return matrix


def _prune(matrix, threshold):
    matrix = matrix.tocsc()
    if matrix.nnz == 0:
        return matrix
    col_of = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    col_max = np.zeros(matrix.shape[1])
    np.maximum.at(col_max, col_of, matrix.data)
    keep = (matrix.data >= threshold) | (matrix.data >= col_max[col_of])
    matrix.data[~keep] = 0.0
    matrix.eliminate_zeros()
    return matrix
