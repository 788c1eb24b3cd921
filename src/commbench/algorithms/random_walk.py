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
from . import ConvergenceWarning, _require_edges
from .modularity_opt import _Agglomeration


def walktrap(graph: Graph, params) -> Partition:
    """Agglomerative clustering on t-step random-walk profiles.

    Communities at squared distance r2(C1,C2) = sum_k (P^t_C1,k -
    P^t_C2,k)^2 / degree(k) are merged (adjacent pairs only) by smallest
    Ward-style increase of the mean squared distance; the dendrogram level
    of maximal modularity is returned. Isolated nodes stay singleton
    communities.

    P^t comes from sparse products (`_walk_power`). Each community keeps
    its summed profile and its mean profile, refreshed for the survivor
    of each merge only, so a direct distance is one row difference and
    one dot product.
    """
    _require_edges(graph)
    params.validate()
    rng = random.Random(params.seed)
    n = graph.node_count
    deg = np.asarray(graph.degrees(), dtype=float)
    inv_d = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    profile = _walk_power(graph, inv_d, params.walktrap_t)

    # Community state, indexed by representative node id. `profile` rows
    # are reused in place as per-community probability sums, and mean[c]
    # is profile[c] / size[c]: the row itself while c is a singleton.
    size = [1] * n
    mean = list(profile)

    def direct_sigma(a, b):
        diff = mean[a] - mean[b]
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
        mean[a] = profile[a] / size[a]
        mean[b] = None

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

    # Eager re-scoring, not `rekey`: merging b into a can lower sigma(a, x)
    # even where x is not adjacent to b.
    return _Agglomeration(graph).run(heap, score, merged)


def _walk_power(graph: Graph, inv_d, t):
    """P^t as a dense array, where P = D^-1 A is the random-walk matrix
    (inv_d holds 1/degree, 0 at isolated nodes, whose rows stay zero):
    t - 1 products of the CSR walk matrix with a dense iterate."""
    # Row scaling that keeps the adjacency's sorted column order, which
    # fixes the summation order of every product below.
    walk = graph.adjacency().multiply(inv_d[:, None]).tocsr()
    power = walk.toarray()
    for _ in range(t - 1):
        power = walk @ power
    return power


_MCL_BLOCK_COLUMNS = 250
# An iteration's last product runs as dense BLAS products once its sparse
# form would make more than this share of n^3 multiply-adds. On one core a
# sparse multiply-add costs 3.5-8 ns and the dense iteration about
# 0.06 ns per n^3, so the two meet at shares of 0.006-0.018 (CHANGES.md).
_MCL_DENSE_SHARE = 1 / 80


def markov_cluster(graph: Graph, params) -> Partition:
    """Expansion/inflation iteration on the column-stochastic transfer
    matrix (unit self-loops added); communities are the weakly connected
    components of the limit matrix's support.

    Entries below mcl_prune_threshold are dropped (the column maximum is
    always kept) and the pruned mass is renormalized. Emits
    ConvergenceWarning and uses the last iterate if the cap is reached.

    An iteration whose last expansion product would make more than
    n^3/80 sparse multiply-adds (in practice one or two early ones,
    where the iterate is tens of percent dense) runs as dense BLAS products,
    a block of columns at a time (`_mcl_step`). Only the summation order
    inside the products changes, so such an iterate may differ from the
    sparse one in its last bits, as with walktrap's BLAS dot products;
    the support, and so the partition, is the same.
    """
    params.validate()
    n = graph.node_count
    matrix = graph.adjacency() + sp.identity(n, format="csr")
    matrix = _column_normalize(matrix)

    converged = False
    for _ in range(params.mcl_max_iterations):
        previous = matrix
        matrix = _mcl_step(matrix, params)
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


def _mcl_step(matrix, params, dense=None):
    """One expansion/inflation iteration of the column-stochastic CSC
    `matrix`, returned as CSC. `dense` picks the branch of the last
    product; None picks it by its sparse multiply-add count.

    Every step after the last product is column-local, so expanding and
    pruning a block of columns at a time gives the same iterate without
    ever holding the unpruned square.
    """
    n = matrix.shape[0]
    head = matrix
    for _ in range(params.mcl_expansion - 2):
        head = head @ matrix
    if dense is None:
        madds = np.diff(head.indptr) @ np.bincount(matrix.indices, minlength=n)
        dense = madds > _MCL_DENSE_SHARE * n**3
    blocks = []
    for start in range(0, n, _MCL_BLOCK_COLUMNS):
        columns = matrix[:, start:start + _MCL_BLOCK_COLUMNS]
        if dense:
            block = _dense_product(head, columns.toarray())
            block **= params.mcl_inflation
            block *= _reciprocal(block.sum(axis=0))
            block[block < np.minimum(params.mcl_prune_threshold, block.max(axis=0))] = 0.0
            block *= _reciprocal(block.sum(axis=0))
            blocks.append(sp.csc_matrix(block))
        else:
            block = head @ columns
            block.data **= params.mcl_inflation
            block = _column_normalize(block)
            block = _prune(block, params.mcl_prune_threshold)
            blocks.append(_column_normalize(block))
    return sp.hstack(blocks, format="csc")


def _dense_product(head, columns):
    """head @ columns for a CSC `head` and a dense n x b `columns`, summed
    over dense column blocks of `head`, so no n x n array is held."""
    from scipy.linalg.blas import dgemm

    product = np.zeros((head.shape[0], columns.shape[1]), order="F")
    buffer = np.empty((head.shape[0], _MCL_BLOCK_COLUMNS), order="F")
    for start in range(0, head.shape[1], _MCL_BLOCK_COLUMNS):
        block = head[:, start:start + _MCL_BLOCK_COLUMNS]
        width = block.shape[1]
        dense = block.toarray(out=buffer[:, :width])
        # product += dense @ columns[rows], in place (BLAS's beta = 1)
        product = dgemm(
            1.0, dense, columns[start:start + width], beta=1.0, c=product, overwrite_c=True
        )
    return product


def _reciprocal(sums):
    return np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)


def _column_normalize(matrix):
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    matrix = matrix.tocsc()
    matrix.data *= np.repeat(_reciprocal(sums), np.diff(matrix.indptr))
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
