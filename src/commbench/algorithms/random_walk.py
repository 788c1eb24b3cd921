"""Random-walk detectors: agglomerative walk-distance clustering and the
expansion/inflation diffusion process.
"""

from __future__ import annotations

import math
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
    Ward-style increase sigma of the mean squared distance; the dendrogram
    level of maximal modularity is returned. Isolated nodes stay singleton
    communities.

    P^t comes from sparse products (`_walk_power`). Each community keeps
    its summed profile and its mean profile, refreshed for the survivor
    of each merge only, so a direct sigma is one row difference and one
    dot product.

    Merging b into a can lower sigma(a, x) even where x is not adjacent
    to b, so a's old heap entries bound nothing, and walktrap has the
    merge engine (`_Agglomeration.run`) re-score every neighbour of the
    survivor. A pair (a, x) with both (a, x) and (b, x) adjacent before
    gets its sigma from the Ward update. Any other pair gets an entry at
    a lower bound (`_merged_sigma_floor`), and its sigma is computed only
    when the engine pops that entry and asks `exact`, or when a later
    Ward update reads it. A bound at or below the merged pair's sigma
    nearly always reaches the heap top before its pair changes, so that
    sigma is computed at once. Either way it comes from the same two mean
    rows as it would right after the merge, so every sigma, and so every
    merge, is the one eager scoring gives. Pairs of equal sigma merge in
    (lo, hi) order of their representatives, so no seed is read. Each
    pair's sigma, or its bound, is held only as its merge-engine key.
    """
    _require_edges(graph)
    n = graph.node_count
    deg = np.asarray(graph.degrees(), dtype=float)
    inv_d = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    profile = _walk_power(graph, inv_d, params.walktrap_t)
    agg = _Agglomeration(graph)

    # Community state, indexed by representative node id. `profile` rows
    # are reused in place as per-community probability sums, and mean[c]
    # is profile[c] / size[c]: the row itself while c is a singleton.
    size = [1] * n
    mean = list(profile)

    def direct_sigma(mean_a, mean_b, size_a, size_b):
        diff = mean_a - mean_b
        return size_a * size_b / (size_a + size_b) * float(diff @ (diff * inv_d)) / n

    # The pairs whose key is a lower bound on their sigma.
    loose = set()
    heap = [(direct_sigma(mean[u], mean[v], 1, 1), u * n + v) for u, v in graph.edges]
    # The latest merge: (absorbed, size_a, size_b, sigma_ab, the absorbed
    # community's keys, and a's and b's mean rows before it, for the Ward
    # update's loose inputs).
    last = None

    def merged(a, b, sigma_ab, gone):
        nonlocal last
        old_a = mean[a] if size[a] > 1 else mean[a].copy()  # profile[a] changes in place
        last = (b, size[a], size[b], sigma_ab, gone, old_a, mean[b])
        profile[a] += profile[b]
        size[a] += size[b]
        mean[a] = profile[a] / size[a]
        mean[b] = None
        return agg.links[a]  # every pair of a's changed

    def score(a, x, entry):
        b, size_a, size_b, sigma_ab, gone, old_a, old_b = last
        size_x = size[x]
        ax = a * n + x if a < x else x * n + a
        bx = b * n + x if b < x else x * n + b
        s_ax = None if entry is None else entry[0]
        s_bx = gone.get(x)
        if s_ax is not None and s_bx is not None:
            if ax in loose:
                loose.remove(ax)
                s_ax = direct_sigma(old_a, mean[x], size_a, size_x)
            if bx in loose:
                loose.remove(bx)
                s_bx = direct_sigma(old_b, mean[x], size_b, size_x)
            # Ward update from the three previous increases.
            s_new = (
                (size_a + size_x) * s_ax + (size_b + size_x) * s_bx - size_x * sigma_ab
            ) / (size_a + size_b + size_x)
        else:
            if s_ax is not None:
                s_new = _merged_sigma_floor(s_ax, sigma_ab, size_a, size_b, size_x, n)
            else:
                loose.discard(bx)
                s_new = _merged_sigma_floor(s_bx, sigma_ab, size_b, size_a, size_x, n)
            if s_new > sigma_ab:
                loose.add(ax)
            else:  # it would be popped and re-keyed next
                loose.discard(ax)
                s_new = direct_sigma(mean[a], mean[x], size[a], size_x)
        return s_new

    def exact(key, pair):
        if pair not in loose:
            return None
        loose.remove(pair)
        lo, hi = divmod(pair, n)
        return direct_sigma(mean[lo], mean[hi], size[lo], size[hi])

    return agg.run(heap, score, exact, merged)


# The triangle inequality holds for exact distances between the stored
# mean rows. The rounding in a stored sigma, in a Ward update (whose
# subtraction at most triples its inputs' error, because the merged
# pair's sigma is the smallest) and in the merged mean row moves a distance
# by a few units of 2^-52 times its terms plus the rows' norm. That norm is
# at most 1: the rows are probability vectors, and 1/degree <= 1.
_SIGMA_FLOOR_SLACK = 1e-9


def _merged_sigma_floor(sigma_px, sigma_pq, size_p, size_q, size_x, n):
    """A lower bound on walktrap's sigma(p + q, x), from sigma(p, x) and
    sigma(p, q), where sigma(c, x) = size_c size_x / (size_c + size_x)
    r(c, x)^2 / n and r is the distance between mean rows. The merged
    mean lies on the segment from p's mean to q's, a share
    size_q / (size_p + size_q) of the way, so r(p + q, x) >= r(p, x) -
    reach, with reach = share r(p, q). The gap is shrunk by
    `_SIGMA_FLOOR_SLACK` times its terms plus 1, which absorbs the
    rounding."""
    if sigma_px <= 0.0:
        return 0.0
    size_m = size_p + size_q
    r_px = math.sqrt(sigma_px * n * (size_p + size_x) / (size_p * size_x))
    reach = math.sqrt(sigma_pq * n * size_q / (size_p * size_m)) if sigma_pq > 0.0 else 0.0
    gap = r_px - reach - _SIGMA_FLOOR_SLACK * (1.0 + r_px + reach)
    if gap <= 0.0:
        return 0.0
    return size_m * size_x / (size_m + size_x) * gap * gap / n


def _walk_power(graph: Graph, inv_d, t):
    """P^t as a dense array, where P = D^-1 A is the random-walk matrix
    (inv_d holds 1/degree, 0 at isolated nodes, whose rows stay zero).

    A column block of P^t needs only the same block of the iterates
    before it, so each block of `_BLOCK_COLUMNS` columns of P runs through
    its t - 1 products with the CSR walk matrix before the next starts,
    in place of P's block. Only one n x n array is held, and each block's
    products stay in cache. Every output entry sums its row's terms in CSR
    order whatever the block, so P^t has the bits of whole-matrix
    products."""
    # Row scaling that keeps the adjacency's sorted column order, which
    # fixes the summation order of every product below.
    walk = graph.adjacency().multiply(inv_d[:, None]).tocsr()
    power = walk.toarray()
    for start in range(0, power.shape[1], _BLOCK_COLUMNS):
        block = slice(start, start + _BLOCK_COLUMNS)
        columns = power[:, block]
        for _ in range(t - 1):
            columns = walk @ columns
        power[:, block] = columns
    return power


# Column width of the blocks in which `_walk_power` and markov_cluster's
# iterations make their products (a block of an n=5000 iterate is 10 MB).
_BLOCK_COLUMNS = 250
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

    The convergence test skips the subtraction of two iterates when its
    answer is already known. If both iterates' smallest entries are at
    least the epsilon, neither holds an explicit zero, so a different
    entry count means that some entry is held by one iterate only, and
    moved by at least the epsilon: the iteration goes on. With the
    default prune threshold, above the epsilon, every iteration that
    changes the entry count takes this path.
    """
    n = graph.node_count
    matrix = graph.adjacency() + sp.identity(n, format="csr")
    matrix = _column_normalize(matrix)

    epsilon = params.mcl_convergence_epsilon
    converged = False
    for _ in range(params.mcl_max_iterations):
        previous = matrix
        matrix = _mcl_step(matrix, params)
        if matrix.nnz != previous.nnz and min(matrix.data.min(), previous.data.min()) >= epsilon:
            continue  # an entry held by one iterate only moved by at least epsilon
        delta = abs(matrix - previous)
        diff = delta.data.max() if delta.nnz else 0.0
        if diff < epsilon:
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
    for start in range(0, n, _BLOCK_COLUMNS):
        columns = matrix[:, start:start + _BLOCK_COLUMNS]
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
    buffer = np.empty((head.shape[0], _BLOCK_COLUMNS), order="F")
    for start in range(0, head.shape[1], _BLOCK_COLUMNS):
        block = head[:, start:start + _BLOCK_COLUMNS]
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
