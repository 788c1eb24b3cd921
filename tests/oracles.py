"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: direct summation, exhaustive
enumeration, brute-force search, one scalar draw at a time. None of it
shares an algorithm's code with the package.
"""

import bisect
import itertools
import math
import random
import warnings
from collections import deque

import numpy as np

from commbench.graph import Graph, Partition
from commbench.lfr import MixingToleranceWarning, _fit_shortfall, internal_stub_count


def nmi_direct(counts):
    """Term-by-term NMI evaluation from a confusion matrix given as nested
    lists, with 0*log(0) taken as 0."""
    n = 0
    for row in counts:
        for x in row:
            n += x
    row_m = [sum(row) for row in counts]
    col_m = [sum(row[j] for row in counts) for j in range(len(counts[0]))]
    num = 0.0
    for i, row in enumerate(counts):
        for j, m_ij in enumerate(row):
            if m_ij > 0:
                num += -2.0 * m_ij * math.log(n * m_ij / (row_m[i] * col_m[j]))
    den = 0.0
    for r in row_m:
        if r > 0:
            den += r * math.log(r / n)
    for c in col_m:
        if c > 0:
            den += c * math.log(c / n)
    if den == 0.0:
        return 1.0
    return num / den


def confusion_direct(actual, estimated):
    """Confusion counts as nested lists, rows = estimated communities."""
    rows = estimated.num_communities
    cols = actual.num_communities
    counts = [[0] * cols for _ in range(rows)]
    for v in range(actual.node_count):
        counts[estimated.membership[v]][actual.membership[v]] += 1
    return counts


def modularity_direct(graph, partition):
    """Q from its definition: per community, intra-edge fraction minus the
    squared half-degree fraction."""
    m = graph.edge_count
    q = 0.0
    for nodes in partition.communities():
        node_set = set(nodes)
        l_c = sum(1 for u, v in graph.edges if u in node_set and v in node_set)
        d_c = sum(graph.degree(v) for v in nodes)
        q += l_c / m - (d_c / (2 * m)) ** 2
    return q


def singleton_modularity_direct(weighted):
    """Q of the all-singletons partition of a weighted graph (a quotient),
    from its self-loop weights and node strengths: each node's inside
    weight is its self-loop, and its expected share is its strength over
    the total."""
    strengths = [
        loop + sum(weighted.weights[weighted.indptr[v]:weighted.indptr[v + 1]])
        for v, loop in enumerate(weighted.self_loops)
    ]
    total = sum(strengths)
    q = 0.0
    for loop, strength in zip(weighted.self_loops, strengths):
        q += loop / total - (strength / total) ** 2
    return q


def _direct_q(graph, label):
    """Q of the partition given by node labels, in one pass over the edges
    (modularity_direct makes one pass per community)."""
    m = graph.edge_count
    inside = {}
    degree = {}
    for u, v in graph.edges:
        if label[u] == label[v]:
            inside[label[u]] = inside.get(label[u], 0) + 1
        degree[label[u]] = degree.get(label[u], 0) + 1
        degree[label[v]] = degree.get(label[v], 0) + 1
    return sum(inside.get(c, 0) / m - (d / (2 * m)) ** 2 for c, d in degree.items())


def fastgreedy_direct(graph):
    """CNM greedy agglomeration with every step recomputed from scratch.

    Each step counts the edges between every adjacent pair of communities
    and merges the pair with the largest w/m - d_a d_b / (2 m^2), ties to
    the smallest (lo, hi) pair of community names. A community is named by
    a node; of the two, the one adjacent to more communities keeps its
    name (lo on a tie). Returns the level of largest Q, later levels
    winning ties.
    """
    n = graph.node_count
    m = graph.edge_count
    name = list(range(n))
    best_q = _direct_q(graph, name)
    best = list(name)
    while True:
        between = {}
        degree = [0] * n
        for u, v in graph.edges:
            a, b = sorted((name[u], name[v]))
            if a != b:
                between[(a, b)] = between.get((a, b), 0) + 1
            degree[a] += 1
            degree[b] += 1
        if not between:
            break
        _, lo, hi = min(
            (-(w / m - degree[a] * degree[b] / (2.0 * m * m)), a, b)
            for (a, b), w in between.items()
        )
        touching = [0] * n
        for a, b in between:
            touching[a] += 1
            touching[b] += 1
        keep, gone = (hi, lo) if touching[hi] > touching[lo] else (lo, hi)
        name = [keep if c == gone else c for c in name]
        q = _direct_q(graph, name)
        if q >= best_q:
            best_q = q
            best = list(name)
    return Partition.from_labels(best)


def walktrap_direct(graph, t):
    """Walktrap with every step recomputed from scratch.

    P^t is the t-th power of the dense random-walk matrix D^-1 A. Each
    step takes every pair of adjacent communities, their mean rows of P^t,
    and sigma = |C1| |C2| / (|C1| + |C2|) * sum_k (mean1_k - mean2_k)^2 /
    d_k / n, and merges the pair with the smallest sigma. Returns the level
    of largest Q, later levels winning ties, and the smallest relative gap
    between a step's smallest sigma and its next smallest: a gap within
    rounding means that the step's choice is not fixed by the definition.
    """
    n = graph.node_count
    degree = np.zeros(n)
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    walk = np.zeros((n, n))
    for u, v in graph.edges:
        walk[u, v] = 1.0 / degree[u]
        walk[v, u] = 1.0 / degree[v]
    power = np.linalg.matrix_power(walk, t)
    weight = np.zeros(n)
    weight[degree > 0] = 1.0 / degree[degree > 0]
    label = list(range(n))
    best_q = _direct_q(graph, label)
    best = list(label)
    closest = math.inf
    while True:
        pairs = sorted(
            {tuple(sorted((label[u], label[v]))) for u, v in graph.edges if label[u] != label[v]}
        )
        if not pairs:
            break
        members = {}
        for v, c in enumerate(label):
            members.setdefault(c, []).append(v)
        mean = {c: power[nodes].mean(axis=0) for c, nodes in members.items()}
        scored = []
        for a, b in pairs:
            size_a, size_b = len(members[a]), len(members[b])
            diff = mean[a] - mean[b]
            sigma = size_a * size_b / (size_a + size_b) * float(np.sum(diff * diff * weight)) / n
            scored.append((sigma, a, b))
        scored.sort()
        if len(scored) > 1:
            low, next_low = scored[0][0], scored[1][0]
            closest = min(closest, (next_low - low) / next_low if next_low > 0 else 0.0)
        _, a, b = scored[0]
        label = [a if c == b else c for c in label]
        q = _direct_q(graph, label)
        if q >= best_q:
            best_q = q
            best = list(label)
    return Partition.from_labels(best), closest


def spinglass_direct(graph, params):
    """Spin-glass annealing with every proposal's edge counts found by
    scanning all of v's neighbours, and every draw made with
    `rng.randrange`.

    Same seed, proposals, Metropolis rule, cooling and best-Q tracking as
    the package's spinglass, so both return the same partition. The
    starting Q is summed here in another order, which shifts Q by a few
    ulps only, far below the 1e-12 margin of the best-Q test.
    """
    rng = random.Random(params.seed)
    n = graph.node_count
    m = graph.edge_count
    q_spins = min(params.spinglass_max_spins, n)
    adj = [graph.neighbors(v) for v in range(n)]
    spins = [rng.randrange(q_spins) for _ in range(n)]
    d_sum = [0.0] * q_spins
    for v in range(n):
        d_sum[spins[v]] += len(adj[v])
    q_val = _direct_q(graph, spins)
    best_q = q_val
    best_spins = list(spins)
    temp = params.sa_initial_temperature
    inv_m = 1.0 / m
    while temp > params.sa_min_temperature:
        for _ in range(params.sa_sweeps_per_temperature * n):
            v = rng.randrange(n)
            nbrs = adj[v]
            if nbrs and rng.random() < 0.9:
                target = spins[nbrs[rng.randrange(len(nbrs))]]
            else:
                target = rng.randrange(q_spins)
            cur = spins[v]
            if target == cur:
                continue
            e_cur = sum(1 for u in nbrs if spins[u] == cur)
            e_tgt = sum(1 for u in nbrs if spins[u] == target)
            k_v = len(nbrs)
            gain2m = 2.0 * (e_tgt - e_cur) - k_v * (d_sum[target] - (d_sum[cur] - k_v)) * inv_m
            if gain2m >= 0.0 or rng.random() < math.exp(gain2m / temp):
                spins[v] = target
                d_sum[cur] -= k_v
                d_sum[target] += k_v
                q_val += gain2m / (2.0 * m)
                if q_val > best_q + 1e-12:
                    best_q = q_val
                    best_spins = list(spins)
        temp *= params.sa_cooling_factor
    return Partition.from_labels(best_spins)


def removal_order_direct(graph):
    """Radicchi et al.'s edge removal order with every step recomputed from
    scratch.

    Each step computes every remaining edge's clustering coefficient,
    (triangles + 1) / (smaller endpoint degree - 1), infinite when that
    denominator is below 1, and removes the smallest (c, u, v). Returns the
    removed (u, v) edges in order.
    """
    adj = [set() for _ in range(graph.node_count)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def coefficient(u, v):
        low = min(len(adj[u]), len(adj[v])) - 1
        if low < 1:
            return math.inf
        return (len(adj[u] & adj[v]) + 1) / low

    order = []
    remaining = set(graph.edges)
    while remaining:
        _, u, v = min((coefficient(u, v), u, v) for u, v in remaining)
        remaining.remove((u, v))
        adj[u].remove(v)
        adj[v].remove(u)
        order.append((u, v))
    return order


def radetal_direct(graph):
    """Radicchi et al. divisive clustering with every step recomputed from
    scratch.

    Edges are removed in `removal_order_direct`'s order. After each removal
    the components are found again by search, and the original graph's Q
    is scored on them. Returns the components of largest Q, earlier levels
    winning ties.
    """
    n = graph.node_count
    adj = [set() for _ in range(n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def components():
        label = [-1] * n
        count = 0
        for s in range(n):
            if label[s] >= 0:
                continue
            label[s] = count
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if label[y] < 0:
                        label[y] = count
                        stack.append(y)
            count += 1
        return label, count

    label, count = components()
    best_q = _direct_q(graph, label)
    best = label
    for u, v in removal_order_direct(graph):
        adj[u].remove(v)
        adj[v].remove(u)
        label, split_count = components()
        if split_count > count:
            count = split_count
            q = _direct_q(graph, label)
            if q > best_q:
                best_q = q
                best = label
    return Partition.from_labels(best)


def all_partitions(n):
    """Every set partition of range(n) as a membership list (restricted
    growth strings), Bell(n) of them."""

    def grow(prefix, maxc):
        if len(prefix) == n:
            yield list(prefix)
            return
        for c in range(maxc + 2):
            prefix.append(c)
            yield from grow(prefix, max(maxc, c))
            prefix.pop()

    yield from grow([], -1)


def max_modularity_bruteforce(graph):
    """Exhaustive maximum of Q over every set partition of the node set.

    Only feasible for small n (Bell(10) is ~115k).
    """
    best_q = -math.inf
    best = None
    for member in all_partitions(graph.node_count):
        q = modularity_direct(graph, Partition(member))
        if q > best_q:
            best_q = q
            best = list(member)
    return best_q, Partition(best)


def connected_partitions(graph):
    """Set partitions whose every block induces a connected subgraph.

    Far fewer than Bell(n) on sparse graphs; the modularity (and map
    equation) optimum is always among them.
    """
    n = graph.node_count
    adj = [set(graph.neighbors(v)) for v in range(n)]

    def connected_subsets_containing(v, allowed):
        # Classic enumeration with an exclusion set: each recursive call
        # either takes the next candidate or bans it forever, so every
        # connected subset appears exactly once.
        found = []

        def enum(current, excluded):
            found.append(frozenset(current))
            cands = set()
            for u in current:
                cands |= adj[u]
            cands = (cands & allowed) - current - excluded
            banned = set(excluded)
            for w in sorted(cands):
                enum(current | {w}, banned)
                banned.add(w)

        enum(frozenset([v]), set())
        return found

    def rec(remaining):
        if not remaining:
            yield []
            return
        v = min(remaining)
        allowed = frozenset(remaining)
        for block in connected_subsets_containing(v, allowed):
            for rest in rec(remaining - block):
                yield [block] + rest

    for blocks in rec(frozenset(range(n))):
        member = [0] * n
        for cid, block in enumerate(blocks):
            for v in block:
                member[v] = cid
        yield Partition.from_labels(member)


def max_modularity_connected(graph):
    """Maximum Q over partitions into connected blocks."""
    best_q = -math.inf
    best = None
    for part in connected_partitions(graph):
        q = modularity_direct(graph, part)
        if q > best_q:
            best_q = q
            best = part
    return best_q, best


def powerlaw_sample_mean(k_min, k_max, gamma, rng, size):
    """Mean of a discrete bounded power-law sample drawn by explicit
    inverse-CDF table lookup."""
    ks = list(range(k_min, k_max + 1))
    weights = [k ** (-gamma) for k in ks]
    total = sum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    draws = []
    for _ in range(size):
        u = rng.random()
        lo = 0
        while cdf[lo] < u:
            lo += 1
        draws.append(ks[lo])
    return sum(draws) / len(draws)


def powerlaw_mle_exponent(samples, lo, hi):
    """Maximum-likelihood exponent of a discrete power law on [lo, hi],
    found by golden-section search on the log-likelihood."""
    ks = list(range(lo, hi + 1))
    log_ks = {k: math.log(k) for k in ks}
    sum_log = sum(log_ks[s] for s in samples)
    n = len(samples)

    def neg_loglik(beta):
        z = sum(k ** (-beta) for k in ks)
        return beta * sum_log + n * math.log(z)

    a, b = 1.0, 6.0
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if neg_loglik(c) < neg_loglik(d):
            b = d
        else:
            a = c
        c, d = b - phi * (b - a), a + phi * (b - a)
    return (a + b) / 2


def map_equation_direct(graph, partition):
    """Two-level description length (in nats) of a random walk under the
    given partition, evaluated straight from its defining entropies."""
    m = graph.edge_count
    member = partition.membership
    p_node = [graph.degree(v) / (2 * m) for v in range(graph.node_count)]
    modules = partition.communities()
    q_exit = []
    for nodes in modules:
        node_set = set(nodes)
        cut = sum(
            1
            for u, v in graph.edges
            if (u in node_set) != (v in node_set)
        )
        q_exit.append(cut / (2 * m))
    q_tot = sum(q_exit)

    def plogp(x):
        return x * math.log(x) if x > 0 else 0.0

    # Index codebook entropy.
    length = plogp(q_tot)
    length -= 2 * sum(plogp(q) for q in q_exit)
    for nodes, q in zip(modules, q_exit):
        length += plogp(q + sum(p_node[v] for v in nodes))
    length -= sum(plogp(p) for p in p_node)
    return length


def markov_cluster_direct(graph, params):
    """MCL from its definition on one dense n x n matrix: expansion by a
    matrix power, inflation by an entrywise power, column normalization,
    pruning below the threshold (each column keeps its maximum), and
    renormalization, until no entry moves by the convergence epsilon.
    Communities are the connected components of the support of M + M^T,
    found by breadth-first search. Returns (partition, converged)."""
    n = graph.node_count
    matrix = np.eye(n)
    for u, v in graph.edges:
        matrix[u, v] = matrix[v, u] = 1.0
    matrix = matrix / matrix.sum(axis=0)
    converged = False
    for _ in range(params.mcl_max_iterations):
        previous = matrix
        matrix = np.linalg.matrix_power(matrix, params.mcl_expansion)
        matrix = matrix ** params.mcl_inflation
        matrix = matrix / matrix.sum(axis=0)
        keep = (matrix >= params.mcl_prune_threshold) | (matrix == matrix.max(axis=0))
        matrix = np.where(keep, matrix, 0.0)
        matrix = matrix / matrix.sum(axis=0)
        if np.abs(matrix - previous).max() < params.mcl_convergence_epsilon:
            converged = True
            break
    linked = (matrix != 0) | (matrix.T != 0)
    labels = [-1] * n
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(linked[u]).tolist():
                if labels[v] < 0:
                    labels[v] = root
                    queue.append(v)
    return Partition.from_labels(labels), converged


def rewire_direct(graph, planted, config, rng):
    """Reference for `lfr.rewire_to_mixing`: the same swap loop, drawing
    one scalar `rng.integers` at a time and keeping each edge's list slots
    in dicts keyed by edge (and by (edge, community) for the per-community
    inter-edge lists). Same draws, same accept decisions, same result."""
    if planted.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    n = graph.node_count
    m = graph.edge_count
    limit = (n - max(planted.community_sizes)) / n
    if config.mu > limit and not config.allow_mu_beyond_limit:
        raise ValueError(
            f"target mu={config.mu} exceeds mu_limit={limit:.4f}; no significant "
            f"community structure is possible in this regime"
        )
    target = config.mu
    tol = config.mixing_tolerance
    member = planted.membership
    deg = graph.degrees()
    inv_deg = [1.0 / d if d else 0.0 for d in deg]
    active = sum(1 for d in deg if d > 0)
    if active == 0:
        raise ValueError("cannot rewire an edgeless graph")

    edges = list(graph.edges)
    edge_set = set(edges)
    # ratio_sum tracks sum over nodes of ext(v)/deg(v); mu_hat = ratio_sum/active.
    ratio_sum = 0.0
    inter_idx, intra_idx = [], []
    inter_pos = {}
    intra_pos = {}
    # Inter-community edges indexed by incident community: lets the
    # reduction direction pick partners that are guaranteed to close an
    # intra-community edge.
    by_comm = [[] for _ in range(planted.num_communities)]
    by_comm_pos = {}

    def add(i):
        u, v = edges[i]
        cu, cv = member[u], member[v]
        if cu != cv:
            inter_pos[i] = len(inter_idx)
            inter_idx.append(i)
            for c in (cu, cv):
                by_comm_pos[(i, c)] = len(by_comm[c])
                by_comm[c].append(i)
        else:
            intra_pos[i] = len(intra_idx)
            intra_idx.append(i)

    def drop(i):
        u, v = edges[i]
        cu, cv = member[u], member[v]
        if cu != cv:
            pos = inter_pos.pop(i)
            last = inter_idx.pop()
            if last != i:
                inter_idx[pos] = last
                inter_pos[last] = pos
            for c in (cu, cv):
                pos = by_comm_pos.pop((i, c))
                lst = by_comm[c]
                last = lst.pop()
                if last != i:
                    lst[pos] = last
                    by_comm_pos[(last, c)] = pos
        else:
            pos = intra_pos.pop(i)
            last = intra_idx.pop()
            if last != i:
                intra_idx[pos] = last
                intra_pos[last] = pos

    for i, (u, v) in enumerate(edges):
        add(i)
        if member[u] != member[v]:
            ratio_sum += inv_deg[u] + inv_deg[v]

    current_gap = abs(ratio_sum / active - target)
    if current_gap <= tol:
        return graph

    def swap_delta(old1, old2, new1, new2):
        delta = 0.0
        for u, v in (old1, old2):
            if member[u] != member[v]:
                delta -= inv_deg[u] + inv_deg[v]
        for u, v in (new1, new2):
            if member[u] != member[v]:
                delta += inv_deg[u] + inv_deg[v]
        return delta

    budget = config.max_rewire_iterations if config.max_rewire_iterations else 50 * m
    # Drive the gap well inside the tolerance band rather than stopping at
    # its edge; the budget is checked against the full tolerance below.
    inner_tol = 0.25 * tol
    for _ in range(budget):
        if ratio_sum / active < target:
            # Break two intra edges of different communities into two
            # inter edges.
            if len(intra_idx) < 2:
                break
            i = intra_idx[int(rng.integers(len(intra_idx)))]
            j = intra_idx[int(rng.integers(len(intra_idx)))]
            a, b = edges[i]
            c, d = edges[j]
            if member[a] == member[c] or len({a, b, c, d}) < 4:
                continue
            if int(rng.integers(2)):
                c, d = d, c
        else:
            # Pair an inter edge with another inter edge touching the same
            # community, closing one intra edge there.
            if len(inter_idx) < 2:
                break
            i = inter_idx[int(rng.integers(len(inter_idx)))]
            a, b = edges[i]
            if int(rng.integers(2)):
                a, b = b, a
            focus = member[a]
            pool = by_comm[focus]
            if len(pool) < 2:
                continue
            j = pool[int(rng.integers(len(pool)))]
            if j == i:
                continue
            c, d = edges[j]
            if member[c] != focus:
                c, d = d, c
            if len({a, b, c, d}) < 4:
                continue
        new1 = (a, c) if a < c else (c, a)
        new2 = (b, d) if b < d else (d, b)
        if new1 in edge_set or new2 in edge_set:
            continue
        old1, old2 = edges[i], edges[j]
        delta = swap_delta(old1, old2, new1, new2)
        new_gap = abs((ratio_sum + delta) / active - target)
        if new_gap >= current_gap:
            continue
        drop(i)
        drop(j)
        edge_set.discard(old1)
        edge_set.discard(old2)
        edges[i] = new1
        edges[j] = new2
        edge_set.add(new1)
        edge_set.add(new2)
        add(i)
        add(j)
        ratio_sum += delta
        current_gap = new_gap
        if current_gap <= inner_tol:
            break
    if current_gap > tol:
        warnings.warn(
            MixingToleranceWarning(
                f"rewiring budget exhausted; achieved mu={ratio_sum / active:.4f} "
                f"(target {target})"
            )
        )
    return Graph(n, edges)


def configuration_direct(degrees, rng):
    """Reference for `lfr.configuration_model`: edges as (u, v) tuples,
    multiplicities in a dict keyed by edge, the bad list re-filtered after
    every repair swap and one scalar `rng.integers` per draw. Same draws,
    same swaps, same graph."""
    degrees = [int(d) for d in degrees]
    n = len(degrees)
    if sum(degrees) % 2 != 0:
        raise ValueError("degree sum must be even")
    if any(d < 0 for d in degrees) or any(d > n - 1 for d in degrees):
        raise ValueError("degrees must lie in [0, n-1]")
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    m = len(stubs) // 2
    edges = list(map(tuple, np.sort(stubs.reshape(-1, 2), axis=1).tolist()))

    count = {}
    for e in edges:
        count[e] = count.get(e, 0) + 1

    def is_bad(e):
        return e[0] == e[1] or count[e] > 1

    bad = [i for i, e in enumerate(edges) if is_bad(e)]
    budget = 200 * max(m, 1)
    attempts = 0
    while bad:
        if attempts >= budget:
            raise ValueError(
                "degree sequence not realizable as a simple graph within the swap budget"
            )
        attempts += 1
        i = bad[int(rng.integers(len(bad)))]
        if not is_bad(edges[i]):
            bad = [k for k in bad if is_bad(edges[k])]
            continue
        j = int(rng.integers(m))
        if j == i:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if int(rng.integers(2)):
            c, d = d, c
        new1 = (a, c) if a <= c else (c, a)
        new2 = (b, d) if b <= d else (d, b)
        if new1[0] == new1[1] or new2[0] == new2[1] or new1 == new2:
            continue
        if count.get(new1, 0) > 0 or count.get(new2, 0) > 0:
            continue
        for e in (edges[i], edges[j]):
            count[e] -= 1
            if count[e] == 0:
                del count[e]
        edges[i] = new1
        edges[j] = new2
        count[new1] = 1
        count[new2] = 1
        bad = [k for k in bad if k != i and is_bad(edges[k])]
    graph = Graph(n, edges)
    assert graph.degrees() == degrees
    return graph


def assign_direct(degrees, sizes, mu, rng):
    """Reference for `lfr.assign_communities`: the same placement with
    kick-out, one scalar `rng.integers` per draw. It shares the package's
    fit check and stub rounding, whose errors the comparison covers."""
    n = len(degrees)
    if sum(sizes) != n:
        raise ValueError(f"sizes sum to {sum(sizes)}, expected n={n}")
    c = len(sizes)
    int_deg = [internal_stub_count(d, mu) for d in degrees]
    shortfall = _fit_shortfall(int_deg, sizes)
    if shortfall:
        raise ValueError(shortfall)
    by_size = sorted(range(c), key=lambda cid: sizes[cid])
    sorted_sizes = [sizes[cid] for cid in by_size]
    fit_count = [c - bisect.bisect_right(sorted_sizes, idg) for idg in int_deg]

    members = [[] for _ in range(c)]
    member_of = [-1] * n
    order = rng.permutation(n)
    queue = deque(int(v) for v in order)
    budget = 500 * n
    attempts = 0
    while queue:
        attempts += 1
        if attempts > budget:
            raise ValueError("community assignment did not settle within its retry budget")
        v = queue.popleft()
        cid = by_size[c - 1 - int(rng.integers(fit_count[v]))]
        if len(members[cid]) < sizes[cid]:
            members[cid].append(v)
            member_of[v] = cid
        else:
            crowd = members[cid]
            slot = int(rng.integers(len(crowd)))
            if fit_count[crowd[slot]] <= 1:
                for _ in range(10):
                    alt = int(rng.integers(len(crowd)))
                    if fit_count[crowd[alt]] > 1:
                        slot = alt
                        break
            evicted = crowd[slot]
            crowd[slot] = v
            member_of[evicted] = -1
            member_of[v] = cid
            queue.append(evicted)
    return Partition(member_of)



def grow_largest_shave_only(sizes, need, lo):
    """`lfr._grow_largest` before it could drop communities: the largest
    raised to `need`, the excess shaved off the tail without taking any
    community below `lo`, and a ValueError where that cannot cover it."""
    sizes = sorted(sizes, reverse=True)
    delta = need - sizes[0]
    sizes[0] = need
    for i in range(len(sizes) - 1, 0, -1):
        if delta == 0:
            break
        take = min(delta, sizes[i] - lo)
        sizes[i] -= take
        delta -= take
    if delta:
        raise ValueError("the size budget cannot provide one")
    return sizes
