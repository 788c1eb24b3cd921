"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: direct summation, exhaustive
enumeration, brute-force search. None of it shares code with the package.
"""

import itertools
import math

from commbench.graph import Partition


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
    strengths = [weighted.strength(v) for v in range(weighted.node_count)]
    total = sum(strengths)
    q = 0.0
    for loop, strength in zip(weighted.self_loops, strengths):
        q += loop / total - (strength / total) ** 2
    return q


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
