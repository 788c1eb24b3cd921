"""Planted-partition benchmark networks with power-law degree and
community-size distributions and a controlled mixing coefficient.

Generation proceeds in three steps: realize a power-law degree sequence
with the configuration model, place nodes into power-law-sized communities,
then rewire links (degree-preservingly) until the per-node average fraction
of inter-community links matches the requested mixing coefficient.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import length_hint

import numpy as np

from .checked import Checked
from .graph import Graph, Partition, node_lists
from .metrics import measured_mixing


class MixingToleranceWarning(UserWarning):
    """Raised (as a warning) when rewiring exhausts its budget before
    reaching the target mixing; carries the achieved value in its message."""


@dataclass(frozen=True)
class LfrConfig(Checked):
    """Generation parameters.

    Community-size bounds left as None are resolved from the degree
    bounds: min_community = ceil((1-mu)*k_min) + 1 and
    max_community = min(n, ceil((1-mu)*k_max) + round(avg_degree)), which
    guarantees every node's internal stubs can fit inside some community.
    """

    n: int
    avg_degree: float
    max_degree: int
    gamma: float
    beta: float
    mu: float
    min_community: int | None = None
    max_community: int | None = None
    mixing_tolerance: float = 0.02
    max_rewire_iterations: int | None = None  # defaults to 50*m at rewire time
    seed: int = 0
    allow_mu_beyond_limit: bool = False

    def validate(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must be in (0,1), got {self.mu}")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 1 <= self.avg_degree <= self.max_degree <= self.n - 1:
            raise ValueError(
                f"need 1 <= avg_degree <= max_degree <= n-1, got "
                f"avg={self.avg_degree}, max={self.max_degree}, n={self.n}"
            )
        if (self.min_community is None) != (self.max_community is None):
            raise ValueError("set both community bounds or neither")
        if self.min_community is not None:
            if not 1 <= self.min_community <= self.max_community <= self.n:
                raise ValueError(
                    f"need 1 <= min_community <= max_community <= n, got "
                    f"[{self.min_community}, {self.max_community}], n={self.n}"
                )
        # |realized mu - mu| < 1 always, so a tolerance of 1 or more skips rewiring.
        if not 0.0 < self.mixing_tolerance < 1.0:
            raise ValueError(f"mixing_tolerance must be in (0,1), got {self.mixing_tolerance}")
        if self.max_rewire_iterations is not None and self.max_rewire_iterations < 1:
            raise ValueError(
                f"max_rewire_iterations must be >= 1 (or None for 50*m), "
                f"got {self.max_rewire_iterations}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")

    def with_resolved_bounds(self, k_min: int) -> "LfrConfig":
        """Fill in default community-size bounds given the realized minimum
        degree."""
        if self.min_community is not None:
            return self
        lo = math.ceil((1.0 - self.mu) * k_min) + 1
        hi = min(self.n, math.ceil((1.0 - self.mu) * self.max_degree) + round(self.avg_degree))
        if lo > hi:
            lo = hi
        return replace(self, min_community=lo, max_community=hi)


@dataclass(frozen=True)
class PlantedNetwork:
    """A generated graph with its planted partition and realized mixing."""

    graph: Graph
    planted: Partition
    realized_mu: float
    realized_mu_global: float
    mu_limit: float
    config: LfrConfig


def mu_limit(n: int, max_community: int) -> float:
    """Mixing value above which inter-community links dominate:
    (n - largest community size) / n."""
    if not 1 <= max_community <= n:
        raise ValueError(f"need 1 <= max_community <= n, got {max_community} vs n={n}")
    return (n - max_community) / n


def _truncated_powerlaw_mean(lo, hi, gamma):
    """Mean of the continuous power law x^-gamma on [lo, hi]."""
    if hi == lo:
        return float(lo)
    if abs(gamma - 2.0) < 1e-12:
        return lo * hi * math.log(hi / lo) / (hi - lo)
    a, b = 1.0 - gamma, 2.0 - gamma
    return (a / b) * (hi**b - lo**b) / (hi**a - lo**a)


def solve_min_degree(avg_degree, max_degree, gamma):
    """Smallest degree of the power-law support, solved by bisection so the
    continuous distribution mean equals avg_degree."""
    lo, hi = 1.0, float(max_degree)
    if avg_degree > max_degree:
        raise ValueError("avg_degree exceeds max_degree")
    if _truncated_powerlaw_mean(lo, hi, gamma) > avg_degree:
        raise ValueError(
            f"avg_degree {avg_degree} unreachable with k_max={max_degree}, "
            f"gamma={gamma} (minimum attainable mean is "
            f"{_truncated_powerlaw_mean(lo, hi, gamma):.3f})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _truncated_powerlaw_mean(mid, float(max_degree), gamma) < avg_degree:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _discrete_powerlaw_cdf(lo, hi, exponent):
    ks = np.arange(lo, hi + 1, dtype=float)
    weights = ks**-exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def sample_powerlaw_degrees(config: LfrConfig, rng) -> list[int]:
    """Degree sequence of length n: discrete power law on [k_min, k_max]
    with an even sum, where k_min is chosen so the mean hits avg_degree."""
    k_cont = solve_min_degree(config.avg_degree, config.max_degree, config.gamma)
    # Snap to the integer support whose discrete mean is closest.
    candidates = sorted({max(1, math.floor(k_cont)), min(config.max_degree, math.ceil(k_cont))})
    best = None
    for k in candidates:
        ks = np.arange(k, config.max_degree + 1, dtype=float)
        w = ks**-config.gamma
        mean = float(np.sum(ks * w) / np.sum(w))
        gap = abs(mean - config.avg_degree)
        if best is None or gap < best[0]:
            best = (gap, k)
    k_min = best[1]
    cdf = _discrete_powerlaw_cdf(k_min, config.max_degree, config.gamma)
    draws = k_min + np.searchsorted(cdf, rng.random(config.n))
    degrees = draws.astype(int).tolist()
    if sum(degrees) % 2 == 1:
        bumpable = [v for v in range(config.n) if degrees[v] < config.max_degree]
        if not bumpable:
            raise ValueError("cannot make degree sum even: all degrees at max_degree")
        degrees[bumpable[rng.integers(len(bumpable))]] += 1
    return degrees


def _sum_representable(total, lo, hi):
    if total == 0:
        return True
    if total < lo:
        return False
    return -(-total // hi) <= total // lo  # ceil(total/hi) <= floor(total/lo)


def sample_community_sizes(config: LfrConfig, rng) -> list[int]:
    """Community sizes in [min_community, max_community] from a discrete
    power law with exponent beta, summing exactly to n (draws are nudged
    minimally when needed to keep the remainder closeable)."""
    lo, hi = config.min_community, config.max_community
    if lo is None:
        raise ValueError("community bounds unresolved; call with_resolved_bounds first")
    n = config.n
    if not _sum_representable(n, lo, hi):
        raise ValueError(f"no community count fits: n={n}, bounds [{lo}, {hi}]")
    cdf = _discrete_powerlaw_cdf(lo, hi, config.beta)
    sizes = []
    remaining = n
    while remaining > 0:
        s = lo + int(np.searchsorted(cdf, rng.random()))
        s = min(s, remaining)
        if not _sum_representable(remaining - s, lo, hi):
            # Adjust this draw to the nearest feasible size.
            ceiling = min(hi, remaining)
            for delta in range(1, ceiling - lo + 2):
                for cand in (s - delta, s + delta):
                    if lo <= cand <= ceiling and _sum_representable(remaining - cand, lo, hi):
                        s = cand
                        break
                else:
                    continue
                break
            else:
                raise ValueError(f"cannot close sizes to n={n} within [{lo}, {hi}]")
        sizes.append(s)
        remaining -= s
    return sizes


def configuration_model(degrees, rng) -> Graph:
    """Random simple graph realizing the degree sequence exactly.

    Stubs are matched uniformly; self-loops and duplicate edges are then
    eliminated with degree-preserving double-edge swaps (never deletion).
    """
    degrees = [int(d) for d in degrees]
    n = len(degrees)
    if sum(degrees) % 2 != 0:
        raise ValueError("degree sum must be even")
    if any(d < 0 for d in degrees) or any(d > n - 1 for d in degrees):
        raise ValueError("degrees must lie in [0, n-1]")
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    m = len(stubs) // 2
    pairs = np.sort(stubs.reshape(-1, 2), axis=1)
    # Edge (u, v), u <= v, is the key u*n + v.
    key_array = pairs[:, 0] * n + pairs[:, 1]
    unique, inverse, counts = np.unique(key_array, return_inverse=True, return_counts=True)
    bad = np.flatnonzero((pairs[:, 0] == pairs[:, 1]) | (counts[inverse] > 1)).tolist()
    keys = key_array.tolist()
    # The number of edges holding each key, for the keys held by any.
    held = dict(zip(unique.tolist(), counts.tolist()))

    budget = 200 * max(m, 1)
    attempts = 0
    with _buffered_below(rng) as below:
        while bad:
            if attempts >= budget:
                raise ValueError(
                    "degree sequence not realizable as a simple graph within the swap budget"
                )
            attempts += 1
            i = bad[below(len(bad))]
            j = below(m)
            if j == i:
                continue
            a, b = divmod(keys[i], n)
            c, d = divmod(keys[j], n)
            if below(2):
                c, d = d, c
            if a == c or b == d:
                continue
            new1 = a * n + c if a <= c else c * n + a
            new2 = b * n + d if b <= d else d * n + b
            if new1 == new2 or new1 in held or new2 in held:
                continue
            # Keys left on a single edge stop being bad, unless a self-loop.
            fixed = set()
            for old in (keys[i], keys[j]):
                held[old] -= 1
                if not held[old]:
                    del held[old]
                elif held[old] == 1 and old // n != old % n:
                    fixed.add(old)
            keys[i] = new1
            keys[j] = new2
            held[new1] = held[new2] = 1
            bad = [k for k in bad if k != i and k != j and keys[k] not in fixed]
    graph = Graph(n, np.column_stack(np.divmod(np.array(keys, dtype=np.int64), n)))
    assert graph.degrees() == degrees
    return graph


def internal_stub_count(degree, mu):
    """Half-up rounding of (1-mu)*degree: the node's internal link budget."""
    return int((1.0 - mu) * degree + 0.5)


def _fit_shortfall(int_deg, sizes):
    """Why no placement of nodes into communities of these sizes gives
    every node a community larger than its internal degree, or None if
    one exists.

    The communities a node fits in are nested by its internal degree, so
    Hall's condition reduces to one check per threshold t:
    #{v : int_deg(v) >= t} <= sum{s : s > t}. Checking each distinct
    int_deg value suffices; the largest failing t is named.
    """
    needs = sorted(int_deg, reverse=True)
    sizes = sorted(sizes, reverse=True)
    room = i = 0
    for count, t in enumerate(needs, 1):
        if count < len(needs) and needs[count] == t:
            continue
        while i < len(sizes) and sizes[i] > t:
            room += sizes[i]
            i += 1
        if count > room:
            return (
                f"at t={t}, {count} nodes need a community larger than t, but "
                f"communities larger than t hold only {room} nodes"
            )
    return None


def assign_communities(degrees, sizes, mu, rng) -> Partition:
    """Place nodes into communities of the given sizes so that every node's
    internal stubs fit strictly inside its community.

    Uses random placement with kick-out: a node landing in a full community
    evicts a random member, which re-queues.
    """
    n = len(degrees)
    if sum(sizes) != n:
        raise ValueError(f"sizes sum to {sum(sizes)}, expected n={n}")
    c = len(sizes)
    int_deg = [internal_stub_count(d, mu) for d in degrees]
    shortfall = _fit_shortfall(int_deg, sizes)
    if shortfall:
        raise ValueError(shortfall)
    # Communities ordered by size so each node draws uniformly among the
    # ones it fits in (same conditional distribution as retry-until-fit,
    # without burning the budget on rejected draws).
    by_size = sorted(range(c), key=lambda cid: sizes[cid])
    sorted_sizes = [sizes[cid] for cid in by_size]
    fit_count = [c - bisect.bisect_right(sorted_sizes, idg) for idg in int_deg]

    members = [[] for _ in range(c)]
    member_of = [-1] * n
    queue = deque(rng.permutation(n).tolist())
    budget = 500 * n
    attempts = 0
    with _buffered_below(rng) as below:
        while queue:
            attempts += 1
            if attempts > budget:
                raise ValueError("community assignment did not settle within its retry budget")
            v = queue.popleft()
            cid = by_size[c - 1 - below(fit_count[v])]
            if len(members[cid]) < sizes[cid]:
                members[cid].append(v)
                member_of[v] = cid
            else:
                crowd = members[cid]
                slot = below(len(crowd))
                if fit_count[crowd[slot]] <= 1:
                    # Don't displace a node that fits nowhere else while a
                    # relocatable one is at hand; keeps tight instances from
                    # cycling.
                    for _ in range(10):
                        alt = below(len(crowd))
                        if fit_count[crowd[alt]] > 1:
                            slot = alt
                            break
                evicted = crowd[slot]
                crowd[slot] = v
                member_of[evicted] = -1
                member_of[v] = cid
                queue.append(evicted)
    return Partition(member_of)


@contextmanager
def _buffered_below(rng):
    """Yield `below(k)`, equal to `int(rng.integers(k))` for 1 <= k < 2**32
    and consuming the same 32-bit words of `rng`, bit for bit.

    Words come from `rng` in blocks of 4096, a half word cached by the bit
    generator first, and each draw applies numpy's Lemire step to them.
    One `itertools.chain.from_iterable` over the blocks hands out the
    words, so a read runs Python code only when a block is used up and
    the next one is drawn. `below.word()` reads the next word itself, for
    a loop that applies the step inline: `m = word() * k`, then
    `_lemire_redraw` when m's low word falls below k; for k == 2 the
    threshold is 0, so `word() >> 31` is `below(2)`.
    k == 1 returns 0 without a word, as numpy does. On exit `rng` is put
    back in its state from before the last block and draws again only the
    words of it that were used, so it ends where the scalar draws would
    have left it, whichever of `below` and `word` read them.
    """
    block = [None, iter(())]  # rng's state before the block, its unread words

    def blocks():
        while True:
            block[0] = rng.bit_generator.state
            block[1] = iter(rng.integers(0, 1 << 32, size=4096, dtype=np.uint32).tolist())
            yield block[1]

    word = itertools.chain.from_iterable(blocks()).__next__

    def below(k):
        if k == 1:
            return 0
        m = word() * k
        if m & 0xFFFFFFFF < k:
            m = _lemire_redraw(m, k, word)
        return m >> 32

    below.word = word
    try:
        yield below
    finally:
        if block[0] is not None:
            rng.bit_generator.state = block[0]
            rng.integers(0, 1 << 32, size=4096 - length_hint(block[1]), dtype=np.uint32)


def _lemire_redraw(m, k, word):
    """The rare end of numpy's Lemire step for `m = word() * k` whose low
    word is below k: draw again while the low word is below 2**32 mod k.
    The draw is `m >> 32` of the product returned."""
    threshold = ((1 << 32) - k) % k
    while m & 0xFFFFFFFF < threshold:
        m = word() * k
    return m


def _rewiring_lists(graph, member, num_communities, inv_deg):
    """The starting state of `rewire_to_mixing`'s edge lists, built with
    array operations in the order a loop over `graph.edges` would build it.

    Returns the inter- and intra-community edge indices into
    `graph.edges`, ascending; pos[i], edge i's slot in one of those lists;
    by_comm[c], the inter edges with an end in community c, ascending;
    cpos[2i] and cpos[2i+1], edge i's slots in by_comm of its first and
    second endpoint's community; and the sum over inter edges (u, v) of
    inv_deg[u] + inv_deg[v].
    """
    us, vs = graph.edge_ends()
    m = len(us)
    member = np.asarray(member)
    cu, cv = member[us], member[vs]
    is_inter = cu != cv
    inter = np.flatnonzero(is_inter)
    # cumsum adds left to right, as the loop would.
    inv = np.array(inv_deg)
    ratio_sum = float(np.cumsum(inv[us[inter]] + inv[vs[inter]])[-1]) if len(inter) else 0.0
    pos = np.empty(m, dtype=np.int64)
    pos[inter] = np.arange(len(inter))
    pos[~is_inter] = np.arange(m - len(inter))
    # Each inter edge's two ends, in edge order, grouped by community.
    ends = np.column_stack((cu[inter], cv[inter])).ravel()
    order = np.argsort(ends, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=num_communities))))
    cpos = np.zeros(2 * m, dtype=np.int64)
    cpos[(2 * inter[:, None] + [0, 1]).ravel()[order]] = np.arange(len(ends)) - starts[ends[order]]
    # Every list takes its ints from one table of m int objects, so the
    # lists hold no per-entry copies.
    ids = np.arange(m).astype(object)
    grouped = ids[inter[order // 2]].tolist()
    by_comm = [grouped[lo:hi] for lo, hi in itertools.pairwise(starts.tolist())]
    inter_idx, intra_idx = ids[inter].tolist(), ids[~is_inter].tolist()
    return inter_idx, intra_idx, ids[pos].tolist(), by_comm, ids[cpos].tolist(), ratio_sum


def rewire_to_mixing(graph: Graph, planted: Partition, config: LfrConfig, rng) -> Graph:
    """Degree-preserving double-edge swaps until the per-node average
    inter-community link fraction is within mixing_tolerance of config.mu.

    Emits MixingToleranceWarning (and returns the best-effort graph) if the
    swap budget runs out first.

    Picks are drawn with `_buffered_below`: the swaps, the result and the
    state `rng` is left in are those of one scalar `int(rng.integers(k))`
    per pick. The loop applies the Lemire step to `below.word()` inline,
    with the same words and the same redraws, and reads each coin as
    `word() >> 31`, which is `below(2)`.

    Edge e is kept as its two ends, eu[e] < ev[e], and the edge set as the
    keys u * n + v, one key per (u, v) pair, so the membership tests and
    the swaps are those of a set of (u, v) tuples.

    The swap loop has one branch per direction, and each knows the classes
    of the edges it drops and adds. That is why it skips checks, and why
    its Δ equals, to the bit, the generic sum that starts at 0.0, subtracts
    1/k_u + 1/k_v for each dropped inter edge (u, v) and adds it for each
    new inter edge; `tests/oracles.py::rewire_direct` keeps that form.
    - Raising: (a, b) and (c, d) are intra, and a and c lie in different
      communities, so the four nodes are distinct, and (a, c) and (b, d)
      are both inter: Δ = (1/k_a + 1/k_c) + (1/k_b + 1/k_d).
    - Lowering: (a, b) and (c, d) are inter, and a and c lie in the
      focus community, so a ≠ d and b ≠ c. Only a == c (j == i among
      them) or b == d repeats a node. (a, c) is intra, and (b, d) is inter
      exactly when b and d lie in different communities:
      Δ = -(1/k_a + 1/k_b) - (1/k_c + 1/k_d), plus 1/k_b + 1/k_d then.
    Float addition commutes and 0.0 ± x is exact, so both forms give the
    same bits. The list bookkeeping drops i then j and adds i then j, as
    one generic drop and add per edge would.
    """
    if planted.node_count != graph.node_count:
        raise ValueError("partition does not cover the graph's node set")
    n = graph.node_count
    m = graph.edge_count
    limit = mu_limit(n, max(planted.community_sizes))
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

    # ratio_sum tracks sum over nodes of ext(v)/deg(v); mu_hat = ratio_sum/active.
    # Inter-community edges are also indexed by incident community (by_comm):
    # lets the reduction direction pick partners that are guaranteed to close
    # an intra-community edge.
    inter_idx, intra_idx, pos, by_comm, cpos, ratio_sum = _rewiring_lists(
        graph, member, planted.num_communities, inv_deg
    )
    current_gap = abs(ratio_sum / active - target)
    if current_gap <= tol:
        return graph

    # Built after the helper has freed its arrays, which keeps them from
    # raising the peak memory.
    us, vs = graph.edge_ends()
    keys = set((us * n + vs).tolist())
    eu, ev = node_lists(n, us, vs)
    del us, vs

    budget = 50 * m if config.max_rewire_iterations is None else config.max_rewire_iterations
    # Drive the gap well inside the tolerance band rather than stopping at
    # its edge; the budget is checked against the full tolerance below.
    inner_tol = 0.25 * tol
    with _buffered_below(rng) as below:
        word = below.word
        for _ in range(budget):
            if ratio_sum / active < target:
                # Break two intra edges of different communities into two
                # inter edges.
                k = len(intra_idx)
                if k < 2:
                    break
                x = word() * k
                if x & 0xFFFFFFFF < k:
                    x = _lemire_redraw(x, k, word)
                i = intra_idx[x >> 32]
                x = word() * k
                if x & 0xFFFFFFFF < k:
                    x = _lemire_redraw(x, k, word)
                j = intra_idx[x >> 32]
                a, b = eu[i], ev[i]
                c, d = eu[j], ev[j]
                if member[a] == member[c]:
                    continue
                if word() >> 31:
                    c, d = d, c
                p, q = (a, c) if a < c else (c, a)
                r, t = (b, d) if b < d else (d, b)
                new1 = p * n + q
                new2 = r * n + t
                if new1 in keys or new2 in keys:
                    continue
                delta = (inv_deg[a] + inv_deg[c]) + (inv_deg[b] + inv_deg[d])
                new_gap = abs((ratio_sum + delta) / active - target)
                if new_gap >= current_gap:
                    continue
                for e in (i, j):
                    slot = pos[e]
                    last = intra_idx.pop()
                    if last != e:
                        intra_idx[slot] = last
                        pos[last] = slot
                for e, u, v in ((i, p, q), (j, r, t)):
                    pos[e] = len(inter_idx)
                    inter_idx.append(e)
                    lst = by_comm[member[u]]
                    cpos[2 * e] = len(lst)
                    lst.append(e)
                    lst = by_comm[member[v]]
                    cpos[2 * e + 1] = len(lst)
                    lst.append(e)
            else:
                # Pair an inter edge with another inter edge touching the same
                # community, closing one intra edge there.
                k = len(inter_idx)
                if k < 2:
                    break
                x = word() * k
                if x & 0xFFFFFFFF < k:
                    x = _lemire_redraw(x, k, word)
                i = inter_idx[x >> 32]
                a, b = eu[i], ev[i]
                if word() >> 31:
                    a, b = b, a
                focus = member[a]
                pool = by_comm[focus]
                k = len(pool)
                if k < 2:
                    continue
                x = word() * k
                if x & 0xFFFFFFFF < k:
                    x = _lemire_redraw(x, k, word)
                j = pool[x >> 32]
                c, d = eu[j], ev[j]
                if member[c] != focus:
                    c, d = d, c
                if a == c or b == d:
                    continue
                p, q = (a, c) if a < c else (c, a)
                r, t = (b, d) if b < d else (d, b)
                new1 = p * n + q
                new2 = r * n + t
                if new1 in keys or new2 in keys:
                    continue
                delta = -(inv_deg[a] + inv_deg[b]) - (inv_deg[c] + inv_deg[d])
                new2_inter = member[b] != member[d]
                if new2_inter:
                    delta += inv_deg[b] + inv_deg[d]
                new_gap = abs((ratio_sum + delta) / active - target)
                if new_gap >= current_gap:
                    continue
                for e in (i, j):
                    slot = pos[e]
                    last = inter_idx.pop()
                    if last != e:
                        inter_idx[slot] = last
                        pos[last] = slot
                    cid = member[eu[e]]
                    lst = by_comm[cid]
                    slot = cpos[2 * e]
                    last = lst.pop()
                    if last != e:
                        lst[slot] = last
                        # The moved edge is inter, so exactly one end is in cid.
                        cpos[2 * last + (member[eu[last]] != cid)] = slot
                    cid = member[ev[e]]
                    lst = by_comm[cid]
                    slot = cpos[2 * e + 1]
                    last = lst.pop()
                    if last != e:
                        lst[slot] = last
                        cpos[2 * last + (member[eu[last]] != cid)] = slot
                pos[i] = len(intra_idx)
                intra_idx.append(i)
                if new2_inter:
                    pos[j] = len(inter_idx)
                    inter_idx.append(j)
                    lst = by_comm[member[r]]
                    cpos[2 * j] = len(lst)
                    lst.append(j)
                    lst = by_comm[member[t]]
                    cpos[2 * j + 1] = len(lst)
                    lst.append(j)
                else:
                    pos[j] = len(intra_idx)
                    intra_idx.append(j)
            keys.discard(eu[i] * n + ev[i])
            keys.discard(eu[j] * n + ev[j])
            eu[i], ev[i] = p, q
            eu[j], ev[j] = r, t
            keys.add(new1)
            keys.add(new2)
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
    result = Graph(n, np.array([eu, ev], dtype=np.int64).T)
    assert result.degrees() == deg
    return result


def _grow_largest(sizes, need, lo, hi):
    """Raise the largest community to `need`, shaving the excess off the
    tail without taking any community below `lo`. If the excess outlasts
    that, the smallest communities are dropped until the rest fit, and
    the smallest one kept, other than the largest, takes up what is then
    missing, within `hi`."""
    sizes = sorted(sizes, reverse=True)
    delta = need - sizes[0]
    sizes[0] = need
    for i in range(len(sizes) - 1, 0, -1):
        if delta == 0:
            break
        take = min(delta, sizes[i] - lo)
        sizes[i] -= take
        delta -= take
    while delta > 0 and len(sizes) > 1:
        delta -= sizes.pop()
    sizes[-1] -= delta
    if len(sizes) == 1 or sizes[-1] > hi:
        raise ValueError(
            f"cannot host the highest-degree node: it needs a community of "
            f"{need} but the size budget cannot provide one"
        )
    return sizes


def generate(config: LfrConfig) -> PlantedNetwork:
    """Run the full three-step generation. Deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    degrees = sample_powerlaw_degrees(config, rng)
    resolved = config.with_resolved_bounds(min(degrees))
    sizes = sample_community_sizes(resolved, rng)
    # The bounds guarantee a large-enough community is *allowed* for each
    # node; make sure the drawn sizes can host all of them at once,
    # resampling (then growing the largest community) if not.
    int_deg = [internal_stub_count(d, resolved.mu) for d in degrees]
    if _fit_shortfall(int_deg, sizes):
        need = max(int_deg) + 1
        if need > resolved.max_community:
            raise ValueError(
                f"highest-degree node needs a community of {need}, above "
                f"max_community={resolved.max_community}"
            )
        for _ in range(50):
            sizes = sample_community_sizes(resolved, rng)
            if not _fit_shortfall(int_deg, sizes):
                break
        else:
            if max(sizes) < need:
                sizes = _grow_largest(sizes, need, resolved.min_community, resolved.max_community)
            shortfall = _fit_shortfall(int_deg, sizes)
            if shortfall:
                raise ValueError(f"community sizes cannot host every node: {shortfall}")
    skeleton = configuration_model(degrees, rng)
    planted = assign_communities(degrees, sizes, resolved.mu, rng)
    graph = rewire_to_mixing(skeleton, planted, resolved, rng)
    report = measured_mixing(graph, planted)
    return PlantedNetwork(
        graph=graph,
        planted=planted,
        realized_mu=report.per_node,
        realized_mu_global=report.global_fraction,
        mu_limit=mu_limit(config.n, max(planted.community_sizes)),
        config=resolved,
    )
