import heapq
import random
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from commbench.algorithms import (
    ALGORITHMS,
    AlgoParams,
    ConvergenceWarning,
    fastgreedy,
    infomap,
    label_propagation,
    leading_eigenvector,
    louvain,
    markov_cluster,
    modularity_opt,
    radetal,
    random_walk,
    spinglass,
    walktrap,
)
from commbench.algorithms.divisive import _removal_order
from commbench.algorithms.information import description_length
from commbench.algorithms.modularity_opt import _local_moves
from commbench.algorithms.random_walk import (
    _column_normalize,
    _mcl_step,
    _merged_sigma_floor,
    _walk_power,
)
from commbench.algorithms.spectral import _DENSE_MAX_SIZE, _GroupMatrix, _try_split
from commbench.graph import (
    Graph,
    Partition,
    connected_components,
)
from commbench.harness import SweepSpec, run_sweep
from commbench.lfr import LfrConfig, generate
from commbench.metrics import modularity, partition_nmi

import pins
from conftest import clique_edges, make_clique_pair, random_graph, ring_of_cliques
from oracles import (
    communities,
    connected_partitions,
    fastgreedy_direct,
    map_equation_direct,
    markov_cluster_direct,
    max_modularity_bruteforce,
    max_modularity_connected,
    modularity_direct,
    radetal_direct,
    removal_order_direct,
    spinglass_direct,
    walktrap_direct,
)

PARAMS = AlgoParams(seed=11)

TWO_CLIQUES = Partition([0] * 5 + [1] * 5)
RING_TRIANGLES = Partition([i // 3 for i in range(12)])


# Seeded LFR graphs on which fastgreedy's heap rebuild fires once each
# (counted once with a temporary counter on the merge engine's heapq calls).
# On n400, a rebuild that keeps only the entries whose keys are still exact,
# dropping those that live pairs keep as lower bounds, changes fastgreedy's
# partition.
ORACLE_LFR = [
    LfrConfig(n=300, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.4, seed=1),
    LfrConfig(n=400, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.5, seed=2),
]


# Small LFR networks on which walktrap_direct's closest sigma gap is at
# least 2e-5, far above rounding.
WALKTRAP_LFR = [
    LfrConfig(n=100, avg_degree=8, max_degree=24, gamma=2, beta=1, mu=0.3, seed=1),
    LfrConfig(n=150, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.4, seed=2),
    LfrConfig(n=200, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.5, seed=3),
    LfrConfig(n=120, avg_degree=8, max_degree=24, gamma=2, beta=1, mu=0.6, seed=5),
]


def sparse_graph_with_isolated_nodes(n, p, seed):
    g = random_graph(n, p, random.Random(seed))
    assert 0 in g.degrees()
    return g


def cliques_with_tree(seed):
    """Two bridged cliques with a random tree hung on them: every leaf edge
    has an infinite coefficient, and the tree edges have no triangles."""
    rng = random.Random(seed)
    edges = clique_edges(range(6)) + clique_edges(range(6, 11))
    edges.append((5, 6))
    n = 11
    for _ in range(40):
        edges.append((rng.randrange(n), n))
        n += 1
    return Graph(n, edges)


def two_hubs(degree, shared):
    """Adjacent hubs 0 and 1 of the given degree with `shared` common
    neighbours; their other neighbours are pendant leaves."""
    edges = [(0, 1)]
    edges += [(h, 2 + i) for i in range(shared) for h in (0, 1)]
    leaves = degree - 1 - shared
    edges += [(h, 2 + shared + h * leaves + i) for h in (0, 1) for i in range(leaves)]
    return Graph(2 + shared + 2 * leaves, edges)


def caterpillar(spine, legs):
    """A path of `spine` nodes, each with `legs` leaves: twin leaves tie
    in every walk distance."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph(spine * (1 + legs), edges)


def random_connected_graph(n, rng):
    """G(n, p) draws at p ~ U(0.25, 0.7) until one is connected (n >= 2)."""
    while True:
        g = random_graph(n, rng.uniform(0.25, 0.7), rng)
        if connected_components(g).num_communities == 1:
            return g


class TestAlgoParams:
    @pytest.mark.parametrize(
        "field",
        [
            "walktrap_t", "eigen_max_iterations", "spinglass_max_spins",
            "sa_sweeps_per_temperature", "lp_max_rounds", "mcl_max_iterations",
        ],
    )
    def test_rejects_count_below_one(self, field):
        AlgoParams(**{field: 1}).validate()
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            AlgoParams(**{field: 0}).validate()

    @pytest.mark.parametrize("low", [0.0, -0.5])
    def test_rejects_non_positive_min_temperature(self, low):
        with pytest.raises(ValueError, match="sa_min_temperature must be positive"):
            AlgoParams(sa_min_temperature=low).validate()

    @pytest.mark.parametrize("initial", [0.01, 0.005])
    def test_rejects_initial_temperature_not_above_min(self, initial):
        with pytest.raises(ValueError, match="sa_initial_temperature must be > sa_min_temperature"):
            AlgoParams(sa_initial_temperature=initial, sa_min_temperature=0.01).validate()


class TestRadetal:
    def test_disjoint_cliques(self, two_five_cliques):
        assert radetal(two_five_cliques) == TWO_CLIQUES

    def test_bridge_has_minimal_coefficient(self, bridged_five_cliques):
        g = bridged_five_cliques
        rows = g.row_view
        coeffs = {}
        for u, v in g.edges:
            tri = len(set(rows[u]) & set(rows[v]))
            coeffs[(u, v)] = (tri + 1) / (min(len(rows[u]), len(rows[v])) - 1)
        assert coeffs[(4, 5)] == 0.25
        assert all(c > 0.25 for e, c in coeffs.items() if e != (4, 5))
        assert radetal(g) == TWO_CLIQUES

    def test_complete_graph_stays_whole(self):
        g = Graph(6, clique_edges(range(6)))
        assert radetal(g).num_communities == 1
        best_q, _ = max_modularity_connected(g)
        assert best_q <= 0.0 + 1e-12

    @pytest.mark.parametrize("config", ORACLE_LFR, ids=lambda c: f"n{c.n}")
    def test_matches_direct_oracle_on_lfr(self, config):
        g = generate(config).graph
        assert radetal(g) == radetal_direct(g)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_matches_direct_oracle_on_many_components(self, seed):
        # Sparse random graphs: several starting components, isolated nodes.
        g = sparse_graph_with_isolated_nodes(120, 0.025, seed)
        assert connected_components(g).num_communities >= 3
        assert radetal(g) == radetal_direct(g)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_matches_direct_oracle_with_pendant_edges(self, seed):
        g = cliques_with_tree(seed)
        assert sum(1 for d in g.degrees() if d == 1) >= 10
        assert radetal(g) == radetal_direct(g)

    @pytest.mark.parametrize("count, size", [(4, 4), (6, 5), (5, 3)])
    def test_matches_direct_oracle_on_ring_of_cliques(self, count, size):
        # Every coefficient ties with its images under rotation.
        g = ring_of_cliques([size] * count)
        got = radetal(g)
        assert got == radetal_direct(g)
        assert got == Partition([v // size for v in range(count * size)])

    @pytest.mark.parametrize("build", [
        lambda: ring_of_cliques([4] * 4),
        lambda: ring_of_cliques([5] * 6),
        lambda: cliques_with_tree(6),
        lambda: sparse_graph_with_isolated_nodes(120, 0.025, 3),
        lambda: two_hubs(12, shared=4),
        lambda: two_hubs(9, shared=8),
    ], ids=["ring4x4", "ring6x5", "pendant", "components", "hubs", "hubs-all-shared"])
    def test_removal_order_matches_direct_oracle(self, build):
        # Step for step, ties included: the rings tie every coefficient
        # with its rotations, and the hub graphs tie every leaf at infinity.
        g = build()
        assert _removal_order(g) == removal_order_direct(g)

    def test_removal_order_matches_pinned_digest(self):
        assert pins.removal_order() == pins.pinned("pinned_removal_order.json")

    def test_memory_stays_linear_on_adjacent_hubs(self):
        # Coefficient codes are kept only for the (t + 1, d) pairs that
        # occur: a table over every pair would take 4000^2 entries here.
        g = two_hubs(4000, shared=100)
        g.row_view
        tracemalloc.start()
        try:
            radetal(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * g.edge_count


class TestFastgreedy:
    def test_disjoint_cliques(self, two_five_cliques):
        assert fastgreedy(two_five_cliques) == TWO_CLIQUES

    def test_ring_of_triangles(self, ring_of_triangles):
        got = fastgreedy(ring_of_triangles)
        assert partition_nmi(RING_TRIANGLES, got) == 1.0
        best_q, best = max_modularity_connected(ring_of_triangles)
        assert partition_nmi(best, RING_TRIANGLES) == 1.0
        assert modularity(ring_of_triangles, got) == pytest.approx(best_q, abs=1e-12)

    @pytest.mark.parametrize("config", ORACLE_LFR, ids=lambda c: f"n{c.n}")
    def test_matches_direct_oracle_on_lfr(self, config):
        g = generate(config).graph
        assert fastgreedy(g) == fastgreedy_direct(g)

    @pytest.mark.parametrize("count, size", [(4, 4), (6, 5), (20, 4)])
    def test_matches_direct_oracle_on_ring_of_cliques(self, count, size):
        # Delta Q ties at every step, so the (lo, hi) rule picks each merge.
        g = ring_of_cliques([size] * count)
        assert fastgreedy(g) == fastgreedy_direct(g)

    @pytest.mark.parametrize("n, p, seed", [(150, 0.02, 8), (400, 0.01, 3)])
    def test_matches_direct_oracle_on_many_components(self, n, p, seed):
        # Sparse random graphs: several starting components, isolated nodes.
        g = sparse_graph_with_isolated_nodes(n, p, seed)
        assert fastgreedy(g) == fastgreedy_direct(g)

    def test_single_edge_merges(self):
        g = Graph(2, [(0, 1)])
        assert fastgreedy(g).num_communities == 1
        assert modularity_direct(g, Partition([0, 0])) == 0.0
        assert modularity_direct(g, Partition([0, 1])) == -0.5

    def test_merge_engine_memberships_match_pinned_digests(self):
        assert pins.agglomeration() == pins.pinned("pinned_agglomeration.json")

    def test_merge_engine_rebuilt_after_every_merge(self, monkeypatch):
        """A heap rebuilt from the current entries after every merge keeps
        fastgreedy's lower-bound entries and walktrap's re-keyed ones, so
        both detectors still match their direct oracles and the pinned
        digests."""
        rebuilds = []

        def heapify(heap):
            rebuilds.append(len(heap))
            heapq.heapify(heap)

        monkeypatch.setattr(modularity_opt, "_REBUILD_SLACK", -(10**9))
        monkeypatch.setattr(modularity_opt, "heapq", SimpleNamespace(
            heapify=heapify, heappush=heapq.heappush, heappop=heapq.heappop,
            heapreplace=heapq.heapreplace,
        ))

        def rebuilt_every_merge(detect, g):
            rebuilds.clear()
            got = detect(g)
            merges = g.node_count - connected_components(g).num_communities
            assert len(rebuilds) == 1 + merges  # the first heapify, then one per merge
            return got

        for config in ORACLE_LFR:
            g = generate(config).graph
            assert rebuilt_every_merge(fastgreedy, g) == fastgreedy_direct(g)
        for config in WALKTRAP_LFR[:2]:
            g = generate(config).graph
            want, _ = walktrap_direct(g, PARAMS.walktrap_t)
            assert rebuilt_every_merge(lambda g: walktrap(g, PARAMS), g) == want
        assert pins.agglomeration() == pins.pinned("pinned_agglomeration.json")



class TestMergeEngineCallbacks:
    @pytest.mark.parametrize(
        "detect", [fastgreedy, lambda g: walktrap(g, PARAMS)], ids=["fastgreedy", "walktrap"]
    )
    def test_callbacks_get_the_keys_the_engine_holds(self, monkeypatch, detect):
        """Beside a map of each live pair's key, rebuilt from the heap and
        from what `exact` and `score` return: `merged` gets the merged
        pair's key and, in `gone`, each other pair of the absorbed
        community with its key; `score` gets the pair's entry, or None
        exactly where the pair is new to the survivor."""
        g = generate(WALKTRAP_LFR[0]).graph
        n = g.node_count
        keys = {}
        seen = {"gone": 0, "entry": 0, "none": 0}
        run = modularity_opt._Agglomeration.run

        def recording_run(agg, heap, score, exact, merged):
            keys.update((pair, key) for key, pair in heap)

            def rec_exact(key, pair):
                assert keys[pair] == key
                rekey = exact(key, pair)
                if rekey is not None:
                    keys[pair] = rekey
                return rekey

            def rec_merged(a, b, key, gone):
                assert keys.pop(min(a, b) * n + max(a, b)) == key
                held = {}
                for pair in [pair for pair in keys if b in divmod(pair, n)]:
                    lo, hi = divmod(pair, n)
                    held[lo + hi - b] = keys.pop(pair)
                assert gone == held
                seen["gone"] += len(gone)
                return merged(a, b, key, gone)

            def rec_score(a, x, entry):
                pair = min(a, x) * n + max(a, x)
                assert entry == ((keys[pair], pair) if pair in keys else None)
                seen["none" if entry is None else "entry"] += 1
                keys[pair] = key = score(a, x, entry)
                return key

            return run(agg, heap, rec_score, rec_exact, rec_merged)

        monkeypatch.setattr(modularity_opt._Agglomeration, "run", recording_run)
        detect(g)
        assert min(seen.values()) > 0


class TestLouvain:
    def test_disjoint_cliques(self, two_five_cliques):
        assert louvain(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_ring_of_triangles(self, ring_of_triangles):
        got = louvain(ring_of_triangles, PARAMS)
        assert partition_nmi(RING_TRIANGLES, got) == 1.0

    def test_never_below_singleton_modularity(self):
        rng = random.Random(2)
        for seed in range(8):
            g = random_connected_graph(rng.randrange(4, 12), rng)
            q_single = modularity(g, Partition(range(g.node_count)))
            q_out = modularity(g, louvain(g, AlgoParams(seed=seed)))
            assert q_out >= q_single - 1e-12


class TestSpinglass:
    def test_disjoint_cliques_majority(self, two_five_cliques):
        hits = sum(
            spinglass(two_five_cliques, AlgoParams(seed=s)) == TWO_CLIQUES
            for s in range(20)
        )
        assert hits > 10

    def test_ring_majority(self, ring_of_triangles):
        hits = sum(
            partition_nmi(RING_TRIANGLES, spinglass(ring_of_triangles, AlgoParams(seed=s))) == 1.0
            for s in range(20)
        )
        assert hits > 10

    def test_never_beats_exhaustive_optimum(self):
        rng = random.Random(9)
        for seed in range(3):
            g = random_connected_graph(7, rng)
            best_q, _ = max_modularity_bruteforce(g)
            q_out = modularity(g, spinglass(g, AlgoParams(seed=seed)))
            assert q_out <= best_q + 1e-12

    @pytest.mark.parametrize(
        "graph, params",
        [
            pytest.param(lambda: generate(ORACLE_LFR[0]).graph, AlgoParams(seed=3), id="lfr-n300"),
            pytest.param(
                lambda: generate(
                    LfrConfig(n=1000, avg_degree=15, max_degree=45, gamma=2, beta=1, mu=0.5, seed=4)
                ).graph,
                AlgoParams(seed=5),
                id="lfr-n1000",
            ),
            pytest.param(
                lambda: sparse_graph_with_isolated_nodes(150, 0.02, 8), AlgoParams(seed=1),
                id="isolated-nodes",
            ),
            pytest.param(
                lambda: make_clique_pair(6, bridged=True), AlgoParams(seed=2),
                id="fewer-nodes-than-spins",
            ),
        ]
        + [
            pytest.param(
                lambda: generate(ORACLE_LFR[1]).graph,
                AlgoParams(seed=6, spinglass_max_spins=q),
                id=f"spins-{q}",
            )
            for q in (1, 2, 16, 17)
        ],
    )
    def test_matches_direct_oracle(self, graph, params):
        # Bit-length draws near powers of two (1, 2, 16, 17 spins), nodes
        # with no neighbour to copy a spin from, and q capped at n = 12.
        g = graph()
        assert spinglass(g, params) == spinglass_direct(g, params)


class TestLeadingEigenvector:
    def test_disjoint_cliques(self, two_five_cliques):
        assert leading_eigenvector(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_complete_graph_indivisible(self):
        g = Graph(6, clique_edges(range(6)))
        assert leading_eigenvector(g, PARAMS).num_communities == 1
        best_q, _ = max_modularity_bruteforce(g)
        assert best_q <= 0.0 + 1e-12

    def test_split_matches_dense_eigendecomposition(self):
        g = make_clique_pair(4, bridged=True)
        n, m = g.node_count, g.edge_count
        adjacency = np.zeros((n, n))
        for u, v in g.edges:
            adjacency[u, v] = adjacency[v, u] = 1.0
        deg = np.asarray(g.degrees(), dtype=float)
        b = adjacency - np.outer(deg, deg) / (2.0 * m)
        vals, vecs = np.linalg.eigh(b)
        lead = vecs[:, np.argmax(vals)]
        oracle_split = frozenset(np.flatnonzero(lead >= 0).tolist())
        got = leading_eigenvector(g, PARAMS)
        sides = {frozenset(c) for c in communities(got)}
        assert oracle_split in sides or frozenset(range(n)) - oracle_split in sides
        assert got == Partition([0] * 4 + [1] * 4)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_group_eigenpair_matches_dense_oracle(self, seed):
        # Random subgroups on both sides of the dense/Lanczos size cut-off:
        # the leading eigenvalue equals the dense generalized B's, and an
        # accepted split is that eigenvector's sign pattern.
        g = generate(
            LfrConfig(n=250, avg_degree=8, max_degree=24, gamma=2.0, beta=2.0, mu=0.3, seed=seed)
        ).graph
        n, two_m = g.node_count, 2.0 * g.edge_count
        a = np.zeros((n, n))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        deg = a.sum(axis=1)
        b = a - np.outer(deg, deg) / two_m
        adjacency = sp.csr_matrix(a)
        rng = np.random.default_rng(seed)
        params = AlgoParams(seed=seed)
        for size in (2, 17, _DENSE_MAX_SIZE, _DENSE_MAX_SIZE + 1, 120, n):
            group = np.sort(rng.choice(n, size=size, replace=False))
            bg = b[np.ix_(group, group)]
            bg -= np.diag(bg.sum(axis=1))
            top = np.linalg.eigvalsh(bg)[-1]
            leading, _ = _GroupMatrix(adjacency, deg, two_m, group).leading_eigenpair(
                rng.normal(size=size), params
            )
            assert leading == pytest.approx(top, abs=1e-8)
            x = np.linalg.eigh(bg)[1][:, -1]
            s = np.where(x >= 0.0, 1.0, -1.0)
            divisible = top > 1e-10 and abs(s.sum()) < size and s @ bg @ s / (2 * two_m) > 1e-12
            split = _try_split(adjacency, deg, two_m, group, params, rng)
            if not divisible:
                assert split is None
                continue
            sides = {frozenset(group[s > 0].tolist()), frozenset(group[s < 0].tolist())}
            assert {frozenset(side.tolist()) for side in split} == sides

    def test_eigensolver_cap_warns_and_returns_partition(self):
        g = generate(
            LfrConfig(n=500, avg_degree=10, max_degree=30, gamma=2.0, beta=2.0, mu=0.3, seed=4)
        ).graph
        with pytest.warns(ConvergenceWarning, match="eigsh did not converge"):
            got = leading_eigenvector(g, AlgoParams(seed=1, eigen_max_iterations=1))
        assert isinstance(got, Partition)
        assert got.node_count == g.node_count

    def test_rejects_non_positive_iteration_cap(self, two_five_cliques):
        with pytest.raises(ValueError, match="eigen_max_iterations"):
            leading_eigenvector(two_five_cliques, AlgoParams(eigen_max_iterations=0))

    def test_pinned_sweep_unit_converges(self):
        # The n=1000 unit of the reduced sweep that the shifted power
        # iteration left unconverged, at Q = 0.302332 with 10 communities.
        spec = SweepSpec(
            node_counts=(1000,), avg_degrees=(5,), gammas=(2.0,), betas=(2.0,),
            mu_grid=(0.4, 0.4, 0.1), replicates=1,
            algorithms=("leading_eigenvector",), master_seed=7,
        )
        (record,) = run_sweep(spec).records
        assert "nonconverged" not in record.flags
        assert record.modularity >= 0.302332


class TestWalktrap:
    def test_disjoint_cliques(self, two_five_cliques):
        assert walktrap(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_ring_of_triangles(self, ring_of_triangles):
        got = walktrap(ring_of_triangles, PARAMS)
        assert partition_nmi(RING_TRIANGLES, got) == 1.0

    def test_two_node_path_merges(self):
        g = Graph(2, [(0, 1)])
        assert walktrap(g, PARAMS).num_communities == 1

    def test_isolated_nodes_stay_singletons(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2)])
        got = walktrap(g, PARAMS)
        assert got.membership[3] != got.membership[4]
        assert got.community_sizes.count(1) == 2

    @pytest.mark.parametrize("t", [1, 4])
    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: generate(ORACLE_LFR[0]).graph, id="lfr-n300"),
            pytest.param(lambda: sparse_graph_with_isolated_nodes(150, 0.02, 8), id="isolated"),
        ],
    )
    def test_walk_power_matches_dense_matrix_power(self, graph, t):
        g = graph()
        deg = np.asarray(g.degrees(), dtype=float)
        inv_d = np.divide(1.0, deg, out=np.zeros(len(deg)), where=deg > 0)
        walk = np.zeros((g.node_count, g.node_count))
        for u, v in g.edges:
            walk[u, v] = inv_d[u]
            walk[v, u] = inv_d[v]
        got = _walk_power(g, inv_d, t)
        np.testing.assert_allclose(got, np.linalg.matrix_power(walk, t), rtol=0, atol=1e-15)
        assert not got[deg == 0].any()

    def test_walk_power_blocks_keep_the_bits(self, monkeypatch):
        """Column blocks of any width, the last one partial, give the bits
        of whole-matrix products."""
        g = generate(ORACLE_LFR[0]).graph
        deg = np.asarray(g.degrees(), dtype=float)
        inv_d = 1.0 / deg
        walk = g.adjacency().multiply(inv_d[:, None]).tocsr()
        want = walk.toarray()
        for _ in range(3):
            want = walk @ want
        for width in (1, 7, 128, 300, 1000):
            monkeypatch.setattr(random_walk, "_BLOCK_COLUMNS", width)
            assert np.array_equal(_walk_power(g, inv_d, 4), want), width

    @pytest.mark.parametrize("config", WALKTRAP_LFR, ids=lambda c: f"n{c.n}-mu{c.mu}")
    def test_matches_direct_oracle_on_lfr(self, config):
        g = generate(config).graph
        want, closest = walktrap_direct(g, PARAMS.walktrap_t)
        assert closest > 1e-6  # no step's choice is left to rounding
        assert walktrap(g, PARAMS) == want

    @pytest.mark.parametrize("sizes", [(3, 4, 5, 6), (3, 4, 5, 6, 7, 8), (6, 3, 7, 4, 5)])
    def test_matches_direct_oracle_on_ring_of_unequal_cliques(self, sizes):
        # sigma ties here only between twin nodes of one clique. The best
        # level keeps each clique whole, so it does not depend on which
        # twins a tie-break merges first.
        g = ring_of_cliques(sizes)
        want, _ = walktrap_direct(g, PARAMS.walktrap_t)
        clique = [i for i, size in enumerate(sizes) for _ in range(size)]
        assert len(set(zip(clique, want.membership))) == len(sizes)
        assert walktrap(g, PARAMS) == want

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: caterpillar(40, 2), id="caterpillar"),
            pytest.param(lambda: sparse_graph_with_isolated_nodes(400, 0.01, 3), id="isolated"),
            pytest.param(lambda: generate(ORACLE_LFR[1]).graph, id="lfr-n400"),
        ],
    )
    def test_deferred_scoring_merges_as_eager_scoring(self, monkeypatch, graph):
        """A floor of 0 makes walktrap compute every sigma right after its
        merge, as eager scoring does. The deferred default gives the same
        partition, also where sigma ties between twin leaves leave each
        choice to pair order, which re-keyed entries keep. No seed changes
        it."""
        g = graph()
        deferred = {walktrap(g, AlgoParams(seed=seed)) for seed in range(6)}
        assert len(deferred) == 1
        monkeypatch.setattr(random_walk, "_merged_sigma_floor", lambda *args: 0.0)
        assert {walktrap(g, PARAMS)} == deferred

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_merged_sigma_floor_never_exceeds_direct_sigma(self, data):
        """The floor of sigma(a + b, x) stays at or below the sigma computed
        from the merged mean, via a and via b, whether sigma(a, x) and
        sigma(a, b) come from a direct call or from a Ward update after
        a = a1 + a2, at extreme size ratios and with b on the segment from
        a to x, where the triangle inequality is tight."""
        n = data.draw(st.integers(1, 12), label="n")
        degrees = data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
        inv_d = np.array([1.0 / d if d else 0.0 for d in degrees])
        size_of = st.one_of(st.integers(1, 4), st.integers(10**5, 10**7))
        size_a1, size_a2, size_b, size_x = (
            data.draw(size_of, label=c) for c in ("a1", "a2", "b", "x")
        )

        def probability_row(label):
            row = np.array(data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n), label))
            return row / row.sum() if row.sum() > 0 else np.eye(n)[0]

        def direct(mean_p, mean_q, size_p, size_q):  # as walktrap computes it
            diff = mean_p - mean_q
            return size_p * size_q / (size_p + size_q) * float(diff @ (diff * inv_d)) / n

        def ward(s_1x, s_2x, s_12, size_1, size_2, size_x):
            return (
                (size_1 + size_x) * s_1x + (size_2 + size_x) * s_2x - size_x * s_12
            ) / (size_1 + size_2 + size_x)

        mean_a1, mean_x = probability_row("a1"), probability_row("x")
        # a2 near a1 makes sigma(a1, a2) the smallest, as for a merged pair.
        nearness = data.draw(st.floats(0, 1), label="a2 nearness")
        mean_a2 = (1 - nearness) * mean_a1 + nearness * probability_row("a2")
        profile_a = mean_a1 * size_a1 + mean_a2 * size_a2
        size_a = size_a1 + size_a2
        mean_a = profile_a / size_a
        if data.draw(st.booleans(), label="b on segment a-x"):
            mean_b = mean_a + data.draw(st.floats(0, 1), label="share") * (mean_x - mean_a)
        else:
            mean_b = probability_row("b")
        s_12 = direct(mean_a1, mean_a2, size_a1, size_a2)

        def after_a_merge(mean_y, size_y):
            s_1y = direct(mean_a1, mean_y, size_a1, size_y)
            s_2y = direct(mean_a2, mean_y, size_a2, size_y)
            if s_12 <= min(s_1y, s_2y) and data.draw(st.booleans(), label="ward"):
                return ward(s_1y, s_2y, s_12, size_a1, size_a2, size_y)
            return direct(mean_a, mean_y, size_a, size_y)

        s_ax = after_a_merge(mean_x, size_x)
        s_ab = after_a_merge(mean_b, size_b)
        s_bx = direct(mean_b, mean_x, size_b, size_x)
        merged = (profile_a + mean_b * size_b) / (size_a + size_b)
        want = direct(merged, mean_x, size_a + size_b, size_x)
        assert _merged_sigma_floor(s_ax, s_ab, size_a, size_b, size_x, n) <= want
        assert _merged_sigma_floor(s_bx, s_ab, size_b, size_a, size_x, n) <= want


# Small LFR networks for markov_cluster: on the "dense" ones at least one
# iteration runs as dense products, on the "sparse" ones none does.
MCL_LFR = {
    "dense-n300": LfrConfig(n=300, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.4, seed=1),
    "dense-n400": LfrConfig(n=400, avg_degree=10, max_degree=30, gamma=2, beta=1, mu=0.5, seed=2),
    "dense-n600": LfrConfig(n=600, avg_degree=6, max_degree=18, gamma=2, beta=1, mu=0.5, seed=4),
    "sparse-n300": LfrConfig(n=300, avg_degree=4, max_degree=12, gamma=2, beta=1, mu=0.3, seed=1),
    "sparse-n400": LfrConfig(n=400, avg_degree=3, max_degree=9, gamma=2, beta=1, mu=0.3, seed=1),
}


def mcl_start(g):
    """markov_cluster's first iterate: the column-normalized A + I."""
    return _column_normalize(g.adjacency() + sp.identity(g.node_count, format="csr"))


class TestMarkovCluster:
    def test_disjoint_cliques(self, two_five_cliques):
        assert markov_cluster(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_bridged_cliques_default_powers(self, bridged_five_cliques):
        assert markov_cluster(bridged_five_cliques, PARAMS) == TWO_CLIQUES

    def test_column_stochastic_at_every_iterate(self, bridged_five_cliques):
        """Drives the detector's own iteration through the dense and the
        sparse branch, on one column block and on three (the last one
        partial), for expansion 2 and 3."""
        lfr = generate(MCL_LFR["dense-n600"]).graph
        for g in (bridged_five_cliques, lfr):
            for expansion in (2, 3):
                params = AlgoParams(mcl_expansion=expansion)
                for dense in (False, True):
                    matrix = mcl_start(g)
                    for _ in range(12):
                        matrix = _mcl_step(matrix, params, dense=dense)
                        assert matrix.format == "csc"
                        sums = np.asarray(matrix.sum(axis=0)).ravel()
                        assert np.max(np.abs(sums - 1.0)) < 1e-12, (g.node_count, expansion, dense)

    def test_dense_and_sparse_steps_agree(self):
        """From the same iterate, both branches keep the same support and
        differ only in the last bits."""
        g = generate(MCL_LFR["dense-n600"]).graph
        matrix = mcl_start(g)
        for _ in range(6):
            sparse = _mcl_step(matrix, PARAMS, dense=False)
            dense = _mcl_step(matrix, PARAMS, dense=True)
            assert ((sparse != 0) != (dense != 0)).nnz == 0
            assert abs(sparse - dense).max() < 1e-12
            matrix = sparse

    @pytest.mark.parametrize(
        "name, expansion, takes_dense",
        [
            ("dense-n300", 2, True),
            ("dense-n600", 2, True),
            ("sparse-n300", 2, False),
            ("sparse-n400", 2, False),
            ("dense-n400", 3, True),
        ],
    )
    def test_matches_direct_oracle_on_lfr(self, monkeypatch, name, expansion, takes_dense):
        dense_blocks = []
        product = random_walk._dense_product

        def counted(head, columns):
            dense_blocks.append(columns.shape[1])
            return product(head, columns)

        monkeypatch.setattr(random_walk, "_dense_product", counted)
        g = generate(MCL_LFR[name]).graph
        params = AlgoParams(mcl_expansion=expansion)
        want, converged = markov_cluster_direct(g, params)
        assert converged
        assert markov_cluster(g, params) == want
        assert bool(dense_blocks) == takes_dense

    @pytest.mark.parametrize(
        "name, threshold, skips",
        [
            ("dense-n300", 1e-5, True),
            ("sparse-n300", 1e-5, True),
            ("dense-n400", 1e-10, False),
            ("sparse-n300", 1e-10, False),
        ],
    )
    def test_convergence_test_matches_direct_oracle(self, monkeypatch, name, threshold, skips):
        """Both ways through the convergence test, each taking as many
        iterations as the full subtraction does. With the default prune
        threshold every iteration that changes the entry count has every
        entry of both iterates at or above the epsilon, so the subtraction
        is skipped. With a threshold below the epsilon some iteration
        changes the count while an entry is below it, so the subtraction
        runs; on dense-n400 the last iteration is one of them, and only
        the subtraction sees that it converged."""
        g = generate(MCL_LFR[name]).graph
        params = AlgoParams(mcl_prune_threshold=threshold)
        epsilon = params.mcl_convergence_epsilon
        skipped, subtracted = [], []
        matrix = mcl_start(g)
        for iterations in range(1, params.mcl_max_iterations + 1):
            previous, matrix = matrix, _mcl_step(matrix, params)
            if matrix.nnz != previous.nnz:
                low = min(matrix.data.min(), previous.data.min())
                (skipped if low >= epsilon else subtracted).append(low)
            if abs(matrix - previous).max() < epsilon:
                break
        assert (bool(skipped) and not subtracted) if skips else bool(subtracted)
        steps = []
        step = random_walk._mcl_step

        def counted(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(random_walk, "_mcl_step", counted)
        want, converged = markov_cluster_direct(g, params)
        assert converged
        assert markov_cluster(g, params) == want
        assert len(steps) == iterations

    def test_memberships_match_pinned_digests(self):
        # The first iterations run dense on these networks; the digests
        # were written by the all-sparse iteration.
        assert pins.markov_cluster() == pins.pinned("pinned_markov_cluster.json")


class TestInfomap:
    def test_disjoint_cliques(self, two_five_cliques):
        assert infomap(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_ring_of_triangles_matches_exhaustive_minimum(self, ring_of_triangles):
        got = infomap(ring_of_triangles, PARAMS)
        assert partition_nmi(RING_TRIANGLES, got) == 1.0
        best = min(
            connected_partitions(ring_of_triangles),
            key=lambda p: map_equation_direct(ring_of_triangles, p),
        )
        assert partition_nmi(best, got) == 1.0

    def test_description_length_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_connected_graph(rng.randrange(3, 10), rng)
            labels = [rng.randrange(3) for _ in range(g.node_count)]
            part = Partition.from_labels(labels)
            assert description_length(g, part) == pytest.approx(
                map_equation_direct(g, part), abs=1e-12
            )

    def test_never_longer_than_all_in_one(self):
        rng = random.Random(6)
        for seed in range(6):
            g = random_connected_graph(rng.randrange(4, 14), rng)
            got = infomap(g, AlgoParams(seed=seed))
            all_in_one = Partition([0] * g.node_count)
            assert description_length(g, got) <= description_length(g, all_in_one) + 1e-12

    def test_description_length_matches_pinned_bits(self):
        assert pins.description_lengths() == pins.pinned("pinned_description_length.json")


class RecordingRng:
    """The two draws `_local_moves` makes, from a seeded generator, with
    every `random()` value kept."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def permutation(self, n):
        return self.rng.permutation(n)

    def random(self):
        self.draws.append(self.rng.random())
        return self.draws[-1]


def hub_objective(scores, stay=0.0):
    """A fake move score on a star with hub 0: the hub's first visit scores
    each leaf's community from `scores` (leaf -> score) against `stay`, and
    every other visit prefers staying. Returns (objective, moves made)."""
    moves = []

    def objective(graph):
        def leave(v, cur, e_cur, links):
            if v == 0 and not moves:
                return stay, [scores[c] for c in links]
            return 0.0, [-1.0] * len(links)

        def join(v, cur, best, e_cur, links):
            moves.append((v, cur, best))

        return leave, join

    return objective, moves


STAR = Graph(6, [(0, leaf) for leaf in range(1, 6)])


class TestLocalMoves:
    """The local-moving pass shared by louvain and infomap: candidate
    order, tie policy and tolerance, checked with a fake move score."""

    @pytest.mark.parametrize("tol, offset", [(0.0, 0.0), (1e-13, 5e-14), (1e-13, -5e-14)])
    def test_tie_with_staying_never_moves(self, tol, offset):
        objective, moves = hub_objective(dict.fromkeys(range(1, 6), 2.0 + offset), stay=2.0)
        rng = RecordingRng(3)
        labels, moved = _local_moves(STAR, rng, objective, tol)
        assert (labels, moved, moves, rng.draws) == (list(range(6)), False, [], [])

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_better_candidates_draw_once_per_extra_tie(self, seed):
        # Leaves 2, 3 and 5 tie above staying; leaf 4 is better than
        # staying but below them.
        objective, moves = hub_objective({1: -1.0, 2: 1.0, 3: 1.0, 4: 0.5, 5: 1.0})
        rng = RecordingRng(seed)
        labels, moved = _local_moves(STAR, rng, objective, 0.0)
        assert len(rng.draws) == 2
        want = 2
        for ties, (cand, draw) in enumerate(zip((3, 5), rng.draws), start=2):
            if draw < 1.0 / ties:
                want = cand
        assert moved and moves == [(0, 0, want)]
        assert labels == [want, 1, 2, 3, 4, 5]

    def test_every_tied_candidate_is_reachable(self):
        chosen = set()
        for seed in range(40):
            objective, moves = hub_objective({1: 1.0, 2: 3.0, 3: 1.0, 4: 3.0, 5: 3.0})
            _local_moves(STAR, RecordingRng(seed), objective, 0.0)
            chosen.add(moves[0][2])
        assert chosen == {2, 4, 5}

    def test_strictly_better_candidate_resets_the_ties(self):
        for seed in range(8):
            objective, moves = hub_objective({1: 1.0, 2: 1.0, 3: 2.0, 4: 0.0, 5: 2.0})
            rng = RecordingRng(seed)
            _local_moves(STAR, rng, objective, 0.0)
            assert len(rng.draws) == 2  # leaf 2 ties leaf 1, leaf 5 ties leaf 3
            assert moves == [(0, 0, 5 if rng.draws[1] < 0.5 else 3)]

    @pytest.mark.parametrize(
        "tol, draws, chosen", [(1e-13, 1, None), (0.0, 0, 2)],
    )
    def test_tolerance_widens_ties(self, tol, draws, chosen):
        # Leaf 2 beats leaf 1 by less than 1e-13: a tie only at tol=1e-13.
        objective, moves = hub_objective({1: 1.0, 2: 1.0 + 5e-14, 3: -1.0, 4: -1.0, 5: -1.0})
        rng = RecordingRng(4)
        _local_moves(STAR, rng, objective, tol)
        assert len(rng.draws) == draws
        if chosen is None:
            chosen = 2 if rng.draws[0] < 0.5 else 1
        assert moves == [(0, 0, chosen)]

    def test_candidates_beyond_tolerance_are_better(self):
        objective, moves = hub_objective({1: 1.0, 2: 1.0 + 1e-12, 3: -1.0, 4: -1.0, 5: -1.0})
        rng = RecordingRng(4)
        _local_moves(STAR, rng, objective, 1e-13)
        assert (rng.draws, moves) == ([], [(0, 0, 2)])

    def test_infomap_counts_changes_within_tolerance_as_ties(self):
        # On this path two moves shorten the description length by 1.1e-16
        # only; as ties with staying they keep the pass on the way to one
        # module, where exact comparisons would split the path in half.
        path = Graph(6, [(v, v + 1) for v in range(5)])
        assert infomap(path, AlgoParams(seed=0)) == Partition([0] * 6)

    def test_memberships_match_pinned_digests(self):
        # Exact memberships, where the pinned records hold only six-digit
        # summaries.
        assert pins.local_moves() == pins.pinned("pinned_local_moves.json")


class TestLabelPropagation:
    def test_two_disjoint_triangles_every_seed(self, two_triangles):
        for seed in range(100):
            got = label_propagation(two_triangles, AlgoParams(seed=seed))
            assert got.num_communities == 2

    def test_fixed_point_condition_holds(self):
        rng = random.Random(8)
        for seed in range(10):
            g = random_connected_graph(rng.randrange(4, 15), rng)
            got = label_propagation(g, AlgoParams(seed=seed))
            member = got.membership
            for v in range(g.node_count):
                nbrs = g.row_view[v]
                if not nbrs:
                    continue
                counts = {}
                for u in nbrs:
                    counts[member[u]] = counts.get(member[u], 0) + 1
                assert counts.get(member[v], 0) == max(counts.values())

    def test_round_cap_reports(self):
        # One round (the smallest valid cap) leaves this graph short of a
        # fixed point at seed 0.
        g = make_clique_pair(5, bridged=True)
        with pytest.warns(ConvergenceWarning, match=r"round cap \(1\)"):
            label_propagation(g, AlgoParams(seed=0, lp_max_rounds=1))

    def test_pinned_memberships(self):
        assert pins.label_propagation() == pins.pinned("pinned_label_propagation.json")


class TestCrossCutting:
    def test_every_algorithm_covers_all_nodes(self, bridged_five_cliques):
        for name, fn in ALGORITHMS.items():
            got = fn(bridged_five_cliques, PARAMS)
            assert got.node_count == bridged_five_cliques.node_count, name
            assert sum(got.community_sizes) == got.node_count, name

    def test_determinism_across_runs(self):
        rng = random.Random(42)
        g = random_connected_graph(40, rng)
        for name, fn in ALGORITHMS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                first = fn(g, AlgoParams(seed=7))
                second = fn(g, AlgoParams(seed=7))
            assert first == second, name

    def test_no_community_spans_components(self):
        g = make_clique_pair(4)  # disjoint 4-cliques
        for name, fn in ALGORITHMS.items():
            got = fn(g, PARAMS)
            member = got.membership
            left = {member[v] for v in range(4)}
            right = {member[v] for v in range(4, 8)}
            assert not (left & right), name

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_edgeless_graph(self, name):
        """Seven detectors need an edge; label_propagation and markov_cluster
        return singletons."""
        g = Graph(3, [])
        if name in ("label_propagation", "markov_cluster"):
            assert ALGORITHMS[name](g, PARAMS) == Partition([0, 1, 2])
        else:
            with pytest.raises(ValueError, match="^needs at least one edge$"):
                ALGORITHMS[name](g, PARAMS)

    def test_hill_climbers_never_end_below_zero(self):
        # The all-in-one level (Q = 0) is always examined by these three,
        # so their result can never score below it.
        rng = random.Random(31)
        for seed in range(6):
            g = random_connected_graph(rng.randrange(5, 14), rng)
            for name in ("louvain", "fastgreedy", "leading_eigenvector"):
                q = modularity(g, ALGORITHMS[name](g, AlgoParams(seed=seed)))
                assert q >= -1e-12, (name, seed)
