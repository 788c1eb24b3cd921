import random
import warnings

import numpy as np
import pytest

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
    radetal,
    spinglass,
    walktrap,
)
from commbench.algorithms.information import description_length
from commbench.algorithms.random_walk import _column_normalize, _prune
from commbench.graph import Graph, Partition, edge_triangle_count
from commbench.metrics import modularity, partition_nmi

from conftest import clique_edges, make_clique_pair, make_ring_of_triangles
from oracles import (
    connected_partitions,
    map_equation_direct,
    max_modularity_bruteforce,
    max_modularity_connected,
    modularity_direct,
)

PARAMS = AlgoParams(seed=11)

TWO_CLIQUES = Partition([0] * 5 + [1] * 5)
RING_TRIANGLES = Partition([i // 3 for i in range(12)])


def random_connected_graph(n, rng):
    while True:
        p = rng.uniform(0.25, 0.7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        if not edges:
            continue
        g = Graph(n, edges)
        from commbench.graph import connected_components

        if connected_components(g).num_communities == 1:
            return g


class TestRadetal:
    def test_disjoint_cliques(self, two_five_cliques):
        assert radetal(two_five_cliques) == TWO_CLIQUES

    def test_bridge_has_minimal_coefficient(self, bridged_five_cliques):
        g = bridged_five_cliques
        coeffs = {}
        for u, v in g.edges:
            tri = edge_triangle_count(g, u, v)
            coeffs[(u, v)] = (tri + 1) / (min(g.degree(u), g.degree(v)) - 1)
        assert coeffs[(4, 5)] == 0.25
        assert all(c > 0.25 for e, c in coeffs.items() if e != (4, 5))
        assert radetal(g) == TWO_CLIQUES

    def test_complete_graph_stays_whole(self):
        g = Graph(6, clique_edges(range(6)))
        assert radetal(g).num_communities == 1
        best_q, _ = max_modularity_connected(g)
        assert best_q <= 0.0 + 1e-12

    def test_errors_without_edges(self):
        with pytest.raises(ValueError):
            radetal(Graph(2, []))


class TestFastgreedy:
    def test_disjoint_cliques(self, two_five_cliques):
        assert fastgreedy(two_five_cliques) == TWO_CLIQUES

    def test_ring_of_triangles(self, ring_of_triangles):
        got = fastgreedy(ring_of_triangles)
        assert partition_nmi(RING_TRIANGLES, got) == 1.0
        best_q, best = max_modularity_connected(ring_of_triangles)
        assert partition_nmi(best, RING_TRIANGLES) == 1.0
        assert modularity(ring_of_triangles, got) == pytest.approx(best_q, abs=1e-12)

    def test_single_edge_merges(self):
        g = Graph(2, [(0, 1)])
        assert fastgreedy(g).num_communities == 1
        assert modularity_direct(g, Partition([0, 0])) == 0.0
        assert modularity_direct(g, Partition([0, 1])) == -0.5


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
        sides = {frozenset(c) for c in got.communities()}
        assert oracle_split in sides or frozenset(range(n)) - oracle_split in sides
        assert got == Partition([0] * 4 + [1] * 4)


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


class TestMarkovCluster:
    def test_disjoint_cliques(self, two_five_cliques):
        assert markov_cluster(two_five_cliques, PARAMS) == TWO_CLIQUES

    def test_bridged_cliques_default_powers(self, bridged_five_cliques):
        assert markov_cluster(bridged_five_cliques, PARAMS) == TWO_CLIQUES

    def test_column_stochastic_at_every_iterate(self, bridged_five_cliques):
        g = bridged_five_cliques
        import scipy.sparse as sp

        n = g.node_count
        rows = list(range(n))
        cols = list(range(n))
        for u, v in g.edges:
            rows += [u, v]
            cols += [v, u]
        matrix = _column_normalize(
            sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        )
        for _ in range(12):
            matrix = matrix @ matrix
            matrix.data **= 2.0
            matrix = _column_normalize(matrix)
            matrix = _prune(matrix, 1e-5)
            matrix = _column_normalize(matrix)
            sums = np.asarray(matrix.sum(axis=0)).ravel()
            assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_edgeless_graph_gives_singletons(self):
        got = markov_cluster(Graph(4, []), PARAMS)
        assert got.num_communities == 4


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

    def test_anneal_refinement_smoke(self, ring_of_triangles):
        got = infomap(ring_of_triangles, AlgoParams(seed=3, infomap_anneal=True))
        assert got.node_count == 12
        base = infomap(ring_of_triangles, AlgoParams(seed=3))
        assert description_length(ring_of_triangles, got) <= description_length(
            ring_of_triangles, base
        ) + 1e-9


class TestLabelPropagation:
    def test_two_disjoint_triangles_every_seed(self, two_triangles):
        for seed in range(100):
            got = label_propagation(two_triangles, AlgoParams(seed=seed))
            assert got.num_communities == 2

    def test_edgeless_graph_keeps_singletons(self):
        got = label_propagation(Graph(5, []), PARAMS)
        assert got.num_communities == 5

    def test_fixed_point_condition_holds(self):
        rng = random.Random(8)
        for seed in range(10):
            g = random_connected_graph(rng.randrange(4, 15), rng)
            got = label_propagation(g, AlgoParams(seed=seed))
            member = got.membership
            for v in range(g.node_count):
                nbrs = g.neighbors(v)
                if not nbrs:
                    continue
                counts = {}
                for u in nbrs:
                    counts[member[u]] = counts.get(member[u], 0) + 1
                assert counts.get(member[v], 0) == max(counts.values())

    def test_round_cap_reports(self):
        g = make_clique_pair(3, bridged=True)
        with pytest.warns(ConvergenceWarning):
            label_propagation(g, AlgoParams(seed=0, lp_max_rounds=0))


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

    def test_hill_climbers_never_end_below_zero(self):
        # The all-in-one level (Q = 0) is always examined by these three,
        # so their result can never score below it.
        rng = random.Random(31)
        for seed in range(6):
            g = random_connected_graph(rng.randrange(5, 14), rng)
            for name in ("louvain", "fastgreedy", "leading_eigenvector"):
                q = modularity(g, ALGORITHMS[name](g, AlgoParams(seed=seed)))
                assert q >= -1e-12, (name, seed)
