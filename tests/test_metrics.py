import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commbench.graph import Graph, Partition, quotient_graph
from commbench.lfr import LfrConfig, generate
from commbench.metrics import (
    ConfusionMatrix,
    confusion,
    measured_mixing,
    modularity,
    nmi,
    partition_nmi,
    pearson,
)

from oracles import (
    all_partitions,
    confusion_direct,
    modularity_direct,
    nmi_direct,
    singleton_modularity_direct,
)

memberships = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


class TestConfusion:
    def test_identical_partitions_are_diagonal(self):
        p = Partition([0, 0, 1, 1])
        cm = confusion(p, p)
        assert cm.counts.tolist() == [[2, 0], [0, 2]]

    def test_all_in_one_estimate(self):
        actual = Partition([0, 0, 1, 1])
        est = Partition([0, 0, 0, 0])
        cm = confusion(actual, est)
        assert cm.counts.tolist() == [[2, 2]]

    def test_crossed_partitions(self):
        actual = Partition([0, 0, 1, 1])
        est = Partition([0, 1, 0, 1])
        cm = confusion(actual, est)
        assert cm.counts.tolist() == [[1, 1], [1, 1]]

    def test_node_set_mismatch_errors(self):
        with pytest.raises(ValueError, match="different node sets"):
            confusion(Partition([0, 0]), Partition([0, 0, 0]))

    def test_marginals_consistent(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(1, 12)
            a = Partition.from_labels([rng.randrange(3) for _ in range(n)])
            b = Partition.from_labels([rng.randrange(4) for _ in range(n)])
            cm = confusion(a, b)
            assert cm.total == n
            assert cm.row_marginals.tolist() == cm.counts.sum(axis=1).tolist()
            assert cm.col_marginals.tolist() == cm.counts.sum(axis=0).tolist()


class TestNmi:
    def test_identical_partitions_give_one(self):
        cm = ConfusionMatrix([[2, 0], [0, 2]])
        assert nmi(cm) == 1.0

    def test_independent_partitions_give_zero(self):
        cm = ConfusionMatrix([[1, 1], [1, 1]])
        assert nmi(cm) == 0.0

    def test_matches_direct_oracle_on_fixture(self):
        actual = Partition([0, 0, 0, 1])
        est = Partition([0, 0, 1, 1])
        value = partition_nmi(actual, est)
        assert value == pytest.approx(nmi_direct([[2, 0], [1, 1]]), abs=1e-15)
        assert value == pytest.approx(0.34371101848545077, abs=1e-15)

    def test_both_all_in_one_degenerate(self):
        assert nmi(ConfusionMatrix([[5]])) == 1.0

    def test_relabeling_gives_one(self):
        a = Partition([0, 0, 1, 1, 2])
        b = Partition([2, 2, 0, 0, 1])
        assert partition_nmi(a, b) == 1.0

    def test_oracle_equivalence_exhaustive_n4(self):
        parts = [Partition(m) for m in all_partitions(4)]
        for a in parts:
            for b in parts:
                got = partition_nmi(a, b)
                want = nmi_direct(confusion_direct(a, b))
                assert abs(got - min(1.0, max(0.0, want))) <= 1e-12

    @given(memberships)
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_range(self, pair):
        a = Partition.from_labels(pair[0])
        b = Partition.from_labels(pair[1])
        ab = partition_nmi(a, b)
        ba = partition_nmi(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_one_iff_identical_up_to_relabeling(self, labels):
        a = Partition.from_labels(labels)
        shuffled = [(c + 1) % a.num_communities for c in a.membership]
        assert partition_nmi(a, Partition.from_labels(shuffled)) == pytest.approx(1.0)

    def test_strictly_below_one_when_different(self):
        a = Partition([0, 0, 1, 1])
        b = Partition([0, 1, 1, 1])
        assert partition_nmi(a, b) < 1.0


class TestModularity:
    def test_all_in_one_is_zero(self, bridged_triangles):
        part = Partition([0] * 6)
        assert modularity(bridged_triangles, part) == 0.0

    def test_two_disjoint_cliques(self, two_triangles):
        part = Partition([0, 0, 0, 1, 1, 1])
        assert modularity(two_triangles, part) == pytest.approx(0.5, abs=1e-12)
        assert modularity_direct(two_triangles, part) == pytest.approx(0.5, abs=1e-12)

    def test_triangle_singletons(self, triangle):
        part = Partition([0, 1, 2])
        assert modularity(triangle, part) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_edgeless_graph_errors(self):
        with pytest.raises(ValueError, match="edgeless"):
            modularity(Graph(3, []), Partition([0, 1, 2]))

    def test_matches_direct_definition(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(2, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            if not edges:
                continue
            g = Graph(n, edges)
            part = Partition.from_labels([rng.randrange(3) for _ in range(n)])
            assert modularity(g, part) == pytest.approx(
                modularity_direct(g, part), abs=1e-12
            )

    def test_relabeling_invariance(self, bridged_triangles):
        a = Partition([0, 0, 0, 1, 1, 1])
        b = Partition([1, 1, 1, 0, 0, 0])
        assert modularity(bridged_triangles, a) == modularity(bridged_triangles, b)

    def test_weighted_quotient_agrees(self, bridged_triangles):
        part = Partition([0, 0, 0, 1, 1, 1])
        q = quotient_graph(bridged_triangles, part)
        assert singleton_modularity_direct(q) == pytest.approx(
            modularity(bridged_triangles, part), abs=1e-12
        )

    def test_quotients_keep_modularity(self):
        # A quotient's singletons score the partition it collapsed, and so
        # does the quotient of a quotient under the composed partition.
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(2, 15)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            if not edges:
                continue
            g = Graph(n, edges)
            fine = Partition.from_labels([rng.randrange(5) for _ in range(n)])
            q = quotient_graph(g, fine)
            assert singleton_modularity_direct(q) == pytest.approx(
                modularity(g, fine), abs=1e-12
            )
            coarse = Partition.from_labels([rng.randrange(2) for _ in range(q.node_count)])
            composed = Partition([coarse.membership[c] for c in fine.membership])
            assert singleton_modularity_direct(quotient_graph(q, coarse)) == pytest.approx(
                modularity(g, composed), abs=1e-12
            )

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for seed, mu in ((1, 0.2), (2, 0.5)):
            net = generate(LfrConfig(
                n=300, avg_degree=10, max_degree=30, gamma=2.5, beta=1.5, mu=mu, seed=seed,
            ))
            nx_graph = nx.Graph(net.graph.edges)
            nx_graph.add_nodes_from(range(net.graph.node_count))
            parts = [net.planted, Partition([0] * net.graph.node_count)]
            parts += [
                Partition.from_labels([rng.randrange(k) for _ in range(net.graph.node_count)])
                for k in (2, 7, 40)
            ]
            for part in parts:
                expected = nx.community.modularity(nx_graph, [set(c) for c in part.communities()])
                assert modularity(net.graph, part) == pytest.approx(expected, abs=1e-12)


class TestMeasuredMixing:
    def test_disjoint_cliques_have_zero_mixing(self, two_triangles):
        part = Partition([0, 0, 0, 1, 1, 1])
        report = measured_mixing(two_triangles, part)
        assert report.per_node == 0.0
        assert report.global_fraction == 0.0

    def test_single_bridge_between_singletons(self):
        g = Graph(2, [(0, 1)])
        report = measured_mixing(g, Partition([0, 1]))
        assert report.per_node == 1.0
        assert report.global_fraction == 1.0

    def test_bridged_triangles(self, bridged_triangles):
        part = Partition([0, 0, 0, 1, 1, 1])
        report = measured_mixing(bridged_triangles, part)
        assert report.per_node == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert report.global_fraction == pytest.approx(1.0 / 7.0, abs=1e-12)

    def test_all_isolated_errors(self):
        with pytest.raises(ValueError, match="isolated"):
            measured_mixing(Graph(3, []), Partition([0, 1, 2]))

    def test_range_and_zero_condition(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randrange(2, 15)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            if not edges:
                continue
            g = Graph(n, edges)
            part = Partition.from_labels([rng.randrange(3) for _ in range(n)])
            report = measured_mixing(g, part)
            assert 0.0 <= report.per_node <= 1.0
            member = part.membership
            has_inter = any(member[u] != member[v] for u, v in g.edges)
            assert (report.per_node == 0.0) == (not has_inter)


class TestPearson:
    def test_exact_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_anticorrelation(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=40)
        ys = 0.3 * xs + rng.normal(size=40)
        assert pearson(xs, ys) == pytest.approx(np.corrcoef(xs, ys)[0, 1], abs=1e-12)

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
