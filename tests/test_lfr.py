from fractions import Fraction

import numpy as np
import pytest

from commbench.algorithms import AlgoParams, louvain
from commbench.graph import Partition
from commbench.harness import derive_seed
from commbench.lfr import (
    LfrConfig,
    MixingToleranceWarning,
    assign_communities,
    configuration_model,
    generate,
    internal_stub_count,
    mu_limit,
    rewire_to_mixing,
    sample_community_sizes,
    sample_powerlaw_degrees,
    solve_min_degree,
)
from commbench.metrics import measured_mixing, partition_nmi

from oracles import powerlaw_mle_exponent, powerlaw_sample_mean

TABLE_CONFIG = LfrConfig(
    n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0, mu=0.3, seed=0
)


class TestMuLimit:
    def test_paper_value_exact(self):
        assert mu_limit(5000, 700) == 0.86
        assert Fraction(5000 - 700, 5000) == Fraction(86, 100)

    def test_single_spanning_community(self):
        assert mu_limit(100, 100) == 0.0

    def test_direct_arithmetic(self):
        assert mu_limit(100, 20) == 0.80

    def test_oversized_community_errors(self):
        with pytest.raises(ValueError):
            mu_limit(100, 101)


class TestMinDegreeSolver:
    def test_known_harmonic_solution(self):
        # For gamma=3 the truncated mean is 2/(1/k_min + 1/k_max).
        assert solve_min_degree(15, 45, 3.0) == pytest.approx(9.0, abs=1e-6)

    def test_degenerate_equal_bounds(self):
        assert solve_min_degree(45, 45, 3.0) == pytest.approx(45.0, abs=1e-6)

    def test_unreachable_average_errors(self):
        with pytest.raises(ValueError, match="unreachable"):
            solve_min_degree(1.0, 1000, 1.5)


class TestDegreeSampling:
    def test_degenerate_support_is_constant(self):
        config = LfrConfig(n=10, avg_degree=4, max_degree=4, gamma=3.0, beta=2.0, mu=0.5)
        rng = np.random.default_rng(0)
        assert sample_powerlaw_degrees(config, rng) == [4] * 10

    def test_statistics_over_seeds(self):
        config = LfrConfig(n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0, mu=0.3)
        for seed in range(20):
            degrees = sample_powerlaw_degrees(config, np.random.default_rng(seed))
            assert len(degrees) == 1000
            assert sum(degrees) % 2 == 0
            assert max(degrees) <= 45
            assert min(degrees) >= 1
            mean = sum(degrees) / len(degrees)
            assert 13.5 <= mean <= 16.5

    def test_agrees_with_inverse_cdf_oracle(self):
        # An independent table-lookup sampler over the same solved support
        # lands in the same mean band.
        import random as pyrandom

        k_min = round(solve_min_degree(15, 45, 3.0))
        oracle_mean = powerlaw_sample_mean(k_min, 45, 3.0, pyrandom.Random(1), 4000)
        assert 13.5 <= oracle_mean <= 16.5

    def test_smaller_exponent_has_heavier_tail(self):
        base = dict(n=1000, avg_degree=15, max_degree=45, beta=2.0, mu=0.3)
        var2, var3 = [], []
        for seed in range(20):
            d2 = sample_powerlaw_degrees(
                LfrConfig(gamma=2.0, **base), np.random.default_rng(seed)
            )
            d3 = sample_powerlaw_degrees(
                LfrConfig(gamma=3.0, **base), np.random.default_rng(seed)
            )
            var2.append(np.var(d2))
            var3.append(np.var(d3))
        assert np.mean(var2) > np.mean(var3)


class TestCommunitySizes:
    def test_forced_equal_sizes(self):
        config = LfrConfig(
            n=100, avg_degree=5, max_degree=15, gamma=3.0, beta=2.0, mu=0.3,
            min_community=25, max_community=25,
        )
        sizes = sample_community_sizes(config, np.random.default_rng(0))
        assert sizes == [25, 25, 25, 25]

    def test_sum_and_bounds_always_hold(self):
        config = LfrConfig(
            n=997, avg_degree=5, max_degree=15, gamma=3.0, beta=2.0, mu=0.3,
            min_community=10, max_community=100,
        )
        for seed in range(20):
            sizes = sample_community_sizes(config, np.random.default_rng(seed))
            assert sum(sizes) == 997
            assert all(10 <= s <= 100 for s in sizes)

    def test_mle_recovers_exponent(self):
        config = LfrConfig(
            n=1000, avg_degree=5, max_degree=15, gamma=3.0, beta=2.0, mu=0.3,
            min_community=10, max_community=100,
        )
        pooled = []
        for seed in range(20):
            pooled += sample_community_sizes(config, np.random.default_rng(seed))
        estimate = powerlaw_mle_exponent(pooled, 10, 100)
        assert 1.6 <= estimate <= 2.4

    def test_unreachable_sum_errors(self):
        config = LfrConfig(
            n=18, avg_degree=2, max_degree=5, gamma=3.0, beta=2.0, mu=0.3,
            min_community=10, max_community=15,
        )
        with pytest.raises(ValueError, match="no community count fits"):
            sample_community_sizes(config, np.random.default_rng(0))


class TestConfigurationModel:
    def test_single_edge(self):
        g = configuration_model([1, 1], np.random.default_rng(0))
        assert g.edges == [(0, 1)]

    def test_all_degree_two_gives_cycles(self):
        g = configuration_model([2] * 6, np.random.default_rng(3))
        assert g.degrees() == [2] * 6

    def test_odd_sum_errors(self):
        with pytest.raises(ValueError, match="even"):
            configuration_model([1, 1, 1], np.random.default_rng(0))

    def test_unrealizable_sequence_errors(self):
        # Fails Erdos-Gallai: two degree-3 nodes cannot coexist with two
        # pendant nodes on four vertices.
        with pytest.raises(ValueError, match="not realizable"):
            configuration_model([3, 3, 1, 1], np.random.default_rng(0))

    def test_realizes_sampled_sequences_exactly(self):
        config = TABLE_CONFIG
        for seed in range(20):
            rng = np.random.default_rng(seed)
            degrees = sample_powerlaw_degrees(config, rng)
            g = configuration_model(degrees, rng)
            assert g.degrees() == degrees


class TestAssignCommunities:
    def test_tiny_fixed_case(self):
        part = assign_communities([1, 1, 1, 1], [2, 2], 0.5, np.random.default_rng(0))
        assert sorted(part.community_sizes) == [2, 2]

    def test_sizes_match_input_multiset(self):
        rng = np.random.default_rng(1)
        config = TABLE_CONFIG.with_resolved_bounds(9)
        degrees = sample_powerlaw_degrees(config, rng)
        sizes = sample_community_sizes(config, rng)
        part = assign_communities(degrees, sizes, config.mu, rng)
        assert sorted(part.community_sizes) == sorted(sizes)

    def test_fit_constraint_zero_violations(self):
        config = TABLE_CONFIG.with_resolved_bounds(9)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            degrees = sample_powerlaw_degrees(config, rng)
            sizes = sample_community_sizes(config, rng)
            part = assign_communities(degrees, sizes, config.mu, rng)
            for v, cid in enumerate(part.membership):
                assert internal_stub_count(degrees[v], config.mu) < part.community_sizes[cid]

    def test_unfittable_node_errors(self):
        with pytest.raises(ValueError, match="larger than"):
            assign_communities([9, 1, 1, 1], [2, 2], 0.0, np.random.default_rng(0))

    def test_too_little_room_errors_at_once(self):
        # Each node fits the largest community, but three cannot share it.
        with pytest.raises(ValueError, match="at t=1, 3 nodes"):
            assign_communities([1, 1, 1], [2, 1], 0.0, np.random.default_rng(0))


class TestRewireToMixing:
    def test_already_at_target_returns_same_graph(self, bridged_triangles):
        planted = Partition([0, 0, 0, 1, 1, 1])
        start = measured_mixing(bridged_triangles, planted).per_node
        config = LfrConfig(
            n=6, avg_degree=2, max_degree=3, gamma=3.0, beta=2.0,
            mu=start, mixing_tolerance=0.05,
        )
        out = rewire_to_mixing(bridged_triangles, planted, config, np.random.default_rng(0))
        assert out is bridged_triangles

    def test_reaches_low_mixing_target(self):
        from dataclasses import replace

        config = LfrConfig(
            n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0,
            mu=0.1, mixing_tolerance=0.02,
        )
        for seed in range(10):
            net = generate(replace(config, seed=seed))
            assert abs(net.realized_mu - 0.1) <= 0.02

    def test_degrees_preserved(self):
        rng = np.random.default_rng(5)
        config = TABLE_CONFIG.with_resolved_bounds(9)
        degrees = sample_powerlaw_degrees(config, rng)
        sizes = sample_community_sizes(config, rng)
        skeleton = configuration_model(degrees, rng)
        planted = assign_communities(degrees, sizes, config.mu, rng)
        out = rewire_to_mixing(skeleton, planted, config, rng)
        assert out.degrees() == degrees

    def test_beyond_limit_refused_by_default(self, two_triangles):
        planted = Partition([0, 0, 0, 1, 1, 1])
        config = LfrConfig(
            n=6, avg_degree=2, max_degree=3, gamma=3.0, beta=2.0, mu=0.9,
        )
        with pytest.raises(ValueError, match="mu_limit"):
            rewire_to_mixing(two_triangles, planted, config, np.random.default_rng(0))

    def test_budget_exhaustion_warns_with_achieved_value(self):
        config = LfrConfig(
            n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0,
            mu=0.1, max_rewire_iterations=50,
        )
        rng = np.random.default_rng(2)
        degrees = sample_powerlaw_degrees(config, rng)
        resolved = config.with_resolved_bounds(min(degrees))
        sizes = sample_community_sizes(resolved, rng)
        skeleton = configuration_model(degrees, rng)
        planted = assign_communities(degrees, sizes, config.mu, rng)
        with pytest.warns(MixingToleranceWarning, match="achieved"):
            rewire_to_mixing(skeleton, planted, resolved, rng)


class TestGenerate:
    def test_deterministic_given_seed(self):
        config = LfrConfig(
            n=300, avg_degree=10, max_degree=30, gamma=3.0, beta=2.0, mu=0.2, seed=17
        )
        a = generate(config)
        b = generate(config)
        assert a.graph.edges == b.graph.edges
        assert a.planted == b.planted
        assert a.realized_mu == b.realized_mu

    def test_full_invariant_suite_at_paper_scale(self):
        config = LfrConfig(
            n=5000, avg_degree=30, max_degree=90, gamma=3.0, beta=2.0, mu=0.2, seed=1
        )
        net = generate(config)
        assert net.graph.node_count == 5000
        assert max(net.graph.degrees()) <= 90
        assert abs(net.realized_mu - 0.2) <= config.mixing_tolerance
        assert net.mu_limit == mu_limit(5000, max(net.planted.community_sizes))
        lo, hi = net.config.min_community, net.config.max_community
        assert all(lo <= s <= hi for s in net.planted.community_sizes)
        assert sum(net.planted.community_sizes) == 5000
        for v, cid in enumerate(net.planted.membership):
            assert (
                internal_stub_count(net.graph.degree(v), config.mu)
                < net.planted.community_sizes[cid]
            )

    def test_unhostable_size_draw_is_resampled(self):
        # The first size draw of this sweep unit cannot host every node at
        # once (935 nodes need a community above 11, which hold only 912).
        seed = derive_seed(202, "n=1000,k=30,kmax=90,gamma=2,beta=2,mu=0.3", 1)
        config = LfrConfig(
            n=1000, avg_degree=30, max_degree=90, gamma=2.0, beta=2.0, mu=0.3,
            seed=seed, allow_mu_beyond_limit=True,
        )
        net = generate(config)
        for v, cid in enumerate(net.planted.membership):
            assert (
                internal_stub_count(net.graph.degree(v), config.mu)
                < net.planted.community_sizes[cid]
            )

    def test_small_network_louvain_recovery(self):
        hits = 0
        for seed in range(20):
            config = LfrConfig(
                n=100, avg_degree=5, max_degree=15, gamma=3.0, beta=2.0,
                mu=0.05, seed=seed,
            )
            net = generate(config)
            got = louvain(net.graph, AlgoParams(seed=seed))
            if partition_nmi(net.planted, got) >= 0.95:
                hits += 1
        assert hits > 10
