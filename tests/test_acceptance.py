"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The heavy criteria drive real sweeps at desk scale; expect the full module
to take tens of minutes.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import spearmanr

from commbench.algorithms import (
    ALGORITHMS,
    AlgoParams,
    fastgreedy,
    infomap,
    louvain,
    spinglass,
    walktrap,
)
from commbench.graph import Partition, connected_components
from commbench.harness import SweepSpec, run_sweep, summarize
from commbench.lfr import (
    LfrConfig,
    generate,
    mu_limit,
    sample_powerlaw_degrees,
)
from commbench.metrics import modularity, partition_nmi

import pins
from conftest import random_graph
from oracles import (
    all_partitions,
    confusion_direct,
    max_modularity_bruteforce,
    nmi_direct,
)

pytestmark = pytest.mark.acceptance


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_mu_limit_exact():
    """mu_limit(5000, 700) equals 0.86 exactly, as a rational and as the
    float the division produces."""
    value = mu_limit(5000, 700)
    as_rational = Fraction(5000 - 700, 5000) == Fraction(86, 100)
    as_float = value == 0.86
    report(1, as_rational and as_float, f"mu_limit(5000,700) = {value!r}")


def test_criterion_02_nmi_oracle_equivalence():
    """Optimized NMI matches direct summation within 1e-12 on all partition
    pairs at n <= 5 and 500 random pairs at n in 6..12; symmetry is exact."""
    worst = 0.0
    checked = 0
    for n in range(1, 6):
        parts = [Partition(m) for m in all_partitions(n)]
        for a in parts:
            for b in parts:
                got = partition_nmi(a, b)
                want = min(1.0, max(0.0, nmi_direct(confusion_direct(a, b))))
                worst = max(worst, abs(got - want))
                assert partition_nmi(b, a) == got
                checked += 1
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randrange(6, 13)
        a = Partition.from_labels([rng.randrange(4) for _ in range(n)])
        b = Partition.from_labels([rng.randrange(4) for _ in range(n)])
        got = partition_nmi(a, b)
        want = min(1.0, max(0.0, nmi_direct(confusion_direct(a, b))))
        worst = max(worst, abs(got - want))
        assert partition_nmi(b, a) == got
        checked += 1
    report(2, worst <= 1e-12, f"{checked} pairs, max |diff| = {worst:.2e}")


def test_criterion_03_planted_recovery_at_low_mixing():
    """infomap, louvain, walktrap, spinglass each reach mean NMI >= 0.95 on
    n=1000, <k>=15, mu=0.1 over 10 seeds.

    Spinglass runs with 100 spin states: these networks plant ~50
    communities, far above the 25-spin default ceiling (the source
    experiments leave the spin count unstated).
    """
    runners = {
        "infomap": lambda g, s: infomap(g, AlgoParams(seed=s)),
        "louvain": lambda g, s: louvain(g, AlgoParams(seed=s)),
        "walktrap": lambda g, s: walktrap(g, AlgoParams(seed=s)),
        "spinglass": lambda g, s: spinglass(
            g, AlgoParams(seed=s, spinglass_max_spins=100)
        ),
    }
    scores = {name: [] for name in runners}
    for seed in range(10):
        net = generate(
            LfrConfig(
                n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0,
                mu=0.1, seed=seed,
            )
        )
        for name, run in runners.items():
            scores[name].append(partition_nmi(net.planted, run(net.graph, seed)))
    means = {name: float(np.mean(vals)) for name, vals in scores.items()}
    passed = all(m >= 0.95 for m in means.values())
    report(3, passed, " ".join(f"{k}={v:.4f}" for k, v in means.items()))


REDUCED_GRID = SweepSpec(
    node_counts=(1000,),
    avg_degrees=(5, 15, 30),
    gammas=(2.0, 3.0),
    betas=(1.0, 2.0),
    mu_grid=(0.1, 0.8, 0.1),
    replicates=5,
    algorithms=("infomap", "louvain", "walktrap"),
    master_seed=202,
)


def test_criterion_04_mixing_coefficient_dominance():
    """On the reduced grid, each of louvain/walktrap/infomap shows
    |r(NMI, mu)| > 0.5 while |r(NMI, gamma)| and |r(NMI, beta)| stay
    below 0.2."""
    from commbench.harness import correlation_table

    outcome = run_sweep(REDUCED_GRID, workers=2)
    assert not outcome.skipped, outcome.skipped[:3]
    table = correlation_table(outcome.records)
    details = []
    passed = True
    for algo in REDUCED_GRID.algorithms:
        r_mu, r_gamma, r_beta = (table[algo][p] for p in ("mu", "gamma", "beta"))
        ok = abs(r_mu) > 0.5 and abs(r_gamma) < 0.2 and abs(r_beta) < 0.2
        passed = passed and ok
        details.append(f"{algo}: mu={r_mu:+.3f} gamma={r_gamma:+.3f} beta={r_beta:+.3f}")
    report(4, passed, "; ".join(details))


def test_criterion_05_degree_benefit():
    """Walktrap's mean NMI at <k>=30 is never more than 0.02 below its
    mean NMI at <k>=5, per mu up to 0.6 (10 replicates)."""
    spec = SweepSpec(
        node_counts=(1000,),
        avg_degrees=(5, 30),
        gammas=(3.0,),
        betas=(2.0,),
        mu_grid=(0.1, 0.6, 0.1),
        replicates=10,
        algorithms=("walktrap",),
        master_seed=505,
    )
    outcome = run_sweep(spec, workers=2)
    assert not outcome.skipped
    means = {
        (s.avg_degree, s.mu_target): s.mean_nmi for s in summarize(outcome.records)
    }
    rows = []
    passed = True
    for mu in spec.mu_values():
        low, high = means[(5.0, mu)], means[(30.0, mu)]
        ok = high >= low - 0.02
        passed = passed and ok
        rows.append(f"mu={mu:g}: k30={high:.3f} k5={low:.3f}")
    report(5, passed, "; ".join(rows))


def test_criterion_06_monotone_decay():
    """Spearman(mu, mean NMI) <= -0.7 for every algorithm on the n=1000,
    <k>=30 slice; markov_cluster is held to the bound only from mu=0.4."""
    spec = SweepSpec(
        node_counts=(1000,),
        avg_degrees=(30,),
        gammas=(3.0,),
        betas=(2.0,),
        mu_grid=(0.1, 0.8, 0.1),
        replicates=3,
        algorithms=tuple(sorted(ALGORITHMS)),
        master_seed=606,
    )
    outcome = run_sweep(spec, workers=2)
    assert not outcome.skipped
    summaries = summarize(outcome.records)
    details = []
    passed = True
    for algo in spec.algorithms:
        series = sorted(
            (s.mu_target, s.mean_nmi) for s in summaries if s.algorithm == algo
        )
        if algo == "markov_cluster":
            series = [(mu, v) for mu, v in series if mu >= 0.4 - 1e-9]
        rho = spearmanr([mu for mu, _ in series], [v for _, v in series]).statistic
        ok = rho <= -0.7
        passed = passed and ok
        details.append(f"{algo}={rho:+.3f}")
    report(6, passed, " ".join(details))


def test_criterion_07_generator_property_suite():
    """20 seeds of the n=1000, <k>=15, mu=0.3 cell: realized mu within
    0.03, mean degree within 10%, max degree capped, community sizes in
    bounds, degree sequence preserved exactly through rewiring."""
    base = LfrConfig(
        n=1000, avg_degree=15, max_degree=45, gamma=3.0, beta=2.0, mu=0.3
    )
    from dataclasses import replace

    worst_gap = 0.0
    for seed in range(20):
        config = replace(base, seed=seed)
        net = generate(config)
        worst_gap = max(worst_gap, abs(net.realized_mu - 0.3))
        assert abs(net.realized_mu - 0.3) <= 0.03, seed
        degrees = net.graph.degrees()
        mean_deg = sum(degrees) / len(degrees)
        assert 13.5 <= mean_deg <= 16.5, seed
        assert max(degrees) <= 45, seed
        lo, hi = net.config.min_community, net.config.max_community
        assert all(lo <= s <= hi for s in net.planted.community_sizes), seed
        # The degree draw is the first consumer of the seeded stream, so
        # replaying it gives the pre-rewiring sequence.
        drawn = sample_powerlaw_degrees(net.config, np.random.default_rng(seed))
        assert degrees == drawn, seed
    report(7, True, f"20 seeds clean, worst |mu gap| = {worst_gap:.4f}")


def test_criterion_08_small_instance_optimality():
    """louvain/fastgreedy/spinglass land within 0.05 of the brute-force
    maximum modularity on >= 90% of 200 random connected graphs (n <= 7)."""
    rng = random.Random(808)
    graphs = []
    while len(graphs) < 200:
        # n >= 3, so an edgeless draw is not connected.
        g = random_graph(rng.randrange(3, 8), rng.uniform(0.25, 0.9), rng)
        if connected_components(g).num_communities == 1:
            graphs.append(g)
    hits = {"louvain": 0, "fastgreedy": 0, "spinglass": 0}
    for i, g in enumerate(graphs):
        best_q, _ = max_modularity_bruteforce(g)
        results = {
            "louvain": louvain(g, AlgoParams(seed=i)),
            "fastgreedy": fastgreedy(g),
            "spinglass": spinglass(g, AlgoParams(seed=i)),
        }
        for name, part in results.items():
            if modularity(g, part) >= best_q - 0.05:
                hits[name] += 1
    passed = all(h >= 180 for h in hits.values())
    report(8, passed, " ".join(f"{k}={v}/200" for k, v in hits.items()))


def test_criterion_09_sweep_determinism():
    """The same sweep run with 1 and 2 workers produces byte-identical
    records.csv.

    The runtime_ms column is wall-clock and is projected out of the byte
    comparison; every other byte must match exactly.
    """
    spec = SweepSpec(
        node_counts=(200,),
        avg_degrees=(8,),
        gammas=(3.0,),
        betas=(2.0,),
        mu_grid=(0.2, 0.5, 0.3),
        replicates=2,
        algorithms=("louvain", "label_propagation", "markov_cluster"),
        master_seed=909,
    )
    serial, parallel = (pins.records(spec, workers).splitlines() for workers in (1, 2))
    passed = serial == parallel and len(serial) == 13
    report(9, passed, f"{len(serial) - 1} records identical across worker counts")


def test_criterion_10_runtime_ordering():
    """At n=5000, <k>=30, mu=0.3 (3 replicates): label_propagation has the
    smallest mean runtime of all algorithms, and walktrap, markov_cluster
    and spinglass each run longer than louvain."""
    spec = SweepSpec(
        node_counts=(5000,),
        avg_degrees=(30,),
        gammas=(3.0,),
        betas=(2.0,),
        mu_grid=(0.3, 0.3, 0.1),
        replicates=3,
        algorithms=tuple(sorted(ALGORITHMS)),
        master_seed=1010,
    )
    outcome = run_sweep(spec, workers=2)
    assert not outcome.skipped
    means = {s.algorithm: s.mean_runtime_ms for s in summarize(outcome.records)}
    lp = means["label_propagation"]
    lv = means["louvain"]
    fastest = min(means.values())
    passed = lp == fastest and all(
        means[a] > lv for a in ("walktrap", "markov_cluster", "spinglass")
    )
    detail = " ".join(f"{k}={v:.0f}ms" for k, v in sorted(means.items(), key=lambda kv: kv[1]))
    report(10, passed, detail)
