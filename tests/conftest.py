"""Shared fixtures: small graphs with known community structure."""

import itertools

import pytest

from commbench.graph import Graph


def pytest_configure(config):
    # Rewiring that misses its mixing target fails the test that caused it,
    # unless the test records the warning itself. Set here rather than in
    # pyproject.toml, which the benchmark's own tests read too.
    config.addinivalue_line("filterwarnings", "error::commbench.lfr.MixingToleranceWarning")


def clique_edges(nodes):
    return list(itertools.combinations(nodes, 2))


def make_clique_pair(k, bridged=False):
    """Two k-cliques on nodes 0..k-1 and k..2k-1, optionally joined by the
    single edge (k-1, k)."""
    edges = clique_edges(range(k)) + clique_edges(range(k, 2 * k))
    if bridged:
        edges.append((k - 1, k))
    return Graph(2 * k, edges)


def ring_of_cliques(sizes):
    """Cliques of the given sizes on consecutive nodes, each joined to the
    next by one edge, closing into a ring."""
    edges = []
    starts = list(itertools.accumulate(sizes, initial=0))
    for i, size in enumerate(sizes):
        edges += clique_edges(range(starts[i], starts[i] + size))
        edges.append((starts[i] + size - 1, starts[(i + 1) % len(sizes)]))
    return Graph(starts[-1], edges)


def random_graph(n, p, rng):
    """G(n, p): each pair u < v, in order, is an edge when `rng.random() < p`."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def two_triangles():
    return make_clique_pair(3)


@pytest.fixture
def bridged_triangles():
    return make_clique_pair(3, bridged=True)


@pytest.fixture
def two_five_cliques():
    return make_clique_pair(5)


@pytest.fixture
def bridged_five_cliques():
    return make_clique_pair(5, bridged=True)


@pytest.fixture
def ring_of_triangles():
    # Nodes 3i, 3i+1, 3i+2 form triangle i.
    return ring_of_cliques([3] * 4)
