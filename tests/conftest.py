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


def make_ring_of_triangles(count=4):
    """`count` triangles, consecutive ones joined by a single edge, closing
    into a ring. Nodes 3i, 3i+1, 3i+2 form triangle i."""
    edges = []
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (a, c), (b, c)]
        edges.append((c, (3 * (i + 1)) % (3 * count)))
    return Graph(3 * count, edges)


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
    return make_ring_of_triangles(4)
