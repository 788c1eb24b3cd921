"""Nine community-detection algorithms, each a pure function from a graph
(plus parameters and a seed where stochastic) to a Partition.

Non-convergence within an algorithm's iteration budget is reported through
ConvergenceWarning while still returning the best-effort partition, so
harnesses can flag affected runs without losing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checked import Checked


class ConvergenceWarning(UserWarning):
    """An iterative stage hit its cap before reaching its stopping rule."""


def _require_edges(graph):
    if graph.edge_count == 0:
        raise ValueError("needs at least one edge")


@dataclass(frozen=True)
class AlgoParams(Checked):
    """Tuning knobs shared by the algorithm suite; every stochastic
    algorithm draws all of its randomness from `seed`."""

    walktrap_t: int = 4
    mcl_expansion: int = 2
    mcl_inflation: float = 2.0
    mcl_prune_threshold: float = 1e-5
    mcl_convergence_epsilon: float = 1e-8
    mcl_max_iterations: int = 200
    spinglass_max_spins: int = 25
    sa_initial_temperature: float = 1.0
    sa_cooling_factor: float = 0.99
    sa_sweeps_per_temperature: int = 1
    sa_min_temperature: float = 0.01
    eigen_tolerance: float = 1e-8  # ARPACK's `tol` (leading_eigenvector)
    eigen_max_iterations: int = 20000  # ARPACK's `maxiter`: Lanczos restarts
    lp_max_rounds: int = 100
    seed: int = 0

    def validate(self):
        for name, least in (
            ("walktrap_t", 1), ("eigen_max_iterations", 1), ("spinglass_max_spins", 1),
            ("sa_sweeps_per_temperature", 1), ("lp_max_rounds", 1),
            ("mcl_max_iterations", 1), ("mcl_expansion", 2), ("seed", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.mcl_inflation <= 1.0:
            raise ValueError("mcl_inflation must be > 1")
        if not 0.0 < self.sa_cooling_factor < 1.0:
            raise ValueError("sa_cooling_factor must be in (0,1)")
        if self.sa_initial_temperature <= self.sa_min_temperature:
            raise ValueError("sa_initial_temperature must be > sa_min_temperature")
        for name in (
            "mcl_prune_threshold", "mcl_convergence_epsilon", "eigen_tolerance",
            "sa_min_temperature",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


from .divisive import radetal  # noqa: E402
from .information import infomap  # noqa: E402
from .modularity_opt import fastgreedy, louvain, spinglass  # noqa: E402
from .propagation import label_propagation  # noqa: E402
from .random_walk import markov_cluster, walktrap  # noqa: E402
from .spectral import leading_eigenvector  # noqa: E402

#: name -> callable(graph, params) for every implemented algorithm
ALGORITHMS = {
    "radetal": lambda graph, params: radetal(graph),
    "fastgreedy": lambda graph, params: fastgreedy(graph),
    "louvain": louvain,
    "spinglass": spinglass,
    "leading_eigenvector": leading_eigenvector,
    "walktrap": walktrap,
    "markov_cluster": markov_cluster,
    "infomap": infomap,
    "label_propagation": label_propagation,
}

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "ConvergenceWarning",
    "fastgreedy",
    "infomap",
    "label_propagation",
    "leading_eigenvector",
    "louvain",
    "markov_cluster",
    "radetal",
    "spinglass",
    "walktrap",
]
