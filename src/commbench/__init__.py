"""Community-detection benchmark toolkit.

Generates planted-partition networks with power-law degree and
community-size distributions, runs nine detection algorithms on them, and
scores recovered partitions against the planted ones.
"""

from .graph import (
    Graph,
    Partition,
    WeightedGraph,
    connected_components,
    degree,
    edge_triangle_count,
    quotient_graph,
    read_edge_list,
    read_membership,
    write_edge_list,
    write_membership,
)
from .metrics import (
    ConfusionMatrix,
    MixingReport,
    confusion,
    measured_mixing,
    modularity,
    nmi,
    partition_nmi,
    pearson,
)
from .lfr import LfrConfig, PlantedNetwork, generate, mu_limit
from .algorithms import ALGORITHMS, AlgoParams, ConvergenceWarning
from .harness import RunRecord, SweepSpec, run_sweep, summarize

__version__ = "0.1.0"
