"""The benchmark's workloads: fixed slices of the shipped sweep profiles.

Every workload's inputs are pinned by the profile slice and its master
seed, so each round of a workload generates the same networks and runs
the same detectors on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

ALL_DETECTORS = (
    "fastgreedy",
    "infomap",
    "label_propagation",
    "leading_eigenvector",
    "louvain",
    "markov_cluster",
    "radetal",
    "spinglass",
    "walktrap",
)


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # profile file, relative to the repository root
    overrides: tuple  # (SweepSpec field, value) pairs replaced in the profile
    workers: int
    round_s: float  # nominal wall time of one round, sets the round count
    figure1: tuple  # emit_plot_data keyword pairs for the figure1 slice
    figure2: tuple  # emit_plot_data keyword pairs for the figure2 slice

    def spec(self, root):
        from commbench.harness import SweepSpec

        base = SweepSpec.from_file(Path(root) / self.profile)
        return replace(base, output_dir=None, **dict(self.overrides))

    def rounds(self, seconds):
        """Whole rounds that fill about `seconds`; at least one."""
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-reduced",
            profile="profiles/reduced.json",
            overrides=(
                ("node_counts", (100, 1000)),
                ("avg_degrees", (5.0, 15.0)),
                ("gammas", (2.0,)),
                ("betas", (2.0,)),
                ("mu_grid", (0.4, 0.7, 0.3)),
                ("replicates", 1),
                ("algorithms", ALL_DETECTORS),
                ("master_seed", 7),
            ),
            workers=2,
            round_s=10.0,
            figure1=(("n", 1000), ("avg_degree", 15.0)),
            figure2=(("algorithm", "walktrap"), ("n", 1000)),
        ),
        Workload(
            name="detect-large",
            profile="profiles/table1.json",
            overrides=(
                ("node_counts", (1200,)),
                ("avg_degrees", (30.0,)),
                ("gammas", (3.0,)),
                ("betas", (2.0,)),
                ("mu_grid", (0.3, 0.3, 0.1)),
                ("replicates", 1),
                ("algorithms", ALL_DETECTORS),
                ("master_seed", 1010),
            ),
            workers=1,
            round_s=10.0,
            figure1=(),
            figure2=(("algorithm", "louvain"),),
        ),
        Workload(
            name="generate-large",
            profile="profiles/table1.json",
            overrides=(
                ("node_counts", (5000,)),
                ("avg_degrees", (30.0,)),
                ("gammas", (3.0,)),
                ("betas", (2.0,)),
                ("mu_grid", (0.1, 0.7, 0.2)),
                ("replicates", 1),
                ("algorithms", ("label_propagation",)),
                ("master_seed", 1010),
            ),
            workers=1,
            round_s=9.0,
            figure1=(),
            figure2=(("algorithm", "label_propagation"),),
        ),
    )
}
