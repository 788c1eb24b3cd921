"""Experiment orchestration: parameter sweeps with replicates, NMI
aggregation, correlation analysis, and CSV/plot-data persistence.

Sweeps are embarrassingly parallel over (cell, replicate) units. Every
unit's seed derives from (master seed, canonical cell key, replicate), so
results are byte-identical regardless of worker count or scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import typing
import warnings
from dataclasses import dataclass, field, fields
from multiprocessing import Pool
from pathlib import Path

from .algorithms import ALGORITHMS, AlgoParams, ConvergenceWarning
from .graph import write_edge_list, write_membership
from .lfr import LfrConfig, MixingToleranceWarning, generate
from .metrics import modularity, partition_nmi, pearson

SWEEP_PARAMETERS = ("mu", "n", "avg_degree", "gamma", "beta")


def _sig6(x):
    """Quantize to 6 significant digits so records survive a CSV round
    trip unchanged."""
    return float(f"{float(x):.6g}")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


@dataclass(frozen=True)
class Cell:
    """One grid point of the sweep."""

    n: int
    avg_degree: float
    max_degree: int
    gamma: float
    beta: float
    mu: float

    def key(self) -> str:
        return (
            f"n={self.n},k={self.avg_degree:g},kmax={self.max_degree},"
            f"gamma={self.gamma:g},beta={self.beta:g},mu={self.mu:g}"
        )

    def dirname(self) -> str:
        return self.key().replace("=", "").replace(",", "_").replace(".", "p")


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: every combination of the parameter lists times the
    mu grid, `replicates` networks per combination."""

    node_counts: tuple = (1000,)
    avg_degrees: tuple = (15,)
    max_degree_factor: float = 3.0
    gammas: tuple = (3.0,)
    betas: tuple = (2.0,)
    mu_grid: tuple = (0.05, 0.95, 0.05)
    replicates: int = 25
    algorithms: tuple = tuple(sorted(ALGORITHMS))
    master_seed: int = 0
    output_dir: str | None = None

    def validate(self):
        start, stop, step = self.mu_grid
        if not (0.0 < start <= stop < 1.0 and step > 0):
            raise ValueError(f"mu grid must stay within (0,1), got {self.mu_grid}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; known: {sorted(ALGORITHMS)}")
        if self.max_degree_factor <= 0:
            raise ValueError("max_degree_factor must be positive")

    def mu_values(self):
        start, stop, step = self.mu_grid
        count = int(round((stop - start) / step)) + 1
        return [round(start + i * step, 10) for i in range(count)]

    def cells(self):
        out = []
        for n in self.node_counts:
            for k in self.avg_degrees:
                kmax = min(int(round(self.max_degree_factor * k)), n - 1)
                for gamma in self.gammas:
                    for beta in self.betas:
                        for mu in self.mu_values():
                            out.append(
                                Cell(
                                    n=int(n), avg_degree=float(k), max_degree=kmax,
                                    gamma=float(gamma), beta=float(beta), mu=float(mu),
                                )
                            )
        return out

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        """Read a spec from JSON or flat key-value text ("key = v1,v2")."""
        text = Path(path).read_text()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            raw = json.loads(text)
        else:
            raw = {}
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                raw[key.strip()] = [v.strip() for v in value.split(",") if v.strip()]
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            value = raw[f.name]
            if f.name in ("node_counts",):
                kwargs[f.name] = tuple(int(v) for v in _aslist(value))
            elif f.name in ("avg_degrees", "gammas", "betas", "mu_grid"):
                kwargs[f.name] = tuple(float(v) for v in _aslist(value))
            elif f.name == "algorithms":
                kwargs[f.name] = tuple(str(v) for v in _aslist(value))
            elif f.name in ("replicates", "master_seed"):
                kwargs[f.name] = int(_asscalar(value))
            elif f.name == "max_degree_factor":
                kwargs[f.name] = float(_asscalar(value))
            elif f.name == "output_dir":
                kwargs[f.name] = str(_asscalar(value))
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        return cls(**kwargs)


def _aslist(value):
    return value if isinstance(value, (list, tuple)) else [value]


def _asscalar(value):
    if isinstance(value, (list, tuple)):
        if len(value) != 1:
            raise ValueError(f"expected a single value, got {value}")
        return value[0]
    return value


@dataclass(frozen=True)
class RunRecord:
    """One (algorithm, network, replicate) result row. Floats are stored at
    6 significant digits, matching the CSV format exactly."""

    algorithm: str
    n: int
    avg_degree: float
    max_degree: int
    gamma: float
    beta: float
    mu_target: float
    mu_realized: float
    mu_limit: float
    replicate: int
    seed: int
    nmi: float
    modularity: float
    communities_found: int
    communities_planted: int
    runtime_ms: float
    flags: str

    def __post_init__(self):
        for name, kind in _RECORD_FIELDS.items():
            if kind is float:
                object.__setattr__(self, name, _sig6(getattr(self, name)))

    def sort_key(self):
        return (
            self.n, self.avg_degree, self.gamma, self.beta, self.mu_target,
            self.replicate, self.algorithm,
        )

    def cell_key(self):
        return (
            f"n={self.n},k={self.avg_degree:g},kmax={self.max_degree},"
            f"gamma={self.gamma:g},beta={self.beta:g},mu={self.mu_target:g}"
        )


#: records.csv column -> type, in column order (stable contract).
_RECORD_FIELDS = typing.get_type_hints(RunRecord)
RECORD_COLUMNS = tuple(_RECORD_FIELDS)


@dataclass(frozen=True)
class CellSummary:
    """Per-cell, per-algorithm aggregate over replicates."""

    algorithm: str
    n: int
    avg_degree: float
    max_degree: int
    gamma: float
    beta: float
    mu_target: float
    runs: int
    mean_nmi: float
    std_nmi: float
    mean_runtime_ms: float
    mean_mu_realized: float
    mean_mu_limit: float


SUMMARY_COLUMNS = tuple(f.name for f in fields(CellSummary))


@dataclass(frozen=True)
class SkippedCell:
    cell_key: str
    replicate: int
    reason: str


@dataclass
class SweepOutcome:
    records: list
    skipped: list = field(default_factory=list)


def derive_seed(master_seed, cell_key, replicate) -> int:
    """Stable 63-bit seed from (master seed, canonical cell key, replicate);
    independent of process, platform, and scheduling."""
    digest = hashlib.sha256(f"{master_seed}|{cell_key}|{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _run_unit(args):
    spec, cell, replicate, artifact_dir = args
    seed = derive_seed(spec.master_seed, cell.key(), replicate)
    config = LfrConfig(
        n=cell.n,
        avg_degree=cell.avg_degree,
        max_degree=cell.max_degree,
        gamma=cell.gamma,
        beta=cell.beta,
        mu=cell.mu,
        seed=seed,
        allow_mu_beyond_limit=True,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = generate(config)
        except ValueError as exc:
            return SweepOutcome(records=[], skipped=[SkippedCell(cell.key(), replicate, str(exc))])
    base_flags = set()
    if any(isinstance(w.message, MixingToleranceWarning) for w in caught):
        base_flags.add("mixing-unconverged")
    if cell.mu > net.mu_limit + 1e-12:
        base_flags.add("beyond-mu-limit")

    unit_dir = None
    if artifact_dir is not None:
        unit_dir = Path(artifact_dir) / cell.dirname() / f"rep{replicate:03d}"
        unit_dir.mkdir(parents=True, exist_ok=True)
        write_edge_list(net.graph, unit_dir / "network.edges")
        write_membership(net.planted, unit_dir / "planted.membership")

    records = []
    for algo in spec.algorithms:
        algo_seed = derive_seed(spec.master_seed, f"{cell.key()}|{algo}", replicate)
        params = AlgoParams(seed=algo_seed)
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as algo_caught:
            warnings.simplefilter("always")
            estimated = ALGORITHMS[algo](net.graph, params)
        runtime_ms = max((time.perf_counter() - start) * 1e3, 1e-6)
        flags = set(base_flags)
        if any(isinstance(w.message, ConvergenceWarning) for w in algo_caught):
            flags.add("nonconverged")
        if unit_dir is not None:
            write_membership(estimated, unit_dir / f"{algo}.membership")
        records.append(
            RunRecord(
                algorithm=algo,
                n=cell.n,
                avg_degree=cell.avg_degree,
                max_degree=cell.max_degree,
                gamma=cell.gamma,
                beta=cell.beta,
                mu_target=cell.mu,
                mu_realized=net.realized_mu,
                mu_limit=net.mu_limit,
                replicate=replicate,
                seed=seed,
                nmi=partition_nmi(net.planted, estimated),
                modularity=modularity(net.graph, estimated),
                communities_found=estimated.num_communities,
                communities_planted=net.planted.num_communities,
                runtime_ms=runtime_ms,
                flags=";".join(sorted(flags)),
            )
        )
    return SweepOutcome(records=records)


def run_sweep(spec: SweepSpec, workers: int = 1, artifact_dir=None) -> SweepOutcome:
    """Generate and score every (cell, replicate, algorithm) combination.

    Generation failures become skipped-cell diagnostics rather than
    crashes. Output ordering is deterministic regardless of `workers`.
    """
    spec.validate()
    units = [
        (spec, cell, replicate, artifact_dir)
        for cell in spec.cells()
        for replicate in range(spec.replicates)
    ]
    # Largest networks first, one unit per task, so no worker is left with
    # a long unit after the others run dry.
    units.sort(key=lambda unit: -unit[1].n * unit[1].avg_degree)
    if workers <= 1:
        outcomes = [_run_unit(unit) for unit in units]
    else:
        with Pool(processes=workers) as pool:
            outcomes = pool.map(_run_unit, units, chunksize=1)
    result = SweepOutcome(records=[])
    for outcome in outcomes:
        result.records.extend(outcome.records)
        result.skipped.extend(outcome.skipped)
    result.records.sort(key=RunRecord.sort_key)
    result.skipped.sort(key=lambda s: (s.cell_key, s.replicate))
    return result


def summarize(records) -> list:
    """Per-cell, per-algorithm mean/std of NMI and mean runtime."""
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for rec in records:
        groups.setdefault((rec.sort_key()[:5], rec.algorithm), []).append(rec)
    out = []
    for (_, _algo), recs in sorted(groups.items()):
        first = recs[0]
        nmis = [r.nmi for r in recs]
        mean = math.fsum(nmis) / len(nmis)
        var = math.fsum((x - mean) ** 2 for x in nmis) / len(nmis)
        out.append(
            CellSummary(
                algorithm=first.algorithm,
                n=first.n,
                avg_degree=first.avg_degree,
                max_degree=first.max_degree,
                gamma=first.gamma,
                beta=first.beta,
                mu_target=first.mu_target,
                runs=len(recs),
                mean_nmi=_sig6(mean),
                std_nmi=_sig6(math.sqrt(var)),
                mean_runtime_ms=_sig6(math.fsum(r.runtime_ms for r in recs) / len(recs)),
                mean_mu_realized=_sig6(math.fsum(r.mu_realized for r in recs) / len(recs)),
                mean_mu_limit=_sig6(math.fsum(r.mu_limit for r in recs) / len(recs)),
            )
        )
    return out


def _cell_parameter(summary, parameter):
    if parameter == "mu":
        return summary.mu_target
    return getattr(summary, parameter)


def correlate(records, parameter, algorithm=None) -> float:
    """Pearson correlation between a sweep parameter and per-cell mean NMI,
    pooled across the other parameters (optionally for one algorithm)."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
    summaries = summarize(records)
    if algorithm is not None:
        summaries = [s for s in summaries if s.algorithm == algorithm]
    if not summaries:
        raise ValueError(f"no records for algorithm {algorithm!r}")
    xs = [_cell_parameter(s, parameter) for s in summaries]
    ys = [s.mean_nmi for s in summaries]
    if len(set(xs)) < 2:
        raise ValueError(f"parameter {parameter!r} does not vary across records")
    return pearson(xs, ys)


def correlation_table(records):
    """{algorithm or 'overall' -> {parameter -> r or None}} over all
    parameters that vary."""
    algos = sorted({r.algorithm for r in records})
    table = {}
    for name in algos + ["overall"]:
        row = {}
        for parameter in SWEEP_PARAMETERS:
            try:
                row[parameter] = correlate(
                    records, parameter, algorithm=None if name == "overall" else name
                )
            except ValueError:
                row[parameter] = None
        table[name] = row
    return table


def emit_csv(records, summaries, out_dir):
    """Write records.csv and summary.csv (6 significant digits, stable
    column and row order). Returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.csv"
    with open(records_path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for rec in sorted(records, key=RunRecord.sort_key):
            fh.write(",".join(_fmt(getattr(rec, col)) for col in RECORD_COLUMNS) + "\n")
    summary_path = out / "summary.csv"
    with open(summary_path, "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for summ in summaries:
            fh.write(",".join(_fmt(getattr(summ, col)) for col in SUMMARY_COLUMNS) + "\n")
    return records_path, summary_path


def parse_records_csv(path) -> list:
    """Inverse of the records.csv writer."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"unexpected records.csv header: {header}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            kwargs = {
                col: _RECORD_FIELDS[col](value)
                for col, value in zip(RECORD_COLUMNS, parts)
            }
            records.append(RunRecord(**kwargs))
    return records


def emit_plot_data(summaries, mode, path, algorithm=None, n=None, avg_degree=None,
                   gamma=None, beta=None):
    """Columnar plot data.

    figure1: one row per mu, one mean-NMI column per algorithm at a fixed
    (n, avg_degree, gamma, beta), plus the realized mu-limit marker.
    figure2: one row per mu, one column per average degree for a single
    algorithm at fixed (n, gamma, beta).
    """
    if mode not in ("figure1", "figure2"):
        raise ValueError(f"unknown plot mode {mode!r}")
    pool = list(summaries)
    n = _resolve_slice(pool, "n", n)
    gamma = _resolve_slice(pool, "gamma", gamma)
    beta = _resolve_slice(pool, "beta", beta)
    pool = [s for s in pool if s.n == n and s.gamma == gamma and s.beta == beta]

    if mode == "figure1":
        avg_degree = _resolve_slice(pool, "avg_degree", avg_degree)
        pool = [s for s in pool if s.avg_degree == avg_degree]
        if not pool:
            raise ValueError("summaries do not cover the requested figure1 slice")
        algos = sorted({s.algorithm for s in pool})
        mus = sorted({s.mu_target for s in pool})
        grid = {(s.mu_target, s.algorithm): s for s in pool}
        lines = ["# mu " + " ".join(algos) + " mu_lim"]
        for mu in mus:
            row = [f"{mu:g}"]
            limits = []
            for algo in algos:
                s = grid.get((mu, algo))
                row.append(f"{s.mean_nmi:.6g}" if s else "nan")
                if s:
                    limits.append(s.mean_mu_limit)
            row.append(f"{sum(limits) / len(limits):.6g}" if limits else "nan")
            lines.append(" ".join(row))
    else:
        if algorithm is None:
            raise ValueError("figure2 needs an algorithm")
        pool = [s for s in pool if s.algorithm == algorithm]
        if not pool:
            raise ValueError("summaries do not cover the requested figure2 slice")
        degrees = sorted({s.avg_degree for s in pool})
        mus = sorted({s.mu_target for s in pool})
        grid = {(s.mu_target, s.avg_degree): s for s in pool}
        lines = ["# mu " + " ".join(f"k{d:g}" for d in degrees)]
        for mu in mus:
            row = [f"{mu:g}"]
            for d in degrees:
                s = grid.get((mu, d))
                row.append(f"{s.mean_nmi:.6g}" if s else "nan")
            lines.append(" ".join(row))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _resolve_slice(pool, name, value):
    values = {getattr(s, name) for s in pool}
    if value is not None:
        if value not in values:
            raise ValueError(f"no summaries with {name}={value}")
        return value
    if len(values) != 1:
        raise ValueError(f"{name} is ambiguous ({sorted(values)}); pass it explicitly")
    return next(iter(values))
