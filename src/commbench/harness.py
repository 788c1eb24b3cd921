"""Experiment orchestration: parameter sweeps with replicates, NMI
aggregation, correlation analysis, and CSV/plot-data persistence.

Sweeps are embarrassingly parallel over (cell, replicate) units. Every
unit's seed derives from (master seed, canonical cell key, replicate), so
results are byte-identical regardless of worker count or scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
import typing
import warnings
from dataclasses import astuple, asdict, dataclass, field, fields
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

    node_counts: tuple[int, ...] = (1000,)
    avg_degrees: tuple[float, ...] = (15,)
    max_degree_factor: float = 3.0
    gammas: tuple[float, ...] = (3.0,)
    betas: tuple[float, ...] = (2.0,)
    mu_grid: tuple[float, ...] = (0.05, 0.95, 0.05)
    replicates: int = 25
    algorithms: tuple[str, ...] = tuple(sorted(ALGORITHMS))
    master_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.mu_grid) != 3:
            raise ValueError(f"mu_grid must be (start, stop, step), got {self.mu_grid}")
        start, stop, step = self.mu_grid
        if not (0.0 < start <= stop < 1.0 and step > 0):
            raise ValueError(f"mu grid must stay within (0,1), got {self.mu_grid}")
        # Refused before mu_values lists it: table1.json takes 18 steps.
        if (stop - start) / step >= 10_000:
            raise ValueError(f"mu_grid takes more than 10000 steps: {self.mu_grid}")
        for name in ("node_counts", "avg_degrees", "gammas", "betas", "algorithms", "mu_grid"):
            values = self.mu_values() if name == "mu_grid" else getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if name in ("avg_degrees", "gammas", "betas") and not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {values}")
            # As Cell.key shows them: values equal to 6 significant digits
            # would share a cell key, and so a seed and a summary row.
            if len(set(map(_fmt, values))) != len(values):
                raise ValueError(f"{name} repeats a value: {values} (cell keys show 6 digits)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; known: {sorted(ALGORITHMS)}")
        factor = self.max_degree_factor
        if not 0 < factor < math.inf:
            raise ValueError(f"max_degree_factor must be positive and finite, got {factor}")
        if not math.isfinite(factor * max(map(abs, self.avg_degrees))):
            raise ValueError("max_degree_factor times an avg_degrees value overflows")

    def mu_values(self):
        """start, start + step, ... up to stop. The 1e-9 absorbs the rounding
        of a step that divides the range; an uneven grid ends below stop."""
        start, stop, step = self.mu_grid
        count = math.floor((stop - start) / step + 1e-9) + 1
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
        """Read a spec from a JSON object of field names and values; a list
        for each tuple field, a single value for the others."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"sweep spec is not JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"sweep spec must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, value in raw.items():
            hint = hints[name]
            # tuple[int, ...] -> int, str | None -> str, int -> int
            kind = (typing.get_args(hint) or (hint,))[0]
            try:
                if value is None and type(None) in typing.get_args(hint):
                    kwargs[name] = None
                elif typing.get_origin(hint) is tuple:
                    if not isinstance(value, list):
                        raise ValueError(f"expected a list, got {value!r}")
                    kwargs[name] = tuple(_spec_value(kind, v) for v in value)
                else:
                    kwargs[name] = _spec_value(kind, value)
            except ValueError as err:
                raise ValueError(f"sweep spec key {name!r}: {err}") from None
        return cls(**kwargs)


def _spec_value(kind, value):
    """`value` as `kind`, refusing what the conversion would change without
    a word: anything but a number where a number is expected (bools
    included), a float with a fraction where an int is, and a non-string
    where a string is."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (isinstance(value, str) if kind is str else number):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"expected {kind.__name__}, got an integer too large for it") from None


@functools.cache
def _float_fields(cls):
    return tuple(name for name, kind in typing.get_type_hints(cls).items() if kind is float)


@dataclass(frozen=True)
class CellColumns:
    """Leading columns shared by records.csv and summary.csv rows. Floats
    are stored at 6 significant digits, matching the CSV format exactly."""

    algorithm: str
    n: int
    avg_degree: float
    max_degree: int
    gamma: float
    beta: float
    mu_target: float

    def __post_init__(self):
        for name in _float_fields(type(self)):
            object.__setattr__(self, name, _sig6(getattr(self, name)))

    def cell_key(self):
        grid = (self.n, self.avg_degree, self.max_degree, self.gamma, self.beta, self.mu_target)
        return Cell(*grid).key()


@dataclass(frozen=True)
class RunRecord(CellColumns):
    """One (algorithm, network, replicate) result row."""

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

    def sort_key(self):
        return (
            self.n, self.avg_degree, self.gamma, self.beta, self.mu_target,
            self.replicate, self.algorithm,
        )


#: records.csv column -> type, in column order (stable contract).
_RECORD_FIELDS = typing.get_type_hints(RunRecord)
RECORD_COLUMNS = tuple(_RECORD_FIELDS)


@dataclass(frozen=True)
class CellSummary(CellColumns):
    """Per-cell, per-algorithm aggregate over replicates."""

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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = generate(LfrConfig(**asdict(cell), seed=seed, allow_mu_beyond_limit=True))
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
                algo,
                *astuple(cell),  # Cell's fields are the grid columns, in order
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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    units = [
        (spec, cell, replicate, artifact_dir)
        for cell in spec.cells()
        for replicate in range(spec.replicates)
    ]
    # Largest networks first, one unit per task, so no worker is left with
    # a long unit after the others run dry.
    units.sort(key=lambda unit: -unit[1].n * unit[1].avg_degree)
    if workers == 1:
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
        nmis = [r.nmi for r in recs]
        mean = math.fsum(nmis) / len(nmis)
        var = math.fsum((x - mean) ** 2 for x in nmis) / len(nmis)
        out.append(
            CellSummary(
                **{f.name: getattr(recs[0], f.name) for f in fields(CellColumns)},
                runs=len(recs),
                mean_nmi=mean,
                std_nmi=math.sqrt(var),
                mean_runtime_ms=math.fsum(r.runtime_ms for r in recs) / len(recs),
                mean_mu_realized=math.fsum(r.mu_realized for r in recs) / len(recs),
                mean_mu_limit=math.fsum(r.mu_limit for r in recs) / len(recs),
            )
        )
    return out


def correlation_table(records):
    """{algorithm or 'overall' -> {parameter -> r or None}}: the Pearson r
    between each sweep parameter and per-cell mean NMI, pooled across the
    other parameters; None where either side does not vary."""
    summaries = summarize(records) if records else []
    groups = {}
    for s in summaries:
        groups.setdefault(s.algorithm, []).append(s)
    groups = dict(sorted(groups.items()))
    groups["overall"] = summaries
    table = {}
    for name, group in groups.items():
        ys = [s.mean_nmi for s in group]
        row = table[name] = {}
        for parameter in SWEEP_PARAMETERS:
            xs = [getattr(s, "mu_target" if parameter == "mu" else parameter) for s in group]
            varies = len(set(xs)) > 1 and len(set(ys)) > 1
            row[parameter] = pearson(xs, ys) if varies else None
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
        for number, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(RECORD_COLUMNS):
                raise ValueError(
                    f"records.csv line {number} has {len(parts)} fields; "
                    f"the header has {len(RECORD_COLUMNS)}"
                )
            kwargs = {}
            for col, value in zip(RECORD_COLUMNS, parts):
                kind = _RECORD_FIELDS[col]
                try:
                    kwargs[col] = kind(value)
                except ValueError:
                    raise ValueError(
                        f"records.csv line {number}, column {col!r}: "
                        f"{value!r} is not a valid {kind.__name__}"
                    ) from None
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
    if mode == "figure2" and algorithm is None:
        raise ValueError("figure2 needs an algorithm")
    pool = list(summaries)
    n = _resolve_slice(pool, "n", n)
    gamma = _resolve_slice(pool, "gamma", gamma)
    beta = _resolve_slice(pool, "beta", beta)
    pool = [s for s in pool if s.n == n and s.gamma == gamma and s.beta == beta]
    if mode == "figure1":
        avg_degree = _resolve_slice(pool, "avg_degree", avg_degree)
        pool = [s for s in pool if s.avg_degree == avg_degree]
        series, label = "algorithm", str
    else:
        pool = [s for s in pool if s.algorithm == algorithm]
        series, label = "avg_degree", lambda d: f"k{d:g}"
    if not pool:
        raise ValueError(f"summaries do not cover the requested {mode} slice")

    columns = sorted({getattr(s, series) for s in pool})
    grid = {(s.mu_target, getattr(s, series)): s for s in pool}
    header = ["# mu", *map(label, columns)]
    if mode == "figure1":
        header.append("mu_lim")
    lines = [" ".join(header)]
    for mu in sorted({s.mu_target for s in pool}):
        row = [grid.get((mu, c)) for c in columns]
        text = [f"{mu:g}"] + [f"{s.mean_nmi:.6g}" if s else "nan" for s in row]
        if mode == "figure1":
            limits = [s.mean_mu_limit for s in row if s]
            text.append(f"{sum(limits) / len(limits):.6g}")
        lines.append(" ".join(text))

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
