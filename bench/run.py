"""commbench benchmark: one fixed workload per run, through the public API.

    python3 bench/run.py --workload sweep-reduced --seed 1 --seconds 20 --trace 0

Untraced (--trace 0), a run times whole rounds of the workload's fixed
work (run_sweep, then the report path) and prints scaled_wall_s,
setup_s, peak_rss_mib and nmi_mean. Traced (--trace 1), it makes an
untraced 1-worker pass, then a pass with the program's public functions
wrapped by the tracer, then one forked child per detector for peak
memory, and prints the per-layer metrics. Times are given at the
reference host speed of speed.py, from a probe that runs alongside the
timed work. Either way every output is checked after the timed work,
and the last stdout line is the JSON result.
"""

import os

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Before numpy is first imported, here and (by inheritance) in every child.
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_STARTS = 5

LFR_STAGES = (
    "sample_powerlaw_degrees",
    "sample_community_sizes",
    "configuration_model",
    "assign_communities",
    "rewire_to_mixing",
    "measured_mixing",
)

# A fresh interpreter up to the point where run_sweep would start its
# first unit: the program's imports plus building the workload's spec.
SETUP_CODE = """
import sys, time
root, bench, workload = sys.argv[1:4]
sys.path[:0] = [root + "/src", bench]
import numpy, scipy, commbench.cli
from workloads import WORKLOADS
spec = WORKLOADS[workload].spec(root)
spec.validate()
spec.cells()
print(time.monotonic())
"""


def end_to_end_units():
    return {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "nmi_mean": "1"}


def per_layer_units():
    units = {f"lfr.{s}.ms": "ms" for s in LFR_STAGES + ("generate",)}
    units["lfr.rewire_to_mixing.edges_changed"] = "count"
    units["lfr.mixing_unconverged"] = "count"
    units.update({
        "graph.Graph.ms": "ms", "graph.Graph.edges": "count",
        "graph.quotient_graph.ms": "ms", "graph.write.ms": "ms", "graph.write.bytes": "bytes",
    })
    for d in workloads.ALL_DETECTORS:
        units.update({f"algo.{d}.ms": "ms", f"algo.{d}.peak_rss_mib": "MiB",
                      f"algo.{d}.nonconverged": "count"})
    units["algo.floor.peak_rss_mib"] = "MiB"
    units.update({
        "metrics.partition_nmi.ms": "ms", "metrics.modularity.ms": "ms",
        "harness.run_sweep.self_ms": "ms", "harness.report.ms": "ms",
        "harness.sweep_1w.scaled_wall_s": "s", "trace.overhead_s": "s",
    })
    return units


def machine_info():
    import networkx
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "env": {k: os.environ[k] for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "networkx": networkx.__version__,
    }


def setup_times_s(workload):
    """Time from a fresh interpreter to the first unit, once per start:
    (raw seconds, seconds at the reference speed)."""
    times = []
    for _ in range(SETUP_STARTS):
        with SpeedProbe(interval_s=0.1) as probe:
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(ROOT), str(BENCH_DIR), workload],
                check=True, capture_output=True, text=True, timeout=120,
            )
        raw = float(done.stdout.split()[-1]) - start
        times.append((raw, raw / probe.slowdown()))
    return times


def peak_rss_mib():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def report(harness, records, workload, out):
    """The report path as the CLI's sweep and report commands run it."""
    summaries = harness.summarize(records)
    harness.emit_csv(records, summaries, out)
    parsed = harness.parse_records_csv(out / "records.csv")
    table = harness.correlation_table(parsed)
    (out / "correlations.json").write_text(json.dumps(table, indent=1) + "\n")
    summaries = harness.summarize(parsed)
    harness.emit_plot_data(summaries, "figure1", out / "figure1.dat", **dict(workload.figure1))
    harness.emit_plot_data(summaries, "figure2", out / "figure2.dat", **dict(workload.figure2))


def run_pass(spec, workload, workers, tracer=None):
    """One pass of the workload's fixed work into a clean output directory.
    Returns (outcome, the speed probe that ran alongside it)."""
    from commbench import harness

    out = OUT_DIR / workload.name
    shutil.rmtree(out, ignore_errors=True)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with SpeedProbe(children=True, untimed=tracer.untimed if tracer else None) as probe:
        with span("harness.run_sweep"):
            outcome = harness.run_sweep(spec, workers=workers, artifact_dir=out / "runs")
        with span("harness.report"):
            report(harness, outcome.records, workload, out)
    return outcome, probe


def install_tracing(tracer):
    """Wrap each layer's public functions where the program looks them up."""
    from commbench import algorithms, graph, lfr, metrics

    def edges_changed(args, kwargs, result):
        return {"lfr.rewire_to_mixing.edges_changed":
                len(set(args[0].edges) - set(result.edges))}

    for stage in LFR_STAGES:
        after = edges_changed if stage == "rewire_to_mixing" else None
        tracer.patch_function(getattr(lfr, stage), f"lfr.{stage}", after)
    tracer.patch_function(lfr.generate, "lfr.generate")
    tracer.patch_attr(graph.Graph, "__init__", "graph.Graph",
                      lambda args, kwargs, result: {"graph.Graph.edges": args[0].edge_count})
    tracer.patch_function(graph.quotient_graph, "graph.quotient_graph")
    written = lambda args, kwargs, result: {"graph.write.bytes": os.path.getsize(args[1])}  # noqa: E731
    tracer.patch_function(graph.write_edge_list, "graph.write", written)
    tracer.patch_function(graph.write_membership, "graph.write", written)
    for name in list(algorithms.ALGORITHMS):
        tracer.patch_attr(algorithms.ALGORITHMS, name, f"algo.{name}")
    tracer.patch_function(metrics.partition_nmi, "metrics.partition_nmi")
    tracer.patch_function(metrics.modularity, "metrics.modularity")


def child_peak_rss_mib(task):
    """Peak RSS of a forked child that runs `task` and exits."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                task()
            os.write(write_fd, str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"peak-memory child exited with status {status}")
    return int(data) / 1024.0


def probe_unit(spec):
    """The first unit of the largest n: regenerated for the determinism
    check and for the per-detector memory children."""
    from commbench.harness import derive_seed
    from commbench.lfr import LfrConfig, generate

    cell = next(c for c in spec.cells() if c.n == max(spec.node_counts))
    seed = derive_seed(spec.master_seed, cell.key(), 0)
    net = generate(LfrConfig(
        n=cell.n, avg_degree=cell.avg_degree, max_degree=cell.max_degree, gamma=cell.gamma,
        beta=cell.beta, mu=cell.mu, seed=seed, allow_mu_beyond_limit=True,
    ))
    return cell, net


class Ledger:
    """Operations attempted and the distinct ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.messages = []

    def add_pass(self, index, units, spec, outcome):
        self.attempted += len(units) * (1 + len(spec.algorithms))
        self.fail(index, [checks.Failure((s.cell_key, s.replicate, None), f"skipped: {s.reason}")
                          for s in outcome.skipped])

    def fail(self, index, failures):
        for f in failures:
            self.failed.add((index,) + f.op)
            self.messages.append(f"pass {index}: {f.op}: {f.message}")


def verify(ledger, passes, spec, units, workload):
    """Full checks on the last pass's outputs; earlier passes must equal it."""
    last = len(passes) - 1
    outcome = passes[last]
    out = OUT_DIR / workload.name
    ledger.fail(last, checks.check_units(out / "runs", outcome.records, units, spec.algorithms))
    ledger.fail(last, checks.check_csv(out, outcome.records))
    for index, other in enumerate(passes[:last]):
        ledger.fail(index, checks.compare_records(outcome.records, other.records))
    cell, net = probe_unit(spec)
    rec = next(r for r in outcome.records if r.cell_key() == cell.key() and r.replicate == 0)
    ledger.fail(last, checks.check_regeneration(out / "runs", rec, net.graph.edges,
                                                net.planted.membership))
    return cell, net


def run_untraced(workload, spec, units, seconds, ledger, samples):
    setups = setup_times_s(workload.name)
    samples["setup_raw_s"] = [raw for raw, _ in setups]
    samples["setup_s"] = [scaled for _, scaled in setups]
    passes, rounds = [], []
    for _ in range(workload.rounds(seconds)):
        outcome, probe = run_pass(spec, workload, workload.workers)
        ledger.add_pass(len(passes), units, spec, outcome)
        passes.append(outcome)
        rounds.append((probe.work_s(), probe.scaled_s(), probe.slowdown()))
    peak = peak_rss_mib()  # before the checks, which must not raise it
    verify(ledger, passes, spec, units, workload)
    records = passes[-1].records
    samples["wall_s"], samples["scaled_wall_s"], samples["host_slowdown"] = map(list, zip(*rounds))
    return {
        "scaled_wall_s": statistics.median(samples["scaled_wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mib": peak,
        "nmi_mean": math.fsum(r.nmi for r in records) / len(records),
    }


def run_traced(workload, spec, units, ledger):
    passes = []
    if workload.workers > 1:  # its records must equal the 1-worker ones
        outcome, _ = run_pass(spec, workload, workload.workers)
        ledger.add_pass(len(passes), units, spec, outcome)
        passes.append(outcome)
    outcome, probe = run_pass(spec, workload, 1)
    untraced_s = probe.scaled_s()
    ledger.add_pass(len(passes), units, spec, outcome)
    passes.append(outcome)
    tracer = Tracer()
    install_tracing(tracer)
    try:
        outcome, probe = run_pass(spec, workload, 1, tracer)
    finally:
        tracer.restore()
    traced_s = probe.scaled_s()
    # Span times to the reference speed, by the traced pass's own slowdown.
    scale = traced_s / probe.work_s()
    ms = defaultdict(float, {name: value * scale for name, value in tracer.ms.items()})
    ledger.add_pass(len(passes), units, spec, outcome)
    passes.append(outcome)
    cell, net = verify(ledger, passes, spec, units, workload)

    from commbench.algorithms import ALGORITHMS, AlgoParams
    from commbench.harness import derive_seed

    def detect(algo):
        params = AlgoParams(seed=derive_seed(spec.master_seed, f"{cell.key()}|{algo}", 0))
        return lambda: ALGORITHMS[algo](net.graph, params)

    peaks = {"floor": child_peak_rss_mib(lambda: None)}
    for algo in spec.algorithms:
        ledger.attempted += 1
        try:
            peaks[algo] = child_peak_rss_mib(detect(algo))
        except RuntimeError as exc:
            ledger.fail(len(passes), [checks.Failure((cell.key(), 0, algo),
                                                     f"peak-memory child failed: {exc}")])

    records = outcome.records
    metrics = {f"lfr.{s}.ms": ms[f"lfr.{s}"] for s in LFR_STAGES + ("generate",)}
    metrics["lfr.rewire_to_mixing.edges_changed"] = tracer.counts["lfr.rewire_to_mixing.edges_changed"]
    metrics["lfr.mixing_unconverged"] = len(
        {(r.cell_key(), r.replicate) for r in records if "mixing-unconverged" in r.flags})
    metrics.update({
        "graph.Graph.ms": ms["graph.Graph"],
        "graph.Graph.edges": tracer.counts["graph.Graph.edges"],
        "graph.quotient_graph.ms": ms["graph.quotient_graph"],
        "graph.write.ms": ms["graph.write"],
        "graph.write.bytes": tracer.counts["graph.write.bytes"],
    })
    for d in workloads.ALL_DETECTORS:  # 0 for a detector the workload does not run
        metrics[f"algo.{d}.ms"] = ms[f"algo.{d}"]
        metrics[f"algo.{d}.peak_rss_mib"] = peaks.get(d, 0.0)
        metrics[f"algo.{d}.nonconverged"] = sum(
            1 for r in records if r.algorithm == d and "nonconverged" in r.flags)
    metrics["algo.floor.peak_rss_mib"] = peaks["floor"]
    metrics.update({
        "metrics.partition_nmi.ms": ms["metrics.partition_nmi"],
        "metrics.modularity.ms": ms["metrics.modularity"],
        "harness.run_sweep.self_ms": tracer.self_ms["harness.run_sweep"] * scale,
        "harness.report.ms": ms["harness.report"],
        "harness.sweep_1w.scaled_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: each workload's inputs are fixed by its profile slice")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "commbench").is_dir() or not (ROOT / "profiles").is_dir():
        print(f"error: no commbench sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    spec = workload.spec(ROOT)
    units = [(c.key(), r) for c in spec.cells() for r in range(spec.replicates)]

    ledger, samples = Ledger(), {}
    if args.trace:
        metrics = run_traced(workload, spec, units, ledger)
        units_of = per_layer_units()
    else:
        metrics = run_untraced(workload, spec, units, args.seconds, ledger, samples)
        units_of = end_to_end_units()
    for line in ledger.messages:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not ledger.failed
    print(json.dumps({"workload": workload.name, "seed": args.seed, "machine": machine_info(),
                      "samples": samples}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
