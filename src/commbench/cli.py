"""Command-line interface: generate benchmark networks, run detections,
score partitions, drive sweeps, and emit analysis reports."""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
import warnings
from pathlib import Path

from .algorithms import ALGORITHMS, AlgoParams
from .graph import read_edge_list, read_membership, write_edge_list, write_membership
from .harness import (
    SweepSpec,
    correlation_table,
    emit_csv,
    emit_plot_data,
    parse_records_csv,
    run_sweep,
    summarize,
)
from .lfr import LfrConfig, generate
from .metrics import measured_mixing, modularity, partition_nmi

#: AlgoParams field -> type; `detect` takes each as --field-name
_PARAM_TYPES = typing.get_type_hints(AlgoParams)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="commbench",
        description="Community-detection benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one planted-partition network")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--avg-degree", type=float, required=True)
    gen.add_argument("--max-degree", type=int, required=True)
    gen.add_argument("--gamma", type=float, required=True)
    gen.add_argument("--beta", type=float, required=True)
    gen.add_argument("--mu", type=float, required=True)
    gen.add_argument("--min-community", type=int)
    gen.add_argument("--max-community", type=int)
    gen.add_argument("--mixing-tolerance", type=float, default=0.02)
    gen.add_argument("--max-rewire-iterations", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--allow-beyond-limit", action="store_true")
    gen.add_argument("--out", required=True, help="output path prefix")

    det = sub.add_parser("detect", help="run one algorithm on an edge list")
    det.add_argument("--edges", required=True)
    det.add_argument("--node-count", type=int)
    det.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    for name, kind in _PARAM_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            det.add_argument(flag, action="store_true")
        else:
            det.add_argument(flag, type=kind)
    det.add_argument("--out", required=True, help="membership output path")

    sco = sub.add_parser("score", help="score an estimated partition against the actual one")
    sco.add_argument("--edges", required=True)
    sco.add_argument("--node-count", type=int)
    sco.add_argument("--actual", required=True)
    sco.add_argument("--estimated", required=True)

    swp = sub.add_parser("sweep", help="run a full parameter sweep from a spec file")
    swp.add_argument("--spec", required=True)
    swp.add_argument("--out", help="output directory (overrides spec output_dir)")
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--no-artifacts", action="store_true",
                     help="skip per-run edge/membership files")

    rep = sub.add_parser("report", help="correlation table and plot data from records.csv")
    rep.add_argument("--records", required=True)
    rep.add_argument("--out", required=True)
    rep.add_argument("--figure1", action="store_true")
    rep.add_argument("--figure2", metavar="ALGORITHM")
    rep.add_argument("--n", type=int)
    rep.add_argument("--avg-degree", type=float)
    rep.add_argument("--gamma", type=float)
    rep.add_argument("--beta", type=float)
    return parser


def _cmd_generate(args):
    config = LfrConfig(
        n=args.n,
        avg_degree=args.avg_degree,
        max_degree=args.max_degree,
        gamma=args.gamma,
        beta=args.beta,
        mu=args.mu,
        min_community=args.min_community,
        max_community=args.max_community,
        mixing_tolerance=args.mixing_tolerance,
        max_rewire_iterations=args.max_rewire_iterations,
        seed=args.seed,
        allow_mu_beyond_limit=args.allow_beyond_limit,
    )
    net = generate(config)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(net.graph, f"{prefix}.edges")
    write_membership(net.planted, f"{prefix}.membership")
    meta = {
        "n": net.config.n,
        "avg_degree": net.config.avg_degree,
        "max_degree": net.config.max_degree,
        "gamma": net.config.gamma,
        "beta": net.config.beta,
        "mu_target": net.config.mu,
        "min_community": net.config.min_community,
        "max_community": net.config.max_community,
        "mixing_tolerance": net.config.mixing_tolerance,
        "seed": net.seed_used,
        "realized_mu": net.realized_mu,
        "realized_mu_global": net.realized_mu_global,
        "mu_limit": net.mu_limit,
        "edge_count": net.graph.edge_count,
        "communities": net.planted.num_communities,
    }
    Path(f"{prefix}.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(
        f"generated n={net.config.n} m={net.graph.edge_count} "
        f"communities={net.planted.num_communities} "
        f"realized_mu={net.realized_mu:.4f} mu_limit={net.mu_limit:.4f}"
    )
    return 0


def _cmd_detect(args):
    graph = read_edge_list(args.edges, node_count=args.node_count)
    params = AlgoParams(**{
        name: getattr(args, name) for name in _PARAM_TYPES if getattr(args, name) is not None
    })
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            partition = ALGORITHMS[args.algorithm](graph, params)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    runtime_ms = (time.perf_counter() - start) * 1e3
    write_membership(partition, args.out)
    print(
        f"communities={partition.num_communities} "
        f"modularity={modularity(graph, partition):.6g} "
        f"runtime_ms={runtime_ms:.6g}"
    )
    return 0


def _cmd_score(args):
    graph = read_edge_list(args.edges, node_count=args.node_count)
    actual = read_membership(args.actual)
    estimated = read_membership(args.estimated)
    mix_actual = measured_mixing(graph, actual)
    mix_estimated = measured_mixing(graph, estimated)
    print(f"nmi={partition_nmi(actual, estimated):.6g}")
    print(f"modularity_actual={modularity(graph, actual):.6g}")
    print(f"modularity_estimated={modularity(graph, estimated):.6g}")
    print(f"mixing_actual={mix_actual.per_node:.6g}")
    print(f"mixing_actual_global={mix_actual.global_fraction:.6g}")
    print(f"mixing_estimated={mix_estimated.per_node:.6g}")
    print(f"mixing_estimated_global={mix_estimated.global_fraction:.6g}")
    return 0


def _cmd_sweep(args):
    spec = SweepSpec.from_file(args.spec)
    out_dir = args.out or spec.output_dir
    if not out_dir:
        print("error: no output directory (pass --out or set output_dir in the spec)",
              file=sys.stderr)
        return 2
    out = Path(out_dir)
    artifact_dir = None if args.no_artifacts else out / "runs"
    outcome = run_sweep(spec, workers=args.workers, artifact_dir=artifact_dir)
    summaries = summarize(outcome.records) if outcome.records else []
    records_path, summary_path = emit_csv(outcome.records, summaries, out)
    if outcome.skipped:
        with open(out / "skipped.txt", "w") as fh:
            for skip in outcome.skipped:
                fh.write(f"{skip.cell_key}\trep{skip.replicate}\t{skip.reason}\n")
    print(
        f"wrote {records_path} ({len(outcome.records)} records, "
        f"{len(outcome.skipped)} skipped units)"
    )
    return 0


def _cmd_report(args):
    records = parse_records_csv(args.records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = correlation_table(records)
    lines = ["algorithm\t" + "\t".join(k for k in next(iter(table.values())))]
    for name, row in table.items():
        rendered = "\t".join("-" if v is None else f"{v:+.4f}" for v in row.values())
        lines.append(f"{name}\t{rendered}")
    (out / "correlations.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    summaries = summarize(records)
    slice_kwargs = dict(n=args.n, gamma=args.gamma, beta=args.beta)
    if args.figure1:
        path = emit_plot_data(
            summaries, "figure1", out / "figure1.dat",
            avg_degree=args.avg_degree, **slice_kwargs,
        )
        print(f"wrote {path}")
    if args.figure2:
        path = emit_plot_data(
            summaries, "figure2", out / "figure2.dat",
            algorithm=args.figure2, **slice_kwargs,
        )
        print(f"wrote {path}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "detect": _cmd_detect,
        "score": _cmd_score,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
