"""Command-line interface: generate benchmark networks, run detections,
score partitions, drive sweeps, and emit analysis reports."""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

from .algorithms import ALGORITHMS, AlgoParams
from .graph import read_edge_list, read_membership, write_edge_list, write_membership
from .harness import (
    CellSummary,
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

#: summary columns that select the slice `report` plots; figure2 ignores avg_degree
_PLOT_SLICES = ("n", "avg_degree", "gamma", "beta")


def _add_field_flags(parser, cls, **aliases):
    """Add one typed --field-name flag per field of dataclass `cls`: bools
    are switches, fields without a default are required, and `aliases`
    maps a field name to further spellings of its flag."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]  # int | None -> int
        flags = ["--" + f.name.replace("_", "-"), *aliases.get(f.name, ())]
        if kind is bool:
            parser.add_argument(*flags, dest=f.name, action="store_true", default=None)
        else:
            parser.add_argument(*flags, dest=f.name, type=kind, required=f.default is MISSING)


def _from_flags(cls, args):
    """Build `cls` from the flags that were given; the rest keep the
    dataclass defaults."""
    return cls(**{f.name: v for f in fields(cls) if (v := getattr(args, f.name)) is not None})


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="commbench",
        description="Community-detection benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one planted-partition network")
    _add_field_flags(gen, LfrConfig, allow_mu_beyond_limit=["--allow-beyond-limit"])
    gen.add_argument("--out", required=True, help="output path prefix")

    det = sub.add_parser("detect", help="run one algorithm on an edge list")
    det.add_argument("--edges", required=True)
    det.add_argument("--node-count", type=int)
    det.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    _add_field_flags(det, AlgoParams)
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
    column_types = typing.get_type_hints(CellSummary)
    for name in _PLOT_SLICES:
        rep.add_argument("--" + name.replace("_", "-"), type=column_types[name])
    return parser


def _cmd_generate(args):
    net = generate(_from_flags(LfrConfig, args))
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
    params = _from_flags(AlgoParams, args)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        partition = ALGORITHMS[args.algorithm](graph, params)
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
        raise ValueError("no output directory (pass --out or set output_dir in the spec)")
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
    summaries = summarize(records)  # refuses a file without rows before anything is written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = correlation_table(records)
    lines = ["algorithm\t" + "\t".join(k for k in next(iter(table.values())))]
    for name, row in table.items():
        rendered = "\t".join("-" if v is None else f"{v:+.4f}" for v in row.values())
        lines.append(f"{name}\t{rendered}")
    (out / "correlations.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    slice_kwargs = {name: getattr(args, name) for name in _PLOT_SLICES}
    if args.figure1:
        path = emit_plot_data(summaries, "figure1", out / "figure1.dat", **slice_kwargs)
        print(f"wrote {path}")
    if args.figure2:
        path = emit_plot_data(
            summaries, "figure2", out / "figure2.dat", algorithm=args.figure2, **slice_kwargs
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
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
