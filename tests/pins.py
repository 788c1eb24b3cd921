"""The pinned files under tests/data, one writer per file.

Each writer returns its file's exact text, and the pin's test compares the
two. `PYTHONPATH=src python tests/pins.py --write NAME` rewrites one file.
The detector pins run on the networks committed in `pinned_networks.npz`,
so a change to the generator moves only the generator pin
(`test_lfr.py::TestGenerate::test_reproduces_pinned_networks`), which
regenerates every network of `NETWORKS` and compares the arrays.
"""

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
import warnings
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from commbench.algorithms import ALGORITHMS, AlgoParams
from commbench.algorithms.divisive import _removal_order
from commbench.algorithms.information import description_length
from commbench.graph import Graph, Partition, quotient_graph
from commbench.harness import (
    RECORD_COLUMNS,
    Cell,
    SweepSpec,
    correlation_table,
    derive_seed,
    emit_csv,
    emit_plot_data,
    parse_records_csv,
    run_sweep,
    summarize,
)
from commbench.lfr import LfrConfig, configuration_model, generate

DATA = Path(__file__).parent / "data"
# The seed-7 grid whose records `pinned_check_records.csv` holds.
CHECK_PROFILE = Path(__file__).parents[1] / "profiles" / "check.json"
NETWORKS_FILE = "pinned_networks.npz"

# (master seed, cell) of the detect-large unit and the four n=1000
# sweep-reduced units, then of the four generate-large units; replicate 0.
DETECTOR_UNITS = [(1010, Cell(1200, 30.0, 90, 3.0, 2.0, 0.3))] + [
    (7, Cell(1000, k, int(3 * k), 2.0, 2.0, mu)) for k in (5.0, 15.0) for mu in (0.4, 0.7)
]
LARGE_UNITS = [(1010, Cell(5000, 30.0, 90, 3.0, 2.0, mu)) for mu in (0.1, 0.3, 0.5, 0.7)]
LOCAL_MOVES_CONFIG = {
    "n": 1000, "avg_degree": 15, "max_degree": 45, "gamma": 3, "beta": 2, "seed": 7,
}

# Every network a detector pin reads: the sweep units by cell key, the two
# local-moves networks by mu.
NETWORKS = {
    cell.key(): LfrConfig(
        **asdict(cell), seed=derive_seed(m, cell.key(), 0), allow_mu_beyond_limit=True
    )
    for m, cell in DETECTOR_UNITS + LARGE_UNITS
} | {
    f"local_moves,mu={mu}": LfrConfig(**LOCAL_MOVES_CONFIG, mu=float(mu))
    for mu in ("0.4", "0.7")
}


def network_arrays(net):
    """Edges as (u, v) rows in `Graph.edges` order, and the planted membership."""
    edges = np.column_stack(net.graph.edge_ends())
    return {"edges": edges, "planted": np.asarray(net.planted.membership)}


def write_networks():
    """Store every network of `NETWORKS` as int16 arrays. The entries carry
    zipfile's fixed 1980 date, so unchanged networks rewrite the same bytes."""
    with zipfile.ZipFile(DATA / NETWORKS_FILE, "w") as archive:
        for name, config in NETWORKS.items():
            for part, array in network_arrays(generate(config)).items():
                npy = io.BytesIO()
                np.lib.format.write_array(npy, array.astype(np.int16))
                entry = zipfile.ZipInfo(f"{name}:{part}.npy")
                archive.writestr(entry, npy.getvalue(), zipfile.ZIP_DEFLATED)


def pinned_network(name):
    """(graph, planted partition) of one committed network."""
    with np.load(DATA / NETWORKS_FILE) as arrays:
        edges, planted = arrays[f"{name}:edges"], arrays[f"{name}:planted"]
    return Graph(len(planted), edges), Partition(planted.tolist())


def pinned(name):
    """The committed text of one pinned file."""
    return (DATA / name).read_text()


def digest(values):
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def membership(name, graph, **params):
    """Digest of one detector's membership on `graph`."""
    return digest(list(ALGORITHMS[name](graph, AlgoParams(**params)).membership))


def json_text(value):
    return json.dumps(value, indent=1) + "\n"


def unit_pin(fields, **header):
    """A pin over `DETECTOR_UNITS`: per unit its master seed, cell key, seed
    and edge digest, then `fields(m, cell, graph, planted)`."""
    entries = []
    for m, cell in DETECTOR_UNITS:
        graph, planted = pinned_network(cell.key())
        entry = {"master_seed": m, "cell": cell.key(), "seed": NETWORKS[cell.key()].seed}
        entry["edges_sha256"] = digest(graph.edges)
        entries.append(entry | fields(m, cell, graph, planted))
    return json_text({"replicate": 0, **header, "networks": entries})


def agglomeration():
    """fastgreedy and walktrap, which share one merge engine, walktrap with
    the seed a sweep derives for it."""
    return unit_pin(lambda m, cell, graph, planted: {"membership_sha256": {
        "fastgreedy": membership("fastgreedy", graph),
        "walktrap": membership("walktrap", graph, seed=derive_seed(m, f"{cell.key()}|walktrap", 0)),
    }})


def removal_order():
    """radetal's edge-removal order and partition."""
    return unit_pin(lambda m, cell, graph, planted: {
        "removal_order_sha256": digest(_removal_order(graph)),
        "membership_sha256": membership("radetal", graph),
    })


def markov_cluster():
    """markov_cluster at expansion 2, and at 3 on the first n=1000 unit."""
    return unit_pin(lambda m, cell, graph, planted: {"membership_sha256": {
        str(e): membership("markov_cluster", graph, mcl_expansion=e)
        for e in ((2, 3) if cell == DETECTOR_UNITS[1][1] else (2,))
    }})


def description_lengths():
    """float.hex description lengths under the planted, all-in-one,
    singleton and a seeded random partition, and on one quotient of each
    network under a seeded partition."""
    header = {
        "partition_seed": 21, "random_communities": 30,
        "quotient_communities": 100, "quotient_random_communities": 10,
    }

    def lengths(graph, rng, random_count, **parts):
        n = graph.node_count
        parts["singletons"] = Partition(list(range(n)))
        parts["random"] = Partition.from_labels([rng.randrange(random_count) for _ in range(n)])
        return {key: description_length(graph, p).hex() for key, p in parts.items()}

    def fields(m, cell, graph, planted):
        rng, n = random.Random(header["partition_seed"]), graph.node_count
        top = lengths(
            graph, rng, header["random_communities"],
            planted=planted, all_in_one=Partition([0] * n),
        )
        labels = [rng.randrange(header["quotient_communities"]) for _ in range(n)]
        q = quotient_graph(graph, Partition.from_labels(labels))
        quotient = lengths(q, rng, header["quotient_random_communities"])
        return {
            "description_length": top,
            "quotient": {"node_count": q.node_count, "description_length": quotient},
        }

    return unit_pin(fields, **header)


def local_moves():
    """louvain and infomap at algorithm seeds 1 and 2; on these networks
    each run goes through several aggregation levels and hundreds of tie
    draws."""
    networks = {}
    for mu in ("0.4", "0.7"):
        graph, _ = pinned_network(f"local_moves,mu={mu}")
        runs = {
            name: {str(s): membership(name, graph, seed=s) for s in (1, 2)}
            for name in ("louvain", "infomap")
        }
        networks[mu] = {"edges_sha256": digest(graph.edges), "membership_sha256": runs}
    return json_text({"lfr_config": LOCAL_MOVES_CONFIG, "algo_seeds": [1, 2], "networks": networks})


def label_propagation():
    """Memberships and warning texts, each with the seed a sweep derives:
    the generate-large networks at the default round cap of 100, and the
    n=1000 sweep-reduced networks at caps 1, 2 and 100."""

    def runs(m, cell, caps):
        seed = derive_seed(m, f"{cell.key()}|label_propagation", 0)
        graph, out = pinned_network(cell.key())[0], {}
        for cap in caps:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = membership("label_propagation", graph, seed=seed, lp_max_rounds=cap)
            out[str(cap)] = {"membership_sha256": got, "warnings": [str(w.message) for w in caught]}
        return seed, out

    large, reduced = {}, {}
    for m, cell in LARGE_UNITS:
        seed, out = runs(m, cell, [100])
        large[cell.key()] = {"seed": seed} | out["100"]
    for m, cell in DETECTOR_UNITS[1:]:
        seed, out = runs(m, cell, [1, 2, 100])
        reduced[cell.key()] = {"seed": seed, "lp_max_rounds": out}
    return json_text({
        "replicate": 0,
        "generate_large": {"master_seed": 1010, "networks": large},
        "sweep_reduced": {"master_seed": 7, "networks": reduced},
    })


# Dense degree sequences, each with the seed of its stub shuffle, whose
# pairing leaves triple edges and repeated self-loops.
CONFIGURATION_CASES = [
    ([9, 7, 9, 7, 9, 8, 8, 7, 9, 7], 2), ([8, 6, 8, 7, 7, 7, 9, 8, 9, 9], 3),
    ([6, 6, 8, 9, 8, 8, 6, 6, 7, 8], 7), ([7, 7, 8, 9, 8, 9, 7, 8, 6, 9], 23),
    ([8, 6, 8, 8, 8, 6, 9, 6, 9, 8], 26), ([8, 9, 9, 7, 9, 8, 7, 6, 6, 9], 28),
    ([8, 9, 7, 9, 8, 9, 6, 8, 6, 8], 33), ([8, 9, 6, 7, 9, 8, 6, 9, 8, 8], 39),
]


def configuration_model_edges():
    """`configuration_model`'s edge digest on each case, one case per line."""
    lines = []
    for degrees, seed in CONFIGURATION_CASES:
        edges = configuration_model(degrees, np.random.default_rng(seed)).edges
        case = {"degrees": degrees, "seed": seed, "edges_sha256": digest(edges)}
        lines.append(f"  {json.dumps(case)}")
    return '{\n "cases": [\n' + ",\n".join(lines) + "\n ]\n}\n"


def cut_column(text, name):
    """CSV text without the column headed `name`."""
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index(name)
    return "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows)


def records(spec, workers=1):
    """A sweep's records.csv with runtime_ms cut out."""
    outcome = run_sweep(spec, workers=workers)
    with tempfile.TemporaryDirectory() as out:
        text = emit_csv(outcome.records, [], Path(out))[0].read_text()
    return cut_column(text, "runtime_ms")


def pinned_check_records(directory):
    """The records of `pinned_check_records.csv`, read back through
    `parse_records_csv` with runtime_ms 1 put back in its column."""
    rows = [line.split(",") for line in pinned("pinned_check_records.csv").splitlines()]
    for row, value in zip(rows, ["runtime_ms"] + ["1"] * len(rows)):
        row.insert(RECORD_COLUMNS.index("runtime_ms"), value)
    path = Path(directory) / "records.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return parse_records_csv(path)


def report():
    """The report path on the pinned check records: every r of
    `correlation_table` as `float.hex` (None stays None), the figure1 text
    of every (n, avg_degree, gamma, beta) slice, the figure2 text of
    walktrap, louvain and infomap at every (n, gamma, beta), and the
    summary.csv text with mean_runtime_ms cut out."""
    with tempfile.TemporaryDirectory() as out:
        records = pinned_check_records(out)
        table = {
            name: {p: None if r is None else r.hex() for p, r in row.items()}
            for name, row in correlation_table(records).items()
        }
        summaries = summarize(records)
        slices = sorted({(s.n, s.avg_degree, s.gamma, s.beta) for s in summaries})

        def plot(figure, **where):
            return emit_plot_data(summaries, figure, Path(out) / "plot.dat", **where).read_text()

        figure1 = {
            f"n={n},avg_degree={k:g},gamma={g:g},beta={b:g}":
                plot("figure1", n=n, avg_degree=k, gamma=g, beta=b)
            for n, k, g, b in slices
        }
        figure2 = {
            f"{algo},n={n},gamma={g:g},beta={b:g}":
                plot("figure2", algorithm=algo, n=n, gamma=g, beta=b)
            for algo in ("walktrap", "louvain", "infomap")
            for n, g, b in sorted({(n, g, b) for n, _, g, b in slices})
        }
        summary = cut_column(emit_csv([], summaries, out)[1].read_text(), "mean_runtime_ms")
    return json_text({
        "correlation_table": table, "figure1": figure1, "figure2": figure2, "summary_csv": summary,
    })


WRITERS = {
    "pinned_agglomeration.json": agglomeration,
    "pinned_check_records.csv": lambda workers=1: records(
        SweepSpec.from_file(CHECK_PROFILE), workers
    ),
    "pinned_configuration_model.json": configuration_model_edges,
    "pinned_description_length.json": description_lengths,
    "pinned_label_propagation.json": label_propagation,
    "pinned_local_moves.json": local_moves,
    "pinned_markov_cluster.json": markov_cluster,
    "pinned_removal_order.json": removal_order,
    "pinned_report.json": report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Rewrite one pinned file under tests/data.")
    parser.add_argument("--write", metavar="NAME", required=True)
    name = parser.parse_args(argv).write
    known = [*WRITERS, NETWORKS_FILE]
    if name not in known:
        print(f"error: unknown pin {name!r}; known pins: {', '.join(known)}", file=sys.stderr)
        return 2
    if name == NETWORKS_FILE:
        write_networks()
    else:
        (DATA / name).write_text(WRITERS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
