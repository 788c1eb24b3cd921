"""Each output check passes on a real small round and fires on a corrupted
copy of its outputs.

    python3 -m pytest -q bench
"""

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

import checks
import run
import workloads
from commbench.harness import SweepSpec, emit_csv, run_sweep, summarize
from commbench.lfr import LfrConfig, generate

ALGOS = ("fastgreedy", "label_propagation", "leading_eigenvector", "louvain", "walktrap")


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    spec = SweepSpec(
        node_counts=(100,), avg_degrees=(5.0,), gammas=(2.0,), betas=(2.0,),
        mu_grid=(0.2, 0.5, 0.3), replicates=1, algorithms=ALGOS, master_seed=3,
    )
    out = tmp_path_factory.mktemp("round")
    outcome = run_sweep(spec, artifact_dir=out / "runs")
    emit_csv(outcome.records, summarize(outcome.records), out)
    units = [(c.key(), 0) for c in spec.cells()]
    return spec, out, outcome.records, units


@pytest.fixture
def copy(small_round, tmp_path):
    spec, out, records, units = small_round
    shutil.copytree(out, tmp_path / "out")
    return tmp_path / "out", list(records), units


def failures_for(out, records, units):
    return checks.check_units(out / "runs", records, units, ALGOS) + checks.check_csv(out, records)


def first_unit_dir(out, records):
    return checks.unit_dir(out / "runs", records[0])


def swap_two_nodes(path):
    """Swap the labels of two nodes in different communities."""
    lines = path.read_text().splitlines()
    labels = [line.split()[1] for line in lines]
    j = next(i for i, lab in enumerate(labels) if lab != labels[0])
    labels[0], labels[j] = labels[j], labels[0]
    path.write_text("".join(f"{v} {lab}\n" for v, lab in enumerate(labels)))


def test_real_round_passes(small_round):
    spec, out, records, units = small_round
    assert failures_for(out, records, units) == []
    assert checks.compare_records(records, records) == []
    rec = records[0]
    net = generate(LfrConfig(
        n=rec.n, avg_degree=rec.avg_degree, max_degree=rec.max_degree, gamma=rec.gamma,
        beta=rec.beta, mu=rec.mu_target, seed=rec.seed, allow_mu_beyond_limit=True,
    ))
    assert checks.check_regeneration(out / "runs", rec, net.graph.edges,
                                     net.planted.membership) == []


def test_nmi_direct_on_known_partitions():
    assert checks.nmi_direct([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert checks.nmi_direct([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    assert checks.nmi_direct([0, 0, 0, 0], [3, 3, 3, 3]) == 1.0


def test_swapped_nodes_in_detector_membership(copy):
    out, records, units = copy
    swap_two_nodes(first_unit_dir(out, records) / "louvain.membership")
    ops = {f.op for f in failures_for(out, records, units)}
    assert ops == {checks.unit_key(records[0]) + ("louvain",)}


def test_swapped_nodes_in_planted_membership(copy):
    out, records, units = copy
    swap_two_nodes(first_unit_dir(out, records) / "planted.membership")
    failed = failures_for(out, records, units)
    assert any("NMI" in f.message for f in failed)


def edit_edges(copy, edit):
    """Failures on the first unit after `edit` rewrote its edge lines."""
    out, records, units = copy
    path = first_unit_dir(out, records) / "network.edges"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    return [f for f in failures_for(out, records, units)
            if f.op[:2] == checks.unit_key(records[0])]


def test_dropped_edge(copy):
    failed = edit_edges(copy, lambda lines: lines[1:])
    assert any(f.op[2] is None for f in failed)
    assert any("modularity" in f.message for f in failed)


def test_duplicate_edge(copy):
    failed = edit_edges(copy, lambda lines: lines + lines[:1])
    assert any("duplicate edge" in f.message for f in failed)


def test_self_loop(copy):
    failed = edit_edges(copy, lambda lines: lines + ["3 3\n"])
    assert any("self-loop" in f.message for f in failed)


def test_regeneration_detects_a_dropped_edge(copy):
    out, records, _ = copy
    rec = records[0]
    path = first_unit_dir(out, records) / "network.edges"
    edges = checks.read_edges(path)
    path.write_text("".join(f"{u} {v}\n" for u, v in edges[1:]))
    assert checks.check_regeneration(out / "runs", rec, edges, range(rec.n))


def test_recorded_nmi_moved_past_rounding(copy):
    out, records, units = copy
    records[0] = replace(records[0], nmi=records[0].nmi + 2e-5)
    failed = checks.check_units(out / "runs", records, units, ALGOS)
    assert [f.op for f in failed] == [checks.unit_key(records[0]) + (records[0].algorithm,)]
    assert "NMI" in failed[0].message


def test_records_csv_round_trip_detects_an_edit(copy):
    out, records, _ = copy
    path = out / "records.csv"
    rows = list(csv.reader(path.open()))
    col = rows[0].index("communities_found")
    rows[1][col] = str(int(rows[1][col]) + 1)
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert any("round trip" in f.message for f in checks.check_csv(out, records))


def test_summary_row_that_disagrees(copy):
    out, records, _ = copy
    path = out / "summary.csv"
    rows = list(csv.reader(path.open()))
    col = rows[0].index("mean_nmi")
    rows[2][col] = f"{float(rows[2][col]) + 0.01:.6g}"
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    failed = checks.check_csv(out, records)
    assert failed and all("summary.csv disagrees" in f.message for f in failed)


def test_compare_records_ignores_only_runtime(small_round):
    records = small_round[2]
    timed = [replace(r, runtime_ms=r.runtime_ms + 1.0) for r in records]
    assert checks.compare_records(records, timed) == []
    moved = list(records)
    moved[1] = replace(moved[1], modularity=moved[1].modularity + 1e-3)
    assert [f.op[2] for f in checks.compare_records(records, moved)] == [records[1].algorithm]


@pytest.mark.parametrize("algorithm,needle", [("louvain", "singletons"),
                                              ("leading_eigenvector", "unsplit")])
def test_method_property_fires_below_its_floor(algorithm, needle):
    graph = nx.Graph([(0, 1), (2, 3)])
    found = [0, 1, 0, 1]  # every edge cut: Q = -0.5
    rec = SimpleNamespace(algorithm=algorithm, nmi=checks.nmi_direct([0, 0, 1, 1], found),
                          modularity=-0.5, communities_found=2)
    messages = checks.check_detection(graph, [0, 0, 1, 1], found, rec)
    assert len(messages) == 1 and needle in messages[0]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
