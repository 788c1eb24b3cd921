import dataclasses
import json

import pytest

from commbench.algorithms import ALGORITHMS, AlgoParams
from commbench.cli import main
from commbench.graph import Partition, read_edge_list, read_membership


@pytest.fixture
def generated(tmp_path):
    prefix = tmp_path / "net"
    rc = main([
        "generate", "--n", "120", "--avg-degree", "6", "--max-degree", "18",
        "--gamma", "3", "--beta", "2", "--mu", "0.1", "--seed", "4",
        "--out", str(prefix),
    ])
    assert rc == 0
    return prefix


class TestGenerateCommand:
    def test_writes_three_artifacts(self, generated):
        graph = read_edge_list(f"{generated}.edges", node_count=120)
        planted = read_membership(f"{generated}.membership")
        meta = json.loads((generated.parent / "net.json").read_text())
        assert graph.node_count == 120
        assert planted.node_count == 120
        assert meta["n"] == 120
        assert meta["seed"] == 4
        assert abs(meta["realized_mu"] - 0.1) <= meta["mixing_tolerance"]
        assert 0 < meta["mu_limit"] <= 1
        assert "realized_mu_global" in meta


class TestDetectCommand:
    def test_runs_and_writes_membership(self, generated, tmp_path, capsys):
        out = tmp_path / "louvain.membership"
        rc = main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", "louvain", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        stats = capsys.readouterr().out.strip().split("\n")[-1]
        assert stats.startswith("communities=")
        assert "modularity=" in stats and "runtime_ms=" in stats
        assert read_membership(out).node_count == 120

    def test_parameter_overrides_accepted(self, generated, tmp_path):
        out = tmp_path / "wt.membership"
        rc = main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", "walktrap", "--walktrap-t", "3", "--out", str(out),
        ])
        assert rc == 0


    @pytest.mark.parametrize(
        "algorithm, flag, message",
        [
            ("spinglass", "--spinglass-max-spins", "spinglass_max_spins must be >= 1"),
            ("label_propagation", "--lp-max-rounds", "lp_max_rounds must be >= 1"),
            ("spinglass", "--sa-min-temperature", "sa_min_temperature must be positive"),
        ],
    )
    def test_invalid_parameter_exits_with_message(
        self, generated, tmp_path, capsys, algorithm, flag, message
    ):
        out = tmp_path / "bad.membership"
        rc = main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", algorithm, flag, "0", "--out", str(out),
        ])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_algo_param_has_a_typed_flag(self, generated, tmp_path, monkeypatch):
        seen = []

        def record(graph, params):
            seen.append(params)
            return Partition([0] * graph.node_count)

        monkeypatch.setitem(ALGORITHMS, "louvain", record)
        argv = [
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", "louvain", "--out", str(tmp_path / "p.membership"),
        ]
        expected = {}
        for f in dataclasses.fields(AlgoParams):
            flag = "--" + f.name.replace("_", "-")
            if isinstance(f.default, bool):
                expected[f.name] = not f.default
                argv.append(flag)
            else:
                expected[f.name] = type(f.default)(f.default + 1)
                argv += [flag, str(expected[f.name])]
        assert main(argv) == 0
        (params,) = seen
        assert params == AlgoParams(**expected)
        for name, value in expected.items():
            assert type(getattr(params, name)) is type(value), name


class TestScoreCommand:
    def test_prints_key_value_lines(self, generated, tmp_path, capsys):
        est = tmp_path / "est.membership"
        main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", "louvain", "--out", str(est),
        ])
        capsys.readouterr()
        rc = main([
            "score", "--edges", f"{generated}.edges", "--node-count", "120",
            "--actual", f"{generated}.membership", "--estimated", str(est),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        keys = {line.split("=")[0] for line in lines}
        assert {
            "nmi", "modularity_actual", "modularity_estimated",
            "mixing_actual", "mixing_actual_global",
            "mixing_estimated", "mixing_estimated_global",
        } <= keys
        nmi_val = float(lines[0].split("=")[1])
        assert 0.0 <= nmi_val <= 1.0


class TestSweepAndReport:
    def test_end_to_end(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "node_counts": [80],
            "avg_degrees": [6],
            "gammas": [3.0],
            "betas": [2.0],
            "mu_grid": [0.1, 0.3, 0.1],
            "replicates": 2,
            "algorithms": ["louvain", "label_propagation"],
            "master_seed": 11,
        }))
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "--spec", str(spec_path), "--out", str(out_dir)])
        assert rc == 0
        records_csv = out_dir / "records.csv"
        assert records_csv.exists()
        assert (out_dir / "summary.csv").exists()
        # 3 mu cells x 2 replicates x 2 algorithms + header
        assert records_csv.read_text().count("\n") == 13
        assert (out_dir / "runs").is_dir()
        capsys.readouterr()

        report_dir = tmp_path / "report"
        rc = main([
            "report", "--records", str(records_csv), "--out", str(report_dir),
            "--figure1", "--figure2", "louvain",
        ])
        assert rc == 0
        assert (report_dir / "correlations.txt").exists()
        fig1 = (report_dir / "figure1.dat").read_text().strip().split("\n")
        assert fig1[0] == "# mu label_propagation louvain mu_lim"
        assert len(fig1) == 4
        assert (report_dir / "figure2.dat").exists()

    def test_no_artifacts_flag(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "node_counts": [60], "avg_degrees": [5], "mu_grid": [0.2, 0.2, 0.1],
            "replicates": 1, "algorithms": ["louvain"],
        }))
        out_dir = tmp_path / "sweep"
        rc = main([
            "sweep", "--spec", str(spec_path), "--out", str(out_dir), "--no-artifacts",
        ])
        assert rc == 0
        assert not (out_dir / "runs").exists()

    def test_missing_output_dir_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"node_counts": [60]}')
        rc = main(["sweep", "--spec", str(spec_path)])
        assert rc == 2
        assert "output directory" in capsys.readouterr().err
