import dataclasses
import json

import pytest

from commbench import cli, harness
from commbench.algorithms import ALGORITHMS, AlgoParams
from commbench.cli import main
from commbench.graph import Partition, read_edge_list, read_membership, write_membership
from commbench.lfr import LfrConfig


REQUIRED_LFR_FIELDS = dict(n=120, avg_degree=6.0, max_degree=18, gamma=3.0, beta=2.0, mu=0.1)


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
        assert meta["mu"] == 0.1
        assert {f.name for f in dataclasses.fields(LfrConfig)} <= meta.keys()
        assert abs(meta["realized_mu"] - 0.1) <= meta["mixing_tolerance"]
        assert 0 < meta["mu_limit"] <= 1
        assert "realized_mu_global" in meta

    @pytest.fixture
    def seen(self, monkeypatch):
        """Record each LfrConfig that `generate` gets, and build a small
        fixed network instead."""
        seen = []
        real_generate = cli.generate

        def record(config):
            seen.append(config)
            return real_generate(LfrConfig(**REQUIRED_LFR_FIELDS))

        monkeypatch.setattr(cli, "generate", record)
        return seen

    # A value `validate` accepts for every non-bool LfrConfig field, none a
    # default; the floats have a fraction an int flag would reject.
    FLAG_VALUES = dict(
        n=130, avg_degree=6.5, max_degree=19, gamma=2.75, beta=1.25, mu=0.35,
        min_community=12, max_community=40, mixing_tolerance=0.03,
        max_rewire_iterations=5000, seed=9,
    )

    def test_every_lfr_field_has_a_typed_flag(self, seen, tmp_path):
        argv = ["generate", "--out", str(tmp_path / "net")]
        expected = {}
        for f in dataclasses.fields(LfrConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.type == "bool":
                expected[f.name] = not f.default
                argv.append(flag)
            else:
                expected[f.name] = self.FLAG_VALUES[f.name]
                assert type(expected[f.name]).__name__ == f.type.removesuffix(" | None"), f.name
                argv += [flag, str(expected[f.name])]
        assert main(argv) == 0
        (config,) = seen
        assert config == LfrConfig(**expected)
        for name, value in expected.items():
            assert type(getattr(config, name)) is type(value), name

    def test_unset_flags_keep_config_defaults(self, seen, tmp_path):
        argv = ["generate", "--out", str(tmp_path / "net")]
        for name, value in REQUIRED_LFR_FIELDS.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        assert main(argv + ["--allow-beyond-limit"]) == 0
        assert main(argv + ["--allow-mu-beyond-limit"]) == 0
        default, *allowed = seen
        assert default == LfrConfig(**REQUIRED_LFR_FIELDS)
        assert allowed == [LfrConfig(**REQUIRED_LFR_FIELDS, allow_mu_beyond_limit=True)] * 2

    @pytest.mark.parametrize("missing", sorted(
        f.name for f in dataclasses.fields(LfrConfig) if f.default is dataclasses.MISSING
    ))
    def test_fields_without_default_are_required(self, missing, tmp_path, capsys):
        argv = ["generate", "--out", str(tmp_path / "net")]
        for name, value in REQUIRED_LFR_FIELDS.items():
            if name != missing:
                argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: the following arguments are required: --{missing.replace('_', '-')}\n"


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
            ("fastgreedy", "--walktrap-t", "walktrap_t must be >= 1"),
            ("radetal", "--walktrap-t", "walktrap_t must be >= 1"),
            ("louvain", "--walktrap-t", "walktrap_t must be >= 1"),
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

    @pytest.mark.parametrize("algorithm", ["infomap", "louvain", "leading_eigenvector"])
    def test_negative_seed_exits_with_message(self, generated, tmp_path, capsys, algorithm):
        out = tmp_path / "bad.membership"
        rc = main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", algorithm, "--seed", "-1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
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
            # changed values that `validate` still accepts
            value = f.default + 1 if isinstance(f.default, int) else f.default * 0.9
            expected[f.name] = type(f.default)(value)
            argv += ["--" + f.name.replace("_", "-"), str(expected[f.name])]
        assert main(argv) == 0
        (params,) = seen
        assert params == AlgoParams(**expected)
        for name, value in expected.items():
            assert type(getattr(params, name)) is type(value), name

    def test_infomap_anneal_flag_is_gone(self, generated, tmp_path, capsys):
        assert main([
            "detect", "--edges", f"{generated}.edges", "--node-count", "120",
            "--algorithm", "infomap", "--infomap-anneal", "--out", str(tmp_path / "p"),
        ]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --infomap-anneal\n"


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

    def test_report_on_records_without_rows_writes_nothing(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text(",".join(harness.RECORD_COLUMNS) + "\n")
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        rc = main(["report", "--records", str(records), "--out", str(report_dir), "--figure1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: no records to summarize\n"
        assert not list(report_dir.iterdir())

    def test_missing_output_dir_fails(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"node_counts": [60]}')
        rc = main(["sweep", "--spec", str(spec_path)])
        assert rc == 2
        assert "output directory" in capsys.readouterr().err


class TestErrorLine:
    """Every command reports a bad input as one `error: <message>` line on
    stderr and exits 2."""

    def check(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mu", "1.5"], "mu must be in (0,1)"),
            (["--mu", "0.1", "--max-rewire-iterations", "0"],
             "max_rewire_iterations must be >= 1"),
            (["--mu", "0.1", "--seed", "-1"], "seed must be a non-negative int, got -1"),
            (["--mu", "0.1", "--mixing-tolerance", "1.5"],
             "mixing_tolerance must be in (0,1), got 1.5"),
            (["--mu", "0.1", "--mixing-tolerance", "inf"],
             "mixing_tolerance must be a finite float, got inf"),
            (["--mu", "0.1", "--gamma", "inf"], "gamma must be a finite float, got inf"),
            (["--mu", "0.1", "--gamma", "nan"], "gamma must be a finite float, got nan"),
        ],
    )
    def test_generate(self, tmp_path, capsys, flags, message):
        argv = [
            "generate", "--n", "120", "--avg-degree", "6", "--max-degree", "18",
            "--gamma", "3", "--beta", "2", *flags, "--out", str(tmp_path / "net"),
        ]
        self.check(argv, message, capsys)
        assert not list(tmp_path.iterdir())

    # argparse's own refusals: a value that does not parse, an unknown
    # choice and a missing flag.
    @pytest.mark.parametrize("argv, message", [
        ("generate --n 120 --avg-degree 6 --max-degree 18 --gamma abc --beta 2 --mu 0.1 "
         "--out {tmp}/net", "argument --gamma: invalid float value: 'abc'"),
        ("detect --edges {net}.edges --algorithm louvian --out {tmp}/found.membership",
         "argument --algorithm: invalid choice: 'louvian' (choose from "),
        ("score --edges {net}.edges --actual {net}.membership",
         "the following arguments are required: --estimated"),
    ], ids=["float", "choice", "required"])
    def test_argument_refused_by_parser(self, generated, tmp_path, capsys, argv, message):
        argv = argv.format(net=generated, tmp=tmp_path).split()
        self.check(argv, message, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "net.edges", "net.json", "net.membership",
        ]

    @pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"]], ids=["top", "generate"])
    def test_help_is_not_an_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: commbench")

    def test_detect_with_infinite_start_temperature(self, generated, tmp_path, capsys):
        # From an infinite start, spinglass's cooling loop would never end.
        argv = [
            "detect", "--edges", f"{generated}.edges", "--algorithm", "spinglass",
            "--sa-initial-temperature", "inf", "--out", str(tmp_path / "sg.membership"),
        ]
        self.check(argv, "sa_initial_temperature must be a finite float, got inf", capsys)
        assert not (tmp_path / "sg.membership").exists()

    def test_score_with_membership_of_another_size(self, generated, tmp_path, capsys):
        short = tmp_path / "short.membership"
        write_membership(Partition([0] * 50), short)
        argv = [
            "score", "--edges", f"{generated}.edges", "--node-count", "120",
            "--actual", f"{generated}.membership", "--estimated", str(short),
        ]
        self.check(argv, "partition does not cover", capsys)

    def test_report_on_foreign_csv_header(self, tmp_path, capsys):
        foreign = tmp_path / "records.csv"
        foreign.write_text("name,value\na,1\n")
        argv = ["report", "--records", str(foreign), "--out", str(tmp_path / "rep")]
        self.check(argv, "unexpected records.csv header", capsys)

    ROW = ("fastgreedy,100,5,15,2,2,0.1,0.104278,0.85,0,5263039027618417865,"
           "0.979454,0.748928,14,15,12.5,")

    @pytest.mark.parametrize("bad_row, fields", [(ROW[:-1], 16), (ROW + ",extra", 18)],
                             ids=["short", "long"])
    def test_report_on_row_with_wrong_field_count(self, tmp_path, capsys, bad_row, fields):
        records = tmp_path / "records.csv"
        header = ",".join(harness.RECORD_COLUMNS)
        records.write_text(f"{header}\n{self.ROW}\n{bad_row}\n{self.ROW}\n")
        argv = ["report", "--records", str(records), "--out", str(tmp_path / "rep")]
        self.check(argv, f"records.csv line 3 has {fields} fields; the header has 17", capsys)

    def test_report_on_field_that_does_not_parse(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        header = ",".join(harness.RECORD_COLUMNS)
        bad_row = self.ROW.replace(",0.979454,", ",zero,")
        records.write_text(f"{header}\n{self.ROW}\n{self.ROW}\n{bad_row}\n")
        argv = ["report", "--records", str(records), "--out", str(tmp_path / "rep")]
        self.check(argv, "records.csv line 4, column 'nmi': 'zero' is not a valid float", capsys)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_with_fewer_than_one_worker(self, tmp_path, capsys, workers):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"node_counts": [60], "avg_degrees": [5], "mu_grid": [0.2, 0.2, 0.1]}')
        argv = [
            "sweep", "--spec", str(spec_path), "--workers", workers,
            "--out", str(tmp_path / "sweep"),
        ]
        self.check(argv, f"workers must be >= 1, got {workers}", capsys)
        assert not (tmp_path / "sweep").exists()

    # The messages of the field check are pinned by the harness tests.
    @pytest.mark.parametrize("spec, key", [('{"replicates": 2.5}', "replicates")])
    def test_sweep_with_spec_value_of_wrong_type(self, tmp_path, capsys, spec, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        argv = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "sweep")]
        self.check(argv, f"{key} must be ", capsys)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("spec, message", [
        ("", "sweep spec is not JSON: "),
        ("# node_counts = 60\n", "sweep spec is not JSON: "),
        ("node_counts = 60\n", "sweep spec is not JSON: "),
        ('[{"node_counts": [60]}]', "sweep spec must be a JSON object, got list"),
    ], ids=["empty", "comment-only", "key-value", "array"])
    def test_sweep_with_spec_that_is_not_a_json_object(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(spec)
        argv = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "sweep")]
        self.check(argv, message, capsys)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("spec, message", [
        ('{"node_counts": []}', "node_counts must not be empty"),
        ('{"algorithms": []}', "algorithms must not be empty"),
        ('{"node_counts": [60, 60]}', "node_counts repeats a value: (60, 60)"),
        ('{"algorithms": ["louvain", "louvain"]}', "algorithms repeats a value: "),
        ('{"mu_grid": [0.1, 0.5]}', "mu_grid must be (start, stop, step), got (0.1, 0.5)"),
        # Small enough that a missed refusal runs a short sweep and fails.
        ('{"node_counts": [60], "avg_degrees": [6, 6.0000001], "replicates": 1, '
         '"algorithms": ["louvain"]}', "avg_degrees repeats a value: (6.0, 6.0000001)"),
    ])
    def test_sweep_with_empty_or_repeated_grid_values(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        argv = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "sweep")]
        self.check(argv, message, capsys)
        assert not (tmp_path / "sweep").exists()

    def test_sweep_with_unknown_spec_key(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"node_counts": [60], "replicate": 2}')
        argv = ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "sweep")]
        self.check(argv, "unknown sweep spec keys: ['replicate']", capsys)

    @pytest.mark.parametrize("argv", [
        "detect --edges {missing} --algorithm louvain --out {tmp}/found.membership",
        "score --edges {net}.edges --actual {missing} --estimated {net}.membership",
        "report --records {missing} --out {tmp}/rep",
        "sweep --spec {missing} --out {tmp}/sweep",
    ], ids=lambda argv: argv.split()[0])
    def test_missing_input_file(self, generated, tmp_path, capsys, argv):
        missing = tmp_path / "no-such-file"
        argv = argv.format(missing=missing, net=generated, tmp=tmp_path).split()
        self.check(argv, f"[Errno 2] No such file or directory: '{missing}'", capsys)
