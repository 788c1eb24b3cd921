import dataclasses
import math
import re
import statistics
from pathlib import Path

import pytest

from commbench.algorithms import AlgoParams
from commbench.graph import read_edge_list, read_membership
from commbench.harness import (
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    SWEEP_PARAMETERS,
    Cell,
    CellSummary,
    RunRecord,
    SweepSpec,
    _fmt,
    correlation_table,
    derive_seed,
    emit_csv,
    emit_plot_data,
    parse_records_csv,
    run_sweep,
    summarize,
)
from commbench.lfr import LfrConfig
from commbench.metrics import partition_nmi

import pins

PROFILES = Path(__file__).parents[1] / "profiles"

SMALL_SPEC = SweepSpec(
    node_counts=(60,),
    avg_degrees=(6,),
    gammas=(3.0,),
    betas=(2.0,),
    mu_grid=(0.2, 0.2, 0.1),
    replicates=2,
    algorithms=("louvain", "label_propagation", "fastgreedy"),
    master_seed=7,
)


def make_record(**overrides):
    base = dict(
        algorithm="louvain", n=100, avg_degree=5.0, max_degree=15, gamma=3.0,
        beta=2.0, mu_target=0.1, mu_realized=0.11, mu_limit=0.8, replicate=0,
        seed=1, nmi=0.9, modularity=0.4, communities_found=10,
        communities_planted=11, runtime_ms=3.5, flags="",
    )
    base.update(overrides)
    return RunRecord(**base)


# What a field refuses, by the kind its type hint names (None too, unless
# the hint allows it), and how the refusal names that kind.
REFUSED = {
    "int": ("an int", [2.5, 2.0, True, "3", math.inf]),
    "float": ("a finite float", [math.nan, math.inf, -math.inf, True, "3", 10**400]),
    "str": ("a string", [5, True]),
    "bool": ("a bool", [1, "yes"]),
}
VALID = [
    LfrConfig(n=120, avg_degree=6.0, max_degree=18, gamma=3.0, beta=2.0, mu=0.1),
    AlgoParams(),
    SweepSpec(),
]


def wrong_kinds():
    """Each field of the three parameter classes with each value it
    refuses; a tuple field gets each as an item after a valid one, then
    values that are not a list."""
    for valid in VALID:
        for f in dataclasses.fields(valid):
            kind = f.type.removesuffix(" | None")
            item = kind.removeprefix("tuple[").removesuffix(", ...]")
            phrase, refused = REFUSED[item]
            refused = refused + [None] * (kind == f.type)
            if item == kind:
                cases = [(v, f"{f.name} must be {phrase}") for v in refused]
            else:
                first = getattr(valid, f.name)[0]
                cases = [((first, v), f"{f.name}[1] must be {phrase}") for v in refused]
                cases += [(v, f"{f.name} must be a list") for v in (first, "ab", None)]
            for value, message in cases:
                yield pytest.param(valid, f.name, value, message,
                                   id=f"{type(valid).__name__}.{f.name}={value!r:.12}")


@pytest.mark.parametrize("valid, name, value, message", wrong_kinds())
def test_field_of_wrong_kind_refused(valid, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, got "):
        dataclasses.replace(valid, **{name: value})


class TestSweepSpec:
    def test_mu_values_exact(self):
        spec = SweepSpec(mu_grid=(0.1, 0.8, 0.1))
        assert spec.mu_values() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]

    @pytest.mark.parametrize("profile, mu_values", [
        ("check.json", [0.1, 0.4, 0.7]),
        ("reduced.json", [i / 20 for i in range(1, 20)]),
        ("table1.json", [i / 20 for i in range(1, 20)]),
    ])
    def test_profile_mu_grids_expand_to_stop(self, profile, mu_values):
        assert SweepSpec.from_file(PROFILES / profile).mu_values() == mu_values

    @pytest.mark.parametrize("mu_grid, mu_values", [
        ((0.5, 0.95, 0.3), [0.5, 0.8]),
        ((0.1, 0.3, 0.25), [0.1]),
    ])
    def test_uneven_mu_grid_stays_below_stop(self, mu_grid, mu_values):
        assert SweepSpec(mu_grid=mu_grid).mu_values() == mu_values

    def test_cells_cardinality(self):
        spec = SweepSpec(
            node_counts=(100, 1000), avg_degrees=(5, 15), gammas=(2, 3),
            betas=(1, 2), mu_grid=(0.1, 0.3, 0.1),
        )
        assert len(spec.cells()) == 2 * 2 * 2 * 2 * 3

    def test_max_degree_rule(self):
        spec = SweepSpec(node_counts=(1000,), avg_degrees=(15,))
        assert spec.cells()[0].max_degree == 45

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            SweepSpec(algorithms=("girvan_newman",))

    def test_mu_grid_bounds_checked(self):
        with pytest.raises(ValueError, match="mu grid"):
            SweepSpec(mu_grid=(0.0, 0.9, 0.1))

    @pytest.mark.parametrize("key", ["node_counts", "avg_degrees", "gammas", "betas", "algorithms"])
    def test_empty_grid_values_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
            SweepSpec(**{key: ()})

    @pytest.mark.parametrize("key, values", [
        ("node_counts", (60, 60)),
        ("avg_degrees", (5, 5.0)),
        ("gammas", (2.0, 3.0, 2.0)),
        ("betas", (1.0, 1.0)),
        ("algorithms", ("louvain", "louvain")),
    ])
    def test_repeated_grid_values_rejected(self, key, values):
        with pytest.raises(ValueError, match=f"^{key} repeats a value: "):
            SweepSpec(**{key: values})

    @pytest.mark.parametrize("key, values", [
        ("avg_degrees", (6.0, 6.0000001)),
        ("gammas", (2.0, 3.0, 2.0000004)),
        ("betas", (1.5, 1.4999999)),
    ])
    def test_grid_values_that_share_a_cell_key_rejected(self, key, values):
        # Both values render alike in Cell.key, so they would share a seed
        # and a summary row.
        shown = {f"{v:g}" for v in values}
        assert len(shown) < len(values)
        with pytest.raises(ValueError, match=f"^{key} repeats a value: "):
            SweepSpec(**{key: values})

    @pytest.mark.parametrize("mu_grid", [(0.1, 0.1000002, 1e-7), (0.9, 0.9000012, 4e-7)])
    def test_mu_values_that_share_a_cell_key_rejected(self, mu_grid):
        # Each grid lists at least two values that Cell.key renders alike.
        with pytest.raises(ValueError, match=r"^mu_grid repeats a value: "):
            SweepSpec(node_counts=(60,), avg_degrees=(6.0,), mu_grid=mu_grid)

    @pytest.mark.parametrize("step", [1e-12, 5e-324])
    def test_mu_grid_too_fine_to_list_rejected(self, step):
        # 9e11 values, or a step count that overflows to infinity.
        with pytest.raises(ValueError, match=r"^mu_grid takes more than 10000 steps: "):
            SweepSpec(mu_grid=(0.05, 0.95, step))

    @pytest.mark.parametrize("factor", [-1.0, 0.0])
    def test_max_degree_factor_must_be_positive(self, factor):
        with pytest.raises(ValueError, match=f"^max_degree_factor must be positive, got {factor}$"):
            SweepSpec(max_degree_factor=factor)

    def test_max_degree_that_overflows_rejected(self):
        with pytest.raises(ValueError, match="^max_degree_factor times an avg_degrees value overflows"):
            SweepSpec(avg_degrees=(15.0, 1e308), max_degree_factor=3.0)

    @pytest.mark.parametrize("mu_grid", [(0.1, 0.5), (0.1,), (0.1, 0.5, 0.1, 0.2)])
    def test_mu_grid_needs_three_values(self, mu_grid):
        with pytest.raises(ValueError, match=r"^mu_grid must be \(start, stop, step\)"):
            SweepSpec(mu_grid=mu_grid)

    def test_replaced_spec_is_checked(self):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            dataclasses.replace(SweepSpec(), replicates=0)

    # Every SweepSpec field, with its parsed value; ints and floats are
    # written so that a wrong conversion shows in the type or the value.
    EVERY_FIELD = {
        "node_counts": (100, 1000),
        "avg_degrees": (5.0, 15.5),
        "max_degree_factor": 2.5,
        "gammas": (2.0, 3.0),
        "betas": (1.0, 2.0),
        "mu_grid": (0.1, 0.3, 0.1),
        "replicates": 3,
        "algorithms": ("louvain", "walktrap"),
        "master_seed": 5,
        "output_dir": "out/sweep",
    }

    def assert_every_field(self, spec):
        assert {f.name for f in dataclasses.fields(SweepSpec)} == set(self.EVERY_FIELD)
        for name, expected in self.EVERY_FIELD.items():
            got = getattr(spec, name)
            assert got == expected, name
            items = zip(got, expected) if isinstance(expected, tuple) else [(got, expected)]
            assert all(type(g) is type(e) for g, e in items), name

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"node_counts": [100, 1000], "avg_degrees": [5, 15.5], "max_degree_factor": 2.5,'
            ' "gammas": [2, 3], "betas": [1, 2], "mu_grid": [0.1, 0.3, 0.1], "replicates": 3,'
            ' "algorithms": ["louvain", "walktrap"], "master_seed": 5,'
            ' "output_dir": "out/sweep"}'
        )
        self.assert_every_field(SweepSpec.from_file(path))

    @pytest.mark.parametrize("text, key", [
        ('{"replicates": null}', "replicates"),
        ('{"node_counts": [[100]]}', "node_counts"),
        ('{"replicates": {"a": 1}}', "replicates"),
        ('{"avg_degrees": [5, "fifteen"]}', "avg_degrees"),
        ('{"replicates": [2, 3]}', "replicates"),
        ('{"replicates": 2.5}', "replicates"),
        ('{"master_seed": true}', "master_seed"),
        ('{"avg_degrees": [5, true]}', "avg_degrees"),
        ('{"algorithms": ["louvain", 1]}', "algorithms"),
        ('{"output_dir": 5}', "output_dir"),
        ('{"replicates": [3]}', "replicates"),
        ('{"replicates": "3"}', "replicates"),
        ('{"node_counts": 100}', "node_counts"),
        ('{"node_counts": "100"}', "node_counts"),
    ])
    def test_value_of_wrong_type_names_its_key(self, tmp_path, text, key):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{key}(\[\d\])? must be "):
            SweepSpec.from_file(path)

    @pytest.mark.parametrize("text, message", [
        ('{"max_degree_factor": 1e999}', "max_degree_factor must be a finite float, got inf"),
        ('{"max_degree_factor": NaN}', "max_degree_factor must be a finite float, got nan"),
        ('{"max_degree_factor": 1' + "0" * 400 + "}",
         f"max_degree_factor must be a finite float, got {10**400}"),
        ('{"avg_degrees": [5, 1' + "0" * 400 + "]}",
         f"avg_degrees[1] must be a finite float, got {10**400}"),
        ('{"gammas": [2, Infinity]}', "gammas[1] must be a finite float, got inf"),
    ], ids=["inf", "nan", "huge-int", "huge-int-in-list", "infinity"])
    def test_numbers_a_float_cannot_hold_rejected(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            SweepSpec.from_file(path)
        assert str(err.value) == message

    def test_json_null_on_optional_field_is_none(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"output_dir": null, "replicates": 3.0}')
        spec = SweepSpec.from_file(path)
        assert spec.output_dir is None
        assert spec.replicates == 3 and type(spec.replicates) is int

    @pytest.mark.parametrize("text", [
        "", "\n", "# comment\n", "replicates = 3\n", "{replicates: 3}", '{"replicates": 3',
    ])
    def test_text_that_is_not_json_rejected(self, tmp_path, text):
        path = tmp_path / "spec.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="^sweep spec is not JSON: "):
            SweepSpec.from_file(path)

    @pytest.mark.parametrize("text, kind", [
        ("[]", "list"), ('[{"replicates": 3}]', "list"), ("3", "int"), ('"x"', "str"),
        ("null", "NoneType"),
    ])
    def test_json_that_is_not_an_object_rejected(self, tmp_path, text, kind):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^sweep spec must be a JSON object, got {kind}$"):
            SweepSpec.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"replicas": 5}')
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_file(path)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        a = derive_seed(1, "n=100,mu=0.1", 0)
        assert a == derive_seed(1, "n=100,mu=0.1", 0)

    def test_component_sensitivity(self):
        base = derive_seed(1, "cell", 0)
        assert base != derive_seed(2, "cell", 0)
        assert base != derive_seed(1, "cell2", 0)
        assert base != derive_seed(1, "cell", 1)

    def test_frozen_value(self):
        # Pinned so accidental hash-scheme changes are caught.
        assert derive_seed(0, "x", 0) == 4756526333664403775


class TestRunSweep:
    def test_record_cardinality(self):
        outcome = run_sweep(SMALL_SPEC)
        assert len(outcome.records) == 1 * 2 * 3
        assert not outcome.skipped

    def test_rerun_identical_but_for_runtime(self):
        assert pins.records(SMALL_SPEC) == pins.records(SMALL_SPEC)

    def test_worker_count_does_not_change_results(self):
        assert pins.records(SMALL_SPEC, workers=1) == pins.records(SMALL_SPEC, workers=2)

    def test_record_cell_key_is_its_cells_key(self):
        spec = SweepSpec(
            node_counts=(60,), avg_degrees=(6, 7.5), gammas=(2.5,), betas=(1.5,),
            mu_grid=(0.15, 0.3, 0.15), replicates=1, algorithms=("label_propagation",),
            master_seed=7,
        )
        # A record's seed is derived from its cell's key, so it names the cell.
        cell_of = {derive_seed(7, cell.key(), 0): cell for cell in spec.cells()}
        outcome = run_sweep(spec)
        assert len(outcome.records) == len(cell_of) == 4
        for record in outcome.records:
            assert record.cell_key() == cell_of[record.seed].key()

    def test_beyond_limit_cells_run_and_flagged(self):
        spec = SweepSpec(
            node_counts=(60,), avg_degrees=(6,), gammas=(3.0,), betas=(2.0,),
            mu_grid=(0.95, 0.95, 0.1), replicates=1, algorithms=("louvain",),
            master_seed=3,
        )
        outcome = run_sweep(spec)
        assert len(outcome.records) == 1
        record = outcome.records[0]
        assert record.mu_target > record.mu_limit
        assert "beyond-mu-limit" in record.flags

    def test_infeasible_cells_become_diagnostics(self):
        spec = SweepSpec(
            node_counts=(50,), avg_degrees=(2,), gammas=(1.5,), betas=(2.0,),
            mu_grid=(0.2, 0.2, 0.1), replicates=2, algorithms=("louvain",),
        )
        outcome = run_sweep(spec)
        assert not outcome.records
        assert len(outcome.skipped) == 2
        assert "unreachable" in outcome.skipped[0].reason

    def test_invalid_cells_become_diagnostics(self):
        # kmax = min(3 * 15, n - 1) = 9 < avg_degree: LfrConfig refuses the cell.
        spec = SweepSpec(
            node_counts=(10, 60), avg_degrees=(15,), gammas=(3.0,), betas=(2.0,),
            mu_grid=(0.2, 0.2, 0.1), replicates=2, algorithms=("louvain",),
        )
        outcome = run_sweep(spec)
        assert len(outcome.records) == 2
        assert {r.n for r in outcome.records} == {60}
        assert [(s.replicate, s.reason) for s in outcome.skipped] == [
            (rep, "need 1 <= avg_degree <= max_degree <= n-1, got avg=15.0, max=9, n=10")
            for rep in (0, 1)
        ]

    def test_artifacts_allow_nmi_recomputation(self, tmp_path):
        outcome = run_sweep(SMALL_SPEC, artifact_dir=tmp_path)
        for record in outcome.records:
            cell = Cell(
                n=record.n, avg_degree=record.avg_degree, max_degree=record.max_degree,
                gamma=record.gamma, beta=record.beta, mu=record.mu_target,
            )
            unit = tmp_path / cell.dirname() / f"rep{record.replicate:03d}"
            planted = read_membership(unit / "planted.membership")
            estimated = read_membership(unit / f"{record.algorithm}.membership")
            graph = read_edge_list(unit / "network.edges", node_count=record.n)
            assert graph.node_count == record.n
            recomputed = float(f"{partition_nmi(planted, estimated):.6g}")
            assert recomputed == record.nmi


class TestSummarize:
    def test_single_record(self):
        summaries = summarize([make_record(nmi=0.7)])
        assert len(summaries) == 1
        assert summaries[0].mean_nmi == 0.7
        assert summaries[0].std_nmi == 0.0

    def test_two_record_mean(self):
        records = [
            make_record(nmi=0.4, replicate=0),
            make_record(nmi=0.6, replicate=1),
        ]
        summary = summarize(records)[0]
        assert summary.mean_nmi == 0.5
        assert summary.std_nmi == pytest.approx(statistics.pstdev([0.4, 0.6]), rel=1e-12)
        assert summary.runs == 2

    def test_mean_within_member_range(self):
        records = [make_record(nmi=v, replicate=i) for i, v in enumerate([0.2, 0.9, 0.5])]
        summary = summarize(records)[0]
        assert 0.2 <= summary.mean_nmi <= 0.9
        assert summary.std_nmi >= 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            summarize([])


def oracle_table(records):
    """Pearson r of each parameter against per-cell mean NMI, from the
    standard library: `statistics.fmean` over each cell's records and
    `statistics.correlation`; None where a side is constant."""
    cells = {}
    for r in records:
        cell = (r.algorithm, r.n, r.avg_degree, r.gamma, r.beta, r.mu_target)
        cells.setdefault(cell, []).append(r.nmi)
    means = {cell: statistics.fmean(nmis) for cell, nmis in cells.items()}
    table = {}
    for name in sorted({cell[0] for cell in means}) + ["overall"]:
        group = [(c, m) for c, m in means.items() if name in ("overall", c[0])]
        table[name] = {}
        for i, parameter in enumerate(("n", "avg_degree", "gamma", "beta", "mu"), start=1):
            try:
                r = statistics.correlation([c[i] for c, _ in group], [m for _, m in group])
            except statistics.StatisticsError:  # a constant side
                r = None
            table[name][parameter] = r
    return table


class TestCorrelate:
    def test_perfect_anticorrelation_with_mu(self):
        records = [
            make_record(mu_target=mu, nmi=1.0 - mu, replicate=r)
            for mu in (0.1, 0.2, 0.3, 0.4)
            for r in range(2)
        ]
        assert correlation_table(records)["overall"]["mu"] == pytest.approx(-1.0)

    def test_constant_parameter_is_none(self):
        records = [make_record(mu_target=m, nmi=1 - m) for m in (0.1, 0.2)]
        assert correlation_table(records)["overall"]["beta"] is None

    @pytest.mark.parametrize("nmi", [0.1, 0.7, 1.0])
    def test_constant_nmi_is_none(self, nmi):
        records = [make_record(mu_target=m, nmi=nmi) for m in (0.1, 0.2, 0.3)]
        assert correlation_table(records)["overall"] == dict.fromkeys(SWEEP_PARAMETERS)

    def test_per_algorithm_filter(self):
        records = [
            make_record(algorithm="louvain", mu_target=m, nmi=1 - m) for m in (0.1, 0.2, 0.3)
        ] + [
            make_record(algorithm="walktrap", mu_target=m, nmi=m) for m in (0.1, 0.2, 0.3)
        ]
        table = correlation_table(records)
        assert table["louvain"]["mu"] == pytest.approx(-1.0)
        assert table["walktrap"]["mu"] == pytest.approx(1.0)

    def test_table_has_overall_row(self):
        records = [make_record(mu_target=m, nmi=1 - m) for m in (0.1, 0.2, 0.3)]
        table = correlation_table(records)
        assert "overall" in table
        assert table["overall"]["mu"] == pytest.approx(-1.0)
        assert table["overall"]["beta"] is None

    def check_against_oracle(self, records):
        table = correlation_table(records)
        expected = oracle_table(records)
        assert list(table) == list(expected)
        for name, row in table.items():
            assert tuple(row) == SWEEP_PARAMETERS
            for parameter, r in row.items():
                want = expected[name][parameter]
                assert (r is None) == (want is None), (name, parameter)
                if r is not None:
                    assert r == pytest.approx(want, abs=1e-6), (name, parameter)

    def test_table_matches_statistics_oracle(self):
        records = [
            make_record(
                algorithm="louvain", n=n, mu_target=mu, replicate=r,
                nmi=round(1 - mu - n / 1e4 + 0.01 * r * mu, 6),
            )
            for n in (100, 1000)
            for mu in (0.1, 0.3, 0.5)
            for r in range(3)
        ] + [
            make_record(algorithm="walktrap", mu_target=mu, nmi=nmi)
            for mu, nmi in ((0.1, 0.7), (0.3, 0.9), (0.5, 0.2))
        ] + [
            make_record(algorithm="infomap", mu_target=mu, n=n, nmi=1.0)
            for n in (100, 1000)
            for mu in (0.1, 0.3)
        ]
        table = correlation_table(records)
        assert list(table) == ["infomap", "louvain", "walktrap", "overall"]
        assert table["walktrap"]["n"] is None
        assert table["infomap"]["mu"] is None
        assert table["louvain"]["n"] is not None
        self.check_against_oracle(records)

    def test_check_grid_matches_statistics_oracle(self, tmp_path):
        self.check_against_oracle(pins.pinned_check_records(tmp_path))


class TestEmitCsv:
    def test_empty_records_give_header_only(self, tmp_path):
        records_path, summary_path = emit_csv([], [], tmp_path)
        assert records_path.read_text().count("\n") == 1
        assert summary_path.read_text().count("\n") == 1

    def test_six_records_give_seven_lines(self, tmp_path):
        records = [make_record(replicate=i) for i in range(6)]
        records_path, _ = emit_csv(records, summarize(records), tmp_path)
        assert records_path.read_text().count("\n") == 7

    def test_round_trip_identity(self, tmp_path):
        records = [
            make_record(replicate=i, nmi=0.123456789 * (i + 1) / 6, runtime_ms=1.23456789)
            for i in range(6)
        ]
        records_path, _ = emit_csv(records, summarize(records), tmp_path)
        assert parse_records_csv(records_path) == sorted(records, key=RunRecord.sort_key)


def make_summary(**overrides):
    base = dict(
        algorithm="walktrap", n=5000, avg_degree=30.0, max_degree=90, gamma=3.0,
        beta=2.0, mu_target=0.1, runs=25, mean_nmi=0.95, std_nmi=0.01,
        mean_runtime_ms=100.0, mean_mu_realized=0.1, mean_mu_limit=0.86,
    )
    base.update(overrides)
    return CellSummary(**base)


class TestCellColumns:
    def test_summary_floats_stored_at_six_digits(self):
        summary = make_summary(avg_degree=7.123456789, mean_nmi=0.123456789)
        assert summary.avg_degree == 7.12346
        assert summary.mean_nmi == 0.123457
        assert summary.runs == 25

    def test_record_and_summary_share_leading_columns(self):
        leading = ("algorithm", "n", "avg_degree", "max_degree", "gamma", "beta", "mu_target")
        assert RECORD_COLUMNS[:7] == SUMMARY_COLUMNS[:7] == leading
        record = make_record()
        assert record.cell_key() == summarize([record])[0].cell_key()


class TestEmitPlotData:
    def test_figure1_shape(self, tmp_path):
        summaries = [
            make_summary(algorithm=a, mu_target=mu)
            for a in ("louvain", "walktrap")
            for mu in (0.1, 0.2, 0.3)
        ]
        path = emit_plot_data(summaries, "figure1", tmp_path / "fig1.dat")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# mu louvain walktrap mu_lim"
        assert len(lines) == 4

    def test_figure1_mu_limit_marker(self, tmp_path):
        summaries = [make_summary(mu_target=0.1), make_summary(mu_target=0.2)]
        path = emit_plot_data(summaries, "figure1", tmp_path / "fig1.dat")
        for line in path.read_text().strip().split("\n")[1:]:
            assert line.split()[-1] == "0.86"

    def test_figure2_three_series(self, tmp_path):
        summaries = [
            make_summary(avg_degree=k, mu_target=mu)
            for k in (5.0, 15.0, 30.0)
            for mu in (0.1, 0.2)
        ]
        path = emit_plot_data(
            summaries, "figure2", tmp_path / "fig2.dat", algorithm="walktrap"
        )
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# mu k5 k15 k30"
        assert len(lines[1].split()) == 4

    def test_missing_slice_errors(self, tmp_path):
        summaries = [make_summary()]
        with pytest.raises(ValueError, match="n="):
            emit_plot_data(summaries, "figure1", tmp_path / "f.dat", n=123)


class TestPinnedRecords:
    """A fixed-seed sweep of all nine detectors reproduces the checked-in
    records.csv of the check grid (runtime_ms cut out), byte for byte."""

    # Slices of the check grid: all nine detectors on n=100 units, and on
    # one n=1000 unit, large enough that the merge engine's heap rebuild
    # fires in fastgreedy and walktrap.
    @pytest.mark.parametrize("grid", [
        pytest.param(dict(node_counts=(100,), avg_degrees=(5.0, 15.0)), id="n100"),
        pytest.param(
            dict(node_counts=(1000,), avg_degrees=(15.0,), mu_grid=(0.4, 0.4, 0.1)), id="n1000"
        ),
    ])
    def test_slice_matches_pinned_rows(self, grid):
        check = SweepSpec.from_file(pins.CHECK_PROFILE)
        spec = dataclasses.replace(check, gammas=(2.0,), betas=(2.0,), **grid)
        # A row's columns 2-7 are its cell's fields, as `emit_csv` writes them.
        cells = {tuple(map(_fmt, dataclasses.astuple(cell))) for cell in spec.cells()}
        header, *rows = pins.pinned("pinned_check_records.csv").splitlines(keepends=True)
        want = header + "".join(row for row in rows if tuple(row.split(",")[1:7]) in cells)
        assert pins.records(spec) == want

    @pytest.mark.acceptance
    @pytest.mark.parametrize("workers", [1, 2])
    def test_check_profile_matches_pinned_file(self, workers):
        """The whole `profiles/check.json` grid at one and at two workers,
        the check a change meant to keep results the same must pass."""
        name = "pinned_check_records.csv"
        assert pins.WRITERS[name](workers) == pins.pinned(name)


class TestPinnedReport:
    """The correlation table and plot data of the check grid's pinned
    records match a checked-in file exactly."""

    def test_report_matches_pinned_file(self):
        assert pins.report() == pins.pinned("pinned_report.json")
