"""Config parsing, file formats, SVG rendering, and the CLI surface."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tumornet.cli_io import (
    RUN_CSV_HEADER,
    SWEEP_RUNS_HEADER,
    SWEEP_SUMMARY_HEADER,
    InputError,
    aggregate_rows,
    format_run_csv,
    format_sweep_runs,
    format_sweep_summary,
    main,
    parse_config,
    parse_sweep_spec,
    plot_svg,
    read_sweep_runs,
    serialize_config,
    summarize_run,
    write_summary,
)
from tumornet.engine import StepRecord, TimeSeries, run
from tumornet.sweep import SweepSpec, build_cell_aggregate, run_sweep
from tumornet.tumor_model import ModelConfig, init_model


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, text):
    path.write_text(text)
    return str(path)


CONNECTED_CONFIG = "n_initial=60\np=0.12\nmax_steps=5\nseed=3\n"


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("n_initial=100\np=0.1\n")
        assert cfg.n_initial == 100
        assert cfg.p == 0.1
        assert cfg.seed == 0  # documented default

    def test_factor_level_names(self):
        cfg = parse_config("n_initial=100\nangiogenesis=medium\nrecovery=high\nquiescence=low\n")
        assert cfg.factors.angiogenesis == 0.4
        assert cfg.factors.recovery == 1.0
        assert cfg.factors.quiescence == 0.1

    def test_numeric_factors(self):
        cfg = parse_config("n_initial=100\nangiogenesis=0.25\n")
        assert cfg.factors.angiogenesis == 0.25
        assert cfg.factors.recovery == 0.3  # untouched defaults stay medium

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# run setup\nn_initial=100  # cells\n\nK=5\n")
        assert cfg.n_initial == 100 and cfg.K == 5

    def test_all_keys(self):
        text = (
            "n_initial=200\nK=6\np=0.5\nangiogenesis=0.1\nrecovery=0.2\n"
            "quiescence=0.3\nspawn_rate=0.4\nmetastasis_rate=0.6\n"
            "apoptosis_rate=0.05\nmax_steps=7\nseed=11\n"
        )
        cfg = parse_config(text)
        assert cfg == ModelConfig(
            n_initial=200, K=6, p=0.5,
            factors=type(cfg.factors)(0.1, 0.2, 0.3),
            spawn_rate=0.4, metastasis_rate=0.6, apoptosis_rate=0.05,
            max_steps=7, seed=11,
        )

    def test_non_integer_k(self):
        with pytest.raises(InputError, match="integer"):
            parse_config("n_initial=100\nK=2.5\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(InputError, match="line 2: unknown key 'growth'"):
            parse_config("n_initial=100\ngrowth=0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_config("n_initial=100\nn_initial=50\n")

    def test_missing_n_initial(self):
        with pytest.raises(InputError, match="n_initial"):
            parse_config("K=4\n")

    def test_out_of_range_rate(self):
        with pytest.raises(InputError, match="line 2"):
            parse_config("n_initial=100\nspawn_rate=1.5\n")

    def test_bad_factor_word(self):
        with pytest.raises(InputError, match="low/medium/high"):
            parse_config("n_initial=100\nangiogenesis=severe\n")

    def test_not_key_value(self):
        with pytest.raises(InputError, match="line 1"):
            parse_config("just some words\n")

    def test_empty_value(self):
        with pytest.raises(InputError, match="empty value"):
            parse_config("n_initial=\n")


class TestConfigRoundTrip:
    def test_identity_on_validated_form(self):
        texts = [
            "n_initial=100\np=0.1\n",
            "n_initial=50\nK=3\nangiogenesis=high\nseed=9\n",
            "n_initial=200\nspawn_rate=0.125\nmax_steps=0\n",
        ]
        for text in texts:
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_derived_p_stays_derived(self):
        cfg = parse_config("n_initial=100\n")
        assert "p=" not in serialize_config(cfg)


class TestParseSweepSpec:
    def test_lists_and_scalars(self):
        spec = parse_sweep_spec(
            "csc_counts=40,60\nangiogenesis_values=0.2, 0.8\nseeds_per_cell=3\nbase_seed=7\n"
        )
        assert spec.csc_counts == (40, 60)
        assert spec.angiogenesis_values == (0.2, 0.8)
        assert spec.seeds_per_cell == 3
        assert spec.base_seed == 7
        # unspecified dimensions stay singleton medium
        assert spec.recovery_values == (0.3,)

    def test_missing_counts(self):
        with pytest.raises(InputError, match="csc_counts"):
            parse_sweep_spec("seeds_per_cell=3\n")

    def test_bad_list_entry(self):
        with pytest.raises(InputError, match="integer"):
            parse_sweep_spec("csc_counts=40,x\n")

    def test_validation_applies(self):
        with pytest.raises(Exception, match="\\[0, 1\\]"):
            parse_sweep_spec("csc_counts=40\nangiogenesis_values=2.0\n")


class TestRunCsv:
    def test_golden_bytes(self):
        series = TimeSeries(
            records=[
                StepRecord(0, 4, 8, 4, 0, 0, 0, 2.0),
                StepRecord(1, 5, 9, 3, 1, 1, 0, 1.8),
            ],
            termination="max_steps",
        )
        assert format_run_csv(series) == (
            "step,n_nodes,n_edges,normal,quiescent,metastatic,dead,volume_ratio\n"
            "0,4,8,4,0,0,0,2.000000\n"
            "1,5,9,3,1,1,0,1.800000\n"
        )

    def test_single_record(self):
        series = TimeSeries(records=[StepRecord(0, 2, 1, 2, 0, 0, 0, 0.5)])
        text = format_run_csv(series)
        assert text.count("\n") == 2
        assert text.startswith(RUN_CSV_HEADER + "\n")

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            format_run_csv(TimeSeries())

    def test_identical_runs_identical_bytes(self):
        cfg = parse_config(CONNECTED_CONFIG)
        a = format_run_csv(run(init_model(cfg), cfg.max_steps))
        b = format_run_csv(run(init_model(cfg), cfg.max_steps))
        assert a == b


class TestRunSummary:
    def test_key_order_and_content(self):
        cfg = parse_config(CONNECTED_CONFIG)
        series = run(init_model(cfg), cfg.max_steps)
        summary = summarize_run(series, seed=3, seed_defaulted=False, wall_clock_s=0.1234567)
        assert list(summary) == [
            "seed", "seed_defaulted", "steps", "termination", "n_nodes",
            "n_edges", "normal", "quiescent", "metastatic", "dead",
            "volume_ratio", "tci", "wall_clock_s",
        ]
        assert summary["seed"] == 3
        assert summary["termination"] == "max_steps"
        assert summary["wall_clock_s"] == 0.123

    def test_single_line_json(self, tmp_path):
        cfg = parse_config(CONNECTED_CONFIG)
        series = run(init_model(cfg), cfg.max_steps)
        path = tmp_path / "summary.json"
        write_summary(summarize_run(series, 3, False, 0.0), path)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["seed"] == 3

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            summarize_run(TimeSeries(), 0, True, 0.0)


class TestSweepTables:
    def test_summary_golden_line(self):
        cell = build_cell_aggregate(
            cell_id=0, n_initial=40, K=4,
            angiogenesis=0.2, recovery=0.3, quiescence=0.5,
            ratios=[1.0, 3.0], fractions=[0.0, 0.0], counts=[0.0, 0.0],
            tci_names=["", ""],
        )
        assert format_sweep_summary([cell]) == (
            SWEEP_SUMMARY_HEADER + "\n"
            "0,40,4,0.2,0.3,0.5,2,2.000000,1.414214,0.000000,0.000000,"
            "0.000000,0.000000,0,0,0\n"
        )

    def test_runs_table_round_trips_through_analyze(self, tmp_path):
        spec = SweepSpec(
            csc_counts=(40, 60), angiogenesis_values=(0.2, 0.8),
            seeds_per_cell=3, base_seed=100, max_steps=20,
        )
        result = run_sweep(spec)
        summary_text = format_sweep_summary(result.cells)
        runs_path = tmp_path / "runs.csv"
        runs_path.write_text(format_sweep_runs(result.runs))
        cells = aggregate_rows(read_sweep_runs(runs_path))
        assert format_sweep_summary(cells) == summary_text

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError, match="header"):
            read_sweep_runs(path)

    def test_read_rejects_empty_table(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(SWEEP_RUNS_HEADER + "\n")
        with pytest.raises(InputError, match="no data rows"):
            read_sweep_runs(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            read_sweep_runs(tmp_path / "absent.csv")

    def test_aggregate_rows_rejects_gap_in_cells(self):
        row = dict(run_id=0, cell_id=1, n_initial=40, K=4, angiogenesis=0.2,
                   recovery=0.3, quiescence=0.5, n_nodes=40, metastatic=0,
                   volume_ratio=2.0, tci="")
        with pytest.raises(InputError, match="contiguous"):
            aggregate_rows([row])

    def test_aggregate_rows_rejects_unequal_cells(self):
        def row(run_id, cell_id):
            return dict(run_id=run_id, cell_id=cell_id, n_initial=40, K=4,
                        angiogenesis=0.2, recovery=0.3, quiescence=0.5,
                        n_nodes=40, metastatic=0, volume_ratio=2.0, tci="")
        with pytest.raises(InputError, match="unequal"):
            aggregate_rows([row(0, 0), row(1, 0), row(2, 1)])


class TestPlotSvg:
    def _run_csv(self, tmp_path):
        cfg = parse_config(CONNECTED_CONFIG)
        series = run(init_model(cfg), cfg.max_steps)
        path = tmp_path / "run.csv"
        path.write_text(format_run_csv(series))
        return path

    def test_timeseries_four_polylines(self, tmp_path):
        out = tmp_path / "chart.svg"
        plot_svg(self._run_csv(tmp_path), "timeseries", out)
        svg = out.read_text()
        assert svg.count("<polyline") == 4
        assert svg.startswith("<svg ")
        assert ">step</text>" in svg and ">count</text>" in svg
        for label in ("normal", "quiescent", "metastatic", "dead"):
            assert f">{label}</text>" in svg

    def test_byte_identical(self, tmp_path):
        src = self._run_csv(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_svg(src, "timeseries", a)
        plot_svg(src, "timeseries", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(RUN_CSV_HEADER + "\n")
        with pytest.raises(InputError, match="no data rows"):
            plot_svg(path, "timeseries", tmp_path / "chart.svg")

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(InputError, match="header"):
            plot_svg(path, "timeseries", tmp_path / "chart.svg")

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(RUN_CSV_HEADER + "\n0,4,8,four,0,0,0,2.0\n")
        with pytest.raises(InputError, match="non-numeric"):
            plot_svg(path, "timeseries", tmp_path / "chart.svg")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(InputError, match="unknown plot kind"):
            plot_svg(self._run_csv(tmp_path), "scatter", tmp_path / "chart.svg")

    def test_sweep_kind_one_polyline_per_count(self, tmp_path):
        spec = SweepSpec(
            csc_counts=(40, 60), angiogenesis_values=(0.2, 0.8),
            seeds_per_cell=2, base_seed=100, max_steps=10,
        )
        result = run_sweep(spec)
        src = tmp_path / "summary.csv"
        src.write_text(format_sweep_summary(result.cells))
        out = tmp_path / "sweep.svg"
        plot_svg(src, "sweep", out)
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert ">n=40</text>" in svg and ">n=60</text>" in svg


class TestCli:
    def test_run_success(self, tmp_path):
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        out_dir = tmp_path / "out"
        code, out, err = _cli(["run", "--config", config, "--out", str(out_dir)])
        assert code == 0, err
        assert "run finished" in out
        csv_text = (out_dir / "run.csv").read_text()
        assert csv_text.startswith(RUN_CSV_HEADER)
        assert csv_text.count("\n") == 7  # header + steps 0..5
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 3
        assert summary["seed_defaulted"] is False
        assert summary["termination"] == "max_steps"

    def test_run_seed_default_noted(self, tmp_path):
        config = _write(tmp_path / "run.cfg", "n_initial=60\np=0.12\nmax_steps=2\n")
        out_dir = tmp_path / "out"
        code, _, _ = _cli(["run", "--config", config, "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 0
        assert summary["seed_defaulted"] is True
        config = _write(tmp_path / "run.cfg", "n_initial=60\np=0.12\nmax_steps=2\nseed=0\n")
        code, _, _ = _cli(["run", "--config", config, "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 0
        assert summary["seed_defaulted"] is False

    def test_run_seed_flag_overrides(self, tmp_path):
        config = _write(tmp_path / "run.cfg", "n_initial=60\np=0.12\nmax_steps=2\n")
        out_dir = tmp_path / "out"
        code, _, _ = _cli(["run", "--config", config, "--out", str(out_dir), "--seed", "9"])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["seed_defaulted"] is False

    def test_run_steps_flag_overrides(self, tmp_path):
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        out_dir = tmp_path / "out"
        code, _, _ = _cli(["run", "--config", config, "--out", str(out_dir), "--steps", "2"])
        assert code == 0
        assert (out_dir / "run.csv").read_text().count("\n") == 4

    def test_run_below_threshold_refused_then_allowed(self, tmp_path):
        config = _write(tmp_path / "run.cfg", "n_initial=550\n")
        out_dir = tmp_path / "out"
        code, _, err = _cli(["run", "--config", config, "--out", str(out_dir)])
        assert code == 2
        assert "threshold" in err
        code, _, _ = _cli([
            "run", "--config", config, "--out", str(out_dir), "--allow-below-threshold",
        ])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["termination"] == "disconnected"
        assert summary["steps"] == 1

    def test_run_missing_config_file(self, tmp_path):
        code, _, err = _cli(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in err

    def test_run_invalid_config_value(self, tmp_path):
        config = _write(tmp_path / "run.cfg", "n_initial=100\nK=2.5\n")
        code, _, err = _cli(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "integer" in err

    def test_unknown_flag_usage_error(self, tmp_path):
        code, _, err = _cli(["run", "--config", "x", "--out", "y", "--frobnicate"])
        assert code == 2
        assert "usage" in err

    def test_missing_subcommand(self):
        code, _, err = _cli([])
        assert code == 2

    def test_help_exits_zero(self):
        code, out, _ = _cli(["--help"])
        assert code == 0
        assert "run" in out and "sweep" in out

    def test_sweep_and_analyze_round_trip(self, tmp_path):
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40,60\nangiogenesis_values=0.2,0.8\nseeds_per_cell=3\n"
            "base_seed=100\nmax_steps=20\n",
        )
        sweep_dir = tmp_path / "sweep"
        code, out, err = _cli(["sweep", "--spec", spec, "--out", str(sweep_dir)])
        assert code == 0, err
        assert "4 cells" in out
        summary_bytes = (sweep_dir / "summary.csv").read_bytes()
        assert summary_bytes.startswith(SWEEP_SUMMARY_HEADER.encode())
        assert (sweep_dir / "runs.csv").read_text().count("\n") == 13  # header + 12 runs

        redone = tmp_path / "summary2.csv"
        code, _, _ = _cli(["analyze", "--runs", str(sweep_dir), "--out", str(redone)])
        assert code == 0
        assert redone.read_bytes() == summary_bytes

    def test_sweep_keep_runs(self, tmp_path):
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40\nseeds_per_cell=2\nbase_seed=5\nmax_steps=10\n",
        )
        sweep_dir = tmp_path / "sweep"
        code, _, _ = _cli(["sweep", "--spec", spec, "--out", str(sweep_dir), "--keep-runs"])
        assert code == 0
        assert (sweep_dir / "run00000.csv").exists()
        assert (sweep_dir / "run00001.csv").exists()

    def test_sweep_invalid_spec(self, tmp_path):
        spec = _write(tmp_path / "grid.cfg", "csc_counts=\n")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2

    def test_analyze_missing_table(self, tmp_path):
        code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "not found" in err

    def test_plot_cli(self, tmp_path):
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        out_dir = tmp_path / "out"
        assert _cli(["run", "--config", config, "--out", str(out_dir)])[0] == 0
        chart = tmp_path / "chart.svg"
        code, out, _ = _cli([
            "plot", "--input", str(out_dir / "run.csv"), "--kind", "timeseries",
            "--out", str(chart),
        ])
        assert code == 0
        assert chart.read_text().count("<polyline") == 4

    def test_workers_env_default(self, tmp_path, monkeypatch):
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40\nseeds_per_cell=2\nbase_seed=5\nmax_steps=5\n",
        )
        monkeypatch.setenv("TUMORNET_WORKERS", "2")
        code, out, _ = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 0
        assert "2 worker(s)" in out

    def test_workers_env_invalid(self, tmp_path, monkeypatch):
        spec = _write(tmp_path / "grid.cfg", "csc_counts=40\nseeds_per_cell=1\n")
        monkeypatch.setenv("TUMORNET_WORKERS", "lots")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        assert "TUMORNET_WORKERS" in err

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch):
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40\nseeds_per_cell=1\nbase_seed=5\nmax_steps=5\n",
        )
        monkeypatch.setenv("TUMORNET_WORKERS", "lots")  # must be ignored
        code, out, _ = _cli([
            "sweep", "--spec", spec, "--out", str(tmp_path / "s"), "--workers", "1",
        ])
        assert code == 0
        assert "1 worker(s)" in out
