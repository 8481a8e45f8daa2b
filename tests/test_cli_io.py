"""Config parsing, file formats, SVG rendering, and the CLI surface."""

import errno
import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from properties import NO_SHRINK
from tumornet import cli_io, engine, graph_core, sweep, tumor_model
from tumornet.cli_io import (
    _CONFIG_KEYS,
    _FIXED,
    _SPEC_KEYS,
    RUN_CSV_HEADER,
    SWEEP_RUNS_HEADER,
    SWEEP_SUMMARY_HEADER,
    InputError,
    _format_table,
    _read_records,
    _write_text,
    format_run_csv,
    format_sweep_runs,
    format_sweep_summary,
    main,
    parse_config,
    parse_sweep_spec,
    plot_svg,
    read_sweep_runs,
    summarize_run,
)
from tumornet.engine import StepRecord, TimeSeries, run
from tumornet.sweep import CellAggregate, RunOutcome, SweepSpec, aggregate, run_sweep
from tumornet.tumor_model import (
    BOUNDS,
    FACTOR_LEVELS,
    ConfigError,
    ControlFactors,
    ModelConfig,
    init_model,
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, text):
    path.write_text(text)
    return str(path)


CONNECTED_CONFIG = "n_initial=60\np=0.12\nmax_steps=5\nseed=3\n"

TABLE_RECORDS = (StepRecord, CellAggregate, RunOutcome)


def _records(record):
    """Lists of records of the type of one table's rows. A .6f column holds
    values that .6f notation writes exactly, so written rows read back as
    the same records."""
    def cell(name, kind):
        if kind is int:
            return st.integers()
        if kind is str:
            # Often the quotes and blanks a CSV parser or a trim would drop. Never
            # "\r": files are read in text mode, which reads it as a line end.
            # Only characters UTF-8 encodes, so no lone surrogate.
            return st.text('" \t') | st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"))
        if name in _FIXED[record]:
            return st.floats().map(lambda v: float(f"{v:.6f}"))
        return st.floats()

    fields_ = {name: cell(name, kind) for name, kind in get_type_hints(record).items()}
    return st.lists(st.builds(record, **fields_), min_size=1, max_size=4)


# Other spellings of a written cell. A spelling the reader accepts must be
# the one the writer writes.
_RESPELLINGS = (
    lambda c: " " + c,
    lambda c: c + " ",
    lambda c: f'"{c}"',
    lambda c: c + "0",
    lambda c: "+" + c,
    lambda c: repr(float(c)),
    lambda c: f"{float(c):e}",
    lambda c: f"{float(c):.3f}",
)


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

    def test_every_factor_level(self):
        assert list(FACTOR_LEVELS) == [f.name for f in fields(ControlFactors)]
        for factor, row in FACTOR_LEVELS.items():
            for level, value in row.items():
                cfg = parse_config(f"n_initial=100\n{factor}={level}\n")
                assert getattr(cfg.factors, factor) == value

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


def _out_of_range(bound):
    """Text of a value outside BOUNDS[bound]."""
    low, high = BOUNDS[bound]
    if high is None:
        return st.integers(max_value=low - 1).map(str)
    return st.one_of(
        st.floats(max_value=low, exclude_max=True), st.floats(min_value=high, exclude_min=True)
    ).map(repr)


@st.composite
def _bad_value_file(draw):
    """A config or spec file with one out-of-range value on a random line.

    Returns (file type, text, key, the key's line number).
    """
    kind = draw(st.sampled_from(["config", "spec"]))
    if kind == "config":
        keys, required = _CONFIG_KEYS, "n_initial"
    else:
        keys, required = _SPEC_KEYS, "csc_counts"
    key = draw(st.sampled_from(sorted(keys)))
    bound = key if kind == "config" else sweep._SPEC_BOUNDS[key]
    value = draw(_out_of_range(bound))
    if kind == "spec" and key in sweep._GRID:
        valid = "0.5" if BOUNDS[bound][1] is not None else "4"
        value = draw(st.sampled_from([f"{valid},{value}", f"{value},{valid}"]))
    others = draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=4))
    if key != required:
        others.append(f"{required}=50")
    others = draw(st.permutations(others))
    pos = draw(st.integers(0, len(others)))
    lines = [*others[:pos], f"{key}={value}", *others[pos:]]
    return kind, "\n".join(lines) + "\n", key, pos + 1


# Each key of a config or spec file, and what its value must be: the field's
# declared type picks it (int, float or float | None, or a tuple of either);
# the control factors also take a level name.
_KEY_TYPES = [
    *(("config", key, "an integer") for key in ("n_initial", "K", "max_steps", "seed")),
    *(("config", key, "a number") for key in ("p", "spawn_rate", "metastasis_rate", "apoptosis_rate")),
    *(
        ("config", key, "a number or one of low/medium/high")
        for key in ("angiogenesis", "recovery", "quiescence")
    ),
    *(("spec", key, "a comma-separated list of integers") for key in ("csc_counts", "K_values")),
    *(
        ("spec", key, "a comma-separated list of numbers")
        for key in ("angiogenesis_values", "recovery_values", "quiescence_values")
    ),
    *(("spec", key, "an integer") for key in ("seeds_per_cell", "base_seed", "max_steps")),
]


class TestOneRuleSet:
    """The dataclasses hold every bound; the parsers name the line."""

    @settings(max_examples=200, deadline=None)
    @given(_bad_value_file())
    @example(("spec", "csc_counts=40\nangiogenesis_values=2.0\n", "angiogenesis_values", 2))
    def test_out_of_range_value_names_its_line(self, case):
        kind, text, key, lineno = case
        parse = parse_config if kind == "config" else parse_sweep_spec
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value).startswith(f"line {lineno}: {key} must ")

    @pytest.mark.parametrize("kind,key,what", _KEY_TYPES)
    def test_unconvertible_value_names_what_the_field_type_takes(self, kind, key, what):
        parse, required = (parse_config, "n_initial") if kind == "config" else (parse_sweep_spec, "csc_counts")
        bad = "1,x" if what.startswith("a comma-separated") else "x"
        text = f"{key}={bad}\n" + ("" if key == required else f"{required}=50\n")
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == f"line 1: {key} requires {what}, got {bad!r}"

    def test_every_key_has_its_converter_pinned(self):
        assert sorted((kind, key) for kind, key, _ in _KEY_TYPES) == sorted(
            [*(("config", key) for key in _CONFIG_KEYS), *(("spec", key) for key in _SPEC_KEYS)]
        )

    def test_key_tables_are_the_dataclass_fields(self):
        model = {f.name for f in fields(ModelConfig)} - {"factors", "allow_below_threshold"}
        factors = {f.name for f in fields(ControlFactors)}
        spec = {f.name for f in fields(SweepSpec)}
        assert set(_CONFIG_KEYS) == model | factors
        assert set(_SPEC_KEYS) == spec
        # Every key is checked against a bound.
        assert set(_CONFIG_KEYS) <= set(BOUNDS)
        assert set(sweep._SPEC_BOUNDS) == spec
        assert set(sweep._SPEC_BOUNDS.values()) <= set(BOUNDS)


    def test_worker_count_bound_is_read_from_bounds(self, tmp_path, monkeypatch):
        # Both the env default and run_sweep follow the one BOUNDS entry.
        monkeypatch.setitem(BOUNDS, "workers", (3, None))
        with pytest.raises(ConfigError, match="workers must be at least 3, got 2"):
            run_sweep(SweepSpec(csc_counts=(40,), max_steps=1), workers=2)
        spec = _write(tmp_path / "grid.cfg", "csc_counts=40\nseeds_per_cell=1\n")
        monkeypatch.setenv("TUMORNET_WORKERS", "2")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error: TUMORNET_WORKERS must be at least 3, got 2" in err


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
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        assert _cli(["run", "--config", config, "--out", str(tmp_path)])[0] == 0
        text = (tmp_path / "summary.json").read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text)["seed"] == 3

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            summarize_run(TimeSeries(), 0, True, 0.0)


# One runs.csv data row as run 0 of cell 0, and as run 0 of cell 1 (so cell 0
# is missing).
RUNS_ROW_CELL_0 = "0,0,40,4,0.2,0.3,0.5,0,1,disconnected,40,80,40,0,0,0,2.0,"
RUNS_ROW_CELL_1 = "0,1,40,4,0.2,0.3,0.5,0,1,disconnected,40,80,40,0,0,0,2.0,"


class TestAtomicWrite:
    def _left(self, directory):
        return {p.name: p.read_text() for p in directory.iterdir()}

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "run.csv"
        _write_text((path, "earlier\n"))
        # A lone surrogate cannot be encoded, so the write fails part way.
        with pytest.raises(UnicodeEncodeError):
            _write_text((path, "later\n" * 10_000 + "\ud800"))
        assert self._left(tmp_path) == {"run.csv": "earlier\n"}

    def test_failed_replace_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.json"
        _write_text((path, '{"seed": 1}\n'))

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no space left"):
            _write_text((path, '{"seed": 2}\n'))
        assert self._left(tmp_path) == {"summary.json": '{"seed": 1}\n'}

    def test_failed_second_write_keeps_both_earlier_files(self, tmp_path):
        summary, runs = tmp_path / "summary.csv", tmp_path / "runs.csv"
        _write_text((summary, "earlier summary\n"), (runs, "earlier runs\n"))
        # The second temp file fails part way, before either rename.
        with pytest.raises(UnicodeEncodeError):
            _write_text((summary, "later summary\n"), (runs, "later\n" * 10_000 + "\ud800"))
        assert self._left(tmp_path) == {
            "summary.csv": "earlier summary\n",
            "runs.csv": "earlier runs\n",
        }
        _write_text((summary, "later summary\n"), (runs, "later runs\n"))
        assert self._left(tmp_path) == {"summary.csv": "later summary\n", "runs.csv": "later runs\n"}


class TestSweepTables:
    def test_summary_golden_line(self):
        runs = [
            RunOutcome(
                run_id=i, cell_id=0, n_initial=40, K=4, angiogenesis=0.2,
                recovery=0.3, quiescence=0.5, seed=i, steps=1,
                termination="disconnected", n_nodes=40, n_edges=int(40 * ratio),
                normal=40, quiescent=0, metastatic=0, dead=0,
                volume_ratio=ratio, tci="",
            )
            for i, ratio in enumerate((1.0, 3.0))
        ]
        # The headers are written out, not read from the constants built
        # from the records' fields, so a reordered field fails here.
        assert format_sweep_summary(aggregate(runs)) == (
            "cell_id,n_initial,K,angiogenesis,recovery,quiescence,seeds,"
            "mean_volume_ratio,std_volume_ratio,"
            "mean_metastatic_fraction,std_metastatic_fraction,"
            "mean_metastatic_count,std_metastatic_count,"
            "progression,rejection,stabilization\n"
            "0,40,4,0.2,0.3,0.5,2,2.000000,1.414214,0.000000,0.000000,"
            "0.000000,0.000000,0,0,0\n"
        )
        assert format_sweep_runs(runs) == (
            "run_id,cell_id,n_initial,K,angiogenesis,recovery,quiescence,seed,"
            "steps,termination,n_nodes,n_edges,normal,quiescent,metastatic,dead,"
            "volume_ratio,tci\n"
            "0,0,40,4,0.2,0.3,0.5,0,1,disconnected,40,40,40,0,0,0,1.0,\n"
            "1,0,40,4,0.2,0.3,0.5,1,1,disconnected,40,120,40,0,0,0,3.0,\n"
        )

    def test_readme_states_every_frozen_header(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = set(readme.splitlines())
        for header in (RUN_CSV_HEADER, SWEEP_SUMMARY_HEADER, SWEEP_RUNS_HEADER):
            assert header in lines

    def test_runs_table_round_trips_through_analyze(self, tmp_path):
        spec = SweepSpec(
            csc_counts=(40, 60), angiogenesis_values=(0.2, 0.8),
            seeds_per_cell=3, base_seed=100, max_steps=20,
        )
        result = run_sweep(spec)
        summary_text = format_sweep_summary(result.cells)
        runs_path = tmp_path / "runs.csv"
        runs_path.write_text(format_sweep_runs(result.runs))
        cells = aggregate(read_sweep_runs(runs_path))
        assert format_sweep_summary(cells) == summary_text

    @settings(max_examples=20, deadline=None)
    @given(
        csc_counts=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        factors=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), min_size=3, max_size=3
        ),
        K_values=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        seeds_per_cell=st.integers(1, 3),
        base_seed=st.integers(0, 2**31),
        max_steps=st.integers(0, 20),
    )
    def test_runs_table_reads_back_the_sweep(
        self, csc_counts, factors, K_values, seeds_per_cell, base_seed, max_steps
    ):
        # analyze rebuilds the sweep's own records from runs.csv, so the one
        # aggregation gives it the sweep's summary.csv.
        spec = SweepSpec(
            csc_counts=csc_counts, angiogenesis_values=factors[0],
            recovery_values=factors[1], quiescence_values=factors[2],
            K_values=K_values, seeds_per_cell=seeds_per_cell,
            base_seed=base_seed, max_steps=max_steps,
        )
        result = run_sweep(spec)
        with tempfile.TemporaryDirectory() as tmp:
            runs_path = Path(tmp) / "runs.csv"
            runs_path.write_text(format_sweep_runs(result.runs))
            runs = read_sweep_runs(runs_path)
        assert runs == result.runs
        assert format_sweep_summary(aggregate(runs)) == format_sweep_summary(result.cells)

    def test_aggregate_rows_rejects_unequal_cells(self, tmp_path):
        # Two runs in cell 0 and one in cell 1, read back from runs.csv.
        def row(run_id, cell_id):
            return (f"{run_id},{cell_id},40,4,0.2,0.3,0.5,{run_id},1,disconnected,"
                    "40,80,40,0,0,0,2.0,")
        path = tmp_path / "runs.csv"
        path.write_text("\n".join([SWEEP_RUNS_HEADER, row(0, 0), row(1, 0), row(2, 1)]) + "\n")
        runs = read_sweep_runs(path)
        assert [r.cell_id for r in runs] == [0, 0, 1]
        with pytest.raises(ValueError, match="unequal"):
            aggregate(runs)

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


# hypothesis tests a given method with one executor, so the parametrized
# property tests stand outside the test classes. They report the first
# failing case as drawn (NO_SHRINK).


@pytest.mark.parametrize("record", TABLE_RECORDS, ids=lambda r: r.__name__)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_written_records_read_back(record, data):
    records = data.draw(_records(record))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(_format_table(record, records))
        read = _read_records(path, record, "table")
    # repr tells nan from nan and -0.0 from 0.0, which == does not.
    assert list(map(repr, read)) == list(map(repr, records))


@pytest.mark.parametrize("record", TABLE_RECORDS, ids=lambda r: r.__name__)
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_a_respelled_cell_reads_only_as_written(record, data):
    # Edit one cell of a written table each way: the reader rejects the
    # table, or writing what it read gives the edited table back.
    lines = _format_table(record, data.draw(_records(record))).split("\n")
    row = data.draw(st.integers(1, len(lines) - 2))
    column = data.draw(st.integers(0, len(lines[row].split(",")) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for respell in _RESPELLINGS:
            cells = lines[row].split(",")
            try:
                cells[column] = respell(cells[column])
            except ValueError:  # a float spelling of a cell float() cannot read
                continue
            text = "\n".join([*lines[:row], ",".join(cells), *lines[row + 1:]])
            path.write_text(text)
            try:
                read = _read_records(path, record, "table")
            except InputError:
                continue
            assert _format_table(record, read) == text


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
        path.write_text(RUN_CSV_HEADER + "\n0,4,8,four,0,0,0,2.000000\n")
        with pytest.raises(InputError, match="non-numeric"):
            plot_svg(path, "timeseries", tmp_path / "chart.svg")

    def test_non_finite_timeseries_value_rejected(self, tmp_path):
        # A nan count once gave points="350.00,nan" and exit 0.
        path = tmp_path / "run.csv"
        for value in ("nan", "inf"):
            path.write_text(RUN_CSV_HEADER + f"\n0,4,8,4,0,0,0,2.000000\n1,4,8,{value},0,0,0,2.000000\n")
            with pytest.raises(InputError, match="non-finite"):
                plot_svg(path, "timeseries", tmp_path / "chart.svg")
        out = tmp_path / "cli.svg"
        code, _, err = _cli(["plot", "--input", str(path), "--kind", "timeseries", "--out", str(out)])
        assert code == 2 and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_sweep_value_rejected(self, tmp_path):
        spec = SweepSpec(csc_counts=(40,), angiogenesis_values=(0.2, 0.8),
                         seeds_per_cell=1, base_seed=100, max_steps=5)
        lines = format_sweep_summary(run_sweep(spec).cells).splitlines()
        fields = lines[1].split(",")
        fields[SWEEP_SUMMARY_HEADER.split(",").index("mean_metastatic_count")] = "nan"
        path = tmp_path / "summary.csv"
        path.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        with pytest.raises(InputError, match="non-finite"):
            plot_svg(path, "sweep", tmp_path / "chart.svg")
        out = tmp_path / "cli.svg"
        code, _, err = _cli(["plot", "--input", str(path), "--kind", "sweep", "--out", str(out)])
        assert code == 2 and "Traceback" not in err
        assert not out.exists()

    def test_row_of_the_wrong_width_rejected(self, tmp_path):
        # A ninth cell was once ignored (exit 0); a short row was reported
        # as non-numeric.
        path = tmp_path / "run.csv"
        out = tmp_path / "chart.svg"
        for row in ("0,4,8,4,0,0,0,2.000000,9", "0,4"):
            path.write_text(RUN_CSV_HEADER + f"\n{row}\n")
            code, _, err = _cli(["plot", "--input", str(path), "--kind", "timeseries", "--out", str(out)])
            assert code == 2
            assert err == f"error: malformed row in {path}: {row.split(',')!r}\n"
            assert not out.exists()

    def test_unplotted_cell_must_read_as_its_type(self, tmp_path):
        # volume_ratio and mean_volume_ratio are not drawn, but each row is read
        # back as its record, and only in the form tumornet writes it: int()
        # reads 1_0 as 10, and a .6f column holds 2.000000, not 2.0.
        summary_row = "0,40,4,0.2,0.3,0.5,2,{},1.414214,0.000000,0.000000,0.000000,0.000000,0,0,0"
        out = tmp_path / "chart.svg"
        unreadable = "malformed row (a non-numeric or non-finite cell)"
        for kind, header, row, reason in (
            ("timeseries", RUN_CSV_HEADER, "0,4,8,4,0,0,0,two", unreadable),
            ("timeseries", RUN_CSV_HEADER, "1_0,4,8,4,0,0,0,2.000000", "malformed row"),
            ("timeseries", RUN_CSV_HEADER, "0,4,8,4,0,0,0,2.0", "malformed row"),
            ("sweep", SWEEP_SUMMARY_HEADER, summary_row.format("2.0"), "malformed row"),
        ):
            path = tmp_path / f"{kind}.csv"
            path.write_text(header + f"\n{row}\n")
            code, _, err = _cli(["plot", "--input", str(path), "--kind", kind, "--out", str(out)])
            assert code == 2
            assert err == f"error: {reason} in {path}: {row.split(',')!r}\n"
            assert not out.exists()
        # The same summary row as written plots.
        path.write_text(SWEEP_SUMMARY_HEADER + "\n" + summary_row.format("2.000000") + "\n")
        assert _cli(["plot", "--input", str(path), "--kind", "sweep", "--out", str(out)])[0] == 0

    def test_missing_output_directories_are_created(self, tmp_path):
        src = self._run_csv(tmp_path)
        plot_svg(src, "timeseries", tmp_path / "chart.svg")
        nested = tmp_path / "a" / "b" / "chart.svg"
        code, _, err = _cli(["plot", "--input", str(src), "--kind", "timeseries", "--out", str(nested)])
        assert code == 0, err
        assert nested.read_bytes() == (tmp_path / "chart.svg").read_bytes()

    def test_file_at_the_output_directory_rejected(self, tmp_path):
        src = self._run_csv(tmp_path)
        code, _, err = _cli([
            "plot", "--input", str(src), "--kind", "timeseries", "--out", str(src / "chart.svg"),
        ])
        assert code == 2
        assert err == f"error: output directory is not a directory: {src}\n"

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


_GOLDEN_RUN_CSV = """\
step,n_nodes,n_edges,normal,quiescent,metastatic,dead,volume_ratio
0,40,96,40,0,0,0,2.400000
1,41,100,25,9,5,2,2.439024
2,43,108,20,11,8,4,2.511628
3,43,108,18,10,7,8,2.511628
"""


class TestGoldenSvg:
    """The SVG bytes of both plot kinds, pinned as sha256 digests."""

    def _plot(self, tmp_path, text, kind):
        src, out = tmp_path / "in.csv", tmp_path / "out.svg"
        src.write_text(text)
        plot_svg(src, kind, out)
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_timeseries(self, tmp_path):
        assert self._plot(tmp_path, _GOLDEN_RUN_CSV, "timeseries") == (
            "59a1ba0647797782190fee3f2e70de19b9cc7490dd2096f35b253e2847447878"
        )

    def test_sweep(self, tmp_path):
        # Two recovery values, so each line's label names its K, r and q too.
        spec = SweepSpec(csc_counts=(30, 50), angiogenesis_values=(0.2, 0.5, 0.8),
                         recovery_values=(0.1, 0.3), seeds_per_cell=2, base_seed=5, max_steps=20)
        summary = format_sweep_summary(run_sweep(spec).cells)
        assert hashlib.sha256(summary.encode()).hexdigest() == (
            "9f20a1b7182df0edba931ebba765ef29e6f99a655218b162b750ca97c2f5af4e"
        )
        assert self._plot(tmp_path, summary, "sweep") == (
            "27d03d2f63ec6e16833c3a790cacbfb4ca1061c7830e50c4e3264c632eba9ecd"
        )


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

    def test_undecodable_input_files(self, tmp_path):
        binary = b"n_initial=\xff\xfe60\n"
        (tmp_path / "runs.csv").write_bytes(binary)
        for argv in (
            ["run", "--config", str(tmp_path / "runs.csv"), "--out", str(tmp_path / "o")],
            ["sweep", "--spec", str(tmp_path / "runs.csv"), "--out", str(tmp_path / "s")],
            ["analyze", "--runs", str(tmp_path), "--out", str(tmp_path / "s.csv")],
        ):
            code, _, err = _cli(argv)
            assert code == 2
            assert "is not text" in err and "Traceback" not in err

    def test_internal_value_error_exits_3(self, tmp_path, monkeypatch):
        def broken_run(model, max_steps):
            raise ValueError("cell 7 is dead and cannot act")

        monkeypatch.setattr(engine, "run", broken_run)
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        code, _, err = _cli(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "Traceback" in err and "ValueError: cell 7 is dead and cannot act" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_interrupt_prints_one_line_and_exits_130(self, tmp_path, monkeypatch, command):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_io, "_cmd_run", interrupted)
        monkeypatch.setattr(sweep, "run_sweep", interrupted)
        out_dir = tmp_path / "out"
        source = (
            ["--config", _write(tmp_path / "run.cfg", CONNECTED_CONFIG)]
            if command == "run" else ["--preset", "fig4"]
        )
        code, out, err = _cli([command, *source, "--out", str(out_dir)])
        assert code == 130
        assert out == ""
        assert err == f"tumornet {command}: interrupted; no file written\n"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

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

    def test_sweep_reports_step1_runs_on_stderr(self, tmp_path):
        # At n=300 the derived density starts disconnected; at n=40 it does not.
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40,300\nangiogenesis_values=0.2,0.8\nseeds_per_cell=3\n"
            "base_seed=100\nmax_steps=20\n",
        )
        code, out, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 0
        assert out.startswith("sweep finished: 12 runs over 4 cells in ") and out.count("\n") == 1
        rows = read_sweep_runs(tmp_path / "s" / "runs.csv")
        assert sum(r.steps == 1 and r.termination == "disconnected" for r in rows) == 6
        assert err == "6 of 12 runs ended at step 1: the start graph was disconnected\n"

    def test_sweep_keep_runs(self, tmp_path):
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40\nseeds_per_cell=2\nbase_seed=5\nmax_steps=10\n",
        )
        sweep_dir = tmp_path / "sweep"
        code, _, _ = _cli(["sweep", "--spec", spec, "--out", str(sweep_dir), "--keep-runs"])
        assert code == 0
        names = sorted(p.name for p in sweep_dir.iterdir())
        assert names == ["run00000.csv", "run00001.csv", "runs.csv", "summary.csv"]
        # A kept run is the run.csv that `tumornet run` writes for its config.
        c = sweep.expand(parse_sweep_spec(Path(spec).read_text()))[0]
        config = _write(
            tmp_path / "run0.cfg",
            f"n_initial={c.n_initial}\nK={c.K}\nangiogenesis={c.factors.angiogenesis}\n"
            f"recovery={c.factors.recovery}\nquiescence={c.factors.quiescence}\n"
            f"max_steps={c.max_steps}\nseed={c.seed}\n",
        )
        run_dir = tmp_path / "run0"
        code, _, _ = _cli(
            ["run", "--config", config, "--out", str(run_dir), "--allow-below-threshold"]
        )
        assert code == 0
        kept = (sweep_dir / "run00000.csv").read_bytes()
        assert kept == (run_dir / "run.csv").read_bytes()
        assert kept.count(b"\n") > 3  # the run lasts more than one step

    def _failing_engine_run(self, monkeypatch, seed):
        """Make engine.run raise for one seed, also in the forked pool workers,
        and report two CPUs, so that a real pool starts on any machine."""
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        original = sweep.engine.run

        def failing_run(model, max_steps):
            if model.config.seed == seed:
                raise ValueError("cell exploded")
            return original(model, max_steps)

        monkeypatch.setattr(sweep.engine, "run", failing_run)

    def test_sweep_failed_run_in_a_pool_exits_3(self, tmp_path, monkeypatch):
        # Run 0 fails in a worker process and its error crosses back to the
        # parent.
        self._failing_engine_run(monkeypatch, seed=100)
        spec = _write(
            tmp_path / "grid.cfg",
            "csc_counts=40\nseeds_per_cell=12\nbase_seed=100\nmax_steps=10\n",
        )
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        code, _, err = _cli(
            ["sweep", "--spec", spec, "--out", str(sweep_dir), "--workers", "2", "--keep-runs"]
        )
        assert code == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == "error: run 0 (cell 0, seed 100) failed: ValueError: cell exploded\n"
        assert list(sweep_dir.iterdir()) == []

    def test_failed_keep_runs_sweep_keeps_the_earlier_sweep(self, tmp_path, monkeypatch):
        sweep_dir = tmp_path / "sweep"
        argv = ["--out", str(sweep_dir), "--workers", "2", "--keep-runs"]
        first = _write(
            tmp_path / "first.cfg",
            "csc_counts=40\nseeds_per_cell=12\nbase_seed=100\nmax_steps=10\n",
        )
        assert _cli(["sweep", "--spec", first, *argv])[0] == 0
        earlier = {p.name: p.read_bytes() for p in sweep_dir.iterdir()}
        assert len(earlier) == 14
        # The last run fails, so every other run of the second sweep has
        # finished before the sweep ends.
        self._failing_engine_run(monkeypatch, seed=511)
        second = _write(
            tmp_path / "second.cfg",
            "csc_counts=40\nseeds_per_cell=12\nbase_seed=500\nmax_steps=10\n",
        )
        code, _, err = _cli(["sweep", "--spec", second, *argv])
        assert code == 3
        assert err == "error: run 11 (cell 0, seed 511) failed: ValueError: cell exploded\n"
        assert {p.name: p.read_bytes() for p in sweep_dir.iterdir()} == earlier

    def test_oversized_start_exits_2_before_generating(self, tmp_path, monkeypatch):
        def generate(*args):
            raise AssertionError("a start graph was generated")

        monkeypatch.setattr(graph_core, "generate_er", generate)
        monkeypatch.setattr(graph_core, "generate_er_skip", generate)
        out = tmp_path / "out"
        for text, line in (("n_initial=1000000000\n", 1), ("n_initial=40000\np=1\n", 2)):
            config = _write(tmp_path / "run.cfg", text)
            code, _, err = _cli(["run", "--config", config, "--out", str(out)])
            assert code == 2
            assert err.startswith(f"error: line {line}: n_initial=") and "10,000,000 allowed" in err
            assert not (out / "run.csv").exists()
        # A sweep's grid reaches the limit through expand, before its first run.
        spec = _write(tmp_path / "grid.cfg", "csc_counts=60,1000000000\nseeds_per_cell=1\n")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2 and "10,000,000 allowed" in err and "Traceback" not in err
        assert not (tmp_path / "s" / "runs.csv").exists()

    def test_oversized_sweep_exits_2_before_any_run(self, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a sweep was expanded or a run started")

        monkeypatch.setattr(sweep, "expand", unexpected)
        monkeypatch.setattr(tumor_model, "init_model", unexpected)
        out = tmp_path / "s"
        # 40,000 runs of up to 501 rows each.
        many_rows = "csc_counts=40\nseeds_per_cell=40000\nmax_steps=500\n"
        for text, flags, message in (
            ("csc_counts=40,60\nseeds_per_cell=500001\n", [],
             "error: line 2: the grid has 1,000,002 runs, more than the 1,000,000 allowed\n"),
            (many_rows, ["--keep-runs"],
             "error: --keep-runs may keep 20,040,000 run.csv rows, more than the 20,000,000 allowed; "
             "lower max_steps or the grid, or drop --keep-runs\n"),
        ):
            spec = _write(tmp_path / "grid.cfg", text)
            code, _, err = _cli(["sweep", "--spec", spec, "--out", str(out), *flags])
            assert (code, err) == (2, message)
            assert not out.exists()
        # At the row limit, without --keep-runs, and fig4 with it, the sweep
        # goes on to expand its grid.
        at_limit = "csc_counts=40\nseeds_per_cell=40000\nmax_steps=499\n"
        for source, flags in (
            (["--spec", _write(tmp_path / "grid.cfg", at_limit)], ["--keep-runs"]),
            (["--spec", _write(tmp_path / "big.cfg", many_rows)], []),
            (["--preset", "fig4"], ["--keep-runs"]),
        ):
            code, _, err = _cli(["sweep", *source, "--out", str(out), *flags])
            assert code == 3 and "a sweep was expanded or a run started" in err

    def test_sweep_invalid_spec(self, tmp_path):
        spec = _write(tmp_path / "grid.cfg", "csc_counts=\n")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2

    def test_analyze_missing_table(self, tmp_path):
        code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "not found" in err

    def test_analyze_gap_in_cells(self, tmp_path):
        (tmp_path / "runs.csv").write_text(SWEEP_RUNS_HEADER + "\n" + RUNS_ROW_CELL_1 + "\n")
        out = tmp_path / "s.csv"
        code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(out)])
        assert code == 2
        assert "error: cell ids are not contiguous from 0" in err
        assert not out.exists()

    def test_analyze_malformed_row(self, tmp_path):
        non_numeric = RUNS_ROW_CELL_1.replace(",4,", ",four,", 1)
        short = RUNS_ROW_CELL_1[: RUNS_ROW_CELL_1.rindex(",")]
        # Cells that int() or float() read as the row's own values, in forms
        # no sweep writes, and a quoted cell, which a CSV parser reads as its
        # value; such edits of a sweep's runs.csv once went through analyze
        # with exit 0 and the sweep's summary.csv.
        forms = []
        for column, cell in (
            ("n_initial", "4_0"), ("n_initial", "+40"), ("n_initial", "\u0664\u0660"), ("seed", " 0"),
            ("run_id", " 0"), ("angiogenesis", "0_0.2"), ("angiogenesis", "0.20"), ("angiogenesis", "2e-1"),
            ("angiogenesis", '"0.2"'), ("volume_ratio", " 2.0"), ("volume_ratio", "0_2.0"),
            ("volume_ratio", "2.000e+00"),
        ):
            cells = RUNS_ROW_CELL_1.split(",")
            cells[SWEEP_RUNS_HEADER.split(",").index(column)] = cell
            forms.append(",".join(cells))
        for row in (non_numeric, short, *forms):
            (tmp_path / "runs.csv").write_text(SWEEP_RUNS_HEADER + "\n" + row + "\n")
            out = tmp_path / "s.csv"
            code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(out)])
            assert code == 2
            assert "error: malformed row" in err and repr(row.split(",")) in err
            assert not out.exists()

    def _analyze_rows(self, tmp_path, rows):
        (tmp_path / "runs.csv").write_text("\n".join([SWEEP_RUNS_HEADER, *rows]) + "\n")
        out = tmp_path / "s.csv"
        code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        return err

    def test_analyze_unknown_tci(self, tmp_path):
        row = RUNS_ROW_CELL_0 + "progresion"
        err = self._analyze_rows(tmp_path, [row])
        assert "error: unknown tci 'progresion'" in err and repr(row.split(",")) in err

    def test_analyze_unknown_termination(self, tmp_path):
        # A quoted cell reads as written, quotes and all.
        for termination in ("disconected", '"disconnected"'):
            row = RUNS_ROW_CELL_0.replace("disconnected", termination)
            err = self._analyze_rows(tmp_path, [row])
            assert f"error: unknown termination {termination!r}" in err and repr(row.split(",")) in err

    def test_analyze_cell_config_disagreement(self, tmp_path):
        # Run 1 of cell 0 edited to another starting population.
        edited = "1" + RUNS_ROW_CELL_0[1:].replace(",40,", ",360,", 1)
        err = self._analyze_rows(tmp_path, [RUNS_ROW_CELL_0, edited])
        assert "error: runs of cell 0 disagree" in err

    def test_analyze_duplicated_or_misplaced_run(self, tmp_path):
        # Run 1's row replaced by a copy of run 0; then four runs in two
        # cells with runs 1 and 2 swapped between the cells.
        err = self._analyze_rows(tmp_path, [RUNS_ROW_CELL_0, RUNS_ROW_CELL_0])
        assert "error: run ids are not 0..N-1, each once" in err

        def row(run_id, cell_id):
            return f"{run_id},{cell_id}" + RUNS_ROW_CELL_0[3:]

        err = self._analyze_rows(tmp_path, [row(0, 0), row(1, 1), row(2, 0), row(3, 1)])
        assert "error: run 1 is in cell 1, not 0" in err and "Traceback" not in err

    def test_analyze_counts_must_sum_to_positive_n_nodes(self, tmp_path):
        # All counts edited to 0 (aggregate would divide by n_nodes), and one
        # count edited so the four no longer sum to n_nodes.
        zeroed = RUNS_ROW_CELL_0.replace(",40,80,40,0,0,0,", ",0,80,0,0,0,0,")
        mismatched = RUNS_ROW_CELL_0.replace(",40,80,40,0,0,0,", ",40,80,39,0,0,0,")
        for row in (zeroed, mismatched):
            err = self._analyze_rows(tmp_path, [row])
            assert "error: cell counts do not sum to a positive n_nodes" in err
            assert repr(row.split(",")) in err and "Traceback" not in err

    def test_analyze_volume_ratio_must_be_edges_per_node(self, tmp_path):
        # 80 edges over 40 nodes is 2.0; nan and inf once made the aggregate
        # die with a traceback.
        for ratio in ("nan", "inf", "2.5"):
            row = RUNS_ROW_CELL_0.replace(",2.0,", f",{ratio},")
            err = self._analyze_rows(tmp_path, [row])
            assert "error: volume_ratio is not n_edges / n_nodes" in err
            assert repr(row.split(",")) in err and "Traceback" not in err

    def test_analyze_negative_count(self, tmp_path):
        # The counts still sum to n_nodes, but one is below 0.
        row = RUNS_ROW_CELL_0.replace(",40,80,40,0,0,0,", ",40,80,-3,0,0,43,")
        err = self._analyze_rows(tmp_path, [row])
        assert "error: negative count" in err and repr(row.split(",")) in err

    def test_analyze_negative_steps(self, tmp_path):
        row = RUNS_ROW_CELL_0.replace(",1,disconnected,", ",-4,disconnected,")
        err = self._analyze_rows(tmp_path, [row])
        assert "error: negative count" in err and repr(row.split(",")) in err

    def test_analyze_extinct_with_live_cells(self, tmp_path):
        # 40 normal cells live, so the run cannot have ended extinct.
        row = RUNS_ROW_CELL_0.replace(",disconnected,", ",extinct,")
        err = self._analyze_rows(tmp_path, [row])
        assert "error: extinct run with live cells" in err and repr(row.split(",")) in err

    def test_analyze_disconnected_at_step_0(self, tmp_path):
        # The connectivity check first runs after step 1.
        row = RUNS_ROW_CELL_0.replace(",1,disconnected,", ",0,disconnected,")
        err = self._analyze_rows(tmp_path, [row])
        assert "error: step-0 run with a disconnected ending or a tci" in err
        assert repr(row.split(",")) in err

    def test_analyze_tci_at_step_0(self, tmp_path):
        # A run of 0 steps has one record, and a tci needs two.
        row = RUNS_ROW_CELL_0.replace(",1,disconnected,", ",0,max_steps,") + "stabilization"
        err = self._analyze_rows(tmp_path, [row])
        assert "error: step-0 run with a disconnected ending or a tci" in err
        assert repr(row.split(",")) in err

    def test_analyze_config_column_out_of_bounds(self, tmp_path):
        # Both runs of the cell agree on an angiogenesis no config allows.
        row = RUNS_ROW_CELL_0.replace(",0.2,", ",7.5,")
        rows = [row, "1" + row[1:]]
        err = self._analyze_rows(tmp_path, rows)
        assert "error: angiogenesis must lie in [0, 1], got 7.5" in err
        assert repr(rows[0].split(",")) in err and "Traceback" not in err
        err = self._analyze_rows(tmp_path, [RUNS_ROW_CELL_0.replace(",40,4,", ",40,0,", 1)])
        assert "error: K must be at least 1, got 0" in err

    def test_input_path_that_is_not_a_file(self, tmp_path):
        table = tmp_path / "runs.csv"
        table.write_text(SWEEP_RUNS_HEADER + "\n" + RUNS_ROW_CELL_0 + "\n")
        code, _, err = _cli(["analyze", "--runs", str(table), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "error: runs table is not a file" in err and "Traceback" not in err
        code, _, err = _cli(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: config file is not a file" in err and "Traceback" not in err

    def test_run_failed_write_keeps_both_earlier_files(self, tmp_path, monkeypatch):
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        out_dir = tmp_path / "out"
        assert _cli(["run", "--config", config, "--out", str(out_dir)])[0] == 0
        earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        write_text = Path.write_text

        def no_space_for_the_summary(path, text, *args, **kwargs):
            if path.name.startswith(".summary.json."):
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", no_space_for_the_summary)
        code, _, err = _cli(["run", "--config", config, "--out", str(out_dir), "--seed", "9"])
        assert code == 3
        assert "No space left on device" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier

    def test_run_out_that_is_a_file(self, tmp_path):
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        code, _, err = _cli(["run", "--config", config, "--out", config])
        assert code == 2
        assert f"error: output directory is not a directory: {config}" in err
        assert "Traceback" not in err

    def test_run_directory_at_a_later_path_keeps_the_earlier_files(self, tmp_path):
        # summary.json is renamed after run.csv; its directory is found first.
        config = _write(tmp_path / "run.cfg", CONNECTED_CONFIG)
        out_dir = tmp_path / "out"
        assert _cli(["run", "--config", config, "--out", str(out_dir)])[0] == 0
        (out_dir / "summary.json").unlink()
        (out_dir / "summary.json").mkdir()
        earlier = (out_dir / "run.csv").read_bytes()
        code, _, err = _cli(["run", "--config", config, "--out", str(out_dir), "--seed", "9"])
        assert code == 2
        assert err == f"error: cannot write {out_dir / 'summary.json'}: Is a directory\n"
        assert (out_dir / "run.csv").read_bytes() == earlier
        assert sorted(p.name for p in out_dir.iterdir()) == ["run.csv", "summary.json"]

    def test_sweep_directory_at_an_output_path_keeps_the_earlier_files(self, tmp_path):
        grid = "csc_counts=40\nseeds_per_cell=2\nmax_steps=10\nbase_seed="
        first = _write(tmp_path / "first.cfg", grid + "5\n")
        second = _write(tmp_path / "second.cfg", grid + "6\n")
        out_dir = tmp_path / "sweep"
        argv = ["--out", str(out_dir), "--keep-runs"]
        assert _cli(["sweep", "--spec", first, *argv])[0] == 0
        earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        # runs.csv is renamed last and run00001.csv before summary.csv; a
        # directory at either is found before any rename.
        for name in ("runs.csv", "run00001.csv"):
            taken = dict(earlier)
            del taken[name]
            (out_dir / name).unlink()
            (out_dir / name).mkdir()
            code, _, err = _cli(["sweep", "--spec", second, *argv])
            assert code == 2
            assert err == f"error: cannot write {out_dir / name}: Is a directory\n"
            left = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
            assert left == taken
            (out_dir / name).rmdir()
            (out_dir / name).write_bytes(earlier[name])

    def _stale_run_file(self, tmp_path, monkeypatch, second, keep_runs):
        """Run a kept 2-run sweep into a directory, then the second spec into
        it; return the second sweep's exit code and stderr after checking
        that it started no run and left every earlier file as it was."""
        grid = "csc_counts=40\nmax_steps=10\n"
        first = _write(tmp_path / "first.cfg", grid + "seeds_per_cell=2\nbase_seed=5\n")
        out_dir = tmp_path / "sweep"
        assert _cli(["sweep", "--spec", first, "--out", str(out_dir), "--keep-runs"])[0] == 0
        earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(sweep, "run_sweep", no_sweep)
        second = _write(tmp_path / "second.cfg", grid + second)
        code, _, err = _cli(
            ["sweep", "--spec", second, "--out", str(out_dir), *(["--keep-runs"] if keep_runs else [])]
        )
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == earlier
        return code, err, out_dir

    def test_sweep_without_keep_runs_beside_kept_runs_exits_2(self, tmp_path, monkeypatch):
        # It once exited 0 and left run00000.csv of seed 5 beside a runs.csv
        # that listed seed 6.
        code, err, out_dir = self._stale_run_file(
            tmp_path, monkeypatch, "seeds_per_cell=1\nbase_seed=6\n", keep_runs=False
        )
        assert code == 2
        assert err == (
            f"error: {out_dir / 'run00000.csv'} is from an earlier sweep and this sweep would "
            "not replace it; remove it or choose another --out\n"
        )

    def test_smaller_kept_sweep_beside_a_larger_one_exits_2(self, tmp_path, monkeypatch):
        code, err, out_dir = self._stale_run_file(
            tmp_path, monkeypatch, "seeds_per_cell=1\nbase_seed=6\n", keep_runs=True
        )
        assert code == 2
        assert err.startswith(f"error: {out_dir / 'run00001.csv'} is from an earlier sweep")

    def test_kept_sweep_of_the_same_size_replaces_the_run_files(self, tmp_path):
        grid = "csc_counts=40\nseeds_per_cell=2\nmax_steps=10\nbase_seed="
        out_dir = tmp_path / "sweep"
        argv = ["--out", str(out_dir), "--keep-runs"]
        assert _cli(["sweep", "--spec", _write(tmp_path / "first.cfg", grid + "5\n"), *argv])[0] == 0
        earlier = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        code, _, err = _cli(["sweep", "--spec", _write(tmp_path / "second.cfg", grid + "6\n"), *argv])
        assert code == 0, err
        later = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(later) == sorted(earlier)
        assert later["run00000.csv"] != earlier["run00000.csv"]
        assert [r.seed for r in read_sweep_runs(out_dir / "runs.csv")] == [6, 7]

    def test_sweep_out_that_is_a_file_exits_before_any_run(self, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(sweep, "run_sweep", no_sweep)
        spec = _write(tmp_path / "grid.cfg", "csc_counts=40\nseeds_per_cell=1\n")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", spec])
        assert code == 2
        assert f"error: output directory is not a directory: {spec}" in err

    def test_analyze_out_that_is_a_directory(self, tmp_path):
        (tmp_path / "runs.csv").write_text(SWEEP_RUNS_HEADER + "\n" + RUNS_ROW_CELL_0 + "\n")
        code, _, err = _cli(["analyze", "--runs", str(tmp_path), "--out", str(tmp_path)])
        assert code == 2
        assert f"error: cannot write {tmp_path}: Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]

    def test_plot_out_that_is_a_directory(self, tmp_path):
        (tmp_path / "run.csv").write_text(RUN_CSV_HEADER + "\n0,10,20,10,0,0,0,2.000000\n")
        chart_dir = tmp_path / "charts"
        chart_dir.mkdir()
        code, _, err = _cli([
            "plot", "--input", str(tmp_path / "run.csv"), "--kind", "timeseries",
            "--out", str(chart_dir),
        ])
        assert code == 2
        assert f"error: cannot write {chart_dir}: Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["charts", "run.csv"]

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
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)  # the count is not capped
        code, out, _ = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 0
        assert "2 worker(s)" in out

    def test_workers_env_invalid(self, tmp_path, monkeypatch):
        spec = _write(tmp_path / "grid.cfg", "csc_counts=40\nseeds_per_cell=1\n")
        monkeypatch.setenv("TUMORNET_WORKERS", "lots")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        assert "TUMORNET_WORKERS" in err

    def test_workers_env_below_bound(self, tmp_path, monkeypatch):
        spec = _write(tmp_path / "grid.cfg", "csc_counts=40\nseeds_per_cell=1\n")
        monkeypatch.setenv("TUMORNET_WORKERS", "0")
        code, _, err = _cli(["sweep", "--spec", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        assert "error: TUMORNET_WORKERS must be at least 1, got 0" in err

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
