"""Command-line interface, config parsing, and bit-stable file emission.

All output formats are frozen byte-for-byte: fixed headers, fixed key
order, fixed float formatting. Identical inputs must produce identical
files, which is what the determinism tests pin down.

The config parsers only convert text to values and name the line of each
diagnostic; the bounds those values must satisfy live in
tumor_model.BOUNDS and are checked by the dataclasses they build.
Exit codes: 2 for a config, input or usage error, 3 for any internal fault.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import traceback
from dataclasses import fields, replace
from functools import partial
from pathlib import Path
from typing import get_type_hints

from . import engine, sweep as sweep_mod, tumor_model
from .engine import StepRecord, TimeSeries
from .metrics import TciClass
from .sweep import CellAggregate, RunOutcome, SweepError, SweepSpec
from .tumor_model import MEDIUM_FACTORS, ConfigError, ControlFactors, ModelConfig, factor_level


class InputError(ValueError):
    """Malformed input file or environment value."""


# A table's columns are the fields of the record each row writes.
RUN_CSV_HEADER = ",".join(f.name for f in fields(StepRecord))
SWEEP_SUMMARY_HEADER = ",".join(f.name for f in fields(CellAggregate))
SWEEP_RUNS_HEADER = ",".join(f.name for f in fields(RunOutcome))

_FIXED = {
    StepRecord: {"volume_ratio"},
    CellAggregate: {c for c in SWEEP_SUMMARY_HEADER.split(",") if c.startswith(("mean_", "std_"))},
    # str() of a float is its shortest round-tripping form, so runs.csv keeps
    # full precision and read_sweep_runs gets the sweep's records back.
    RunOutcome: set(),
}

_TERMINATIONS = frozenset((engine.TERM_MAX_STEPS, engine.TERM_DISCONNECTED, engine.TERM_EXTINCT))
_TCI_VALUES = frozenset(["", *(c.value for c in TciClass)])
# The runs.csv columns that echo the run's configuration, each checked
# against the tumor_model.BOUNDS entry of the same name.
_CONFIG_COLUMNS = tuple(f.name for f in fields(RunOutcome) if f.name in tumor_model.BOUNDS)


def _read_text(path: str | Path, what: str) -> str:
    """Read an input file; a missing, non-file or undecodable one is an InputError."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except (IsADirectoryError, NotADirectoryError):
        raise InputError(f"{what} is not a file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} is not text: {path} ({exc.reason})") from None


def _write_text(*files: tuple[str | Path, str]) -> None:
    """Write each (path, text) pair atomically and together.

    Each path is checked and its text goes to a temp file beside it; only
    then is each temp file renamed into place with os.replace. A failure
    removes the temp files and leaves any earlier file at each path whole,
    so no output is ever left half-written. A path that is a directory, or
    whose parent is a file, is an InputError raised before the first
    rename; a failure before the first rename changes none of the paths.
    """
    moves: list[tuple[Path, Path]] = []
    try:
        for path, text in files:
            path = Path(path)
            if path.is_dir() and not path.is_symlink():  # os.replace would fail only later
                raise InputError(f"cannot write {path}: Is a directory")
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            moves.append((tmp, path))
            tmp.write_text(text)
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, (IsADirectoryError, NotADirectoryError)):
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        raise


def _row_template(record: type) -> str:
    """The str.format template of a row of record's table: .6f in the _FIXED columns."""
    return ",".join("{:.6f}" if f.name in _FIXED[record] else "{}" for f in fields(record))


def _read_records(path: str | Path, record: type, what: str, fault=lambda r: None) -> list:
    """Read a CSV table written from the dataclass record back into records.

    The header must be record's field names, and each data row becomes one
    record, each cell read as its field's type; blank lines are skipped.
    Another header, or no data row at all, is an InputError. So is a row
    with more or fewer cells than the header, a cell its type cannot read,
    a row _row_template would not write from its record, or a record for
    which fault returns a reason; the error names the row.
    """
    hints = get_type_hints(record)  # the fields' types, in field order
    template = _row_template(record)
    header, *lines = _read_text(path, what).split("\n")
    if header != ",".join(hints):
        raise InputError(f"{path}: header does not match the expected schema ({','.join(hints)})")
    records = []
    for line in filter(None, lines):
        row = line.split(",")
        if len(row) != len(hints):
            reason = "malformed row"
        else:
            try:
                rec = record(*(t(v) for t, v in zip(hints.values(), row)))
            except ValueError:
                reason = "malformed row (a non-numeric or non-finite cell)"
            else:
                reason = "malformed row" if template.format(*vars(rec).values()) != line else fault(rec)
        if reason:
            raise InputError(f"{reason} in {path}: {row!r}")
        records.append(rec)
    if not records:
        raise InputError(f"no data rows in {path}")
    return records


def _out_dir(path: str | Path) -> Path:
    """Create an output directory; a file in its place is an InputError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise InputError(f"output directory is not a directory: {path}") from None
    return path


# ---------------------------------------------------------------------------
# key=value parsing
#
# The keys of each file type are the fields of the dataclasses it builds:
# typing.get_type_hints gives each field's type, which picks its converter
# and what the value must be (a factor also takes a level name); a field of
# another type, such as factors, is not a key. The converters only turn text
# into values; every range rule lives in the dataclass the values build
# (tumor_model.BOUNDS), and its ConfigError names the field, which is the
# key, so the parser can name the line.


def _level_or_number(factor: str, text: str) -> float:
    try:
        return factor_level(factor, text)
    except ConfigError:
        return float(text)


_CONVERTERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    float | None: (float, "a number"),
    tuple[int, ...]: (lambda text: tuple(map(int, text.split(","))), "a comma-separated list of integers"),
    tuple[float, ...]: (lambda text: tuple(map(float, text.split(","))), "a comma-separated list of numbers"),
}


def _key_table(cls: type) -> dict:
    return {key: _CONVERTERS[t] for key, t in get_type_hints(cls).items() if t in _CONVERTERS}


_FACTORS = tuple(get_type_hints(ControlFactors))
_CONFIG_KEYS = {
    **_key_table(ModelConfig),
    **{key: (partial(_level_or_number, key), "a number or one of low/medium/high") for key in _FACTORS},
}
_SPEC_KEYS = _key_table(SweepSpec)


def _parse(text: str, keys: dict, required: str, build):
    """Parse key=value lines with keys' converters and build the result.

    '#' starts a comment anywhere on a line; blank lines are skipped;
    unknown and duplicate keys are rejected. Returns build(**values) and the
    line of each key; every diagnostic about a key names its line.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise InputError(f"line {lineno}: empty value for {key!r}")
        convert, what = keys[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise InputError(f"line {lineno}: {key} requires {what}, got {value!r}") from None
        lines[key] = lineno
    if required not in values:
        raise InputError(f"missing required key {required!r}")
    try:
        return build(**values), lines
    except ConfigError as exc:
        if exc.field not in lines:
            raise
        raise InputError(f"line {lines[exc.field]}: {exc}") from None


def _model_config(**values) -> ModelConfig:
    factors = {key: values.pop(key) for key in _FACTORS if key in values}
    return ModelConfig(factors=replace(MEDIUM_FACTORS, **factors), **values)


def parse_config(text: str) -> ModelConfig:
    """Parse a flat key=value run config into a validated ModelConfig.

    Factor keys take either a numeric value or a preset level name.
    Missing optional keys fall back to the ModelConfig defaults; n_initial
    is required. Every diagnostic names the offending line.
    """
    return _parse(text, _CONFIG_KEYS, "n_initial", _model_config)[0]


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse a flat key=value sweep spec; list values are comma-separated.

    csc_counts is required; every other dimension defaults to a singleton
    at its medium preset, matching SweepSpec's defaults. Every diagnostic
    names the offending line.
    """
    return _parse(text, _SPEC_KEYS, "csc_counts", SweepSpec)[0]


# ---------------------------------------------------------------------------
# file emission


def _format_table(record: type, records: list) -> str:
    """A CSV table: the header of record's field names, then one row per
    record of its field values in column order, as _row_template writes them."""
    header = ",".join(f.name for f in fields(record))
    row = _row_template(record)
    # A dataclass instance's __dict__ holds its fields in declaration order,
    # as __init__ sets them.
    return "\n".join([header, *(row.format(*vars(r).values()) for r in records), ""])


def format_run_csv(series: TimeSeries) -> str:
    if not series.records:
        raise InputError("cannot write a CSV for an empty series")
    return _format_table(StepRecord, series.records)


def summarize_run(
    series: TimeSeries, seed: int, seed_defaulted: bool, wall_clock_s: float
) -> dict:
    """Single-record run summary with a fixed key order."""
    if not series.records:
        raise InputError("cannot summarize an empty series")
    return {
        "seed": seed,
        "seed_defaulted": seed_defaulted,
        **sweep_mod.final_fields(series),
        "wall_clock_s": round(wall_clock_s, 3),
    }


def format_sweep_summary(cells: list[CellAggregate]) -> str:
    return _format_table(CellAggregate, cells)


def format_sweep_runs(outcomes: list[RunOutcome]) -> str:
    return _format_table(RunOutcome, outcomes)


def _run_fault(run: RunOutcome) -> str | None:
    """Why no sweep writes this runs table row, or None if one could."""
    if run.termination not in _TERMINATIONS:
        return f"unknown termination {run.termination!r}"
    if run.tci not in _TCI_VALUES:
        return f"unknown tci {run.tci!r}"
    for column in _CONFIG_COLUMNS:
        try:
            tumor_model.check_bound(column, getattr(run, column))
        except ConfigError as exc:
            return str(exc)
    counts = (run.normal, run.quiescent, run.metastatic, run.dead)
    if min(run.steps, *counts, run.n_edges) < 0:
        return "negative count"
    if not 0 < run.n_nodes == sum(counts):
        return "cell counts do not sum to a positive n_nodes"
    if run.termination == engine.TERM_EXTINCT and run.n_nodes > run.dead:
        return "extinct run with live cells"
    if run.steps == 0 and (run.termination == engine.TERM_DISCONNECTED or run.tci):
        return "step-0 run with a disconnected ending or a tci"
    # The ratio as metrics.volume_ratio computes it from the final graph.
    if run.volume_ratio != run.n_edges / run.n_nodes:
        return "volume_ratio is not n_edges / n_nodes"
    return None


def read_sweep_runs(path: str | Path) -> list[RunOutcome]:
    """Parse a runs table written by format_sweep_runs back into its records.

    A row must be in the form format_sweep_runs writes, name a
    known termination reason and tci class ("" for undefined), keep its
    configuration columns within tumor_model.BOUNDS, have a step count,
    four cell counts and an edge count that are not negative, with the cell
    counts summing to a positive n_nodes, and have the volume_ratio a sweep
    computes from its counts, exactly (str() of a float round-trips). It
    must also agree with how a run ends: no live cell if it ended extinct,
    and at step 0 neither a disconnected ending, which the first step's
    check makes, nor a tci, which needs two records.
    """
    return _read_records(path, RunOutcome, "runs table", _run_fault)


# ---------------------------------------------------------------------------
# SVG charts

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#7f7f7f",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
)


def _fmt_num(v: float) -> str:
    return f"{v:.6g}"


def _render_chart(x_label: str, y_label: str, series: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Fixed-geometry line chart; same input, same bytes."""
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 70.0, 170.0, 30.0, 55.0
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    def sx(x: float) -> float:
        return ml + (x - x_min) / x_span * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - y_min) / y_span * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="13">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.2f}" y1="{height - mb:.2f}" x2="{width - mr:.2f}" y2="{height - mb:.2f}" stroke="black"/>',
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{height - mb:.2f}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12:.2f}" text-anchor="middle">{x_label}</text>',
        f'<text x="{ml:.2f}" y="{mt - 10:.2f}" text-anchor="middle">{y_label}</text>',
        f'<text x="{ml:.2f}" y="{height - mb + 18:.2f}" text-anchor="middle">{_fmt_num(x_min)}</text>',
        f'<text x="{width - mr:.2f}" y="{height - mb + 18:.2f}" text-anchor="middle">{_fmt_num(x_max)}</text>',
        f'<text x="{ml - 8:.2f}" y="{height - mb:.2f}" text-anchor="end">{_fmt_num(y_min)}</text>',
        f'<text x="{ml - 8:.2f}" y="{mt + 4:.2f}" text-anchor="end">{_fmt_num(y_max)}</text>',
    ]
    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        ly = mt + 16.0 * idx
        parts.append(
            f'<line x1="{width - mr + 10:.2f}" y1="{ly:.2f}" x2="{width - mr + 30:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{width - mr + 36:.2f}" y="{ly + 4:.2f}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _plot_fault(c: CellAggregate) -> str | None:
    """Why the sweep chart cannot draw this summary row, or None if it can."""
    plotted = (c.angiogenesis, c.recovery, c.quiescence, c.mean_metastatic_count)
    return None if all(map(math.isfinite, plotted)) else "non-finite plotted value"


def plot_svg(input_path: str | Path, kind: str, out_path: str | Path) -> None:
    """Render a run time series or a sweep summary as a deterministic SVG.

    The input reads only in the exact form tumornet writes it, and a plotted
    float must be finite: a nan or inf would put "nan" coordinates into the SVG.
    """
    if kind == "timeseries":
        records = _read_records(input_path, StepRecord, "input file")
        series = [
            (state, [(r.step, getattr(r, state)) for r in records])
            for state in ("normal", "quiescent", "metastatic", "dead")
        ]
        svg = _render_chart("step", "count", series)
    elif kind == "sweep":
        groups: dict[tuple, list[tuple[float, float]]] = {}
        for c in _read_records(input_path, CellAggregate, "input file", _plot_fault):
            key = (c.n_initial, c.K, c.recovery, c.quiescence)
            groups.setdefault(key, []).append((c.angiogenesis, c.mean_metastatic_count))
        multi = len({k[1:] for k in groups}) > 1
        series = []
        for key in sorted(groups):
            label = f"n={key[0]}"
            if multi:
                label += f" K={key[1]} r={_fmt_num(key[2])} q={_fmt_num(key[3])}"
            series.append((label, sorted(groups[key])))
        svg = _render_chart("angiogenesis", "mean_metastatic_count", series)
    else:
        raise InputError(f"unknown plot kind {kind!r}")
    _out_dir(Path(out_path).parent)
    _write_text((out_path, svg))


# ---------------------------------------------------------------------------
# CLI


def _default_workers() -> int:
    raw = os.environ.get("TUMORNET_WORKERS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise InputError(f"TUMORNET_WORKERS must be an integer, got {raw!r}") from None
    tumor_model.check_bound("TUMORNET_WORKERS", workers, "workers")
    return workers


def _cmd_run(args: argparse.Namespace) -> int:
    text = _read_text(args.config, "config file")
    config, lines = _parse(text, _CONFIG_KEYS, "n_initial", _model_config)
    seed_defaulted = "seed" not in lines and args.seed is None
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.steps is not None:
        config = replace(config, max_steps=args.steps)
    if args.allow_below_threshold:
        config = replace(config, allow_below_threshold=True)
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    model = tumor_model.init_model(config)
    series = engine.run(model, config.max_steps)
    wall = time.perf_counter() - started
    summary = summarize_run(series, config.seed, seed_defaulted, wall)
    _write_text(
        (out_dir / "run.csv", format_run_csv(series)),
        (out_dir / "summary.json", json.dumps(summary) + "\n"),
    )
    final = series.records[-1]
    print(
        f"run finished: {final.step} steps, termination={series.termination}, "
        f"wrote {out_dir / 'run.csv'} and {out_dir / 'summary.json'}"
    )
    return 0


_RUN_FILE = re.compile(r"run(\d{5,})\.csv")  # a kept run's file, as _cmd_sweep names it


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset:
        spec = sweep_mod.PRESETS[args.preset]()
    else:
        spec = parse_sweep_spec(_read_text(args.spec, "sweep spec"))
    workers = args.workers if args.workers is not None else _default_workers()
    kept_rows = spec.n_runs * (spec.max_steps + 1)  # the most, if no run ends early
    if args.keep_runs and kept_rows > tumor_model._KEPT_ROW_LIMIT:
        raise InputError(
            f"--keep-runs may keep {kept_rows:,} run.csv rows, more than the "
            f"{tumor_model._KEPT_ROW_LIMIT:,} allowed; lower max_steps or the grid, or drop --keep-runs"
        )
    out_dir = _out_dir(args.out)
    # A run file that this sweep would not replace would sit beside a
    # runs.csv that does not list it.
    n_kept = spec.n_runs if args.keep_runs else 0
    stale = [
        (int(m[1]), path) for path in out_dir.iterdir()
        if (m := _RUN_FILE.fullmatch(path.name)) and int(m[1]) >= n_kept
    ]
    if stale:
        raise InputError(
            f"{min(stale)[1]} is from an earlier sweep and this sweep would not replace it; "
            "remove it or choose another --out"
        )
    started = time.perf_counter()
    result = sweep_mod.run_sweep(spec, workers=workers, keep_runs=args.keep_runs)
    elapsed = time.perf_counter() - started
    _write_text(
        *((out_dir / f"run{run_id:05d}.csv", text) for run_id, text in enumerate(result.run_csvs)),
        (out_dir / "summary.csv", format_sweep_summary(result.cells)),
        (out_dir / "runs.csv", format_sweep_runs(result.runs)),
    )
    print(
        f"sweep finished: {len(result.runs)} runs over {len(result.cells)} cells "
        f"in {elapsed:.1f}s with {result.workers} worker(s), wrote {out_dir / 'summary.csv'}"
    )
    # Spawned nodes link to their parent, so a graph disconnected after step 1 started so.
    n_step1 = sum(o.steps == 1 and o.termination == engine.TERM_DISCONNECTED for o in result.runs)
    print(
        f"{n_step1} of {len(result.runs)} runs ended at step 1: the start graph was disconnected",
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    runs_path = Path(args.runs) / "runs.csv"
    runs = read_sweep_runs(runs_path)
    try:
        cells = sweep_mod.aggregate(runs)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out_path = Path(args.out)
    _out_dir(out_path.parent)
    _write_text((out_path, format_sweep_summary(cells)))
    print(f"aggregated {len(cells)} cells from {runs_path} into {out_path}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    plot_svg(args.input, args.kind, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumornet",
        description="Agent-based tumor growth simulation on random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    p_run.add_argument("--config", required=True, help="key=value run config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--steps", type=int, default=None, help="override max_steps")
    p_run.add_argument(
        "--allow-below-threshold",
        action="store_true",
        help="permit an edge probability at or below the connectivity threshold",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a parameter sweep")
    source = p_sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(sweep_mod.PRESETS), help="built-in grid")
    source.add_argument("--spec", help="key=value sweep spec file")
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: TUMORNET_WORKERS or 1)",
    )
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--keep-runs", action="store_true", help="also write each run's full time series"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_analyze = sub.add_parser("analyze", help="re-aggregate a sweep's runs table")
    p_analyze.add_argument("--runs", required=True, help="sweep output directory")
    p_analyze.add_argument("--out", required=True, help="summary CSV to write")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_plot = sub.add_parser("plot", help="render a CSV as an SVG chart")
    p_plot.add_argument("--input", required=True, help="run CSV or sweep summary CSV")
    p_plot.add_argument("--kind", required=True, choices=("timeseries", "sweep"))
    p_plot.add_argument("--out", required=True, help="SVG file to write")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and usage errors (2) itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # Every command writes its files last, as one group (_write_text).
        print(f"tumornet {args.command}: interrupted; no file written", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 3
