"""Command-line interface, config parsing, and bit-stable file emission.

All output formats are frozen byte-for-byte: fixed headers, fixed key
order, fixed float formatting. Identical inputs must produce identical
files, which is what the determinism tests pin down.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from . import engine, sweep as sweep_mod, tumor_model
from .engine import TimeSeries
from .sweep import CellAggregate, RunOutcome, SweepError, SweepSpec
from .tumor_model import ConfigError, ControlFactors, ModelConfig, factor_level


class InputError(ValueError):
    """Malformed input file or environment value."""


RUN_CSV_HEADER = "step,n_nodes,n_edges,normal,quiescent,metastatic,dead,volume_ratio"

SWEEP_SUMMARY_HEADER = (
    "cell_id,n_initial,K,angiogenesis,recovery,quiescence,seeds,"
    "mean_volume_ratio,std_volume_ratio,"
    "mean_metastatic_fraction,std_metastatic_fraction,"
    "mean_metastatic_count,std_metastatic_count,"
    "progression,rejection,stabilization"
)

SWEEP_RUNS_HEADER = (
    "run_id,cell_id,n_initial,K,angiogenesis,recovery,quiescence,seed,"
    "steps,termination,n_nodes,n_edges,normal,quiescent,metastatic,dead,"
    "volume_ratio,tci"
)

_INT_KEYS = ("n_initial", "K", "max_steps", "seed")
_FLOAT_KEYS = ("p", "spawn_rate", "metastasis_rate", "apoptosis_rate")
_FACTOR_KEYS = ("angiogenesis", "recovery", "quiescence")
_CONFIG_KEYS = frozenset(_INT_KEYS + _FLOAT_KEYS + _FACTOR_KEYS)

_SPEC_LIST_INT_KEYS = ("csc_counts", "K_values")
_SPEC_LIST_FLOAT_KEYS = ("angiogenesis_values", "recovery_values", "quiescence_values")
_SPEC_INT_KEYS = ("seeds_per_cell", "base_seed", "max_steps")
_SPEC_KEYS = frozenset(_SPEC_LIST_INT_KEYS + _SPEC_LIST_FLOAT_KEYS + _SPEC_INT_KEYS)


# ---------------------------------------------------------------------------
# key=value parsing


def _parse_pairs(text: str, allowed: frozenset[str]) -> dict[str, tuple[int, str]]:
    """Split key=value lines, tracking line numbers for diagnostics.

    '#' starts a comment anywhere on a line; blank lines are skipped;
    unknown and duplicate keys are rejected.
    """
    pairs: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise InputError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = (lineno, value)
    return pairs


def _int_value(key: str, lineno: int, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(f"line {lineno}: {key} requires an integer, got {value!r}") from None


def _float_value(key: str, lineno: int, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InputError(f"line {lineno}: {key} requires a number, got {value!r}") from None


def _factor_value(key: str, lineno: int, value: str) -> float:
    try:
        return factor_level(key, value)
    except ConfigError:
        pass
    try:
        parsed = float(value)
    except ValueError:
        raise InputError(
            f"line {lineno}: {key} must be a number or one of low/medium/high, got {value!r}"
        ) from None
    if not 0.0 <= parsed <= 1.0:
        raise InputError(f"line {lineno}: {key} must lie in [0, 1], got {value}")
    return parsed


def parse_config(text: str) -> ModelConfig:
    """Parse a flat key=value run config into a validated ModelConfig.

    Factor keys take either a numeric value or a preset level name.
    Missing optional keys fall back to the ModelConfig defaults; n_initial
    is required. Every diagnostic names the offending line.
    """
    return _config_from_pairs(_parse_pairs(text, _CONFIG_KEYS))


def _config_from_pairs(pairs: dict[str, tuple[int, str]]) -> ModelConfig:
    if "n_initial" not in pairs:
        raise InputError("missing required key 'n_initial'")
    kwargs: dict = {}
    for key in _INT_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            parsed = _int_value(key, lineno, value)
            lo = 1 if key in ("n_initial", "K") else 0
            if parsed < lo:
                raise InputError(f"line {lineno}: {key} must be at least {lo}, got {value}")
            kwargs[key] = parsed
    for key in _FLOAT_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            parsed = _float_value(key, lineno, value)
            if not 0.0 <= parsed <= 1.0:
                raise InputError(f"line {lineno}: {key} must lie in [0, 1], got {value}")
            kwargs[key] = parsed
    factor_kwargs = {}
    defaults = tumor_model.MEDIUM_FACTORS
    for key in _FACTOR_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            factor_kwargs[key] = _factor_value(key, lineno, value)
        else:
            factor_kwargs[key] = getattr(defaults, key)
    kwargs["factors"] = ControlFactors(**factor_kwargs)
    return ModelConfig(**kwargs)


def serialize_config(config: ModelConfig) -> str:
    """Write a config back to the flat key=value form.

    parse_config(serialize_config(c)) == c for any parsed config; the
    derived edge probability stays derived (no p line when p is None).
    """
    lines = [f"n_initial={config.n_initial}", f"K={config.K}"]
    if config.p is not None:
        lines.append(f"p={config.p!r}")
    lines.append(f"angiogenesis={config.factors.angiogenesis!r}")
    lines.append(f"recovery={config.factors.recovery!r}")
    lines.append(f"quiescence={config.factors.quiescence!r}")
    lines.append(f"spawn_rate={config.spawn_rate!r}")
    lines.append(f"metastasis_rate={config.metastasis_rate!r}")
    lines.append(f"apoptosis_rate={config.apoptosis_rate!r}")
    lines.append(f"max_steps={config.max_steps}")
    lines.append(f"seed={config.seed}")
    return "\n".join(lines) + "\n"


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse a flat key=value sweep spec; list values are comma-separated.

    csc_counts is required; every other dimension defaults to a singleton
    at its medium preset, matching SweepSpec's defaults.
    """
    pairs = _parse_pairs(text, _SPEC_KEYS)
    if "csc_counts" not in pairs:
        raise InputError("missing required key 'csc_counts'")
    kwargs: dict = {}
    for key in _SPEC_LIST_INT_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            kwargs[key] = tuple(
                _int_value(key, lineno, tok.strip()) for tok in value.split(",")
            )
    for key in _SPEC_LIST_FLOAT_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            kwargs[key] = tuple(
                _float_value(key, lineno, tok.strip()) for tok in value.split(",")
            )
    for key in _SPEC_INT_KEYS:
        if key in pairs:
            lineno, value = pairs[key]
            kwargs[key] = _int_value(key, lineno, value)
    spec = SweepSpec(**kwargs)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# file emission


def format_run_csv(series: TimeSeries) -> str:
    if not series.records:
        raise InputError("cannot write a CSV for an empty series")
    lines = [RUN_CSV_HEADER]
    for r in series.records:
        lines.append(
            f"{r.step},{r.n_nodes},{r.n_edges},{r.count_normal},{r.count_quiescent},"
            f"{r.count_metastatic},{r.count_dead},{r.volume_ratio:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_run_csv(series: TimeSeries, path: str | Path) -> None:
    Path(path).write_text(format_run_csv(series))


def summarize_run(
    series: TimeSeries, seed: int, seed_defaulted: bool, wall_clock_s: float
) -> dict:
    """Single-record run summary with a fixed key order."""
    if not series.records:
        raise InputError("cannot summarize an empty series")
    final = series.records[-1]
    tci = sweep_mod.classify_series(series)
    return {
        "seed": seed,
        "seed_defaulted": seed_defaulted,
        "steps": final.step,
        "termination": series.termination,
        "n_nodes": final.n_nodes,
        "n_edges": final.n_edges,
        "normal": final.count_normal,
        "quiescent": final.count_quiescent,
        "metastatic": final.count_metastatic,
        "dead": final.count_dead,
        "volume_ratio": final.volume_ratio,
        "tci": tci.value if tci else None,
        "wall_clock_s": round(wall_clock_s, 3),
    }


def write_summary(summary: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary) + "\n")


def format_sweep_summary(cells: list[CellAggregate]) -> str:
    lines = [SWEEP_SUMMARY_HEADER]
    for c in cells:
        lines.append(
            f"{c.cell_id},{c.n_initial},{c.K},{c.angiogenesis!r},{c.recovery!r},"
            f"{c.quiescence!r},{c.seeds},"
            f"{c.mean_volume_ratio:.6f},{c.std_volume_ratio:.6f},"
            f"{c.mean_metastatic_fraction:.6f},{c.std_metastatic_fraction:.6f},"
            f"{c.mean_metastatic_count:.6f},{c.std_metastatic_count:.6f},"
            f"{c.progression},{c.rejection},{c.stabilization}"
        )
    return "\n".join(lines) + "\n"


def format_sweep_runs(outcomes: list[RunOutcome]) -> str:
    # volume_ratio keeps full precision here so re-aggregation from this
    # table reproduces the summary exactly.
    lines = [SWEEP_RUNS_HEADER]
    for o in outcomes:
        cfg = o.config
        f = o.final
        lines.append(
            f"{o.run_id},{o.cell_id},{cfg.n_initial},{cfg.K},"
            f"{cfg.factors.angiogenesis!r},{cfg.factors.recovery!r},"
            f"{cfg.factors.quiescence!r},{cfg.seed},{o.steps},{o.termination},"
            f"{f.n_nodes},{f.n_edges},{f.count_normal},{f.count_quiescent},"
            f"{f.count_metastatic},{f.count_dead},{f.volume_ratio!r},"
            f"{o.tci.value if o.tci else ''}"
        )
    return "\n".join(lines) + "\n"


def read_sweep_runs(path: str | Path) -> list[dict]:
    """Parse a runs table written by format_sweep_runs."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"runs table not found: {path}") from None
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != SWEEP_RUNS_HEADER.split(","):
        raise InputError(f"unexpected runs-table header in {path}")
    rows = []
    for row in reader:
        try:
            rows.append(
                {
                    "run_id": int(row["run_id"]),
                    "cell_id": int(row["cell_id"]),
                    "n_initial": int(row["n_initial"]),
                    "K": int(row["K"]),
                    "angiogenesis": float(row["angiogenesis"]),
                    "recovery": float(row["recovery"]),
                    "quiescence": float(row["quiescence"]),
                    "n_nodes": int(row["n_nodes"]),
                    "metastatic": int(row["metastatic"]),
                    "volume_ratio": float(row["volume_ratio"]),
                    "tci": row["tci"],
                }
            )
        except (KeyError, TypeError, ValueError):
            raise InputError(f"malformed row in {path}: {row!r}") from None
    if not rows:
        raise InputError(f"no data rows in {path}")
    return rows


def aggregate_rows(rows: list[dict]) -> list[CellAggregate]:
    """Recompute per-cell statistics from a runs table.

    Cells must be contiguous from 0 and carry the same number of runs each;
    anything else means the table is truncated or mixed.
    """
    by_cell: dict[int, list[dict]] = {}
    for row in rows:
        by_cell.setdefault(row["cell_id"], []).append(row)
    cell_ids = sorted(by_cell)
    if cell_ids != list(range(len(cell_ids))):
        raise InputError("cell ids are not contiguous from 0; table is incomplete")
    sizes = {len(v) for v in by_cell.values()}
    if len(sizes) != 1:
        raise InputError(f"cells have unequal run counts {sorted(sizes)}; table is incomplete")
    cells = []
    for cell_id in cell_ids:
        cell_rows = sorted(by_cell[cell_id], key=lambda r: r["run_id"])
        first = cell_rows[0]
        cells.append(
            sweep_mod.build_cell_aggregate(
                cell_id=cell_id,
                n_initial=first["n_initial"],
                K=first["K"],
                angiogenesis=first["angiogenesis"],
                recovery=first["recovery"],
                quiescence=first["quiescence"],
                ratios=[r["volume_ratio"] for r in cell_rows],
                fractions=[r["metastatic"] / r["n_nodes"] for r in cell_rows],
                counts=[float(r["metastatic"]) for r in cell_rows],
                tci_names=[r["tci"] for r in cell_rows],
            )
        )
    return cells


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


def _read_csv_rows(path: str | Path, expected_header: str) -> list[dict]:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != expected_header.split(","):
        raise InputError(
            f"{path}: header does not match the expected schema ({expected_header})"
        )
    rows = list(reader)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows


def plot_svg(input_path: str | Path, kind: str, out_path: str | Path) -> None:
    """Render a run time series or a sweep summary as a deterministic SVG."""
    if kind == "timeseries":
        rows = _read_csv_rows(input_path, RUN_CSV_HEADER)
        try:
            steps = [float(r["step"]) for r in rows]
            series = [
                (col, [(steps[i], float(rows[i][col])) for i in range(len(rows))])
                for col in ("normal", "quiescent", "metastatic", "dead")
            ]
        except (TypeError, ValueError):
            raise InputError(f"{input_path}: non-numeric data row") from None
        svg = _render_chart("step", "count", series)
    elif kind == "sweep":
        rows = _read_csv_rows(input_path, SWEEP_SUMMARY_HEADER)
        groups: dict[tuple, list[tuple[float, float]]] = {}
        try:
            for r in rows:
                key = (int(r["n_initial"]), int(r["K"]), float(r["recovery"]), float(r["quiescence"]))
                groups.setdefault(key, []).append(
                    (float(r["angiogenesis"]), float(r["mean_metastatic_count"]))
                )
        except (TypeError, ValueError):
            raise InputError(f"{input_path}: non-numeric data row") from None
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
    Path(out_path).write_text(svg)


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
    if workers < 1:
        raise InputError(f"TUMORNET_WORKERS must be positive, got {workers}")
    return workers


def _cmd_run(args: argparse.Namespace) -> int:
    text = Path(args.config).read_text()
    pairs = _parse_pairs(text, _CONFIG_KEYS)
    config = _config_from_pairs(pairs)
    seed_defaulted = "seed" not in pairs and args.seed is None
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.steps is not None:
        config = replace(config, max_steps=args.steps)
    if args.allow_below_threshold:
        config = replace(config, allow_below_threshold=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    model = tumor_model.init_model(config)
    series = engine.run(model, config.max_steps)
    wall = time.perf_counter() - started
    write_run_csv(series, out_dir / "run.csv")
    write_summary(summarize_run(series, config.seed, seed_defaulted, wall), out_dir / "summary.json")
    final = series.records[-1]
    print(
        f"run finished: {final.step} steps, termination={series.termination}, "
        f"wrote {out_dir / 'run.csv'} and {out_dir / 'summary.json'}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset:
        spec = sweep_mod.PRESETS[args.preset]()
    else:
        spec = parse_sweep_spec(Path(args.spec).read_text())
    workers = args.workers if args.workers is not None else _default_workers()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = sweep_mod.run_sweep(
        spec, workers=workers, runs_dir=out_dir if args.keep_runs else None
    )
    elapsed = time.perf_counter() - started
    (out_dir / "summary.csv").write_text(format_sweep_summary(result.cells))
    (out_dir / "runs.csv").write_text(format_sweep_runs(result.runs))
    print(
        f"sweep finished: {len(result.runs)} runs over {len(result.cells)} cells "
        f"in {elapsed:.1f}s with {workers} worker(s), wrote {out_dir / 'summary.csv'}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    runs_path = Path(args.runs) / "runs.csv"
    cells = aggregate_rows(read_sweep_runs(runs_path))
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(format_sweep_summary(cells))
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
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SweepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3
