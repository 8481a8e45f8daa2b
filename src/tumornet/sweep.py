"""Cartesian parameter sweeps with seeded, order-independent parallel runs.

Every run in a sweep gets its own seed (base_seed + run index), executes as
an ordinary single-threaded simulation, and reports back a compact outcome.
Results are sorted into canonical order before aggregation, so the worker
count can never show up in the output.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
from concurrent import futures
from dataclasses import dataclass
from pathlib import Path

from . import engine, metrics, tumor_model
from .engine import StepRecord, TimeSeries
from .metrics import TciClass
from .tumor_model import ConfigError, ControlFactors, ModelConfig


class SweepError(RuntimeError):
    """A worker failed; the sweep was aborted."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid dimensions for a sweep.

    Cells enumerate csc_counts outermost, then angiogenesis, recovery,
    quiescence, K; the seed index varies innermost.
    """

    csc_counts: tuple[int, ...]
    angiogenesis_values: tuple[float, ...] = (0.4,)
    recovery_values: tuple[float, ...] = (0.3,)
    quiescence_values: tuple[float, ...] = (0.5,)
    K_values: tuple[int, ...] = (4,)
    seeds_per_cell: int = 30
    base_seed: int = 0
    max_steps: int = 500

    def __post_init__(self):
        for name in (
            "csc_counts",
            "angiogenesis_values",
            "recovery_values",
            "quiescence_values",
            "K_values",
        ):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def validate(self) -> None:
        for name in (
            "csc_counts",
            "angiogenesis_values",
            "recovery_values",
            "quiescence_values",
            "K_values",
        ):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        if any(n < 1 for n in self.csc_counts):
            raise ConfigError("csc_counts must be positive")
        if any(k < 1 for k in self.K_values):
            raise ConfigError("K_values must be at least 1")
        for name in ("angiogenesis_values", "recovery_values", "quiescence_values"):
            if any(not 0.0 <= v <= 1.0 for v in getattr(self, name)):
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.seeds_per_cell < 1:
            raise ConfigError(f"seeds_per_cell must be at least 1, got {self.seeds_per_cell}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be non-negative, got {self.max_steps}")

    @property
    def n_cells(self) -> int:
        return (
            len(self.csc_counts)
            * len(self.angiogenesis_values)
            * len(self.recovery_values)
            * len(self.quiescence_values)
            * len(self.K_values)
        )

    @property
    def n_runs(self) -> int:
        return self.n_cells * self.seeds_per_cell


@dataclass(frozen=True)
class RunOutcome:
    """What one finished run contributes to the sweep."""

    run_id: int
    cell_id: int
    config: ModelConfig
    steps: int
    termination: str
    final: StepRecord
    tci: TciClass | None


@dataclass(frozen=True)
class CellAggregate:
    """Per-cell statistics over that cell's seeds."""

    cell_id: int
    n_initial: int
    K: int
    angiogenesis: float
    recovery: float
    quiescence: float
    seeds: int
    mean_volume_ratio: float
    std_volume_ratio: float
    mean_metastatic_fraction: float
    std_metastatic_fraction: float
    mean_metastatic_count: float
    std_metastatic_count: float
    progression: int
    rejection: int
    stabilization: int


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    runs: list[RunOutcome]
    cells: list[CellAggregate]


def expand(spec: SweepSpec) -> list[tuple[ModelConfig, int]]:
    """List every run as (config, run_id) in canonical order.

    Run i uses seed base_seed + i, so seeds never collide within a sweep
    and the mapping is stable enough to document. Derived densities sit
    below the connectivity threshold for all realistic cells, so expanded
    configs opt into a disconnected start; the engine then ends each run
    as soon as that start is observed.
    """
    spec.validate()
    plans: list[tuple[ModelConfig, int]] = []
    run_id = 0
    cells = itertools.product(
        spec.csc_counts,
        spec.angiogenesis_values,
        spec.recovery_values,
        spec.quiescence_values,
        spec.K_values,
    )
    for n0, ang, rec, qui, k in cells:
        factors = ControlFactors(angiogenesis=ang, recovery=rec, quiescence=qui)
        for _ in range(spec.seeds_per_cell):
            config = ModelConfig(
                n_initial=n0,
                K=k,
                factors=factors,
                max_steps=spec.max_steps,
                seed=spec.base_seed + run_id,
                allow_below_threshold=True,
            )
            plans.append((config, run_id))
            run_id += 1
    return plans


def classify_series(series: TimeSeries) -> TciClass | None:
    """TCI class of a finished run, or None when it is undefined."""
    if len(series.records) < 2 or series.records[0].volume_ratio <= 0:
        return None
    return metrics.tci_classify(series)


def _execute(task: tuple[int, int, ModelConfig, str | None]):
    """Run one cell seed; errors travel back as values so the parent can name them."""
    run_id, cell_id, config, runs_dir = task
    try:
        model = tumor_model.init_model(config)
        series = engine.run(model, config.max_steps)
        final = series.records[-1]
        if runs_dir is not None:
            from . import cli_io  # deferred, cli_io imports this module

            cli_io.write_run_csv(series, Path(runs_dir) / f"run{run_id:05d}.csv")
        return RunOutcome(
            run_id=run_id,
            cell_id=cell_id,
            config=config,
            steps=final.step,
            termination=series.termination or "",
            final=final,
            tci=classify_series(series),
        )
    except Exception as exc:
        return ("error", run_id, config.seed, f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec, workers: int = 1, runs_dir: str | Path | None = None) -> SweepResult:
    """Execute the whole grid and aggregate it.

    The result is identical for any worker count: runs are independent,
    seeded from the spec alone, and sorted by run_id before aggregation.
    With runs_dir set, each run's full time series lands there as
    run<id>.csv. A failing run aborts the sweep, naming the run. No more
    processes start than there are runs; more than os.cpu_count() draws a
    warning on stderr.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    plans = expand(spec)
    dir_arg = str(runs_dir) if runs_dir is not None else None
    tasks = [
        (run_id, run_id // spec.seeds_per_cell, config, dir_arg)
        for config, run_id in plans
    ]
    workers = min(workers, len(tasks))
    cpus = os.cpu_count()
    if cpus is not None and workers > cpus:
        print(f"warning: {workers} sweep workers on {cpus} CPUs", file=sys.stderr)
    if workers == 1:
        raw = [_execute(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 4))
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_execute, tasks, chunksize=chunk))
    outcomes: list[RunOutcome] = []
    for item in raw:
        if isinstance(item, tuple):
            _, run_id, seed, message = item
            cell_id = run_id // spec.seeds_per_cell
            raise SweepError(f"run {run_id} (cell {cell_id}, seed {seed}) failed: {message}")
        outcomes.append(item)
    outcomes.sort(key=lambda o: o.run_id)
    return SweepResult(spec=spec, runs=outcomes, cells=aggregate(spec, outcomes))


def build_cell_aggregate(
    cell_id: int,
    n_initial: int,
    K: int,
    angiogenesis: float,
    recovery: float,
    quiescence: float,
    ratios: list[float],
    fractions: list[float],
    counts: list[float],
    tci_names: list[str],
) -> CellAggregate:
    """Assemble one cell's statistics; shared by the sweep and re-aggregation."""

    def _std(values: list[float]) -> float:
        # Sample standard deviation; a single seed has no spread by convention.
        return statistics.stdev(values) if len(values) > 1 else 0.0

    return CellAggregate(
        cell_id=cell_id,
        n_initial=n_initial,
        K=K,
        angiogenesis=angiogenesis,
        recovery=recovery,
        quiescence=quiescence,
        seeds=len(ratios),
        mean_volume_ratio=statistics.fmean(ratios),
        std_volume_ratio=_std(ratios),
        mean_metastatic_fraction=statistics.fmean(fractions),
        std_metastatic_fraction=_std(fractions),
        mean_metastatic_count=statistics.fmean(counts),
        std_metastatic_count=_std(counts),
        progression=tci_names.count(TciClass.PROGRESSION.value),
        rejection=tci_names.count(TciClass.REJECTION.value),
        stabilization=tci_names.count(TciClass.STABILIZATION.value),
    )


def aggregate(spec: SweepSpec, outcomes: list[RunOutcome]) -> list[CellAggregate]:
    """Per-cell mean/std table in canonical cell order.

    Raises ValueError when any cell is missing runs (or has extras), since
    partial statistics would silently change their meaning.
    """
    spec.validate()
    by_cell: dict[int, list[RunOutcome]] = {}
    for outcome in outcomes:
        by_cell.setdefault(outcome.cell_id, []).append(outcome)
    cells: list[CellAggregate] = []
    for cell_id in range(spec.n_cells):
        runs = sorted(by_cell.get(cell_id, []), key=lambda o: o.run_id)
        if len(runs) != spec.seeds_per_cell:
            raise ValueError(
                f"cell {cell_id} incomplete: expected {spec.seeds_per_cell} runs, "
                f"found {len(runs)}"
            )
        config = runs[0].config
        cells.append(
            build_cell_aggregate(
                cell_id=cell_id,
                n_initial=config.n_initial,
                K=config.K,
                angiogenesis=config.factors.angiogenesis,
                recovery=config.factors.recovery,
                quiescence=config.factors.quiescence,
                ratios=[o.final.volume_ratio for o in runs],
                fractions=[o.final.count_metastatic / o.final.n_nodes for o in runs],
                counts=[float(o.final.count_metastatic) for o in runs],
                tci_names=[o.tci.value if o.tci else "" for o in runs],
            )
        )
    return cells


def fig4_spec(seeds_per_cell: int = 30, base_seed: int = 42) -> SweepSpec:
    """The built-in angiogenesis-response grid.

    Nine angiogenesis levels crossed with five starting populations; the
    other factors sit at their medium presets with K=4. 45 cells.
    """
    return SweepSpec(
        csc_counts=(60, 360, 650, 1000, 1200),
        angiogenesis_values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        recovery_values=(0.3,),
        quiescence_values=(0.5,),
        K_values=(4,),
        seeds_per_cell=seeds_per_cell,
        base_seed=base_seed,
        max_steps=500,
    )


PRESETS = {"fig4": fig4_spec}
