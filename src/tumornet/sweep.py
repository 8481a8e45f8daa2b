"""Cartesian parameter sweeps with seeded, order-independent parallel runs.

Every run in a sweep gets its own seed (base_seed + run index), executes as
an ordinary single-threaded simulation, and reports back a RunOutcome, the
run's row of runs.csv. Results reach aggregation in canonical order, so
the worker count can never show up in the output.
aggregate is the only path from run records to the per-cell table: the
sweep applies it to its outcomes and `tumornet analyze` to the records it
reads back from runs.csv, so both write the same summary.csv.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
from concurrent import futures
from dataclasses import dataclass
from operator import attrgetter

from . import engine, metrics, tumor_model
from .engine import TimeSeries
from .metrics import TciClass
from .tumor_model import ConfigError, ControlFactors, ModelConfig, check_bound


class SweepError(RuntimeError):
    """A worker failed; the sweep was aborted."""


# Each SweepSpec field -> the tumor_model.BOUNDS entry its values obey: a
# grid dimension's values become that ModelConfig or ControlFactors field.
_SPEC_BOUNDS = {
    "csc_counts": "n_initial",
    "angiogenesis_values": "angiogenesis",
    "recovery_values": "recovery",
    "quiescence_values": "quiescence",
    "K_values": "K",
    "seeds_per_cell": "seeds_per_cell",
    "base_seed": "seed",
    "max_steps": "max_steps",
}
_GRID = ("csc_counts", "angiogenesis_values", "recovery_values", "quiescence_values", "K_values")


@dataclass(frozen=True)
class SweepSpec:
    """Grid dimensions for a sweep.

    Cells enumerate csc_counts outermost, then angiogenesis, recovery,
    quiescence, K; the seed index varies innermost. Every grid dimension
    must be non-empty, every value must satisfy the bound of the field it
    becomes, and the grid may hold at most tumor_model._RUN_LIMIT runs;
    construction raises ConfigError otherwise.
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
        for name, bound in _SPEC_BOUNDS.items():
            if name in _GRID:
                values = tuple(getattr(self, name))
                object.__setattr__(self, name, values)
                if not values:
                    raise ConfigError(f"{name} must not be empty", name)
            else:
                values = (getattr(self, name),)
            for value in values:
                check_bound(name, value, bound)
        if self.n_runs > tumor_model._RUN_LIMIT:
            raise ConfigError(
                f"the grid has {self.n_runs:,} runs, more than the {tumor_model._RUN_LIMIT:,} allowed",
                "seeds_per_cell",
            )

    @property
    def n_cells(self) -> int:
        return math.prod(len(getattr(self, name)) for name in _GRID)

    @property
    def n_runs(self) -> int:
        return self.n_cells * self.seeds_per_cell


@dataclass(frozen=True)
class RunOutcome:
    """One finished run: its row of runs.csv, one field per column, in order.

    The configuration columns come from the run's ModelConfig, the counts
    from its final StepRecord. tci is the TciClass value, or "" when the
    class is undefined.
    """

    run_id: int
    cell_id: int
    n_initial: int
    K: int
    angiogenesis: float
    recovery: float
    quiescence: float
    seed: int
    steps: int
    termination: str
    n_nodes: int
    n_edges: int
    normal: int
    quiescent: int
    metastatic: int
    dead: int
    volume_ratio: float
    tci: str


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
    """Outcomes and, if kept, their run.csv texts, both in run_id order; the
    per-cell aggregates; and the worker count after run_sweep's clamp."""

    runs: list[RunOutcome]
    run_csvs: list[str]
    cells: list[CellAggregate]
    workers: int


def expand(spec: SweepSpec) -> list[ModelConfig]:
    """Every run's config in canonical order; run i is the i-th.

    Run i uses seed base_seed + i, so seeds never collide within a sweep
    and the mapping is stable enough to document. Derived densities sit
    below the connectivity threshold for all realistic cells, so expanded
    configs opt into a disconnected start; the engine then ends each run
    as soon as that start is observed.
    """
    configs: list[ModelConfig] = []
    for n0, ang, rec, qui, k in itertools.product(*(getattr(spec, name) for name in _GRID)):
        factors = ControlFactors(angiogenesis=ang, recovery=rec, quiescence=qui)
        for _ in range(spec.seeds_per_cell):
            configs.append(
                ModelConfig(
                    n_initial=n0,
                    K=k,
                    factors=factors,
                    max_steps=spec.max_steps,
                    seed=spec.base_seed + len(configs),
                    allow_below_threshold=True,
                )
            )
    return configs


def final_fields(series: TimeSeries) -> dict:
    """The steps..tci fields of a finished run, in runs.csv column order.

    steps is the final record's step, and n_nodes..volume_ratio are its
    fields of those names. tci is the TciClass value, or None when the class
    is undefined: fewer than two records, or a zero initial volume ratio.
    """
    records = series.records
    final = dict(vars(records[-1]))
    defined = len(records) >= 2 and records[0].volume_ratio > 0
    return {
        "steps": final.pop("step"),
        "termination": series.termination,
        **final,
        "tci": metrics.tci_classify(series).value if defined else None,
    }


def _execute(task: tuple[int, int, ModelConfig, bool]) -> tuple[RunOutcome, str | None]:
    """Run one cell seed, given as (run_id, cell_id, config, keep_runs).

    Returns its RunOutcome and, if keep_runs, its run.csv text, else None.
    Any failure raises SweepError naming the run, its cell and its seed. The
    error carries only that message, so it pickles back from a pool worker.
    """
    run_id, cell_id, config, keep_runs = task
    try:
        from . import cli_io  # deferred, cli_io imports this module

        model = tumor_model.init_model(config)
        series = engine.run(model, config.max_steps)
        fields = final_fields(series)
        fields["tci"] = fields["tci"] or ""
        return RunOutcome(
            run_id=run_id,
            cell_id=cell_id,
            n_initial=config.n_initial,
            K=config.K,
            angiogenesis=config.factors.angiogenesis,
            recovery=config.factors.recovery,
            quiescence=config.factors.quiescence,
            seed=config.seed,
            **fields,
        ), cli_io.format_run_csv(series) if keep_runs else None
    except Exception as exc:
        raise SweepError(
            f"run {run_id} (cell {cell_id}, seed {config.seed}) failed: {type(exc).__name__}: {exc}"
        ) from None


def run_sweep(spec: SweepSpec, workers: int = 1, keep_runs: bool = False) -> SweepResult:
    """Execute the whole grid and aggregate it; write no file.

    The result is identical for any worker count: runs are independent,
    seeded from the spec alone, and stored at their run_id; with keep_runs
    it holds their run.csv texts too. At most min(runs, os.cpu_count())
    processes start, and the result records the count used. One worker runs
    the grid in run_id order. A pool gets the largest n_initial first, in
    run_id order among equals: graph cost grows with n, so the cheap runs
    fill the tail and the workers finish together. The SweepError of the
    first failed run in dispatch order, raised by _execute, aborts the
    sweep; it, or an interrupt, cancels the runs not yet started.
    """
    check_bound("workers", workers)
    tasks = [
        (run_id, run_id // spec.seeds_per_cell, config, keep_runs)
        for run_id, config in enumerate(expand(spec))
    ]
    runs: list = [None] * len(tasks)
    run_csvs: list = [None] * len(tasks) if keep_runs else []

    def store(results):  # each at its run_id as it arrives: no second per-run list
        for outcome, text in results:
            runs[outcome.run_id] = outcome
            if keep_runs:
                run_csvs[outcome.run_id] = text

    workers = min(workers, len(tasks), os.cpu_count() or len(tasks))
    if workers == 1:
        store(map(_execute, tasks))
    else:
        tasks.sort(key=lambda task: task[2].n_initial, reverse=True)  # stable
        pool = futures.ProcessPoolExecutor(max_workers=workers)
        try:
            store(pool.map(_execute, tasks, chunksize=max(1, len(tasks) // (workers * 4))))
        except BaseException:  # cancel the chunks not yet started rather than wait for them
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
    return SweepResult(runs=runs, run_csvs=run_csvs, cells=aggregate(runs), workers=workers)


# The columns every run of one cell shares with its CellAggregate.
_cell_config = attrgetter("n_initial", "K", "angiogenesis", "recovery", "quiescence")


def aggregate(runs: list[RunOutcome]) -> list[CellAggregate]:
    """Per-cell mean/std table in canonical cell order.

    Cells must be numbered contiguously from 0 and carry the same number of
    runs each, the run ids must be 0..N-1, each once, with run i in cell
    i // runs per cell, as expand numbers them, and the runs of one cell
    must agree on n_initial, K and the three factors. Anything else means
    runs are missing, duplicated or edited, and partial statistics would
    silently change their meaning, so it raises ValueError.
    """
    by_cell: dict[int, list[RunOutcome]] = {}
    for outcome in runs:
        by_cell.setdefault(outcome.cell_id, []).append(outcome)
    if sorted(by_cell) != list(range(len(by_cell))):
        raise ValueError("cell ids are not contiguous from 0; runs are missing")
    sizes = {len(v) for v in by_cell.values()}
    if len(sizes) != 1:
        raise ValueError(f"cells have unequal run counts {sorted(sizes)}; runs are missing")
    if sorted(o.run_id for o in runs) != list(range(len(runs))):
        raise ValueError("run ids are not 0..N-1, each once; runs are duplicated or missing")
    per_cell = sizes.pop()
    for o in runs:
        if o.cell_id != o.run_id // per_cell:
            raise ValueError(
                f"run {o.run_id} is in cell {o.cell_id}, not {o.run_id // per_cell}; "
                "runs are missing or edited"
            )

    def _std(values: list[float]) -> float:
        # Sample standard deviation; a single seed has no spread by convention.
        return statistics.stdev(values) if len(values) > 1 else 0.0

    cells: list[CellAggregate] = []
    for cell_id in range(len(by_cell)):
        cell_runs = sorted(by_cell[cell_id], key=lambda o: o.run_id)
        first = cell_runs[0]
        if any(_cell_config(o) != _cell_config(first) for o in cell_runs):
            raise ValueError(
                f"runs of cell {cell_id} disagree on n_initial, K or factors; "
                "runs are missing or edited"
            )
        ratios = [o.volume_ratio for o in cell_runs]
        fractions = [o.metastatic / o.n_nodes for o in cell_runs]
        counts = [float(o.metastatic) for o in cell_runs]
        tcis = [o.tci for o in cell_runs]
        cells.append(
            CellAggregate(
                cell_id=cell_id,
                n_initial=first.n_initial,
                K=first.K,
                angiogenesis=first.angiogenesis,
                recovery=first.recovery,
                quiescence=first.quiescence,
                seeds=len(cell_runs),
                mean_volume_ratio=statistics.fmean(ratios),
                std_volume_ratio=_std(ratios),
                mean_metastatic_fraction=statistics.fmean(fractions),
                std_metastatic_fraction=_std(fractions),
                mean_metastatic_count=statistics.fmean(counts),
                std_metastatic_count=_std(counts),
                progression=tcis.count(TciClass.PROGRESSION.value),
                rejection=tcis.count(TciClass.REJECTION.value),
                stabilization=tcis.count(TciClass.STABILIZATION.value),
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
