"""Sweep expansion, execution, aggregation, and worker-count independence."""

import math
from dataclasses import replace

import pytest

from tumornet import engine, sweep, tumor_model
from tumornet.cli_io import format_run_csv, main
from tumornet.metrics import TciClass
from tumornet.sweep import (
    PRESETS,
    CellAggregate,
    RunOutcome,
    SweepError,
    SweepSpec,
    aggregate,
    expand,
    fig4_spec,
    final_fields,
    run_sweep,
)
from tumornet.engine import StepRecord, TimeSeries
from tumornet.tumor_model import ConfigError, init_model


def _tiny_spec(**kwargs):
    defaults = dict(
        csc_counts=(40, 60),
        angiogenesis_values=(0.2, 0.8),
        seeds_per_cell=3,
        base_seed=100,
        max_steps=20,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _inline_pool(requested=None, seen=None, shutdowns=None):
    """A ProcessPoolExecutor stand-in that runs tasks lazily in this process.

    It records the worker count asked for, each task as it starts, and the
    arguments of each shutdown call.
    """

    class InlinePool:
        def __init__(self, max_workers):
            if requested is not None:
                requested.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            for task in tasks:
                if seen is not None:
                    seen.append(task)
                yield fn(task)

        def shutdown(self, wait=True, *, cancel_futures=False):
            if shutdowns is not None:
                shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})

    return InlinePool


class TestSweepSpec:
    def test_cell_and_run_counts(self):
        spec = SweepSpec(
            csc_counts=(10, 20),
            angiogenesis_values=(0.1, 0.5, 0.9),
            seeds_per_cell=5,
        )
        assert spec.n_cells == 6
        assert spec.n_runs == 30

    def test_sequences_normalized_to_tuples(self):
        spec = SweepSpec(csc_counts=[10], angiogenesis_values=[0.5])
        assert spec.csc_counts == (10,)
        assert spec.angiogenesis_values == (0.5,)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            SweepSpec(csc_counts=())
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), recovery_values=())

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), angiogenesis_values=(1.5,))
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(0,))
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), seeds_per_cell=0)
        for field, value in (("K_values", (4, 0)), ("base_seed", -1), ("max_steps", -1)):
            with pytest.raises(ConfigError, match=f"^{field} must be at least") as exc:
                SweepSpec(csc_counts=(10,), **{field: value})
            assert exc.value.field == field

    def test_run_count_bound(self):
        # A spec holds only its grid: building one allocates no run.
        assert tumor_model._RUN_LIMIT == 1_000_000
        assert SweepSpec(csc_counts=(10, 20), seeds_per_cell=500_000).n_runs == 1_000_000
        with pytest.raises(ConfigError, match="1,000,002 runs, more than the 1,000,000 allowed") as exc:
            SweepSpec(csc_counts=(10, 20), seeds_per_cell=500_001)
        assert exc.value.field == "seeds_per_cell"
        assert fig4_spec().n_runs == 1_350


class TestExpand:
    def test_count_and_order(self):
        spec = SweepSpec(
            csc_counts=(10, 20),
            angiogenesis_values=(0.1, 0.5, 0.9),
            seeds_per_cell=5,
        )
        configs = expand(spec)
        assert len(configs) == 30
        # csc outermost, angiogenesis next, seeds innermost.
        assert configs[0].n_initial == 10 and configs[0].factors.angiogenesis == 0.1
        assert configs[5].factors.angiogenesis == 0.5
        assert configs[15].n_initial == 20

    def test_seed_assignment(self):
        seeds = [config.seed for config in expand(_tiny_spec(base_seed=1000))]
        assert seeds == list(range(1000, 1012))
        assert len(set(seeds)) == len(seeds)

    def test_single_cell(self):
        configs = expand(SweepSpec(csc_counts=(50,), seeds_per_cell=1))
        assert len(configs) == 1
        assert configs[0].n_initial == 50 and configs[0].seed == 0

    def test_expanded_configs_opt_into_disconnected_start(self):
        assert all(cfg.allow_below_threshold for cfg in expand(_tiny_spec()))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            expand(SweepSpec(csc_counts=()))


class TestClassifySeries:
    """The tci field of final_fields, and the final record it reports."""

    def _rec(self, step, ratio):
        return StepRecord(step, 10, int(10 * ratio), 10, 0, 0, 0, ratio)

    def test_progression(self):
        ts = TimeSeries(records=[self._rec(0, 1.0), self._rec(1, 2.0)], termination="max_steps")
        fields = final_fields(ts)
        assert fields["tci"] == TciClass.PROGRESSION.value
        assert fields["steps"] == 1 and fields["n_edges"] == 20 and fields["volume_ratio"] == 2.0

    def test_short_series_undefined(self):
        assert final_fields(TimeSeries(records=[self._rec(0, 1.0)]))["tci"] is None

    def test_zero_initial_undefined(self):
        ts = TimeSeries(records=[self._rec(0, 0.0), self._rec(1, 1.0)])
        assert final_fields(ts)["tci"] is None


class TestRunSweep:
    def test_shape_and_canonical_order(self):
        result = run_sweep(_tiny_spec())
        assert len(result.runs) == 12
        assert [o.run_id for o in result.runs] == list(range(12))
        assert [o.cell_id for o in result.runs] == [i // 3 for i in range(12)]
        assert len(result.cells) == 4
        assert [c.cell_id for c in result.cells] == [0, 1, 2, 3]

    def test_outcome_fields_match_config(self):
        result = run_sweep(_tiny_spec())
        first = result.runs[0]
        assert first.seed == 100
        assert first.n_initial == 40
        assert first.termination in ("max_steps", "disconnected", "extinct")
        assert first.normal + first.quiescent + first.metastatic + first.dead == first.n_nodes
        assert first.volume_ratio == first.n_edges / first.n_nodes

    def test_deterministic_across_calls(self):
        a = run_sweep(_tiny_spec())
        b = run_sweep(_tiny_spec())
        assert a.runs == b.runs
        assert a.cells == b.cells

    def test_worker_count_does_not_change_results(self):
        spec = _tiny_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.runs == parallel.runs
        assert serial.cells == parallel.cells

    def test_keep_runs_returns_each_runs_csv(self, monkeypatch):
        # Two CPUs, so that workers=2 starts a real pool on any machine.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        spec = _tiny_spec(seeds_per_cell=2)
        configs = expand(spec)
        expected = [format_run_csv(engine.run(init_model(c), c.max_steps)) for c in configs]
        assert max(text.count("\n") for text in expected) > 3  # some run lasts past step 1
        for workers in (1, 2):
            result = run_sweep(spec, workers=workers, keep_runs=True)
            assert result.workers == workers
            assert result.run_csvs == expected
            assert result.runs == run_sweep(spec).runs
        assert run_sweep(spec).run_csvs == []

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            run_sweep(_tiny_spec(), workers=0)

    def test_workers_clamped_to_run_count(self, monkeypatch, capsys, tmp_path):
        requested = []
        monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor", _inline_pool(requested))
        spec = _tiny_spec(csc_counts=(40,), angiogenesis_values=(0.2,), max_steps=2)
        # Three runs: the run count caps 5000 requested workers on 8 CPUs,
        # the CPU count caps them on 2, and None means no CPU cap.
        for cpus, expected in ((8, 3), (2, 2), (None, 3)):
            monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
            assert run_sweep(spec, workers=5000).workers == expected
        assert requested == [3, 2, 3]
        assert run_sweep(spec, workers=2).workers == 2
        assert requested == [3, 2, 3, 2]
        assert capsys.readouterr().err == ""
        assert run_sweep(spec, workers=3).runs == run_sweep(spec).runs
        # The CLI reports the count the sweep used, not the one requested.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        grid = tmp_path / "grid.cfg"
        grid.write_text("csc_counts=40\nseeds_per_cell=2\nmax_steps=2\n")
        monkeypatch.setenv("TUMORNET_WORKERS", "5000")
        assert main(["sweep", "--spec", str(grid), "--out", str(tmp_path / "out")]) == 0
        assert requested[-1] == 2
        assert "with 2 worker(s)" in capsys.readouterr().out

    def test_pool_gets_the_largest_runs_first(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor", _inline_pool(seen=seen))
        spec = _tiny_spec(csc_counts=(40, 60, 50), angiogenesis_values=(0.2, 0.8), seeds_per_cell=2)
        result = run_sweep(spec, workers=2)
        # Descending n_initial, run_id order among equal sizes.
        assert [(t[2].n_initial, t[0]) for t in seen] == [
            (60, 4), (60, 5), (60, 6), (60, 7),
            (50, 8), (50, 9), (50, 10), (50, 11),
            (40, 0), (40, 1), (40, 2), (40, 3),
        ]
        assert [o.run_id for o in result.runs] == list(range(12))
        assert result.runs == run_sweep(spec).runs

    def test_pool_stops_at_the_first_failed_run(self, monkeypatch):
        seen, shutdowns = [], []
        monkeypatch.setattr(
            sweep.futures, "ProcessPoolExecutor", _inline_pool(seen=seen, shutdowns=shutdowns)
        )
        original = sweep.engine.run

        def failing_run(model, max_steps):
            if model.config.seed == 100 + 7:
                raise ValueError("cell exploded")
            return original(model, max_steps)

        monkeypatch.setattr(sweep.engine, "run", failing_run)
        # Dispatch order is runs 6..11 (n=60), then 0..5; run 7 is the second.
        with pytest.raises(SweepError, match=r"run 7 \(cell 2, seed 107\) failed: ValueError: cell exploded"):
            run_sweep(_tiny_spec(), workers=2)
        assert [t[0] for t in seen] == [6, 7]
        assert shutdowns == [{"wait": False, "cancel_futures": True}]

    def test_worker_failure_names_the_run(self, monkeypatch):
        # The pool forks, so its workers run the patched engine.run; two
        # CPUs, so that a real pool starts on any machine.
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        original = sweep.engine.run

        def failing_run(model, max_steps):
            if model.config.seed == 100:
                raise ValueError("cell exploded")
            return original(model, max_steps)

        monkeypatch.setattr(sweep.engine, "run", failing_run)
        with pytest.raises(SweepError, match=r"run 0 \(cell 0, seed 100\) failed: ValueError: cell exploded"):
            run_sweep(_tiny_spec(), workers=2, keep_runs=True)


class TestAggregate:
    def _outcome(self, run_id, cell_id, ratio, m_count=0, n_nodes=10, tci=""):
        return RunOutcome(
            run_id=run_id, cell_id=cell_id, n_initial=40, K=4, angiogenesis=0.4,
            recovery=0.3, quiescence=0.5, seed=run_id, steps=1,
            termination="disconnected", n_nodes=n_nodes, n_edges=int(ratio * n_nodes),
            normal=n_nodes - m_count, quiescent=0, metastatic=m_count, dead=0,
            volume_ratio=ratio, tci=tci,
        )

    def test_mean_and_std(self):
        outcomes = [self._outcome(0, 0, 1.0), self._outcome(1, 0, 3.0)]
        cells = aggregate(outcomes)
        assert len(cells) == 1
        cell = cells[0]
        assert isinstance(cell, CellAggregate)
        assert (cell.n_initial, cell.K, cell.angiogenesis) == (40, 4, 0.4)
        assert cell.mean_volume_ratio == 2.0
        assert cell.std_volume_ratio == pytest.approx(math.sqrt(2))
        assert cell.seeds == 2

    def test_single_seed_std_is_zero(self):
        cells = aggregate([self._outcome(0, 0, 2.5)])
        assert cells[0].std_volume_ratio == 0.0

    def test_metastatic_stats(self):
        outcomes = [
            self._outcome(0, 0, 2.0, m_count=1, n_nodes=10),
            self._outcome(1, 0, 2.0, m_count=3, n_nodes=10),
        ]
        cell = aggregate(outcomes)[0]
        assert cell.mean_metastatic_count == 2.0
        assert cell.std_metastatic_count == pytest.approx(math.sqrt(2))
        assert cell.mean_metastatic_fraction == pytest.approx(0.2)

    def test_build_cell_aggregate_direct(self):
        # Ratios 1 and 3, metastatic fractions 0.1 and 0.3, one progression
        # and one undefined tci in a cell of 10-node runs.
        outcomes = [
            self._outcome(0, 0, 1.0, m_count=1, n_nodes=10, tci="progression"),
            self._outcome(1, 0, 3.0, m_count=3, n_nodes=10, tci=""),
        ]
        cell = aggregate(outcomes)[0]
        assert isinstance(cell, CellAggregate)
        assert cell.mean_volume_ratio == 2.0
        assert cell.mean_metastatic_fraction == pytest.approx(0.2)
        assert cell.std_metastatic_count == pytest.approx(math.sqrt(2))
        assert cell.progression == 1 and cell.stabilization == 0

    def test_tci_tallies(self):
        outcomes = [
            self._outcome(0, 0, 1.0, tci="progression"),
            self._outcome(1, 0, 1.0, tci="progression"),
            self._outcome(2, 0, 1.0, tci="stabilization"),
            self._outcome(3, 0, 1.0, tci=""),  # undefined: counted in no class
        ]
        cell = aggregate(outcomes)[0]
        assert (cell.progression, cell.rejection, cell.stabilization) == (2, 0, 1)
        assert cell.seeds == 4

    def test_incomplete_cell_rejected(self):
        outcomes = [self._outcome(0, 0, 1.0), self._outcome(1, 0, 1.0), self._outcome(2, 1, 1.0)]
        with pytest.raises(ValueError, match=r"unequal run counts \[1, 2\]"):
            aggregate(outcomes)

    def test_extra_runs_rejected(self):
        outcomes = [self._outcome(0, 0, 1.0), self._outcome(1, 1, 1.0), self._outcome(2, 1, 2.0)]
        with pytest.raises(ValueError, match="unequal"):
            aggregate(outcomes)

    @pytest.mark.parametrize(
        "field, value",
        [("n_initial", 360), ("K", 5), ("angiogenesis", 0.9), ("recovery", 0.6), ("quiescence", 0.1)],
    )
    def test_cell_config_disagreement_rejected(self, field, value):
        edited = replace(self._outcome(1, 0, 1.0), **{field: value})
        with pytest.raises(ValueError, match="cell 0 disagree.*missing or edited"):
            aggregate([self._outcome(0, 0, 1.0), edited])

    def test_gap_in_cells_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            aggregate([self._outcome(0, 1, 1.0)])

    def test_aggregates_recomputable_from_runs(self):
        # The cell table must be a pure function of the run outcomes.
        result = run_sweep(_tiny_spec())
        assert aggregate(result.runs) == result.cells


class TestFig4Preset:
    def test_grid_shape(self):
        spec = fig4_spec()
        assert spec.csc_counts == (60, 360, 650, 1000, 1200)
        assert spec.angiogenesis_values == tuple(
            pytest.approx(0.1 * i) for i in range(1, 10)
        )
        assert spec.n_cells == 45
        assert spec.seeds_per_cell == 30
        assert spec.max_steps == 500

    def test_expandable(self):
        configs = expand(fig4_spec(seeds_per_cell=2))
        assert len(configs) == 90
        assert configs[0].seed == 42

    def test_registered_preset(self):
        assert set(PRESETS) == {"fig4"}
        assert PRESETS["fig4"]() == fig4_spec()
