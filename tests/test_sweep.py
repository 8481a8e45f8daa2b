"""Sweep expansion, execution, aggregation, and worker-count independence."""

import math

import pytest

from tumornet import sweep
from tumornet.metrics import TciClass
from tumornet.sweep import (
    PRESETS,
    CellAggregate,
    RunOutcome,
    SweepError,
    SweepSpec,
    aggregate,
    build_cell_aggregate,
    classify_series,
    expand,
    fig4_spec,
    run_sweep,
)
from tumornet.engine import StepRecord, TimeSeries
from tumornet.tumor_model import ConfigError, ModelConfig


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
            SweepSpec(csc_counts=()).validate()
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), recovery_values=()).validate()

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), angiogenesis_values=(1.5,)).validate()
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(0,)).validate()
        with pytest.raises(ConfigError):
            SweepSpec(csc_counts=(10,), seeds_per_cell=0).validate()


class TestExpand:
    def test_count_and_order(self):
        spec = SweepSpec(
            csc_counts=(10, 20),
            angiogenesis_values=(0.1, 0.5, 0.9),
            seeds_per_cell=5,
        )
        plans = expand(spec)
        assert len(plans) == 30
        assert [run_id for _, run_id in plans] == list(range(30))
        # csc outermost, angiogenesis next, seeds innermost.
        assert plans[0][0].n_initial == 10 and plans[0][0].factors.angiogenesis == 0.1
        assert plans[5][0].factors.angiogenesis == 0.5
        assert plans[15][0].n_initial == 20

    def test_seed_assignment(self):
        plans = expand(_tiny_spec(base_seed=1000))
        seeds = [config.seed for config, _ in plans]
        assert seeds == list(range(1000, 1012))
        assert len(set(seeds)) == len(seeds)

    def test_single_cell(self):
        plans = expand(SweepSpec(csc_counts=(50,), seeds_per_cell=1))
        assert len(plans) == 1
        cfg = plans[0][0]
        assert cfg.n_initial == 50 and cfg.seed == 0

    def test_expanded_configs_opt_into_disconnected_start(self):
        assert all(cfg.allow_below_threshold for cfg, _ in expand(_tiny_spec()))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            expand(SweepSpec(csc_counts=()))


class TestClassifySeries:
    def _rec(self, step, ratio):
        return StepRecord(step, 10, int(10 * ratio), 10, 0, 0, 0, ratio)

    def test_progression(self):
        ts = TimeSeries(records=[self._rec(0, 1.0), self._rec(1, 2.0)])
        assert classify_series(ts) is TciClass.PROGRESSION

    def test_short_series_undefined(self):
        assert classify_series(TimeSeries(records=[self._rec(0, 1.0)])) is None

    def test_zero_initial_undefined(self):
        ts = TimeSeries(records=[self._rec(0, 0.0), self._rec(1, 1.0)])
        assert classify_series(ts) is None


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
        assert first.config.seed == 100
        assert first.config.n_initial == 40
        assert first.termination in ("max_steps", "disconnected", "extinct")
        assert first.final.step == first.steps

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

    def test_runs_dir_gets_one_csv_per_run(self, tmp_path):
        spec = _tiny_spec(seeds_per_cell=2)
        run_sweep(spec, runs_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"run{i:05d}.csv" for i in range(8)]
        text = (tmp_path / "run00000.csv").read_text()
        assert text.startswith("step,n_nodes,n_edges,")

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            run_sweep(_tiny_spec(), workers=0)

    def test_workers_clamped_to_run_count(self, monkeypatch, capsys):
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
        spec = _tiny_spec(csc_counts=(40,), angiogenesis_values=(0.2,), max_steps=2)
        clamped = run_sweep(spec, workers=5000)
        assert requested == [3]
        assert "3 sweep workers on 2 CPUs" in capsys.readouterr().err
        run_sweep(spec, workers=2)
        assert requested == [3, 2]
        assert capsys.readouterr().err == ""
        assert clamped.runs == run_sweep(spec).runs

    def test_worker_failure_names_the_run(self, tmp_path):
        # An unwritable runs_dir makes the first worker raise.
        target = tmp_path / "not_a_dir"
        target.write_text("occupied")
        with pytest.raises(SweepError, match=r"run 0 \(cell 0, seed 100\)"):
            run_sweep(_tiny_spec(), runs_dir=target)


class TestAggregate:
    def _outcome(self, run_id, cell_id, ratio, m_count=0, n_nodes=10, tci=None):
        cfg = ModelConfig(n_initial=40, seed=run_id, allow_below_threshold=True)
        final = StepRecord(1, n_nodes, int(ratio * n_nodes), n_nodes - m_count,
                           0, m_count, 0, ratio)
        return RunOutcome(run_id=run_id, cell_id=cell_id, config=cfg, steps=1,
                          termination="disconnected", final=final, tci=tci)

    def test_mean_and_std(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=2)
        outcomes = [self._outcome(0, 0, 1.0), self._outcome(1, 0, 3.0)]
        cells = aggregate(spec, outcomes)
        assert len(cells) == 1
        cell = cells[0]
        assert cell.mean_volume_ratio == 2.0
        assert cell.std_volume_ratio == pytest.approx(math.sqrt(2))
        assert cell.seeds == 2

    def test_single_seed_std_is_zero(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=1)
        cells = aggregate(spec, [self._outcome(0, 0, 2.5)])
        assert cells[0].std_volume_ratio == 0.0

    def test_metastatic_stats(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=2)
        outcomes = [
            self._outcome(0, 0, 2.0, m_count=2, n_nodes=10),
            self._outcome(1, 0, 2.0, m_count=4, n_nodes=10),
        ]
        cell = aggregate(spec, outcomes)[0]
        assert cell.mean_metastatic_count == 3.0
        assert cell.mean_metastatic_fraction == pytest.approx(0.3)

    def test_tci_tallies(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=3)
        outcomes = [
            self._outcome(0, 0, 1.0, tci=TciClass.PROGRESSION),
            self._outcome(1, 0, 1.0, tci=TciClass.PROGRESSION),
            self._outcome(2, 0, 1.0, tci=TciClass.STABILIZATION),
        ]
        cell = aggregate(spec, outcomes)[0]
        assert (cell.progression, cell.rejection, cell.stabilization) == (2, 0, 1)

    def test_incomplete_cell_rejected(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=2)
        with pytest.raises(ValueError, match="cell 0 incomplete: expected 2"):
            aggregate(spec, [self._outcome(0, 0, 1.0)])

    def test_extra_runs_rejected(self):
        spec = SweepSpec(csc_counts=(40,), seeds_per_cell=1)
        outcomes = [self._outcome(0, 0, 1.0), self._outcome(1, 0, 2.0)]
        with pytest.raises(ValueError, match="incomplete"):
            aggregate(spec, outcomes)

    def test_aggregates_recomputable_from_runs(self):
        # The cell table must be a pure function of the run outcomes.
        result = run_sweep(_tiny_spec())
        assert aggregate(result.spec, result.runs) == result.cells

    def test_build_cell_aggregate_direct(self):
        cell = build_cell_aggregate(
            cell_id=0, n_initial=10, K=4,
            angiogenesis=0.4, recovery=0.3, quiescence=0.5,
            ratios=[1.0, 3.0], fractions=[0.1, 0.3], counts=[1.0, 3.0],
            tci_names=["progression", ""],
        )
        assert isinstance(cell, CellAggregate)
        assert cell.std_metastatic_count == pytest.approx(math.sqrt(2))
        assert cell.progression == 1 and cell.stabilization == 0


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
        plans = expand(fig4_spec(seeds_per_cell=2))
        assert len(plans) == 90
        assert plans[0][0].seed == 42

    def test_registered_preset(self):
        assert set(PRESETS) == {"fig4"}
        assert PRESETS["fig4"]() == fig4_spec()
