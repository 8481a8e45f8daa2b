"""Tests for the benchmark's own arithmetic and wrappers.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import multiprocessing
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import ROOT, SPAN_DTYPE, Tracer, high_percentile, self_times, useful_ratio  # noqa: E402


def make_spans(rows):
    """rows: (parent, start, end); names are irrelevant to the arithmetic."""
    out = np.zeros(len(rows), dtype=SPAN_DTYPE)
    for k, (parent, start, end) in enumerate(rows):
        out[k]["parent"], out[k]["start"], out[k]["end"] = parent, start, end
    return out


class TestSelfTimes:
    def test_nested_children_only_charge_their_parent(self):
        spans = make_spans([
            (ROOT, 0.0, 10.0),  # 0
            (0, 1.0, 4.0),      # 1, child of 0
            (1, 2.0, 3.0),      # 2, grandchild of 0
        ])
        got = self_times(spans, np.array([0, 1, 2]))
        assert got == pytest.approx([7.0, 2.0, 1.0])

    def test_back_to_back_children_cover_their_union(self):
        spans = make_spans([(ROOT, 0.0, 10.0), (0, 1.0, 4.0), (0, 4.0, 6.0), (0, 6.0, 6.5)])
        assert self_times(spans, np.array([0])) == pytest.approx([4.5])

    def test_overlapping_children_count_once(self):
        # Two sweep workers running at the same time under one run_sweep span.
        spans = make_spans([(ROOT, 0.0, 10.0), (0, 1.0, 5.0), (0, 2.0, 6.0), (0, 6.5, 6.75)])
        assert self_times(spans, np.array([0])) == pytest.approx([4.75])

    def test_children_are_clipped_to_the_parent(self):
        spans = make_spans([(ROOT, 0.0, 2.0), (0, 1.5, 3.0)])
        assert self_times(spans, np.array([0])) == pytest.approx([1.5])

    def test_targets_are_independent(self):
        spans = make_spans([
            (ROOT, 0.0, 4.0), (0, 1.0, 2.0),
            (ROOT, 5.0, 9.0), (2, 5.0, 9.0),
        ])
        assert self_times(spans, np.array([2, 0])) == pytest.approx([0.0, 3.0])


class TestUsefulRatio:
    def test_connected_run_wastes_all_but_the_first_check(self):
        assert useful_ratio([[True] * 500]) == pytest.approx(1 / 500)

    def test_checks_up_to_the_first_true_are_useful(self):
        assert useful_ratio([[False, False, True, True]]) == pytest.approx(3 / 4)

    def test_a_run_stopped_by_a_false_check_wasted_nothing(self):
        assert useful_ratio([[False], [False]]) == 1.0

    def test_runs_are_pooled_by_check_count(self):
        assert useful_ratio([[False], [True, True, True]]) == pytest.approx(2 / 4)

    def test_no_checks(self):
        assert useful_ratio([]) == 0.0


class TestHighPercentile:
    def test_needs_eleven_samples(self):
        assert high_percentile(range(10)) is None
        assert high_percentile(range(11)) == (pytest.approx(100 / 11), 0)

    def test_ten_samples_lie_beyond_the_reported_value(self):
        values = list(range(100, 0, -1))
        pct, value = high_percentile(values)
        assert pct == pytest.approx(90.0)
        assert sum(v > value for v in values) == 10

    def test_large_sample(self):
        pct, value = high_percentile(range(1000))
        assert (pct, value) == (pytest.approx(99.0), 989)


class TestWrappers:
    def test_wrap_records_nesting_and_restore_puts_originals_back(self):
        mod = types.ModuleType("fake")

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        class Box:
            def size(self):
                return 3

        mod.inner, mod.outer, mod.Box = inner, outer, Box
        originals = (mod.inner, mod.outer, vars(Box)["size"])
        tracer = Tracer()
        tracer.wrap(mod, "inner", "fake.inner", measure=lambda a, r: (a[0], r))
        tracer.wrap(mod, "outer", "fake.outer")
        tracer.wrap(Box, "size", "fake.size")
        assert mod.outer(4) == 10
        assert Box().size() == 3
        spans = tracer.merge("none")
        names = [tracer.names[n] for n in spans["name"]]
        assert names == ["fake.outer", "fake.inner", "fake.size"]
        assert list(spans["parent"]) == [ROOT, 0, ROOT]
        assert (spans["a"][1], spans["b"][1]) == (4, 5)
        assert all(spans["end"] >= spans["start"])
        tracer.restore()
        assert (mod.inner, mod.outer, vars(Box)["size"]) == originals

    def test_restore_after_an_exception(self):
        mod = types.ModuleType("fake")

        def boom():
            raise ValueError("x")

        mod.boom = boom
        tracer = Tracer()
        tracer.wrap(mod, "boom", "fake.boom")
        with pytest.raises(ValueError):
            mod.boom()
        assert tracer._stack == [ROOT]
        tracer.restore()
        assert mod.boom is boom

    def test_every_tumornet_attribute_is_restored(self):
        pytest.importorskip("tumornet")
        from rep import install_tracer
        from tumornet import cli_io, engine, graph_core, metrics, sweep, tumor_model

        owners = (cli_io, engine, graph_core, metrics, sweep, tumor_model, tumor_model.Model)
        before = [dict(vars(o)) for o in owners]
        tracer = Tracer()
        install_tracer(tracer)
        assert graph_core.is_connected is not before[2]["is_connected"]
        tracer.restore()
        for owner, snapshot in zip(owners, before):
            for attr, value in snapshot.items():
                assert vars(owner)[attr] is value, f"{owner.__name__}.{attr} not restored"


def _pool_entry(x):
    return x * 2


def _worker(tracer, mod):
    mod.entry(1)
    mod.entry(2)


def test_forked_worker_spans_merge_under_the_pool_span(tmp_path):
    mod = types.ModuleType("fake")
    mod.entry = _pool_entry
    mod.pool = lambda: None
    tracer = Tracer(tmp_path)
    tracer.wrap(mod, "entry", "fake.entry", worker_entry=True)

    def pool():
        proc = multiprocessing.get_context("fork").Process(target=_worker, args=(tracer, mod))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    mod.pool = pool
    tracer.wrap(mod, "pool", "fake.pool")
    mod.pool()
    spans = tracer.merge("fake.pool")
    names = [tracer.names[n] for n in spans["name"]]
    assert names == ["fake.pool", "fake.entry", "fake.entry"]
    assert list(spans["parent"]) == [ROOT, 0, 0]
    tracer.restore()
