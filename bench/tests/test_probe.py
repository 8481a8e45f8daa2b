"""Tests for the CPU-speed probe (bench/probe.py).

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

from probe import INTERVAL_S, REFERENCE_S, Probe, mean_speed, speed  # noqa: E402


class TestMeanSpeed:
    def test_averages_speed_over_the_probes_inside_the_window(self):
        samples = [(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, REFERENCE_S / 2), (9.0, REFERENCE_S)]
        assert mean_speed(samples, 0.5, 2.5) == pytest.approx((0.5 + 2.0) / 2)

    def test_empty_window(self):
        assert mean_speed([(5.0, REFERENCE_S)], 0.0, 1.0) is None

    def test_speed_falls_back_to_all_probes(self):
        assert speed([(5.0, 2 * REFERENCE_S)], 0.0, 1.0) == pytest.approx(0.5)


def test_timer_probes_the_running_process(tmp_path):
    probe = Probe(tmp_path)
    probe.start()
    end = time.monotonic() + 0.3
    while time.monotonic() < end:
        pass
    probe.stop()
    got = probe.samples()
    assert len(got) >= 0.3 / INTERVAL_S / 2
    assert all(d > 0 for _, d in got)


def _busy(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    return seconds


def _worker(probe, mod):
    for _ in range(3):
        mod.entry(0.1)


def test_forked_worker_probes_reach_the_parent(tmp_path):
    mod = types.SimpleNamespace(entry=_busy)
    probe = Probe(tmp_path)
    probe.wrap_worker_entry(mod, "entry")
    proc = multiprocessing.get_context("fork").Process(target=_worker, args=(probe, mod))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert list(tmp_path.glob("probe-*.bin"))
    assert len(probe.samples()) >= 0.3 / INTERVAL_S / 2
