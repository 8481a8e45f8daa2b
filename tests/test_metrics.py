"""Volume ratios and TCI."""

import itertools
import math

import numpy as np
import pytest

from reference_graph import grow
from tumornet.engine import StepRecord, TimeSeries
from tumornet.graph_core import Graph, degree_sequence, generate_er
from tumornet.metrics import (
    TciClass,
    tci_classify,
    volume_ratio,
)


def _triangle():
    return grow(Graph(), 3, [(0, 1), (1, 2), (0, 2)])


def _complete(n):
    return grow(Graph(), n, itertools.combinations(range(n), 2))


def _record(step, ratio, n_nodes=10):
    return StepRecord(step, n_nodes, int(ratio * n_nodes), n_nodes, 0, 0, 0, ratio)


def _series(*ratios):
    return TimeSeries(records=[_record(i, r) for i, r in enumerate(ratios)])


class TestVolumeRatio:
    def test_triangle(self):
        assert volume_ratio(_triangle()) == 1.0

    def test_complete_graph(self):
        # K_n has ratio (n-1)/2.
        assert volume_ratio(_complete(5)) == 2.0

    def test_edgeless(self):
        assert volume_ratio(Graph(7)) == 0.0

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            volume_ratio(Graph(0))

    def test_matches_half_mean_degree(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            g = generate_er(n, float(rng.random()), rng)
            degrees = degree_sequence(g).degrees
            assert volume_ratio(g) == pytest.approx(sum(degrees) / (2 * n))


class TestTciClassify:
    def test_stabilization(self):
        assert tci_classify(_series(2.0, 2.1, 2.0)) is TciClass.STABILIZATION

    def test_progression(self):
        assert tci_classify(_series(1.0, 1.5, 2.0)) is TciClass.PROGRESSION

    def test_rejection(self):
        assert tci_classify(_series(4.0, 2.0, 1.0)) is TciClass.REJECTION

    def test_boundary_is_stabilization(self):
        # Exactly +-TCI_BAND = 0.1 stays inside the band (strict inequalities).
        assert tci_classify(_series(2.0, 2.2)) is TciClass.STABILIZATION
        assert tci_classify(_series(2.0, 1.8)) is TciClass.STABILIZATION

    def test_only_endpoints_matter(self):
        assert tci_classify(_series(2.0, 9.0, 2.05)) is TciClass.STABILIZATION

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ratios = list(1.0 + 3.0 * rng.random(5))
            base = tci_classify(_series(*ratios))
            scale = float(rng.uniform(0.1, 10.0))
            assert tci_classify(_series(*[r * scale for r in ratios])) is base

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            tci_classify(_series(2.0))

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError):
            tci_classify(_series(0.0, 1.0))


class TestErMeanRatio:
    def test_seeded_er_ratio_near_expected(self):
        # E[m/n] = p(n-1)/2; with n=1000, p=0.008 that is 3.996.
        expected = 0.008 * 999 / 2
        ratios = [
            volume_ratio(generate_er(1000, 0.008, np.random.default_rng(s)))
            for s in range(10)
        ]
        mean = sum(ratios) / len(ratios)
        assert math.isclose(mean, expected, rel_tol=0.05)
