"""End-to-end acceptance checks.

Each test prints one verdict line, [criterion NN] PASS/FAIL, with a short
numeric detail on success. Statistical checks use fixed seeds, so every
verdict is reproducible bit-for-bit.
"""

import functools
import itertools
import math
import resource
import statistics
import time

import numpy as np
from scipy.stats import spearmanr

from reference_graph import grow
from tumornet.cli_io import format_run_csv, format_sweep_runs, format_sweep_summary
from tumornet.engine import RngStream, StepRecord, TimeSeries, run, step
from tumornet.graph_core import (
    Graph,
    connectivity_threshold,
    degree_sequence,
    generate_er,
    is_connected,
)
from tumornet.metrics import TciClass, tci_classify, volume_ratio
from tumornet.sweep import SweepSpec, fig4_spec, run_sweep
from tumornet.tumor_model import DEAD, ControlFactors, ModelConfig, init_model


def criterion(num, label):
    """Print one verdict line per criterion, even when the body raises."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {label}")
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"[criterion {num:02d}] PASS {label}{suffix}")

        return wrapper

    return deco


@criterion(1, "half the degree sum equals the stored edge count")
def test_criterion_01_degree_sum_exactness():
    rng = np.random.default_rng(20_240_101)
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        p = float(rng.random())
        g = generate_er(n, p, rng)
        ds = degree_sequence(g)
        assert sum(ds.degrees) % 2 == 0
        assert ds.edge_count == g.n_edges
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    return f"1000 graphs, {elapsed:.1f}s"


@criterion(2, "mean edge count matches the binomial oracle")
def test_criterion_02_er_statistics():
    n, p, seeds = 1000, 0.01, 100
    expected = p * n * (n - 1) / 2  # 4995
    sigma = math.sqrt(expected * (1 - p))  # about 70.3
    started = time.perf_counter()
    counts = [
        generate_er(n, p, RngStream(s).substream("graph")).n_edges
        for s in range(seeds)
    ]
    elapsed = time.perf_counter() - started
    mean = statistics.fmean(counts)
    assert abs(mean - expected) <= 3 * sigma
    assert elapsed < 10.0
    return f"mean m={mean:.1f}, oracle {expected:.0f}+-{3 * sigma:.0f}, {elapsed:.1f}s"


@criterion(3, "connectivity flips across the ln(n)/n threshold")
def test_criterion_03_connectivity_threshold():
    n, seeds = 200, 200
    p_star = connectivity_threshold(n)
    started = time.perf_counter()
    hi = sum(
        is_connected(generate_er(n, 2.0 * p_star, RngStream(s).substream("graph")))
        for s in range(seeds)
    )
    lo = sum(
        is_connected(generate_er(n, 0.5 * p_star, RngStream(50_000 + s).substream("graph")))
        for s in range(seeds)
    )
    elapsed = time.perf_counter() - started
    assert hi >= 0.95 * seeds
    assert lo <= 0.50 * seeds
    assert elapsed < 20.0
    return f"connected {hi}/{seeds} above, {lo}/{seeds} below, {elapsed:.1f}s"


@criterion(4, "volume ratio matches p(n-1)/2 and is exact on complete graphs")
def test_criterion_04_volume_ratio_consistency():
    n, p, seeds = 1000, 0.008, 50
    expected = p * (n - 1) / 2  # 3.996
    ratios = [
        volume_ratio(generate_er(n, p, RngStream(s).substream("graph")))
        for s in range(seeds)
    ]
    mean = statistics.fmean(ratios)
    assert abs(mean - expected) / expected < 0.05
    for size in range(2, 51):
        g = grow(Graph(), size, itertools.combinations(range(size), 2))
        assert volume_ratio(g) == (size - 1) / 2
    return f"mean ratio {mean:.4f} vs {expected}, complete graphs exact for n=2..50"


@criterion(5, "default growth scenario lands in the plausible volume band")
def test_criterion_05_default_scenario_band():
    finals = []
    slowest = 0.0
    for seed in range(20):
        config = ModelConfig(
            n_initial=550, K=4, seed=seed, max_steps=500, allow_below_threshold=True
        )
        started = time.perf_counter()
        series = run(init_model(config), config.max_steps)
        wall = time.perf_counter() - started
        slowest = max(slowest, wall)
        assert wall < 60.0
        finals.append(series.records[-1].volume_ratio)
    mean = statistics.fmean(finals)
    assert 1.5 <= mean <= 2.5
    return f"mean final ratio {mean:.3f} in [1.5, 2.5], slowest run {slowest:.2f}s"


@criterion(6, "mean metastatic count rises with angiogenesis at every population size")
def test_criterion_06_sweep_monotonicity():
    started = time.perf_counter()
    result = run_sweep(fig4_spec(), workers=8)
    elapsed = time.perf_counter() - started
    by_count: dict[int, list[tuple[float, float]]] = {}
    for cell in result.cells:
        by_count.setdefault(cell.n_initial, []).append(
            (cell.angiogenesis, cell.mean_metastatic_count)
        )
    assert len(by_count) == 5
    worst = 1.0
    for count, pairs in sorted(by_count.items()):
        pairs.sort()
        rho = spearmanr([a for a, _ in pairs], [m for _, m in pairs]).statistic
        worst = min(worst, rho)
        assert rho > 0.8, f"count {count}: rho={rho}"
    assert elapsed < 900.0
    return f"45 cells, min rho {worst:.3f}, {elapsed:.1f}s with 8 workers"


@criterion(7, "identical inputs give byte-identical outputs at any worker count")
def test_criterion_07_determinism():
    config = ModelConfig(n_initial=100, p=0.1, K=4, seed=11, max_steps=50)
    csv_a = format_run_csv(run(init_model(config), config.max_steps))
    csv_b = format_run_csv(run(init_model(config), config.max_steps))
    assert csv_a == csv_b

    spec = SweepSpec(
        csc_counts=(60, 100),
        angiogenesis_values=(0.2, 0.8),
        seeds_per_cell=5,
        base_seed=7,
        max_steps=50,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=8)
    assert format_sweep_summary(serial.cells) == format_sweep_summary(parallel.cells)
    assert format_sweep_runs(serial.runs) == format_sweep_runs(parallel.runs)
    return "run CSV stable across repeats, sweep outputs stable across 1 vs 8 workers"


@criterion(8, "a 200k-cell population initializes and steps within budget")
def test_criterion_08_scale():
    config = ModelConfig(n_initial=200_000, K=4, seed=5, allow_below_threshold=True)
    started = time.perf_counter()
    model = init_model(config)
    for _ in range(10):
        record = step(model)
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    assert record.step == 10
    assert record.n_nodes >= 200_000
    assert elapsed < 120.0
    assert peak_mb < 2048
    return f"10 steps over {record.n_nodes} cells, {elapsed:.1f}s, peak {peak_mb}MB"


@criterion(9, "population invariants hold under config fuzzing")
def test_criterion_09_invariant_fuzz():
    rng = np.random.default_rng(20_240_817)
    node_cap = 25_000  # stop runaway growth configs once the point is made
    freeze_runs = 0
    for idx in range(100):
        n = int(rng.integers(20, 301))
        p = min(0.6, connectivity_threshold(n) * float(rng.uniform(1.3, 3.0)))
        angiogenesis = 0.0 if idx % 5 == 0 else float(rng.random())
        config = ModelConfig(
            n_initial=n,
            p=p,
            K=int(rng.integers(3, 9)),
            factors=ControlFactors(
                angiogenesis=angiogenesis,
                recovery=float(rng.uniform(0.05, 1.0)),
                quiescence=float(rng.random()),
            ),
            spawn_rate=float(rng.uniform(0.0, 0.5)),
            metastasis_rate=float(rng.random()),
            apoptosis_rate=float(rng.uniform(0.0, 0.05)),
            seed=int(rng.integers(0, 2**31)),
            allow_below_threshold=True,
        )
        frozen = config.factors.angiogenesis == 0.0
        freeze_runs += frozen
        model = init_model(config)
        dead_ids: set[int] = set()
        prev_nodes = model.graph.n_nodes
        for _ in range(200):
            record = step(model)
            total = (
                record.normal
                + record.quiescent
                + record.metastatic
                + record.dead
            )
            assert total == record.n_nodes == len(model.state)
            for agent_id in dead_ids:
                assert model.state[agent_id] == DEAD
            dead_ids = {i for i, s in enumerate(model.state.tolist()) if s == DEAD}
            assert record.n_nodes >= prev_nodes
            prev_nodes = record.n_nodes
            if frozen:
                assert record.n_nodes == n
                assert record.metastatic == 0
            if record.count_live == 0 or record.n_nodes > node_cap:
                break
    assert freeze_runs == 20
    return f"100 configs fuzzed, {freeze_runs} with growth disabled"


@criterion(10, "growth-curve classes are correct and scale-invariant")
def test_criterion_10_tci_classifier():
    def series(ratios):
        return TimeSeries(
            records=[
                StepRecord(i, 10, int(r * 10), 10, 0, 0, 0, r)
                for i, r in enumerate(ratios)
            ]
        )

    shapes = {
        (2.0, 2.0, 2.0): TciClass.STABILIZATION,
        (1.0, 2.0, 4.0): TciClass.PROGRESSION,
        (4.0, 2.0, 1.0): TciClass.REJECTION,
    }
    for ratios, expected in shapes.items():
        assert tci_classify(series(list(ratios))) is expected
        for scale in (0.1, 0.5, 2.0, 10.0):
            scaled = [r * scale for r in ratios]
            assert tci_classify(series(scaled)) is expected
    return "constant/doubling/halving classified, stable under positive scaling"
