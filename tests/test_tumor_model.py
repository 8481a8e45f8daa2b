"""Cell transition rules, model construction, and population invariants."""

import copy
import statistics
from bisect import bisect_right
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, spearmanr

from reference_graph import as_networkx, grow
from reference_model import ReferenceModel
from tumornet import graph_core, tumor_model
from tumornet.engine import RngStream, run, step
from tumornet.graph_core import connectivity_threshold
from tumornet.tumor_model import (
    DEAD,
    FACTOR_LEVELS,
    MEDIUM_FACTORS,
    METASTATIC,
    NORMAL,
    QUIESCENT,
    ConfigError,
    ControlFactors,
    ModelConfig,
    agent_step,
    factor_level,
    init_model,
    spawn_cell,
)


def _config(**kwargs):
    defaults = dict(n_initial=30, p=0.3, K=4, seed=0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def _model(**kwargs):
    return init_model(_config(**kwargs))


def _set_state(m, cell, code):
    """Put one cell in a state directly, keeping the counts in step."""
    m.counts[m.state[cell]] -= 1
    m.state[cell] = code
    m.counts[code] += 1


def _tally(m):
    c = Counter(m.state.tolist())
    return tuple(c[code] for code in (NORMAL, QUIESCENT, METASTATIC, DEAD))


class TestFactorLevels:
    def test_table(self):
        assert factor_level("angiogenesis", "low") == 0.0
        assert factor_level("angiogenesis", "medium") == 0.4
        assert factor_level("angiogenesis", "high") == 1.0
        assert factor_level("recovery", "low") == 0.1
        assert factor_level("recovery", "medium") == 0.3
        assert factor_level("recovery", "high") == 1.0
        assert factor_level("quiescence", "low") == 0.1
        assert factor_level("quiescence", "medium") == 0.5
        assert factor_level("quiescence", "high") == 1.0

    def test_quiescent_is_not_a_factor(self):
        # The quiescent -> quiescence alias is gone; only the field name reads.
        with pytest.raises(ConfigError, match="unknown control factor 'quiescent'"):
            factor_level("quiescent", "medium")

    def test_unknown_factor(self):
        with pytest.raises(ConfigError):
            factor_level("growth", "low")

    def test_unknown_level(self):
        with pytest.raises(ConfigError):
            factor_level("recovery", "extreme")

    def test_table_is_complete(self):
        assert set(FACTOR_LEVELS) == {"angiogenesis", "recovery", "quiescence"}
        for row in FACTOR_LEVELS.values():
            assert set(row) == {"low", "medium", "high"}


class TestControlFactors:
    def test_medium_preset(self):
        assert MEDIUM_FACTORS == ControlFactors(0.4, 0.3, 0.5)

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            ControlFactors(1.5, 0.3, 0.5)
        with pytest.raises(ConfigError):
            ControlFactors(0.4, -0.1, 0.5)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(n_initial=550)
        assert cfg.K == 4
        assert cfg.p is None
        assert cfg.factors == MEDIUM_FACTORS
        assert cfg.spawn_rate == 0.25
        assert cfg.metastasis_rate == 0.5
        assert cfg.apoptosis_rate == 0.01
        assert cfg.max_steps == 500
        assert cfg.seed == 0
        assert not cfg.allow_below_threshold

    def test_derived_edge_prob(self):
        assert ModelConfig(n_initial=550).edge_prob == pytest.approx(4 / 549)

    def test_explicit_p_wins(self):
        assert ModelConfig(n_initial=550, p=0.25).edge_prob == 0.25

    def test_derived_p_clamped(self):
        assert ModelConfig(n_initial=3, K=4).edge_prob == 1.0

    def test_single_node_edge_prob(self):
        assert ModelConfig(n_initial=1).edge_prob == 1.0

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=0)
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=10, K=0)
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=10, p=1.2)
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=10, spawn_rate=-0.5)
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=10, max_steps=-1)
        with pytest.raises(ConfigError):
            ModelConfig(n_initial=10, seed=-3)


class TestStartLimit:
    """A config whose start graph would exceed _START_LIMIT nodes plus
    expected edges cannot be built, so no start is ever generated for it."""

    @pytest.fixture(autouse=True)
    def _no_generation(self, monkeypatch):
        def generate(*args):
            raise AssertionError("a start graph was generated")

        monkeypatch.setattr(graph_core, "generate_er", generate)
        monkeypatch.setattr(graph_core, "generate_er_skip", generate)

    def _field(self, **kwargs):
        with pytest.raises(ConfigError, match="more than the 10,000,000 allowed") as exc:
            tumor_model.init_model(ModelConfig(**kwargs))
        return exc.value.field

    def test_derived_density_names_n_initial(self):
        # np.arange(n) alone would ask for about 8 GB.
        assert self._field(n_initial=1_000_000_000, allow_below_threshold=True) == "n_initial"

    def test_explicit_p_names_p(self):
        # np.triu_indices would ask for more than 10 GB.
        assert self._field(n_initial=40_000, p=1.0) == "p"
        assert self._field(n_initial=tumor_model._START_LIMIT + 1, p=0.0) == "p"

    def test_limit_is_inclusive(self):
        assert tumor_model._START_LIMIT == 10_000_000
        ModelConfig(n_initial=tumor_model._START_LIMIT, p=0.0)
        # 4,000 nodes plus 0.5 * 4000 * 3999 / 2 = 3,998,000 expected edges.
        ModelConfig(n_initial=4_000, p=0.5)

    def test_scale_start_is_far_below(self):
        ModelConfig(n_initial=200_000, K=4)


class TestInitModel:
    def test_all_normal_stem_population(self):
        m = init_model(ModelConfig(n_initial=550, allow_below_threshold=True))
        assert m.graph.n_nodes == 550
        assert m.state.tolist() == [NORMAL] * 550
        assert m.state_counts() == (550, 0, 0, 0)
        assert m.live_ids().tolist() == list(range(550))

    def test_below_threshold_rejected(self):
        with pytest.raises(ConfigError, match="threshold"):
            init_model(ModelConfig(n_initial=100, p=0.001))

    def test_derived_p_below_threshold_rejected(self):
        # K/(n-1) = 4/549 sits under ln(550)/550.
        with pytest.raises(ConfigError, match="allow_below_threshold"):
            init_model(ModelConfig(n_initial=550))

    def test_above_threshold_accepted(self):
        m = init_model(ModelConfig(n_initial=100, p=0.1))
        assert m.graph.n_nodes == 100

    def test_graph_is_seed_deterministic(self):
        a = init_model(_config(seed=42))
        b = init_model(_config(seed=42))
        assert a.graph == b.graph

    def test_large_population_uses_sparse_sampler(self):
        cfg = ModelConfig(n_initial=25_000, K=4, allow_below_threshold=True)
        m = init_model(cfg)
        assert m.graph.n_nodes == 25_000
        # Expected edge count n*K/2; allow a wide stochastic band.
        assert 40_000 < m.graph.n_edges < 60_000


class TestModelBookkeeping:
    def test_live_ids_ascending_and_excludes_dead(self):
        m = _model()
        _set_state(m, 3, DEAD)
        _set_state(m, 7, QUIESCENT)
        live = m.live_ids().tolist()
        assert live == sorted(live)
        assert 3 not in live
        assert 7 in live

    def test_live_ids_match_a_rescan(self):
        # Deaths and spawns between calls, over several steps: the ids must
        # equal a fresh scan of every cell.
        m = _model(n_initial=40, p=0.2, seed=8, apoptosis_rate=0.3, spawn_rate=1.0,
                   factors=ControlFactors(0.9, 0.2, 0.3))
        for _ in range(15):
            assert m.live_ids().tolist() == [i for i, s in enumerate(m.state.tolist()) if s != DEAD]
            step(m)
        assert m.counts[DEAD] > 0 and len(m.state) > 40
        live = m.live_ids()
        live[:] = 0  # the caller owns the returned array
        assert m.live_ids().tolist() == [i for i, s in enumerate(m.state.tolist()) if s != DEAD]

    def test_state_counts_track_transitions(self):
        m = _model(factors=ControlFactors(0.0, 1.0, 1.0))
        _set_state(m, 5, METASTATIC)
        _set_state(m, 6, QUIESCENT)
        agent_step(m, [0, 1, 5, 6])
        # Certain quiescence for normals, certain recovery otherwise.
        assert m.state[:2].tolist() == [QUIESCENT, QUIESCENT]
        assert m.state[5:7].tolist() == [DEAD, NORMAL]
        assert m.state_counts() == _tally(m) == (27, 2, 0, 1)

    def test_array_step_only_when_enough_cells_act(self, monkeypatch):
        calls = []
        array_step = tumor_model._array_step

        def counting(model, ids, u):
            calls.append(len(ids))
            array_step(model, ids, u)

        monkeypatch.setattr(tumor_model, "_array_step", counting)
        monkeypatch.setattr(tumor_model, "_ARRAY_MIN", 20)
        m = _model()
        agent_step(m, list(range(19)))
        assert calls == []
        agent_step(m, list(range(20)))
        assert calls == [20]
        live = len(m.live_ids())
        assert live >= 20
        step(m)  # every live cell acts
        assert calls == [20, live]

    def test_register_spawned_agent(self):
        m = _model()
        child = spawn_cell(m, 0)
        assert child == 30
        assert m.state[child] == NORMAL
        assert m.state_counts()[0] == 31
        assert m.live_ids()[-1] == child


class TestAgentStep:
    def test_dead_agent_rejected(self):
        m = _model()
        _set_state(m, 0, DEAD)
        with pytest.raises(ValueError, match="cell 0 is dead"):
            agent_step(m, [0])
        with pytest.raises(ValueError):
            agent_step(m, [1, 0, 2])

    @pytest.mark.parametrize("array_min", [1, 2**62])
    def test_first_dead_cell_in_activation_order_rejected(self, monkeypatch, array_min):
        # Cells 0-4 are certain to spawn, yet nothing changes: not the
        # states, the counts, the graph or the growth stream.
        monkeypatch.setattr(tumor_model, "_ARRAY_MIN", array_min)
        m = _model(spawn_rate=1.0, factors=ControlFactors(1.0, 0.0, 0.5))
        for i in range(5):
            _set_state(m, i, METASTATIC)
        _set_state(m, 7, DEAD)
        _set_state(m, 12, DEAD)
        before = m.state.tolist(), m.state_counts(), copy.deepcopy(m.graph)
        growth = m._growth_rng.bit_generator.state
        with pytest.raises(ValueError, match="cell 12 is dead"):
            agent_step(m, [0, 1, 2, 3, 4, 20, 12, 5, 7, 6])
        assert (m.state.tolist(), m.state_counts(), m.graph) == before
        assert m._growth_rng.bit_generator.state == growth

    def test_uniforms_on_the_thresholds(self, monkeypatch):
        # Each threshold, and the float just below it, as the uniform of a
        # cell whose rule compares against it: "with probability x" holds
        # for u < x, so u == x takes the next rule. Node 30 is isolated, so
        # its metastasis threshold t2 equals q_eff. The metastatic cells act
        # last, so no cell whose rule reads its degree acts after a spawn.
        class Uniforms:
            def __init__(self, u):
                self.u = np.array(u)

            def random(self, size):
                assert size == len(self.u)
                return self.u

        def below(x):
            return float(np.nextafter(x, 0.0))

        cfg = _config(factors=ControlFactors(0.4, 0.3, 0.6), allow_below_threshold=True)
        graph = grow(init_model(cfg).graph, 1)
        models = []
        for array_min in (1, 2**62):
            monkeypatch.setattr(tumor_model, "_ARRAY_MIN", array_min)
            m = tumor_model.Model(cfg, copy.deepcopy(graph), RngStream(cfg.seed))
            models.append(m)
            for i in (20, 21):
                _set_state(m, i, QUIESCENT)
            for i in range(22, 26):
                _set_state(m, i, METASTATIC)
            m._thresholds(int(m.graph.degrees.max()))
            rows, size = m._rows, len(m._rows) // 3
            q_eff, (recovery, spawn_below) = rows[0][0], rows[2 * size][:2]
            t2, t3 = zip(*(rows[m.graph.degrees[cell]][1:] for cell in range(6)))
            assert all(q_eff < t2[cell] < t3[cell] for cell in range(6))
            assert m.graph.degrees[30] == 0 and rows[0][1] == q_eff
            cases = [  # (cell, uniform, state after)
                (0, below(q_eff), QUIESCENT), (1, q_eff, METASTATIC),
                (2, below(t2[2]), METASTATIC), (3, t2[3], DEAD),
                (4, below(t3[4]), DEAD), (5, t3[5], NORMAL),
                (30, q_eff, DEAD),
                (20, below(recovery), NORMAL), (21, recovery, QUIESCENT),
                (22, below(recovery), DEAD), (23, recovery, METASTATIC),
                (24, below(spawn_below), METASTATIC), (25, spawn_below, METASTATIC),
            ]
            ids, u, expected = zip(*cases)
            m._trans_rng = Uniforms(u)
            agent_step(m, list(ids))
            assert m.state[list(ids)].tolist() == list(expected)
            # Cells 23 and 24 spawn; 22 dies first and 25 draws too high.
            assert m.graph.n_nodes == 33
            assert 23 in m.graph.neighbors(31) and 24 in m.graph.neighbors(32)
            assert m.state_counts() == _tally(m)
        arrays, loop = models
        assert arrays.state.tolist() == loop.state.tolist()
        assert arrays.graph == loop.graph

    def test_consumes_exactly_one_uniform(self):
        # One uniform per activation, whatever the state or outcome, and
        # spawning draws from its own stream.
        for factors in (ControlFactors(0.0, 0.0, 0.0), ControlFactors(1.0, 0.0, 0.5)):
            m = _model(factors=factors, apoptosis_rate=0.0, spawn_rate=1.0)
            _set_state(m, 1, QUIESCENT)
            _set_state(m, 2, METASTATIC)
            ref = copy.deepcopy(m._trans_rng)
            for ids in ([0], [1], [2], [0, 1, 2], list(range(30))):
                agent_step(m, ids)
                ref.random(len(ids))
                assert m._trans_rng.random() == ref.random()
            assert (len(m.state) > 30) == (factors.angiogenesis > 0)

    def test_full_recovery_clears_metastatic(self):
        m = _model(factors=ControlFactors(0.4, 1.0, 0.5))
        for i in range(10):
            _set_state(m, i, METASTATIC)
        agent_step(m, list(range(10)))
        assert m.state[:10].tolist() == [DEAD] * 10

    def test_full_recovery_wakes_quiescent(self):
        m = _model(factors=ControlFactors(0.4, 1.0, 0.5))
        for i in range(10):
            _set_state(m, i, QUIESCENT)
        agent_step(m, list(range(10)))
        assert m.state[:10].tolist() == [NORMAL] * 10

    def test_zero_recovery_keeps_quiescent(self):
        m = _model(factors=ControlFactors(0.0, 0.0, 0.5))
        for i in range(10):
            _set_state(m, i, QUIESCENT)
        agent_step(m, list(range(10)))
        assert m.state[:10].tolist() == [QUIESCENT] * 10

    def test_certain_quiescence(self):
        # quiescence 1 and angiogenesis 0 make the first threshold 1.
        m = _model(factors=ControlFactors(0.0, 0.3, 1.0))
        agent_step(m, list(range(10)))
        assert m.state[:10].tolist() == [QUIESCENT] * 10

    def test_no_metastasis_without_angiogenesis(self):
        m = _model(factors=ControlFactors(0.0, 0.3, 0.5), apoptosis_rate=0.0)
        for _ in range(200):
            agent_step(m, m.live_ids())
        assert m.state_counts()[2] == 0

    def test_all_zero_rates_freeze_normals(self):
        m = _model(factors=ControlFactors(0.0, 0.0, 0.0), apoptosis_rate=0.0)
        for _ in range(50):
            agent_step(m, list(range(30)))
        assert m.state_counts() == (30, 0, 0, 0)

    def test_saturated_metastasis(self):
        # angiogenesis 1, quiescence 0: m_eff = min(1, beta*deg/K) = 1 on a
        # complete graph with deg >= K, so every normal cell converts.
        m = _model(n_initial=10, p=1.0, K=4,
                   factors=ControlFactors(1.0, 0.0, 0.0), metastasis_rate=0.5)
        agent_step(m, list(range(10)))
        assert m.state_counts()[2] == 10

    def test_isolated_node_cannot_metastasize(self):
        cfg = _config(n_initial=5, p=0.9, K=4, allow_below_threshold=True,
                      factors=ControlFactors(1.0, 0.0, 0.0), apoptosis_rate=0.0)
        graph = init_model(cfg).graph
        lone = graph.n_nodes
        grow(graph, 1)
        m = tumor_model.Model(cfg, graph, RngStream(cfg.seed))
        assert m.state_counts() == (6, 0, 0, 0)
        for _ in range(100):
            agent_step(m, [lone])
        assert m.state[lone] == NORMAL

    def test_empty_step_is_a_no_op(self):
        m = _model(spawn_rate=1.0, factors=ControlFactors(1.0, 0.0, 0.5))
        _set_state(m, 0, METASTATIC)
        _set_state(m, 1, QUIESCENT)
        before = m.state.tolist(), m.state_counts(), copy.deepcopy(m.graph)
        streams = m._trans_rng.bit_generator.state, m._growth_rng.bit_generator.state
        agent_step(m, [])
        assert (m.state.tolist(), m.state_counts(), m.graph) == before
        assert (m._trans_rng.bit_generator.state, m._growth_rng.bit_generator.state) == streams

    def test_degree_read_when_the_cell_acts(self, monkeypatch):
        # Cells 0 and 1 start isolated, and at degree 0 cell 1 cannot
        # metastasize. Cell 0 acts first and certainly spawns a node linked
        # to both, so cell 1 acts at degree 1, where it metastasizes with
        # probability 1/2. Both step paths: cell by cell, and as arrays.
        for array_min in (3, 2):
            monkeypatch.setattr(tumor_model, "_ARRAY_MIN", array_min)
            outcomes = set()
            for seed in range(20):
                m = _model(n_initial=2, p=0.0, K=2, allow_below_threshold=True, seed=seed,
                           spawn_rate=1.0, metastasis_rate=1.0, apoptosis_rate=0.0,
                           factors=ControlFactors(1.0, 0.0, 0.0))
                _set_state(m, 0, METASTATIC)
                agent_step(m, [0, 1])
                assert m.graph.degrees[1] == 1
                outcomes.add(int(m.state[1]))
            assert outcomes == {NORMAL, METASTATIC}


class TestThresholdTable:
    UNIT = st.floats(0.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(factors=st.builds(ControlFactors, UNIT, UNIT, UNIT), K=st.integers(1, 10),
           rates=st.tuples(UNIT, UNIT, UNIT), size=st.integers(1, 64))
    @example(factors=ControlFactors(0.0, 0.0, 0.0), K=1, rates=(0.0, 0.0, 0.0), size=1)
    @example(factors=ControlFactors(1.0, 1.0, 1.0), K=1, rates=(1.0, 1.0, 1.0), size=8)
    @example(factors=ControlFactors(1.0, 0.0, 0.0), K=4, rates=(1.0, 1.0, 1.0), size=16)
    def test_rows_ascend_and_match_the_columns(self, factors, K, rates, size):
        rows, a, b, c = tumor_model._threshold_table(factors, K, *rates, size)
        assert len(rows) == 3 * size
        # bisect_right in the cell loop and the array step's count both
        # rely on every row ascending.
        assert all(t1 <= t2 <= t3 for t1, t2, t3 in rows)
        # Only a normal cell's t2 and t3 depend on its degree.
        assert {row[0] for row in rows[:size]} == {rows[0][0]}
        assert set(rows[size:2 * size]) == {(factors.recovery, 2.0, 2.0)}
        metastatic = set(rows[2 * size:])
        assert len(metastatic) == 1 and metastatic.pop()[::2] == (factors.recovery, 2.0)
        # The 2.0 sentinels lie above every uniform, up to the largest
        # random() returns, so codes 6, 7 and 11 do not occur.
        top = float(np.nextafter(1.0, 0.0))
        codes = {4 * (k // size) + bisect_right(row, top) for k, row in enumerate(rows)}
        assert not codes & {6, 7, 11}
        # The array step's columns are the rows'.
        for column, values in zip((a, b, c), zip(*rows)):
            assert column.tolist() == list(values)
            assert not column.flags.writeable


class TestSpawning:
    def test_forced_spawn_mechanics(self):
        m = _model(n_initial=20, p=0.3, K=4, spawn_rate=1.0,
                   factors=ControlFactors(1.0, 0.0, 0.5))
        _set_state(m, 0, METASTATIC)
        n_before = m.graph.n_nodes
        agent_step(m, [0])
        assert m.graph.n_nodes == len(m.state) == n_before + 1
        child = n_before
        assert m.state[child] == NORMAL
        assert m.state_counts() == _tally(m)
        assert 0 in m.graph.neighbors(child)
        assert m.graph.degrees[child] == 4  # anchor + K-1 extras

    def test_loop_step_spawns_in_one_batch(self, monkeypatch):
        # A step of 10 cells, 5 of them metastatic and certain to spawn, runs
        # the cell loop; its spawns still take one add_nodes_linked call.
        calls = Counter()
        for name in ("add_node_linked", "add_nodes_linked"):
            def counting(*args, _name=name, _call=getattr(graph_core, name)):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(graph_core, name, counting)
        m = _model(n_initial=20, p=0.3, K=4, spawn_rate=1.0,
                   factors=ControlFactors(1.0, 0.0, 0.5))
        for i in range(5):
            _set_state(m, i, METASTATIC)
        agent_step(m, list(range(10)))
        assert m.graph.n_nodes == 25
        assert calls == {"add_nodes_linked": 1}

    def test_spawn_counts_new_links_for_later_cells_only(self, monkeypatch):
        # First case, K = 12: K - 1 extras against at most 10 nodes, so
        # every new node links to every older one and no growth draw decides
        # the edges. Nodes 2, 4 and 5 act in the first call and not the
        # second, where new nodes 8 and 9 link to them; node 9 also links to
        # node 8, appended in the same batch.
        # Second case, K = 4: with _REJECTION_POOL_MIN at 1, each new node
        # draws its 3 extras by rejection, the regime of connected_500's
        # batches. At seed 0 the extras land, in each call, on cells that
        # act later than the parent, earlier, and not at all.
        for K, pool_min in ((12, graph_core._REJECTION_POOL_MIN), (4, 1)):
            monkeypatch.setattr(graph_core, "_REJECTION_POOL_MIN", pool_min)
            m = _model(n_initial=6, p=1.0, K=K, seed=0)
            for ids, spawners in (([4, 0, 2, 5, 1], [1, 3]), ([3, 1, 6, 0], [0, 2])):
                n0, m0 = m.graph.n_nodes, m.graph.n_edges
                got = tumor_model._spawn(m, np.array(ids), np.array(spawners))
                assert m.graph.n_nodes == n0 + len(spawners)
                # New edge (u, v) counts for u iff u acts after v's parent.
                act_at = {c: k for k, c in enumerate(ids)}
                want = [0] * len(ids)
                for u, v in zip(*(a[m0:].tolist() for a in m.graph._endpoints())):
                    if act_at.get(u, -1) > spawners[v - n0]:
                        want[act_at[u]] += 1
                assert got.tolist() == want
                assert 0 < sum(want) < m.graph.n_edges - m0

    def test_spawn_cell_degree_clamped(self):
        m = _model(n_initial=2, p=1.0, K=6)
        child = spawn_cell(m, 0)
        # Only 1 other prior node exists beyond the anchor.
        assert m.graph.degrees[child] == 2

    def test_zero_spawn_when_angiogenesis_zero(self):
        m = _model(factors=ControlFactors(0.0, 0.0, 0.5), spawn_rate=1.0)
        for i in range(30):
            _set_state(m, i, METASTATIC)
        for _ in range(100):
            agent_step(m, list(range(30)))
        assert m.graph.n_nodes == 30


# Random run configs: TestMatchesReference's strategy, shared by TestRunProperties.
RUNS = dict(
    n=st.integers(20, 300),
    K=st.integers(3, 8),
    density=st.floats(0.5, 3.0),
    factors=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    rates=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 50),
)


def _run_config(n, K, density, factors, rates, seed):
    return ModelConfig(
        n_initial=n,
        K=K,
        p=min(1.0, density * connectivity_threshold(n)),
        factors=ControlFactors(*factors),
        spawn_rate=rates[0],
        metastasis_rate=rates[1],
        apoptosis_rate=rates[2],
        seed=seed,
        allow_below_threshold=True,
    )


def _stepped(steps, **strategy_values):
    """Step a fresh model of one RUNS config, yielding it after each step."""
    m = init_model(_run_config(**strategy_values))
    for _ in range(steps):
        step(m)
        yield m
        # Growth can be exponential; the run has made its point.
        if m.graph.n_nodes > 3000 or not len(m.live_ids()):
            break


# Step 2 is an array step of 267 cells in which spawned cells link to 46
# normal cells that act later in the step, and the state and degree arrays
# grow while it runs.
SPAWN_LINKS_A_LATER_CELL = dict(
    n=267, K=7, density=2.5198519743412344,
    factors=(0.6607278927294994, 0.08574041402644247, 0.026965351190828213),
    rates=(0.5683582165498627, 0.526778564335999, 0.0022637596951222585),
    seed=4360884, steps=2,
)
# 20 cells grow to over 3000 in 15 steps, doubling the arrays from 20 slots
# to 5120, first in cell-by-cell steps and then in array steps.
CROSSES_CAPACITY_GROWTHS = dict(
    n=20, K=3, density=2.0, factors=(0.9, 0.05, 0.1), rates=(0.9, 0.5, 0.01), seed=0, steps=50,
)


class TestMatchesReference:
    """The flat model against the per-object reference in reference_model."""

    @settings(max_examples=100, deadline=None)
    @given(**RUNS)
    # fig4's n=360 cell at angiogenesis 0.4 with its derived density 4/359,
    # which the product rounds back to: an all-normal, disconnected start.
    @example(n=360, K=4, density=(4 / 359) / connectivity_threshold(360),
             factors=(0.4, 0.3, 0.5), rates=(0.25, 0.5, 0.01), seed=402, steps=50)
    @example(**SPAWN_LINKS_A_LATER_CELL)
    @example(**CROSSES_CAPACITY_GROWTHS)
    def test_same_records_every_step(self, n, K, density, factors, rates, seed, steps):
        self._check(n, K, density, factors, rates, seed, steps)

    @settings(max_examples=50, deadline=None)
    @given(**RUNS)
    @example(**SPAWN_LINKS_A_LATER_CELL)
    @example(**CROSSES_CAPACITY_GROWTHS)
    def test_same_records_with_batched_spawns(self, **run):
        # From 9 nodes on, the array steps spawn through add_nodes_linked's batch.
        with mock.patch.object(graph_core, "_REJECTION_POOL_MIN", 8):
            self._check(**run)

    @staticmethod
    def _check(n, K, density, factors, rates, seed, steps):
        config = _run_config(n, K, density, factors, rates, seed)
        flat, ref = init_model(config), ReferenceModel(config)
        for _ in range(steps):
            assert step(flat) == step(ref)
            # Growth can be exponential; the comparison has made its point.
            if flat.graph.n_nodes > 3000 or not len(flat.live_ids()):
                break
        assert flat.graph == ref.graph
        assert flat.state.tolist() == [a.state.value for a in ref.agents]


class TestStepPaths:
    """The array step against the cell loop, over TestMatchesReference's configs."""

    @settings(max_examples=60, deadline=None)
    @given(**RUNS)
    @example(**SPAWN_LINKS_A_LATER_CELL)
    @example(**CROSSES_CAPACITY_GROWTHS)
    def test_array_and_loop_steps_agree(self, n, K, density, factors, rates, seed, steps):
        self._check(n, K, density, factors, rates, seed, steps)

    @settings(max_examples=60, deadline=None)
    @given(**RUNS)
    @example(**SPAWN_LINKS_A_LATER_CELL)
    @example(**CROSSES_CAPACITY_GROWTHS)
    def test_array_and_loop_steps_agree_with_batched_spawns(self, **run):
        # From 9 nodes on, the spawns of both step paths rejection-sample in
        # add_nodes_linked's batch, so their draws collide often.
        with mock.patch.object(graph_core, "_REJECTION_POOL_MIN", 8):
            self._check(**run)

    @staticmethod
    def _check(n, K, density, factors, rates, seed, steps):
        config = _run_config(n, K, density, factors, rates, seed)
        arrays, loop = init_model(config), init_model(config)
        for _ in range(steps):
            with mock.patch.object(tumor_model, "_ARRAY_MIN", 1):
                record = step(arrays)
            with mock.patch.object(tumor_model, "_ARRAY_MIN", 2**62):
                assert step(loop) == record
            assert arrays.graph == loop.graph
            assert arrays.state.tolist() == loop.state.tolist()
            if arrays.graph.n_nodes > 3000 or not record.count_live:
                break


class TestRunProperties:
    """Invariants over TestMatchesReference's configs; a step of at least
    _ARRAY_MIN cells is an array step, a smaller one the cell loop."""

    @settings(max_examples=50, deadline=None)
    @given(**RUNS)
    def test_counts_partition_population(self, **run):
        for m in _stepped(**run):
            record = m.records[-1]
            assert m.state_counts() == _tally(m)
            total = (record.normal + record.quiescent
                     + record.metastatic + record.dead)
            assert total == record.n_nodes == len(m.state)

    @settings(max_examples=50, deadline=None)
    @given(**RUNS)
    def test_dead_is_absorbing(self, **run):
        dead_seen = set()
        for m in _stepped(**run):
            for agent_id in dead_seen:
                assert m.state[agent_id] == DEAD
            dead_seen.update(i for i, s in enumerate(m.state.tolist()) if s == DEAD)

    @settings(max_examples=50, deadline=None)
    @given(**RUNS)
    def test_node_count_non_decreasing(self, **run):
        prev = run["n"]
        for m in _stepped(**run):
            assert m.records[-1].n_nodes == m.graph.n_nodes >= prev
            prev = m.graph.n_nodes

    @settings(max_examples=30, deadline=None)
    @given(**RUNS)
    def test_connected_stays_connected(self, **run):
        # Every spawned node links to its parent, so a connected graph stays
        # so; networkx is the oracle for the degrees and the connectivity.
        seen_connected = False
        for m in _stepped(**run):
            g = as_networkx(m.graph)
            assert [d for _, d in sorted(g.degree())] == m.graph.degrees.tolist()
            connected = nx.is_connected(g)
            assert connected or not seen_connected
            seen_connected = connected

    def test_zero_angiogenesis_freezes_nodes_and_metastatic(self):
        for seed in range(5):
            cfg = _config(n_initial=60, p=0.12, seed=seed,
                          factors=ControlFactors(0.0, 0.3, 0.5))
            series = run(init_model(cfg), 60)
            assert all(r.n_nodes == 60 for r in series.records)
            assert all(r.metastatic == 0 for r in series.records)

    def test_run_is_deterministic(self):
        a = run(init_model(_config(n_initial=80, p=0.1, seed=12)), 30)
        b = run(init_model(_config(n_initial=80, p=0.1, seed=12)), 30)
        assert a.records == b.records
        assert a.termination == b.termination


class TestStochasticMonotonicity:
    def test_metastatic_count_rises_with_angiogenesis(self):
        angs = [round(0.1 * i, 1) for i in range(1, 10)]
        means = []
        for ang in angs:
            finals = []
            for seed in range(30):
                cfg = ModelConfig(n_initial=100, p=0.1, K=4, seed=seed,
                                  factors=ControlFactors(ang, 0.3, 0.5))
                series = run(init_model(cfg), 10)
                finals.append(series.records[-1].metastatic)
            means.append(statistics.fmean(finals))
        rho = spearmanr(angs, means).statistic
        assert rho > 0.8

    def test_metastatic_count_falls_with_recovery(self):
        means = []
        for rec in (0.1, 0.3, 1.0):
            finals = []
            for seed in range(30):
                cfg = ModelConfig(n_initial=100, p=0.1, K=4, seed=seed,
                                  factors=ControlFactors(0.4, rec, 0.5))
                series = run(init_model(cfg), 30)
                finals.append(series.records[-1].metastatic)
            means.append(statistics.fmean(finals))
        assert means[0] >= means[1] >= means[2]
        assert means[0] > means[2]  # the effect must be visible, not a tie


class TestRuleOracle:
    """Two steps of a large start against the README's transition rules.

    tests/reference_model.py restates tumor_model's rules, so it cannot
    catch a rule that differs from the README; these shares are checked
    against the README's formulas instead. Each count must lie in the
    central 1 - 1e-6 interval of its binomial, with p from the README.
    """

    F = ControlFactors(angiogenesis=0.8, recovery=0.3, quiescence=0.5)
    # Mean degree 12 against K = 8: m_eff = 0.8 * d / 8 reaches 1 at degree
    # 10, so buckets lie on both sides of the cap. 24,000 cells are past
    # DENSE_SAMPLER_LIMIT, where the gap sampler draws the graph.
    CONFIG = ModelConfig(n_initial=24_000, p=12 / 23_999, K=8, factors=F, spawn_rate=0.25,
                         metastasis_rate=1.0, apoptosis_rate=0.2, seed=5)

    @staticmethod
    def _misses(checks):
        """The (name, count, n, p) checks whose count lies outside its interval."""
        misses = []
        for name, count, n, p in checks:
            low, high = binom.interval(1 - 1e-6, n, p)
            if not low <= count <= high:
                misses.append((name, count, n, p))
        return misses

    def test_two_steps_follow_the_readme(self):
        cfg, f = self.CONFIG, self.F
        assert cfg.n_initial > graph_core.DENSE_SAMPLER_LIMIT
        m = init_model(cfg)
        n = m.graph.n_nodes
        deg = m.graph.degrees.copy()

        # Step 1: every cell is normal, so none spawns, and each acts at its
        # start degree.
        step(m)
        assert m.graph.n_nodes == n
        after = m.state.copy()
        q = f.quiescence * (1 - f.angiogenesis)
        checks = []
        for d in np.unique(deg).tolist():
            bucket = after[deg == d]
            m_eff = min(1.0, f.angiogenesis * cfg.metastasis_rate * d / cfg.K)
            shares = {
                "quiescent": (QUIESCENT, q),
                "metastatic": (METASTATIC, (1 - q) * m_eff),
                "dead": (DEAD, (1 - q) * (1 - m_eff) * cfg.apoptosis_rate),
            }
            for name, (code, share) in shares.items():
                checks.append((f"degree {d} to {name}", int((bucket == code).sum()), len(bucket), share))
        assert self._misses(checks) == []

        # Step 2: metastatic cells die or spawn, quiescent ones wake.
        before = after
        meta, quiet = before == METASTATIC, before == QUIESCENT
        step(m)
        after = m.state
        spawned = m.graph.n_nodes - n
        assert set(after[:n][meta].tolist()) <= {METASTATIC, DEAD}
        assert set(after[:n][quiet].tolist()) <= {QUIESCENT, NORMAL}
        assert (after[n:] == NORMAL).all()
        checks = [
            ("metastatic die", int((after[:n][meta] == DEAD).sum()), int(meta.sum()), f.recovery),
            ("spawns", spawned, int(meta.sum()), (1 - f.recovery) * f.angiogenesis * cfg.spawn_rate),
            ("quiescent wake", int((after[:n][quiet] == NORMAL).sum()), int(quiet.sum()), f.recovery),
        ]
        assert self._misses(checks) == []

        # Every spawned node has K edges to older nodes, one of them to a
        # parent that was metastatic before the step and still is.
        lo, hi = m.graph._endpoints()
        new = hi >= n
        lo, child = lo[new], hi[new] - n
        assert np.bincount(child, minlength=spawned).tolist() == [cfg.K] * spawned
        stayed = np.zeros(m.graph.n_nodes, dtype=bool)
        stayed[:n] = meta & (after[:n] == METASTATIC)
        assert (np.bincount(child, weights=stayed[lo], minlength=spawned) >= 1).all()
