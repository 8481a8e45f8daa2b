"""Run loop, scheduling, and rng stream behavior, tested with stub models."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_graph import grow
from tumornet import graph_core
from tumornet.engine import (
    TERM_DISCONNECTED,
    TERM_EXTINCT,
    TERM_MAX_STEPS,
    RngStream,
    StepRecord,
    TimeSeries,
    _words,
    collect,
    run,
    step,
)
from tumornet.graph_core import Graph, add_node_linked


class StubModel:
    """Minimal model: agents are (id, alive) pairs, activation logs order.

    on_activate(model, id), if set, runs for each agent as it acts.
    """

    def __init__(self, graph, n_agents, seed=0):
        self.graph = graph
        self.step_count = 0
        self.records = []
        self.schedule_rng = RngStream(seed).substream("schedule")
        self.alive = {i: True for i in range(n_agents)}
        self.activation_log = []
        self.activate_calls = 0
        self.on_activate = None

    def live_ids(self):
        return np.array(sorted(i for i, ok in self.alive.items() if ok), dtype=np.intp)

    def activate(self, ids):
        self.activate_calls += 1
        for agent_id in ids.tolist():
            self.activation_log.append((self.step_count, agent_id))
            if self.on_activate is not None:
                self.on_activate(self, agent_id)

    def state_counts(self):
        live = sum(self.alive.values())
        return (live, 0, 0, len(self.alive) - live)


def _connected_graph(n):
    return grow(Graph(), n, [(i, i + 1) for i in range(n - 1)])


class TestRngStream:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_same_label_same_stream(self):
        a = RngStream(5).substream("graph").random(8)
        b = RngStream(5).substream("graph").random(8)
        assert np.array_equal(a, b)

    def test_labels_are_independent(self):
        a = RngStream(5).substream("graph").random(8)
        b = RngStream(5).substream("schedule").random(8)
        assert not np.array_equal(a, b)

    def test_seeds_are_independent(self):
        a = RngStream(5).substream("graph").random(8)
        b = RngStream(6).substream("graph").random(8)
        assert not np.array_equal(a, b)


def reference_substream(seed, label):
    """RngStream.substream as first written: SeedSequence over the three ints."""
    key = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:16], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, 0, key]))


# Ints at the 32-bit word boundaries, where SeedSequence's word count changes.
_EDGE_INTS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**70)
_LABELS = st.sampled_from(["graph", "graph-skip", "schedule", "transitions", "growth"]) | st.text()


class TestSubstreamSeeding:
    @settings(max_examples=200, deadline=None)
    @given(seed=_EDGE_INTS, label=_LABELS)
    def test_matches_the_seed_sequence_of_the_ints(self, seed, label):
        got = RngStream(seed).substream(label)
        want = reference_substream(seed, label)
        assert got.bit_generator.state == want.bit_generator.state

    def test_words_drop_zero_high_words(self):
        assert _words(0) == [0]
        assert _words(5) == [5]
        assert _words(2**32 - 1) == [2**32 - 1]
        assert _words(2**32) == [0, 1]
        assert _words(7 << 64) == [0, 0, 7]
        assert _words(2**64 - 1) == [2**32 - 1, 2**32 - 1]

    @given(st.integers(0, 2**200))
    def test_words_rebuild_the_int(self, n):
        words = _words(n)
        assert sum(w << (32 * i) for i, w in enumerate(words)) == n
        assert all(0 <= w < 2**32 for w in words)
        assert words[-1] != 0 or words == [0]


class TestStepRecord:
    def test_count_live(self):
        r = StepRecord(0, 10, 20, 3, 2, 1, 4, 2.0)
        assert r.count_live == 6

    def test_frozen(self):
        r = StepRecord(0, 10, 20, 3, 2, 1, 4, 2.0)
        with pytest.raises(AttributeError):
            r.step = 1


class TestCollect:
    def test_snapshot_fields(self):
        m = StubModel(_connected_graph(4), n_agents=4)
        r = collect(m)
        assert r == StepRecord(0, 4, 3, 4, 0, 0, 0, 0.75)

    def test_does_not_mutate(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        collect(m)
        assert m.step_count == 0
        assert m.records == []
        assert m.activation_log == []


class TestStep:
    def test_every_live_agent_activated_once(self):
        m = StubModel(_connected_graph(5), n_agents=5)
        step(m)
        assert sorted(a for _, a in m.activation_log) == [0, 1, 2, 3, 4]
        assert m.activate_calls == 1

    def test_activation_order_is_the_schedule_permutation(self):
        m = StubModel(_connected_graph(6), n_agents=6, seed=17)
        m.alive[1] = False
        step(m)
        live = [0, 2, 3, 4, 5]
        order = RngStream(17).substream("schedule").permutation(len(live))
        assert [a for _, a in m.activation_log] == [live[k] for k in order]

    def test_dead_agents_skipped(self):
        m = StubModel(_connected_graph(5), n_agents=5)
        m.alive[2] = False
        step(m)
        assert sorted(a for _, a in m.activation_log) == [0, 1, 3, 4]

    def test_agents_spawned_mid_step_wait(self):
        m = StubModel(_connected_graph(4), n_agents=4)

        def spawn_once(model, agent_id):
            if agent_id == 0 and len(model.alive) == 4:
                model.alive[99] = True

        m.on_activate = spawn_once
        step(m)
        first = [a for s, a in m.activation_log if s == 0]
        assert 99 not in first
        step(m)
        second = [a for s, a in m.activation_log if s == 1]
        assert 99 in second

    def test_order_varies_but_set_does_not(self):
        m = StubModel(_connected_graph(6), n_agents=6)
        orders = []
        for expected_step in range(20):
            step(m)
            orders.append(tuple(a for s, a in m.activation_log if s == expected_step))
        assert all(sorted(o) == [0, 1, 2, 3, 4, 5] for o in orders)
        assert len(set(orders)) > 1

    def test_schedule_is_seed_deterministic(self):
        logs = []
        for _ in range(2):
            m = StubModel(_connected_graph(6), n_agents=6, seed=17)
            for _ in range(5):
                step(m)
            logs.append(m.activation_log)
        assert logs[0] == logs[1]

    def test_appends_record_and_advances_count(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        r = step(m)
        assert m.step_count == 1
        assert m.records == [r]
        assert r.step == 1

    def test_empty_live_set_still_steps(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        m.alive = {i: False for i in range(3)}
        r = step(m)
        assert r.count_live == 0
        assert m.activation_log == []
        assert m.activate_calls == 0


class TestRun:
    def test_zero_steps_single_record(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        series = run(m, max_steps=0)
        assert len(series.records) == 1
        assert series.records[0].step == 0
        assert series.termination == TERM_MAX_STEPS

    def test_max_steps_reached(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        series = run(m, max_steps=10)
        assert len(series.records) == 11
        assert [r.step for r in series.records] == list(range(11))
        assert series.termination == TERM_MAX_STEPS

    def test_extinction_stops_after_the_fatal_step(self):
        m = StubModel(_connected_graph(3), n_agents=3)

        def kill_all(model, agent_id):
            model.alive[agent_id] = False

        m.on_activate = kill_all
        series = run(m, max_steps=10)
        assert series.termination == TERM_EXTINCT
        assert len(series.records) == 2
        assert series.records[1].step == 1
        assert series.records[1].count_live == 0

    def test_disconnected_start_stops_at_step_one(self):
        series = run(StubModel(Graph(2), n_agents=2), max_steps=10)
        assert series.termination == TERM_DISCONNECTED
        assert len(series.records) == 2

    def test_disconnection_checked_before_extinction(self):
        m = StubModel(Graph(2), n_agents=2)

        def kill_all(model, agent_id):
            model.alive[agent_id] = False

        m.on_activate = kill_all
        series = run(m, max_steps=10)
        assert series.termination == TERM_DISCONNECTED

    # An even and an odd step: the run must check after every step that appends a node.
    @pytest.mark.parametrize("step", [2, 3])
    def test_isolated_node_after_connected_steps_disconnects(self, step):
        m = StubModel(_connected_graph(3), n_agents=3)

        def add_isolated_in_step(model, agent_id):
            if model.step_count == step - 1 and model.graph.n_nodes == 3:
                grow(model.graph, 1)

        m.on_activate = add_isolated_in_step
        series = run(m, max_steps=10)
        assert series.termination == TERM_DISCONNECTED
        assert len(series.records) == step + 1
        assert series.records[-1].step == step
        assert series.records[-1].n_nodes == 4

    def test_linked_growth_needs_one_full_search(self, monkeypatch):
        calls = []
        full_search = graph_core.is_connected

        def counting(g):
            calls.append(g.n_nodes)
            return full_search(g)

        monkeypatch.setattr(graph_core, "is_connected", counting)
        m = StubModel(_connected_graph(3), n_agents=3)
        rng = RngStream(0).substream("graph")

        def grow(model, agent_id):
            add_node_linked(model.graph, agent_id, 1, rng)

        m.on_activate = grow
        series = run(m, max_steps=50)
        assert series.termination == TERM_MAX_STEPS
        assert series.records[-1].n_nodes == 3 + 3 * 50
        assert calls == [6]

    def test_steps_that_append_no_node_run_no_check(self):
        m = StubModel(_connected_graph(4), n_agents=4)

        def add_an_edge_on_step_three(model, agent_id):
            if model.step_count == 2 and model.graph.n_edges == 3:
                grow(model.graph, pairs=[(0, 3)])

        m.on_activate = add_an_edge_on_step_three
        checks = []

        def at_step(check):
            def recorded(*args):
                checks.append((check.__name__, m.step_count))
                return check(*args)

            return recorded

        with mock.patch.object(graph_core, "linked_since", at_step(graph_core.linked_since)), mock.patch.object(
            graph_core, "is_connected", at_step(graph_core.is_connected)
        ):
            series = run(m, max_steps=10)
        assert series.termination == TERM_MAX_STEPS
        assert series.records[-1].n_edges == 4
        assert checks == [("linked_since", 1), ("is_connected", 1)]

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError):
            run(StubModel(_connected_graph(2), n_agents=2), max_steps=-1)

    def test_requires_fresh_model(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        step(m)
        with pytest.raises(ValueError):
            run(m, max_steps=5)

    def test_series_is_a_copy(self):
        m = StubModel(_connected_graph(3), n_agents=3)
        series = run(m, max_steps=2)
        series.records.clear()
        assert len(m.records) == 3

    def test_timeseries_defaults(self):
        ts = TimeSeries()
        assert ts.records == [] and ts.termination is None
