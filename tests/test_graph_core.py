"""Graph structure, generators, and serialization."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumornet.engine import RngStream
from tumornet.graph_core import (
    DegreeSequence,
    EdgeProbability,
    Graph,
    add_node_linked,
    connectivity_threshold,
    degree_sequence,
    from_edge_list,
    generate_er,
    generate_er_skip,
    is_connected,
    linked_since,
    to_edge_list,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _triangle():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


def _path(n):
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def _star(n):
    g = Graph(n)
    for i in range(1, n):
        g.add_edge(0, i)
    return g


class TestGraph:
    def test_empty(self):
        g = Graph()
        assert g.n_nodes == 0
        assert g.n_edges == 0

    def test_add_node_returns_dense_ids(self):
        g = Graph()
        assert [g.add_node() for _ in range(4)] == [0, 1, 2, 3]

    def test_add_edge_symmetry(self):
        g = Graph(3)
        g.add_edge(0, 2)
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert g.n_edges == 1
        assert g.degree(0) == 1 and g.degree(2) == 1 and g.degree(1) == 0

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        g = Graph(2)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(1, 0)

    def test_unknown_node_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 5)
        with pytest.raises(ValueError):
            g.degree(-1)

    def test_neighbors_is_a_copy(self):
        g = Graph(2)
        g.add_edge(0, 1)
        g.neighbors(0).clear()
        assert g.has_edge(0, 1)

    def test_edges_sorted(self):
        g = Graph(4)
        g.add_edge(2, 3)
        g.add_edge(0, 3)
        g.add_edge(0, 1)
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_equality(self):
        assert _triangle() == _triangle()
        assert _triangle() != _path(3)


class TestGenerateEr:
    def test_p_zero_gives_empty_edge_set(self):
        g = generate_er(10, 0.0, _rng(123))
        assert g.n_nodes == 10
        assert g.n_edges == 0

    def test_p_one_gives_complete_graph(self):
        g = generate_er(5, 1.0, _rng(99))
        assert g.n_edges == 10
        assert all(g.degree(i) == 4 for i in range(5))

    def test_seeded_edge_count_band(self):
        # Binomial oracle: mean 4995, sigma about 70.3, +-3 sigma band.
        g = generate_er(1000, 0.01, RngStream(42).substream("graph"))
        assert 4784 <= g.n_edges <= 5206

    def test_same_seed_same_graph(self):
        a = generate_er(200, 0.05, _rng(7))
        b = generate_er(200, 0.05, _rng(7))
        assert a == b
        assert to_edge_list(a) == to_edge_list(b)

    def test_single_node(self):
        g = generate_er(1, 0.5, _rng(0))
        assert g.n_nodes == 1 and g.n_edges == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_er(0, 0.5, _rng(0))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            generate_er(5, 1.5, _rng(0))
        with pytest.raises(ValueError):
            generate_er(5, -0.1, _rng(0))


class TestGenerateErSkip:
    def test_p_zero_and_one(self):
        assert generate_er_skip(10, 0.0, _rng(1)).n_edges == 0
        assert generate_er_skip(6, 1.0, _rng(1)).n_edges == 15

    def test_determinism(self):
        a = generate_er_skip(500, 0.01, _rng(11))
        b = generate_er_skip(500, 0.01, _rng(11))
        assert a == b

    def test_no_self_loops_or_duplicates(self):
        g = generate_er_skip(300, 0.02, _rng(5))
        seen = set()
        for i, j in g.edges():
            assert i < j
            assert (i, j) not in seen
            seen.add((i, j))
        assert len(seen) == g.n_edges

    def test_mean_edge_count_matches_binomial_oracle(self):
        # Distribution equivalence with the pairwise sampler, checked
        # against the shared binomial mean rather than bitwise output.
        n, p, seeds = 2000, 0.002, 30
        expected = p * n * (n - 1) / 2
        sigma = math.sqrt(expected * (1 - p))
        counts = [generate_er_skip(n, p, _rng(1000 + s)).n_edges for s in range(seeds)]
        mean = sum(counts) / seeds
        assert abs(mean - expected) < 4 * sigma / math.sqrt(seeds)


class TestConnectivity:
    def test_threshold_values(self):
        assert connectivity_threshold(1) == 0.0
        assert abs(connectivity_threshold(100) - 0.046052) < 1e-6
        assert abs(connectivity_threshold(1000) - 0.0069078) < 1e-7

    def test_threshold_invalid_size(self):
        with pytest.raises(ValueError):
            connectivity_threshold(0)

    def test_singleton_is_connected(self):
        assert is_connected(Graph(1))

    def test_two_isolated_nodes(self):
        assert not is_connected(Graph(2))

    def test_path_is_connected(self):
        assert is_connected(_path(4))

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            is_connected(Graph(0))

    def test_monte_carlo_threshold_bands(self):
        n, seeds = 200, 200
        p_hi = 2 * connectivity_threshold(n)
        p_lo = 0.5 * connectivity_threshold(n)
        hi = sum(is_connected(generate_er(n, p_hi, _rng(s))) for s in range(seeds))
        lo = sum(is_connected(generate_er(n, p_lo, _rng(10_000 + s))) for s in range(seeds))
        assert hi >= 0.95 * seeds
        assert lo <= 0.50 * seeds


def _verdict(g, known):
    """The engine's per-step check: the incremental proof, else a full search."""
    return linked_since(g, known) or is_connected(g)


def _apply(g, op, data, rng):
    n = g.n_nodes
    if op == "node":
        g.add_node()
    elif op == "linked":
        anchor = data.draw(st.integers(0, n - 1))
        add_node_linked(g, anchor, data.draw(st.integers(0, 3)), rng)
    else:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j and not g.has_edge(i, j):
            g.add_edge(i, j)


def _nx_connected(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(g.edges())
    return nx.is_connected(h)


class TestLinkedSince:
    def test_nothing_known_is_never_a_proof(self):
        assert not linked_since(_path(4), 0)

    def test_new_nodes_with_older_neighbors(self):
        g = _path(3)
        add_node_linked(g, 1, 0, _rng(0))
        g.add_node()
        g.add_edge(4, 3)
        assert linked_since(g, 3)

    def test_isolated_new_node(self):
        g = _path(3)
        g.add_node()
        assert not linked_since(g, 3)
        assert linked_since(g, 4)

    def test_new_node_linked_only_to_a_newer_one(self):
        g = _path(3)
        g.add_node()
        g.add_node()
        g.add_edge(3, 4)
        g.add_edge(4, 0)
        assert not linked_since(g, 3)
        assert is_connected(g)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 6),
        edge_bits=st.integers(0, 2**15 - 1),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_verdict_matches_networkx_across_batches(self, n, edge_bits, seed, data):
        g = Graph(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bit, (i, j) in enumerate(pairs):
            if edge_bits >> bit & 1:
                g.add_edge(i, j)
        rng = _rng(seed)
        known = 0
        batches = data.draw(
            st.lists(st.lists(st.sampled_from(["node", "linked", "edge"]), max_size=5), max_size=6)
        )
        for batch in [[]] + batches:
            for op in batch:
                _apply(g, op, data, rng)
            connected = _verdict(g, known)
            assert connected == _nx_connected(g)
            if connected:
                known = g.n_nodes


class TestDegreeSequence:
    def test_triangle(self):
        ds = degree_sequence(_triangle())
        assert ds.degrees == [2, 2, 2]
        assert ds.edge_count == 3

    def test_path4(self):
        ds = degree_sequence(_path(4))
        assert ds.degrees == [1, 2, 2, 1]
        assert ds.edge_count == 3

    def test_star5(self):
        ds = degree_sequence(_star(5))
        assert ds.degrees == [4, 1, 1, 1, 1]
        assert ds.edge_count == 4

    def test_handshake_on_random_graphs(self):
        rng = _rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            p = float(rng.random())
            g = generate_er(n, p, rng)
            ds = degree_sequence(g)
            assert sum(ds.degrees) % 2 == 0
            assert ds.edge_count == g.n_edges

    def test_dataclass_shape(self):
        assert DegreeSequence([1, 1]).edge_count == 1


class TestEdgeProbability:
    def test_for_size(self):
        ep = EdgeProbability.for_size(0.05, 100)
        assert ep.p == 0.05
        assert abs(ep.p_star - 0.046052) < 1e-6
        assert ep.above_threshold

    def test_below(self):
        assert not EdgeProbability.for_size(0.001, 100).above_threshold

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            EdgeProbability(1.5, 0.1)


class TestAddNodeLinked:
    def test_singleton_anchor(self):
        g = Graph(1)
        new = add_node_linked(g, 0, 0, _rng(0))
        assert new == 1
        assert g.degree(0) == 1 and g.degree(1) == 1

    def test_anchor_degree_increases_by_one(self):
        g = generate_er(30, 0.2, _rng(3))
        before = g.degree(4)
        add_node_linked(g, 4, 0, _rng(4))
        assert g.degree(4) == before + 1

    def test_clamp(self):
        g = Graph(3)
        new = add_node_linked(g, 0, 10, _rng(1))
        assert g.degree(new) == 3

    def test_unknown_anchor(self):
        with pytest.raises(ValueError):
            add_node_linked(Graph(2), 7, 1, _rng(0))

    def test_negative_k_extra(self):
        with pytest.raises(ValueError):
            add_node_linked(Graph(2), 0, -1, _rng(0))

    def test_fuzz_no_self_loops_or_duplicates(self):
        rng = _rng(555)
        g = generate_er(20, 0.1, rng)
        for _ in range(300):
            anchor = int(rng.integers(0, g.n_nodes))
            k_extra = int(rng.integers(0, 6))
            new = add_node_linked(g, anchor, k_extra, rng)
            nbrs = g.neighbors(new)
            assert new not in nbrs
            assert anchor in nbrs
            assert len(nbrs) == g.degree(new)
        ds = degree_sequence(g)
        assert ds.edge_count == g.n_edges

    def test_extra_neighbors_exclude_only_anchor(self):
        # With k_extra = n_before - 1 every non-anchor node must be chosen.
        g = Graph(5)
        new = add_node_linked(g, 2, 4, _rng(9))
        assert g.neighbors(new) == {0, 1, 2, 3, 4}

    def test_large_pool_sampling_is_valid(self):
        g = Graph(5000)
        rng = _rng(77)
        new = add_node_linked(g, 100, 3, rng)
        nbrs = g.neighbors(new)
        assert len(nbrs) == 4
        assert 100 in nbrs


class TestSerialization:
    def test_golden_text(self):
        g = Graph(3)
        g.add_edge(0, 2)
        g.add_edge(0, 1)
        assert to_edge_list(g) == "nodes=3\n0 1\n0 2\n"

    def test_round_trip(self):
        g = generate_er(60, 0.1, _rng(12))
        assert from_edge_list(to_edge_list(g)) == g

    def test_round_trip_isolated_nodes(self):
        g = Graph(4)
        g.add_edge(1, 3)
        assert from_edge_list(to_edge_list(g)) == g

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            from_edge_list("vertices=3\n")

    def test_bad_pair_line(self):
        with pytest.raises(ValueError, match="line 2"):
            from_edge_list("nodes=3\n0 1 2\n")

    def test_unordered_pair_rejected(self):
        with pytest.raises(ValueError, match="i < j"):
            from_edge_list("nodes=3\n2 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="line 3"):
            from_edge_list("nodes=3\n0 1\n0 1\n")
