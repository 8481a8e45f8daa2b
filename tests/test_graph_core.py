"""Graph structure, generators, and connectivity."""

import math
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from reference_graph import as_networkx, generate_er_rowwise, generate_er_skip_scalar, grow
from reference_model import add_node_linked_checked
from tumornet import graph_core
from tumornet.engine import RngStream
from tumornet.graph_core import (
    DegreeSequence,
    Graph,
    add_node_linked,
    add_nodes_linked,
    connectivity_threshold,
    degree_sequence,
    generate_er,
    generate_er_skip,
    is_connected,
    linked_since,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _triangle():
    return grow(Graph(), 3, [(0, 1), (1, 2), (0, 2)])


def _path(n):
    return grow(Graph(), n, [(i, i + 1) for i in range(n - 1)])


def _star(n):
    return grow(Graph(), n, [(0, i) for i in range(1, n)])


def _edges(g):
    """g's edges as (lo, hi) pairs, lo < hi, in ascending order."""
    lo, hi = g._endpoints()
    return sorted(zip(lo.tolist(), hi.tolist()))


def _shuffled_path(n, rng):
    """The edges of a path through nodes 0..n-1 in random order."""
    order = rng.permutation(n).tolist()
    return list(zip(order, order[1:]))


class TestGraph:
    def test_empty(self):
        g = Graph()
        assert g.n_nodes == 0
        assert g.n_edges == 0

    def test_edge_symmetry(self):
        g = grow(Graph(3), pairs=[(2, 0)])
        assert g.neighbors(0) == {2} and g.neighbors(2) == {0} and g.neighbors(1) == set()
        assert g.n_edges == 1
        assert g.degrees.tolist() == [1, 0, 1]
        assert _edges(g) == [(0, 2)]

    # grow, the checked way tests build graphs, rejects an edge the product
    # never makes; the reference samplers rely on it.
    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(AssertionError):
            grow(g, pairs=[(1, 1)])
        assert g.n_edges == 0

    def test_duplicate_edge_rejected(self):
        g = grow(Graph(2), pairs=[(0, 1)])
        with pytest.raises(AssertionError):
            grow(g, pairs=[(1, 0)])
        with pytest.raises(AssertionError):
            grow(Graph(2), pairs=[(0, 1), (1, 0)])
        assert g.n_edges == 1

    def test_unknown_node_rejected(self):
        for pair in ((0, 5), (-1, 0)):
            with pytest.raises(AssertionError):
                grow(Graph(2), pairs=[pair])
        with pytest.raises(ValueError):
            Graph(2).neighbors(-1)
        # A node appended in the same call exists for its edges.
        assert grow(Graph(2), 1, [(0, 2)]).neighbors(2) == {0}

    def test_neighbors_is_a_copy(self):
        g = grow(Graph(2), pairs=[(0, 1)])
        g.neighbors(0).clear()
        assert g.neighbors(0) == {1}

    def test_equality(self):
        assert _triangle() == _triangle()
        assert _triangle() != _path(3)

    def test_public_names(self):
        # Callers read a Graph; only graph_core's builders append to one.
        assert {name for name in dir(Graph) if not name.startswith("_")} == {
            "n_nodes", "n_edges", "degrees", "neighbors",
        }


class TestGenerateEr:
    def test_p_zero_gives_empty_edge_set(self):
        g = generate_er(10, 0.0, _rng(123))
        assert g.n_nodes == 10
        assert g.n_edges == 0

    def test_p_one_gives_complete_graph(self):
        g = generate_er(5, 1.0, _rng(99))
        assert g.n_edges == 10
        assert g.degrees.tolist() == [4] * 5

    def test_seeded_edge_count_band(self):
        # Binomial oracle: mean 4995, sigma about 70.3, +-3 sigma band.
        g = generate_er(1000, 0.01, RngStream(42).substream("graph"))
        assert 4784 <= g.n_edges <= 5206

    def test_same_seed_same_graph(self):
        a = generate_er(200, 0.05, _rng(7))
        b = generate_er(200, 0.05, _rng(7))
        assert a == b

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

    # 363 nodes is the first size with more pairs (65,703) than one block of
    # draws holds (65,536), so sizes up to 700 cross several block edges and
    # end on a partial block.
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 700),
        p=st.one_of(st.sampled_from([0.0, 1.0, 5e-324, "sparse"]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(n=363, p="sparse", seed=0)
    def test_same_draws_as_rowwise_reference(self, n, p, seed):
        if p == "sparse":
            # The sweep's derived density K/(n-1) at K=4.
            p = min(1.0, 4 / (n - 1)) if n > 1 else 0.0
        rng, ref_rng = _rng(seed), _rng(seed)
        g = generate_er(n, p, rng)
        ref = generate_er_rowwise(n, p, ref_rng)
        assert g == ref
        assert degree_sequence(g) == degree_sequence(ref)
        assert g.n_edges == ref.n_edges
        assert rng.random() == ref_rng.random()


@st.composite
def _skip_cases(draw):
    """(n, p) with p in [0, 1], subnormal and tiny p included, and n capped so
    that at most about 20k edges are expected."""
    p = draw(st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1e-23]), st.floats(0.0, 1.0)))
    cap = 3000 if p == 0.0 else int(min(3000.0, math.sqrt(40_000 / p)))
    return draw(st.integers(1, max(2, cap))), p


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
        edges = _edges(g)
        assert all(i < j for i, j in edges)
        assert len(set(edges)) == len(edges) == g.n_edges

    @settings(max_examples=150, deadline=None)
    @given(case=_skip_cases(), seed=st.integers(0, 2**64 - 1))
    @example(case=(3000, 1e-23), seed=0)
    @example(case=(3000, 5e-324), seed=0)
    @example(case=(3000, 0.02), seed=1)  # about 90k edges: more than one block of draws
    def test_same_graph_as_scalar_reference(self, case, seed):
        n, p = case
        g = generate_er_skip(n, p, _rng(seed))
        ref = generate_er_skip_scalar(n, p, _rng(seed))
        assert g == ref
        assert degree_sequence(g) == degree_sequence(ref)

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

    def test_isolated_node_0(self):
        assert not is_connected(grow(Graph(4), pairs=[(1, 2), (2, 3)]))

    def test_isolated_last_node(self):
        assert not is_connected(grow(_path(4), 1))

    def test_path_is_connected(self):
        assert is_connected(_path(4))

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            is_connected(Graph(0))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 257, 1000, 2000])
    def test_shuffled_paths_match_networkx(self, n):
        rng = _rng(n)
        path = grow(Graph(), n, _shuffled_path(n, rng))
        assert is_connected(path) and nx.is_connected(as_networkx(path))
        # Two paths side by side, their ids interleaved: no node is isolated.
        order = rng.permutation(2 * n).tolist()
        halves = order[:n], order[n:]
        two = grow(Graph(), 2 * n, [pair for h in halves for pair in zip(h, h[1:])])
        assert two.degrees.all()
        assert not is_connected(two) and not nx.is_connected(as_networkx(two))

    def test_long_shuffled_path_and_its_halves(self):
        n = 100_000
        pairs = _shuffled_path(n, _rng(1))
        assert is_connected(grow(Graph(), n, pairs))
        assert not is_connected(grow(Graph(), n, pairs[: n // 2] + pairs[n // 2 + 1 :]))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 30),
        p=st.floats(0.0, 0.3),
        spawns=st.integers(0, 30),
        isolated=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_grown_graphs_match_networkx(self, n, p, spawns, isolated, seed):
        rng = _rng(seed)
        g = generate_er(n, p, rng)
        add_nodes_linked(g, rng.integers(0, n, spawns), int(rng.integers(0, 4)), rng)
        grow(g, isolated)
        assert is_connected(g) == nx.is_connected(as_networkx(g))
        # Link each appended node to an older one: the search now runs
        # unless the start had an isolated node.
        m = g.n_nodes
        grow(g, pairs=[(v, int(rng.integers(0, v))) for v in range(m - isolated, m)])
        assert is_connected(g) == nx.is_connected(as_networkx(g))

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
        grow(g, 1)
    elif op == "linked":
        anchor = data.draw(st.integers(0, n - 1))
        add_node_linked(g, anchor, data.draw(st.integers(0, 3)), rng)
    else:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j and j not in g.neighbors(i):
            grow(g, pairs=[(i, j)])


class TestLinkedSince:
    def test_nothing_known_is_never_a_proof(self):
        assert not linked_since(_path(4), 0)

    def test_new_nodes_with_older_neighbors(self):
        g = _path(3)
        add_node_linked(g, 1, 0, _rng(0))
        grow(g, 1, [(4, 3)])
        assert linked_since(g, 3)

    def test_isolated_new_node(self):
        g = grow(_path(3), 1)
        assert not linked_since(g, 3)
        assert linked_since(g, 4)

    def test_new_node_linked_only_to_a_newer_one(self):
        g = grow(_path(3), 2, [(3, 4), (4, 0)])
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
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = grow(Graph(), n, [pair for bit, pair in enumerate(pairs) if edge_bits >> bit & 1])
        rng = _rng(seed)
        known = 0
        batches = data.draw(
            st.lists(st.lists(st.sampled_from(["node", "linked", "edge"]), max_size=5), max_size=6)
        )
        for batch in [[]] + batches:
            for op in batch:
                _apply(g, op, data, rng)
            connected = _verdict(g, known)
            assert connected == nx.is_connected(as_networkx(g))
            if connected:
                known = g.n_nodes


def _nx_er(n, p, seed):
    """G(n, p) as generate_er draws it: one uniform per pair (i, j), i < j, in order."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    hits = _rng(seed).random(len(pairs)) < p
    h.add_edges_from(pair for pair, hit in zip(pairs, hits) if hit)
    return h


class TestGraphMatchesNetworkx:
    """Every query of a Graph agrees with networkx after any mix of operations."""

    def _check(self, g, h):
        n = g.n_nodes
        assert n == h.number_of_nodes()
        assert g.n_edges == h.number_of_edges()
        assert g.degrees.tolist() == [h.degree(i) for i in range(n)]
        assert degree_sequence(g).degrees == [h.degree(i) for i in range(n)]
        assert _edges(g) == sorted(tuple(sorted(e)) for e in h.edges())
        assert all(g.neighbors(i) == set(h[i]) for i in range(n))
        assert is_connected(g) == nx.is_connected(h)
        linked = [min(h[i], default=i) < i for i in range(n)]
        assert [linked_since(g, known) for known in range(n + 2)] == [all(linked[k:]) for k in range(n + 2)]

    # An op is (kind, check, k, args): k and args pick its nodes, reduced
    # to the nodes there are when it runs.
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["node", "edge", "linked", "batch"]),
                st.booleans(),
                st.integers(0, 4),
                st.lists(st.integers(0, 2**16), min_size=2, max_size=20),
            ),
            max_size=10,
        ),
    )
    # An edge between old nodes, then a batch of 2 takes the 3 nodes to 5,
    # and the node arrays to 6 slots: linked_since must not read the slot
    # past the last node.
    @example(n=3, p=0.0, seed=0, ops=[("edge", False, 0, [0, 1]), ("batch", True, 1, [0, 1])])
    def test_operations_match_networkx(self, n, p, seed, ops):
        g = generate_er(n, p, _rng(seed))
        h = _nx_er(n, p, seed)
        rng = _rng(seed + 1)
        # Checking only after some operations reads the arrays only after
        # several appends in a row, which may have doubled them in between.
        for op, check, k, args in [("none", True, 0, [])] + ops:
            n = g.n_nodes
            if op == "node":
                assert grow(g, 1).n_nodes == n + 1
                h.add_node(n)
            elif op == "edge":
                # One edge between any two nodes, in an append of its own.
                i, j = args[0] % n, args[1] % n
                if i == j or h.has_edge(i, j):
                    with pytest.raises(AssertionError):
                        grow(g, pairs=[(i, j)])
                else:
                    grow(g, pairs=[(i, j)])
                    h.add_edge(i, j)
            elif op == "linked":
                anchor = args[0] % n
                assert add_node_linked(g, anchor, k, rng) == n
                nbrs = g.neighbors(n)
                assert anchor in nbrs and max(nbrs) < n
                assert len(nbrs) == 1 + min(k, n - 1)
                h.add_edges_from((c, n) for c in nbrs)
            elif op == "batch":
                # Anchor j may be any node older than the batch's node j.
                anchors = [a % (n + j) for j, a in enumerate(args)]
                lo, hi = add_nodes_linked(g, anchors, k, rng)
                assert g.n_nodes == n + len(anchors)
                assert sorted(hi.tolist()) == [v for v in range(n, g.n_nodes) for _ in range(1 + min(k, v - 1))]
                assert set(zip(anchors, range(n, g.n_nodes))) <= set(zip(lo.tolist(), hi.tolist()))
                h.add_edges_from(zip(lo.tolist(), hi.tolist()))
            if check:
                self._check(g, h)
        self._check(g, h)
        assert grow(Graph(), g.n_nodes, h.edges()) == g
        if h.number_of_edges():
            assert grow(Graph(), g.n_nodes, list(h.edges())[1:]) != g


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


class TestAddNodeLinked:
    def test_singleton_anchor(self):
        g = Graph(1)
        new = add_node_linked(g, 0, 0, _rng(0))
        assert new == 1
        assert g.degrees.tolist() == [1, 1]

    def test_anchor_degree_increases_by_one(self):
        g = generate_er(30, 0.2, _rng(3))
        before = int(g.degrees[4])
        add_node_linked(g, 4, 0, _rng(4))
        assert g.degrees[4] == before + 1

    def test_clamp(self):
        g = Graph(3)
        new = add_node_linked(g, 0, 10, _rng(1))
        assert g.degrees[new] == 3

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
            assert len(nbrs) == g.degrees[new]
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


class TestAddNodesLinked:
    """add_nodes_linked against reference_model.add_node_linked_checked, one call per anchor.

    The reference draws with rng.choice and rng.integers themselves. With
    _REJECTION_POOL_MIN patched down to 8, graphs of a few nodes
    rejection-sample, where a spawn's draws often repeat or hit its anchor.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 16),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        k_extra=st.integers(0, 4),
        raw=st.lists(st.integers(0, 10**6), max_size=30),
    )
    # Spawn 1's draws hit its anchor.
    @example(n=15, p=0.3, seed=7, k_extra=3, raw=[970, 102, 54])
    # A spawn draws the same extra twice.
    @example(n=11, p=0.3, seed=4, k_extra=2, raw=[169, 754, 551])
    # Drawn together, a later spawn links the node of an earlier one.
    @example(n=12, p=0.3, seed=14, k_extra=2, raw=[795, 211, 636, 294, 496, 642, 949, 607] * 2)
    # Spawns 0-2 see at most 8 nodes and sample like rng.choice, the rest
    # rejection-sample.
    @example(n=6, p=0.3, seed=203, k_extra=2, raw=[151, 386, 164, 363, 965])
    # Every spawn links its anchor alone.
    @example(n=12, p=0.3, seed=1, k_extra=0, raw=[3, 40, 5])
    def test_same_graph_as_one_call_per_anchor(self, n, p, seed, k_extra, raw):
        # Anchor j may be any node that exists when spawn j appends its node.
        anchors = [a % (n + j) for j, a in enumerate(raw)]
        batch, alone = generate_er(n, p, _rng(seed)), generate_er(n, p, _rng(seed))
        batch_rng, alone_rng = _rng(seed + 1), _rng(seed + 1)
        with mock.patch.object(graph_core, "_REJECTION_POOL_MIN", 8):
            lo, hi = add_nodes_linked(batch, anchors, k_extra, batch_rng)
            for a in anchors:
                add_node_linked_checked(alone, a, k_extra, alone_rng)
        assert batch_rng.bit_generator.state == alone_rng.bit_generator.state
        assert batch_rng.random() == alone_rng.random()
        assert batch == alone
        assert batch.n_nodes == n + len(anchors)
        assert batch.degrees.tolist() == alone.degrees.tolist()
        total = batch.n_nodes
        assert all(linked_since(batch, known) == linked_since(alone, known) for known in range(total + 1))
        assert sorted(zip(lo.tolist(), hi.tolist())) == [e for e in _edges(alone) if e[1] >= n]

    @settings(max_examples=60, deadline=None)
    @given(
        n0=st.integers(graph_core._REJECTION_POOL_MIN - 40, graph_core._REJECTION_POOL_MIN + 2),
        count=st.integers(1, 60),
        k_extra=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        stride=st.integers(1, 10**6),
    )
    # Spawn 5's first rng.choice draw reads a rejected word.
    @example(n0=4080, count=30, k_extra=3, seed=167612, stride=7)
    # Spawn 28's last rejection-sampling draw reads a rejected word.
    @example(n0=4080, count=30, k_extra=3, seed=47473, stride=7)
    def test_batch_across_the_rejection_pool_min(self, n0, count, k_extra, seed, stride):
        # The draws do not depend on the edges, so the graphs start with none.
        anchors = [(stride * j) % n0 for j in range(count)]
        batch, alone = Graph(n0), Graph(n0)
        batch_rng, alone_rng = _rng(seed), _rng(seed)
        add_nodes_linked(batch, anchors, k_extra, batch_rng)
        for a in anchors:
            add_node_linked_checked(alone, a, k_extra, alone_rng)
        assert batch_rng.bit_generator.state == alone_rng.bit_generator.state
        assert batch == alone

    @pytest.mark.parametrize(
        "n0, count, zeroed, repeated",
        [
            # Spawn 3 samples like rng.choice from 2k - 1 = 5 words a spawn;
            # its word 3 is the shuffle's draw over 3 values.
            pytest.param(100, graph_core._VECTOR_MIN + 4, 3 * 5 + 3, None, id="100-18"),
            # Spawn 2 rejection-samples from k = 3 words a spawn.
            pytest.param(6000, graph_core._VECTOR_MIN + 4, 2 * 3, None, id="6000-6"),
            # Under _VECTOR_MIN spawns, which decode in Python ints: spawn
            # 0's second draw, then spawn 1's.
            pytest.param(6000, 1, 1, None, id="6000-1-1"),
            pytest.param(6000, 5, 1 * 3 + 1, None, id="6000-5-4"),
            # Spawn 1's second word is its first, so its second pick
            # repeats its first.
            pytest.param(6000, 5, None, 1 * 3 + 1, id="6000-5-repeat-4"),
        ],
    )
    def test_batch_reads_a_rejected_word_like_one_call_per_anchor(self, n0, count, zeroed, repeated):
        # Word 0 is rejected against any range r with 2**32 % r > 0, such
        # as 3, where the low half of 0 * 3 is 0, below 2**32 % 3 = 1.
        words = _rng(n0).integers(2**32, size=200, dtype=np.uint64).tolist()
        if zeroed is not None:
            words[zeroed] = 0
        else:
            words[repeated] = words[repeated - 1]
        anchors = list(range(count))
        batch_feed, alone_feed = _WordFeed(words), _WordFeed(words)
        batch, alone = Graph(n0), Graph(n0)
        add_nodes_linked(batch, anchors, 3, batch_feed)
        for a in anchors:
            add_node_linked(alone, a, 3, alone_feed)
        assert batch == alone
        regular = len(anchors) * (5 if n0 < graph_core._REJECTION_POOL_MIN else 3)
        assert len(batch_feed.words) == len(alone_feed.words) == len(words) - regular - 1
        # The batch draws its regular words at once and the shortfall after.
        assert batch_feed.sizes == [regular, 1]

    def test_a_large_batch_decodes_as_rows_again_after_a_flagged_spawn(self):
        # Spawn 2's first word is rejected; the 57 spawns after it decode in
        # array passes again, not one by one.
        words = _rng(6000).integers(2**32, size=200, dtype=np.uint64).tolist()
        words[2 * 3] = 0
        anchors = list(range(60))
        batch, alone = Graph(6000), Graph(6000)
        with mock.patch.object(graph_core, "_distinct_one", wraps=graph_core._distinct_one) as one:
            add_nodes_linked(batch, anchors, 3, _WordFeed(words))
        assert one.call_count == 1
        alone_feed = _WordFeed(words)
        for a in anchors:
            add_node_linked(alone, a, 3, alone_feed)
        assert batch == alone

    def test_anchor_must_exist_when_its_node_is_appended(self):
        add_nodes_linked(Graph(2), [1, 2], 1, _rng(0))
        for anchors in ([2], [0, 3], [-1]):
            with pytest.raises(ValueError):
                add_nodes_linked(Graph(2), anchors, 1, _rng(0))

    def test_negative_k_extra(self):
        with pytest.raises(ValueError):
            add_nodes_linked(Graph(2), [0], -1, _rng(0))


class TestGrowthOracle:
    """The extra neighbours of spawned nodes against uniform draws.

    TestAddNodesLinked checks add_nodes_linked against
    reference_model.add_node_linked_checked, which restates the same draws,
    so a slip copied into both would pass it. This checks what the draws
    must give instead: each spawn's extras are k_extra distinct older nodes
    other than its anchor, and uniform among them. The positions of the
    extras among those nodes fall into BUCKETS equal slices of each spawn's
    pool; pooled over the spawns, each slice's count must lie in the
    central 1 - 1e-6 interval of its binomial, as TestRuleOracle checks.
    Picks without replacement spread less than the binomial, so the
    interval is wide enough.
    """

    K_EXTRA, BUCKETS, SPAWNS = 3, 8, 3000

    @pytest.mark.parametrize(
        "n0",
        [
            # Floyd's sampling, as rng.choice, at 200 to 3,199 older nodes.
            200,
            # Rejection sampling, past _REJECTION_POOL_MIN older nodes.
            5000,
        ],
    )
    # Batches of 1 and 5 spawns decode in Python ints, 16 as rows.
    @pytest.mark.parametrize("batch", [1, 5, 16])
    def test_extras_are_uniform_over_older_non_anchor_nodes(self, n0, batch):
        k, nb = self.K_EXTRA, self.BUCKETS
        assert n0 + self.SPAWNS <= graph_core._REJECTION_POOL_MIN or n0 > graph_core._REJECTION_POOL_MIN
        assert (batch >= graph_core._VECTOR_MIN) == (batch == 16)
        g, rng = Graph(n0), _rng(n0 + batch)
        counts, expected = np.zeros(nb, dtype=np.int64), np.zeros(nb)
        for _ in range(self.SPAWNS // batch):
            v = np.arange(g.n_nodes, g.n_nodes + batch)  # the new nodes
            anchors = rng.integers(0, v)  # any node older than its spawn
            lo, hi = add_nodes_linked(g, anchors, k, rng)
            assert np.bincount(hi - v[0], minlength=batch).tolist() == [k + 1] * batch
            nbrs = lo[np.lexsort((lo, hi))].reshape(batch, k + 1)
            # Each node links its anchor once, and k distinct older nodes.
            is_anchor = nbrs == anchors[:, None]
            assert (is_anchor.sum(axis=1) == 1).all()
            extras = nbrs[~is_anchor].reshape(batch, k)
            assert (np.diff(extras, axis=1) > 0).all() and (extras < v[:, None]).all()
            pool = v[:, None] - 1
            pos = extras - (extras > anchors[:, None])
            counts += np.bincount((pos * nb // pool).ravel(), minlength=nb)
            # Slice b holds the positions from ceil(b * pool / nb) on.
            starts = -(-np.arange(nb + 1) * pool // nb)
            expected += k * (np.diff(starts, axis=1) / pool).sum(axis=0)
        n = int(counts.sum())
        misses = []
        for b, (count, mean) in enumerate(zip(counts.tolist(), expected.tolist())):
            low, high = binom.interval(1 - 1e-6, n, mean / n)
            if not low <= count <= high:
                misses.append((b, count, round(mean)))
        assert misses == []


class _WordFeed:
    """A stand-in Generator whose integers(2**32, size, np.uint64) hands out the given words in order."""

    def __init__(self, words):
        self.words = list(words)
        self.sizes = []

    def integers(self, high, size, dtype):
        assert high == 2**32 and dtype == np.uint64
        self.sizes.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


class TestGrowthWords:
    """The growth decoders against the numpy draws they read like.

    Growth reads numpy's Lemire draws on the generator's 32-bit words. These
    pin that at the installed numpy: a failure here means its
    Generator.integers or Generator.choice reads the words another way.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pool=st.integers(2, 4096),
        k=st.integers(1, 8),
        lead=st.integers(0, 3),
    )
    # An odd lead leaves half of the generator's last 64-bit output for the next word.
    @example(seed=5, pool=4096, k=8, lead=1)
    def test_choice_picks_match_rng_choice(self, seed, pool, k, lead):
        k = min(k, pool - 1)
        ref, dec = _rng(seed), _rng(seed)
        ref.integers(2**32, size=lead, dtype=np.uint32)
        dec.integers(2**32, size=lead, dtype=np.uint32)
        expected = ref.choice(pool, size=k, replace=False).tolist()
        picks = graph_core._choice_picks(graph_core._Words(dec, 2 * k - 1), pool, k)
        # The picks leave out the shuffle, which only reorders them.
        assert sorted(picks) == sorted(expected)
        assert dec.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        highs=st.lists(st.integers(2, 2**32), min_size=1, max_size=8),
        lead=st.integers(0, 3),
    )
    @example(seed=5, highs=[3, 4097, 2**32], lead=1)
    def test_bounded_matches_rng_integers(self, seed, highs, lead):
        ref, dec = _rng(seed), _rng(seed)
        ref.integers(2**32, size=lead, dtype=np.uint32)
        dec.integers(2**32, size=lead, dtype=np.uint32)
        expected = [int(ref.integers(0, r)) for r in highs]
        words = graph_core._Words(dec, len(highs))
        assert [words.bounded(r) for r in highs] == expected
        assert dec.bit_generator.state == ref.bit_generator.state

    def test_a_rejected_word_reads_the_next(self):
        feed = _WordFeed([0, 2**31, 7])
        words = graph_core._Words(feed, 1)
        # The low half of 0 * 3 is 0, below 2**32 % 3 = 1: word 0 is
        # rejected, and word 1 gives the high half of 2**31 * 3.
        assert words.bounded(3) == 1
        assert feed.sizes == [1, 1]
        assert feed.words == [7]
