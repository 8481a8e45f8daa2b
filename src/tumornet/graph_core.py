"""Erdos-Renyi graph construction and queries.

A Graph holds no container per node. It keeps the degrees in one int64
array, one byte per node that says whether the node has a neighbor with a
smaller id, and its edges as two endpoint arrays (smaller id first): the
ones a generator drew, followed by the ones added later. The degree array
has room beyond the last node and doubles when an appended node fills it;
Graph.degrees is the length-n_nodes view of it. Neighbor queries and the
connectivity search read a compressed adjacency (CSR) that is built from
those arrays on demand and dropped at the next change.

Generation consumes random draws in a canonical order so the edge set is a
pure function of (n, p, seed), which is what makes golden-file tests and
cross-process sweeps possible.

Growth appends nodes wired to an anchor and random older nodes a batch at
a time (add_nodes_linked), with the draws and the edge set, though not the
edge order, of one add_node_linked call per node.

A Graph only grows: nodes are appended, edges are added, and nothing is
ever removed. Nodes that were connected to each other therefore stay
connected, which is what lets linked_since check only the newest nodes.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

NodeId = int

# Pair-by-pair sampling is quadratic in n: one uniform per pair, even though
# generate_er draws them a block at a time. Beyond this size callers should
# switch to generate_er_skip, which jumps between accepted edges instead.
DENSE_SAMPLER_LIMIT = 20_000

# Most uniforms generate_er draws in one call: 2**16 doubles, 0.5 MiB.
_ER_BLOCK = 1 << 16

# Below this pool size, sampling extra neighbors builds the candidate list
# outright; above it, rejection sampling avoids the O(n) allocation.
_REJECTION_POOL_MIN = 4096

_NO_NODES = np.empty(0, dtype=np.intp)


def with_room(buf: np.ndarray, size: int) -> np.ndarray:
    """buf if it holds size items, else a copy of it twice as long or more.

    The added tail is zero, so a slot past the used length reads as 0 until
    it is written.
    """
    if size <= len(buf):
        return buf
    grown = np.zeros(max(size, 2 * len(buf)), dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


class Graph:
    """Simple undirected graph with nodes numbered 0..n_nodes-1.

    Node ids are assigned densely at creation and never reused. No
    self-loops, no parallel edges. The edge count always equals half the
    degree sum. Nodes are only appended and edges are never removed; there
    is no API for either removal.
    """

    __slots__ = ("_n", "_deg", "_low", "_ends", "_lo", "_hi", "_keys", "_csr")

    def __init__(self, n_nodes: int = 0):
        if n_nodes < 0:
            raise ValueError(f"node count must be non-negative, got {n_nodes}")
        self._n = n_nodes
        # _deg[i] is the degree of node i < _n; the slots past _n are 0.
        self._deg = np.zeros(n_nodes, dtype=np.int64)
        # _low[i] is 1 once node i has a neighbor with a smaller id.
        self._low = bytearray(n_nodes)
        # Edge k is (lo, hi) with lo < hi: first the arrays in _ends, then the
        # later edges in _lo and _hi until _endpoints folds them in. Those are
        # int64 array.arrays, 8 bytes an edge where a list holds int objects.
        self._ends = (_NO_NODES, _NO_NODES)
        self._lo = array("q")
        self._hi = array("q")
        # Edge keys for has_edge, built on first use; None until then.
        self._keys: set[int] | None = None
        # The CSR adjacency of _adjacency, until the graph next changes.
        self._csr: tuple[list[int], list[int]] | None = None

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, by id: a view that the next append may detach."""
        return self._deg[: self._n]

    @property
    def n_edges(self) -> int:
        return self._ends[0].size + len(self._lo)

    def add_node(self) -> NodeId:
        """Append an isolated node and return its id."""
        new = self._n
        self._deg = with_room(self._deg, new + 1)
        self._n = new + 1
        self._low.append(0)
        self._csr = None
        return new

    def add_edge(self, i: NodeId, j: NodeId) -> None:
        self._check_node(i)
        self._check_node(j)
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        lo, hi = (i, j) if i < j else (j, i)
        key = _key(lo, hi)
        keys = self._edge_keys()
        if key in keys:
            raise ValueError(f"edge ({i}, {j}) already present")
        keys.add(key)
        self._deg[lo] += 1
        self._deg[hi] += 1
        self._low[hi] = 1
        self._lo.append(lo)
        self._hi.append(hi)
        self._csr = None

    def has_edge(self, i: NodeId, j: NodeId) -> bool:
        self._check_node(i)
        self._check_node(j)
        lo, hi = (i, j) if i < j else (j, i)
        return lo != hi and _key(lo, hi) in self._edge_keys()

    def neighbors(self, i: NodeId) -> set[int]:
        """Neighbor ids of node i, as a fresh set."""
        self._check_node(i)
        ptr, nbrs = self._adjacency()
        return set(nbrs[ptr[i] : ptr[i + 1]])

    def degree(self, i: NodeId) -> int:
        self._check_node(i)
        return int(self._deg[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, in ascending lexicographic order."""
        lo, hi = self._endpoints()
        order = np.lexsort((hi, lo))
        yield from zip(lo[order].tolist(), hi[order].tolist())

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise ValueError(f"node {i} does not exist")

    def _link_new_nodes(self, count: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """Append count nodes with the edges (lo[k], hi[k]), lo < hi, every new node a hi."""
        n = self._n + count
        deg = self._deg = with_room(self._deg, n)
        # A new node's slot starts at 0; it may also be the lo of a later one.
        np.add.at(deg, np.concatenate((lo, hi)), 1)
        self._n = n
        self._low.extend(b"\x01" * count)
        self._lo.frombytes(lo.astype(np.int64, copy=False).tobytes())
        self._hi.frombytes(hi.astype(np.int64, copy=False).tobytes())
        if self._keys is not None:
            self._keys.update(_key(lo, hi).tolist())
        self._csr = None

    def _edge_keys(self) -> set[int]:
        if self._keys is None:
            self._keys = set(_key(*self._endpoints()).tolist())
        return self._keys

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (lo, hi) arrays; folds the later edges into _ends."""
        if self._lo:
            lo, hi = self._ends
            self._ends = (
                np.concatenate((lo, np.array(self._lo, dtype=np.intp))),
                np.concatenate((hi, np.array(self._hi, dtype=np.intp))),
            )
            self._lo = array("q")
            self._hi = array("q")
        return self._ends

    def _adjacency(self) -> tuple[list[int], list[int]]:
        """CSR adjacency: the neighbors of i are nbrs[ptr[i]:ptr[i + 1]]."""
        if self._csr is None:
            lo, hi = self._endpoints()
            order = np.argsort(np.concatenate((lo, hi)))
            nbrs = np.concatenate((hi, lo))[order].tolist()
            ptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=ptr[1:])
            self._csr = (ptr.tolist(), nbrs)
        return self._csr

    def __eq__(self, other: object):
        if not isinstance(other, Graph):
            return NotImplemented
        # Equal degrees give equal node and edge counts; then compare edge sets.
        return np.array_equal(self.degrees, other.degrees) and np.array_equal(
            np.sort(_key(*self._endpoints())), np.sort(_key(*other._endpoints()))
        )

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def _key(lo, hi):
    """Distinct key of edge (lo, hi), lo < hi: its index in lower-triangle order."""
    return hi * (hi - 1) // 2 + lo


def _graph_from_edges(n: int, lo: np.ndarray, hi: np.ndarray) -> Graph:
    """A Graph on n nodes whose edges are the distinct pairs (lo[k], hi[k]), lo < hi."""
    g = Graph()
    g._n = n
    g._deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    low = np.zeros(n, dtype=np.uint8)
    low[hi] = 1
    g._low = bytearray(low)
    g._ends = (lo, hi)
    return g


@dataclass(frozen=True)
class DegreeSequence:
    """Per-node degrees in ascending node-id order."""

    degrees: list[int]

    @property
    def edge_count(self) -> int:
        # Handshake lemma: the degree sum counts every edge twice.
        return sum(self.degrees) // 2


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"graph size must be at least 1, got {n}")


def _check_prob(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


def generate_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Sample G(n, p) by testing every candidate pair.

    Pairs (i, j) with i < j are visited in lexicographic order and each one
    consumes exactly one uniform draw, so the same (n, p, seed) always
    yields the same graph, independent of p. The uniforms are drawn in
    blocks of at most _ER_BLOCK pairs in that order: random(a) then
    random(b) gives the same doubles as random(a + b), so the blocks read
    the same stream as one draw per pair, in bounded memory. Quadratic in
    n; use generate_er_skip for large sparse graphs.

    Args:
        n: Number of nodes, at least 1.
        p: Edge probability in [0, 1].
        rng: Seeded numpy generator, consumed in place.

    Returns:
        A Graph with n nodes and a Binomial(C(n,2), p) edge count.

    Raises:
        ValueError: If n < 1 or p is out of range.
    """
    _check_size(n)
    _check_prob(p)
    total = n * (n - 1) // 2
    # Pair (i, j) has flat index starts[i] + j - i - 1; row i holds n-1-i pairs.
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - 1 - rows) // 2
    # Hit endpoints per block; the empty pair keeps one node's concatenate valid.
    srcs, dsts = [_NO_NODES], [_NO_NODES]
    for lo in range(0, total, _ER_BLOCK):
        hits = np.flatnonzero(rng.random(min(_ER_BLOCK, total - lo)) < p) + lo
        src = np.searchsorted(starts, hits, side="right") - 1
        srcs.append(src)
        dsts.append(hits - starts[src] + src + 1)
    return _graph_from_edges(n, np.concatenate(srcs), np.concatenate(dsts))


def generate_er_skip(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Sample G(n, p) by drawing geometric gaps between accepted edges.

    Pairs (w, v) with w < v are ranked in lower-triangle order, flat index
    v*(v-1)/2 + w, and each uniform u moves past int(log1p(-u) / log1p(-p))
    rejected pairs to the next accepted one. The uniforms are drawn a block
    at a time; random(a) then random(b) gives the same doubles as
    random(a + b), so the graph does not depend on the block sizes.
    log1p is math.log1p, one element at a time, because np.log1p can differ
    from it in the last bit. A gap is capped at the pair count, which ends
    the sampling just the same, before it is cast to int64: at p near 1e-23
    the gap overflows int64, and at subnormal p the ratio is inf.

    Matches generate_er in distribution but not draw-for-draw, so it must
    be fed its own dedicated rng stream. Runs in O(n + m) time, which is
    what makes populations in the hundreds of thousands practical.
    """
    _check_size(n)
    _check_prob(p)
    if p <= 0.0:
        return Graph(n)
    if p >= 1.0:
        lo, hi = np.triu_indices(n, 1)
        return _graph_from_edges(n, lo, hi)
    lp = math.log1p(-p)
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (rows - 1) // 2  # flat index of pair (0, v)
    hits = [_NO_NODES]
    last = -1  # flat index of the last accepted pair
    while True:
        # About one uniform per edge still to come, and one to step past the end.
        size = int(min(_ER_BLOCK, p * (total - 1 - last) + 16))
        logs = np.fromiter(map(math.log1p, (-rng.random(size)).tolist()), float, size)
        with np.errstate(over="ignore"):
            gaps = np.minimum(logs / lp, total).astype(np.int64)
        pos = last + np.cumsum(gaps + 1)
        end = np.searchsorted(pos, total)
        hits.append(pos[:end])
        if end < size:
            break
        last = int(pos[-1])
    flat = np.concatenate(hits)
    hi = np.searchsorted(starts, flat, side="right") - 1
    return _graph_from_edges(n, flat - starts[hi], hi)


def connectivity_threshold(n: int) -> float:
    """Return ln(n)/n, the sharp connectivity threshold for G(n, p)."""
    _check_size(n)
    return math.log(n) / n


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0."""
    n = g.n_nodes
    if n == 0:
        raise ValueError("connectivity is undefined for an empty graph")
    # With more than one node, a node without neighbors is either node 0 or
    # unreachable from it, so the search can be skipped.
    if n > 1 and not g.degrees.all():
        return False
    ptr, nbrs = g._adjacency()
    seen = bytearray(n)
    seen[0] = 1
    count = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in nbrs[ptr[i] : ptr[i + 1]]:
            if not seen[j]:
                seen[j] = 1
                count += 1
                stack.append(j)
    return count == n


def linked_since(g: Graph, n_known: int) -> bool:
    """True if every node with id >= n_known has a neighbor with a smaller id.

    If nodes 0..n_known-1 were connected when g had n_known nodes, a True
    here proves g connected: edges are never removed, so those nodes still
    are, and by induction on the id each newer node reaches one of them
    through its smaller neighbor. False proves nothing; fall back to
    is_connected. Node 0 has no smaller neighbor, so n_known = 0 (no
    connected prefix known yet) always gives False on a non-empty graph.
    """
    return all(g._low[n_known:])


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degrees in ascending node-id order; .edge_count recovers m."""
    return DegreeSequence(g.degrees.tolist())


def add_node_linked(g: Graph, anchor: NodeId, k_extra: int, rng: np.random.Generator) -> NodeId:
    """Append a node wired to anchor plus k_extra random older nodes.

    The anchor edge is unconditional. The extra neighbors are drawn
    uniformly without replacement from the nodes that existed before the
    call, excluding the anchor; when fewer than k_extra candidates exist,
    all of them are used. add_nodes_linked, the cell model's growth, makes
    the same draws for a batch and is checked against this one-node form.

    Returns the new node's id.

    Raises:
        ValueError: If the anchor does not exist or k_extra is negative.
    """
    n_before = g.n_nodes
    if not 0 <= anchor < n_before:
        raise ValueError(f"anchor node {anchor} does not exist")
    if k_extra < 0:
        raise ValueError(f"k_extra must be non-negative, got {k_extra}")
    nbrs = _pick_neighbors(n_before, anchor, k_extra, rng)
    g._link_new_nodes(1, np.array(nbrs, dtype=np.intp), np.full(len(nbrs), n_before))
    return n_before


def _pick_neighbors(n_before: int, anchor: int, k_extra: int, rng: np.random.Generator) -> list[int]:
    """The neighbors of a node appended to n_before nodes: anchor and k_extra others.

    They are distinct existing nodes, so the add_edge checks are skipped.
    """
    pool = n_before - 1
    k = min(k_extra, pool)
    if k <= 0:
        nbrs = [anchor]
    elif k >= pool:
        nbrs = list(range(n_before))
    elif n_before <= _REJECTION_POOL_MIN:
        # Sample positions in the pool with the anchor spliced out, then map
        # back: position idx names node idx, shifted past the anchor.
        picks = rng.choice(pool, size=k, replace=False).tolist()
        nbrs = [idx if idx < anchor else idx + 1 for idx in picks]
        nbrs.append(anchor)
    else:
        chosen = {anchor}
        while len(chosen) <= k:
            chosen.add(int(rng.integers(0, n_before)))
        nbrs = list(chosen)
    return nbrs


def add_nodes_linked(
    g: Graph, anchors: np.ndarray, k_extra: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Append one node per anchor, in order, with add_node_linked's draws.

    The cell model grows through this call, once per step with spawns.
    Node n0 + j, n0 = g.n_nodes, is wired to anchors[j] and k_extra older
    nodes, the ones appended before it in the batch included. rng makes the
    same draws as one add_node_linked call per anchor, so the edge set is
    the same, although the edges may be stored in another order. Returns
    the new edges as (lo, hi) endpoint arrays, hi the new node.

    The spawns that rejection-sample come last, since each spawn adds a
    node, and draw their extras in one rng.integers call. At the first one
    whose draws repeat or hit its anchor, rng is rewound and redraws the
    spawns before it, that spawn draws on its own, and the batch goes on.
    rng.integers(0, highs) gives the values and ends in the state that one
    call per element would, which makes the rewind and redraw exact.

    Raises:
        ValueError: If an anchor does not exist when its node is appended,
            or k_extra is negative.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    n0, count = g.n_nodes, len(anchors)
    if not ((anchors >= 0) & (anchors < n0 + np.arange(count))).all():
        raise ValueError(f"an anchor node of {anchors.tolist()} does not exist")
    if k_extra < 0:
        raise ValueError(f"k_extra must be non-negative, got {k_extra}")
    # Spawn j sees n0 + j nodes; _pick_neighbors rejection-samples once that
    # exceeds both _REJECTION_POOL_MIN and k_extra + 1.
    batch_from = max(_REJECTION_POOL_MIN + 1, k_extra + 2) - n0 if k_extra else count
    lo, hi = [], []  # the edges of the spawns that draw alone
    los, his = [], []  # and of the ones drawn together
    j, window = 0, count
    while j < count:
        if j >= batch_from:
            end = min(count, j + window)
            highs = np.repeat(np.arange(n0 + j, n0 + end), k_extra)
            before = rng.bit_generator.state
            rows = np.column_stack((anchors[j:end], rng.integers(0, highs).reshape(-1, k_extra)))
            ranked = np.sort(rows, axis=1)
            clash = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
            c = int(clash[0]) if clash.size else len(rows)
            los.append(rows[:c].ravel())
            his.append(np.repeat(np.arange(n0 + j, n0 + j + c), k_extra + 1))
            # Next draw about twice the spawns that went through, so that
            # frequent clashes (k_extra large against n) do not redraw the
            # whole rest of the batch each time.
            window = 2 * (c + 1)
            if c == len(rows):
                j = end
                continue
            rng.bit_generator.state = before
            rng.integers(0, highs[: c * k_extra])
            j += c
        nbrs = _pick_neighbors(n0 + j, int(anchors[j]), k_extra, rng)
        lo.extend(nbrs)
        hi.extend([n0 + j] * len(nbrs))
        j += 1
    lo = np.concatenate([np.array(lo, dtype=np.intp), *los])
    hi = np.concatenate([np.array(hi, dtype=np.intp), *his])
    g._link_new_nodes(count, lo, hi)
    return lo, hi
