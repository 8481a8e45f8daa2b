"""Erdos-Renyi graph construction and queries.

A Graph holds no container per node. It keeps the degrees in one int64
array, one byte per node that says whether the node has a neighbor with a
smaller id (linked_since reads it), and its edges as two int64 endpoint
arrays (smaller id first) in the order they were added. Each array has room
past its used length and doubles when an append fills it; Graph._append is
the one path for new nodes and their edges, and a Graph holds nothing else.
Graph.degrees is the length-n_nodes view of the degrees. A neighbor query
passes over every edge on each call; the connectivity search labels
components over the endpoint arrays too.

Generation consumes random draws in a canonical order so the edge set is a
pure function of (n, p, seed), which is what makes golden-file tests and
cross-process sweeps possible.

Growth appends nodes wired to an anchor and random older nodes a batch at
a time (add_nodes_linked). Each node's extras are the ones rng.choice, or
rng.integers drawn until they are distinct, would pick for it in turn. The
batch reads those draws as numpy 2.x's Lemire draws on the generator's
32-bit words: it takes the words in one rng.integers call per step, more
only when a draw needs them, and decodes them itself. So the edge set,
though not the edge order, and the generator's end state are those of the
draws made node by node. A property test pins the decoding to numpy's own
calls. Past _REJECTION_POOL_MIN nodes a node's k words are its k extras
unless it is flagged: a word may be rejected, or an extra repeats or is
its anchor. Fewer than _VECTOR_MIN such nodes are checked in one pass over
Python ints, more in array passes; a flagged node alone is decoded word by
word, and the pass resumes after it.

A Graph only grows: nodes are appended, edges are added, and nothing is
ever removed. Nodes that were connected to each other therefore stay
connected, which is what lets linked_since check only the newest nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Simple undirected graph with nodes numbered 0..n_nodes-1, read-only to callers.

    Graph(n) has n isolated nodes. generate_er and generate_er_skip build
    random graphs, and add_nodes_linked appends linked nodes; all three go
    through _append. No self-loops, no parallel edges. The edge count always
    equals half the degree sum. Nodes are only appended and edges are never
    removed.
    """

    __slots__ = ("_n", "_deg", "_low", "_m", "_lo", "_hi")

    def __init__(self, n_nodes: int = 0):
        if n_nodes < 0:
            raise ValueError(f"node count must be non-negative, got {n_nodes}")
        # Every array below has room past its used length (see with_room);
        # the slots past it are 0.
        self._n = 0
        # _deg[i] is the degree of node i < _n.
        self._deg = np.zeros(0, dtype=np.int64)
        # _low[i] is 1 once node i has a neighbor with a smaller id.
        self._low = np.zeros(0, dtype=np.uint8)
        # Edge k < _m is (_lo[k], _hi[k]), lo < hi, in the order it was added.
        self._m = 0
        self._lo = np.zeros(0, dtype=np.int64)
        self._hi = np.zeros(0, dtype=np.int64)
        self._append(n_nodes, _NO_NODES, _NO_NODES)

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, by id: a view that the next append may detach."""
        return self._deg[: self._n]

    @property
    def n_edges(self) -> int:
        return self._m

    def neighbors(self, i: NodeId) -> set[int]:
        """Neighbor ids of node i, as a fresh set; each call reads every edge."""
        if not 0 <= i < self._n:
            raise ValueError(f"node {i} does not exist")
        lo, hi = self._endpoints()
        return set(hi[lo == i].tolist()).union(lo[hi == i].tolist())

    def _append(self, count: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """Append count nodes and the new edges (lo[k], hi[k]), lo < hi."""
        n, m = self._n + count, self._m + len(lo)
        # A new node's slot starts at 0; it may also be the lo of a later one.
        deg = self._deg = with_room(self._deg, n)
        np.add.at(deg, np.concatenate((lo, hi)), 1)
        low = self._low = with_room(self._low, n)
        low[hi] = 1
        self._lo, self._hi = with_room(self._lo, m), with_room(self._hi, m)
        self._lo[self._m : m], self._hi[self._m : m] = lo, hi
        self._n, self._m = n, m

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (lo, hi) arrays: views that the next append may detach."""
        return self._lo[: self._m], self._hi[: self._m]

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
    g._append(n, lo, hi)
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
    """True iff every node is reachable from node 0.

    Labels the components by array passes over the edge list (hooking and
    pointer jumping, after Shiloach and Vishkin, J. Algorithms 3(1), 1982).
    A node's label is a node of its component, never above its own id, and
    starts as that id. A pass hooks the larger label of each edge's two ends
    onto the smaller, then has every node take its label's label until
    nothing moves. Once a pass changes nothing, each component carries its
    smallest id, so the graph is connected iff every label is 0.
    """
    n = g.n_nodes
    if n == 0:
        raise ValueError("connectivity is undefined for an empty graph")
    # With more than one node, a node without neighbors is either node 0 or
    # unreachable from it, so the search can be skipped.
    if n > 1 and not g.degrees.all():
        return False
    lo, hi = g._endpoints()
    comp = np.arange(n)
    while True:
        before = comp.copy()
        a, b = comp[lo], comp[hi]
        np.minimum.at(comp, a, b)
        np.minimum.at(comp, b, a)
        while True:
            up = comp[comp]
            if np.array_equal(up, comp):
                break
            comp = up
        if np.array_equal(comp, before):
            return not comp.any()


def linked_since(g: Graph, n_known: int) -> bool:
    """True if every node with id >= n_known has a neighbor with a smaller id.

    If nodes 0..n_known-1 were connected when g had n_known nodes, a True
    here proves g connected: edges are never removed, so those nodes still
    are, and by induction on the id each newer node reaches one of them
    through its smaller neighbor. False proves nothing; fall back to
    is_connected. Node 0 has no smaller neighbor, so n_known = 0 (no
    connected prefix known yet) always gives False on a non-empty graph.
    """
    return bool(g._low[n_known : g.n_nodes].all())


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degrees in ascending node-id order; .edge_count recovers m."""
    return DegreeSequence(g.degrees.tolist())


def add_node_linked(g: Graph, anchor: NodeId, k_extra: int, rng: np.random.Generator) -> NodeId:
    """Append a node wired to anchor plus k_extra random older nodes.

    The anchor edge is unconditional. The extra neighbors are drawn
    uniformly without replacement from the nodes that existed before the
    call, excluding the anchor; when fewer than k_extra candidates exist,
    all of them are used. This is add_nodes_linked with one anchor.

    Returns the new node's id.

    Raises:
        ValueError: If the anchor does not exist or k_extra is negative.
    """
    add_nodes_linked(g, [anchor], k_extra, rng)
    return g.n_nodes - 1


def add_nodes_linked(
    g: Graph, anchors: np.ndarray, k_extra: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Append one node per anchor, in order, each wired to its anchor and k_extra others.

    The cell model grows through this call, once per step with spawns.
    Node v = n0 + j, n0 = g.n_nodes, is wired to anchors[j] and k_extra
    other nodes older than v, the ones appended before it in the batch
    included, or to all of them when there are at most k_extra + 1. The
    edge set is that of drawing the nodes one at a time: up to
    _REJECTION_POOL_MIN older nodes, the extras are
    rng.choice(v - 1, k_extra, replace=False), positions among the older
    nodes with the anchor left out; past it, rng.integers(0, v) is drawn
    until k_extra distinct nodes other than the anchor come up. The new
    edges may be stored in another order. Returns them as (lo, hi)
    endpoint arrays, hi the new node.

    Both calls make numpy 2.x's Lemire draws on rng's 32-bit words (see
    _Words), and the batch decodes them itself from one rng.integers call
    that reads a word per draw, with one more call for each time the reads
    run past it. So rng ends in the state the one-by-one draws leave. A
    property test pins this decoding to numpy's calls. Spawns that sample
    like rng.choice decode as array operations in runs of at least
    _VECTOR_MIN and word by word in shorter ones. Spawns that sample by
    rejection read k_extra words each: fewer than _VECTOR_MIN of them
    decode in one pass over Python ints, more in array passes that fill one
    row per spawn. A spawn is flagged when one of its words may be rejected
    or, by rejection, when its picks repeat or include its anchor. A flagged
    spawn is decoded word by word on its own, and the pass resumes with the
    words after it.

    Raises:
        ValueError: If an anchor does not exist when its node is appended,
            or k_extra is negative.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    n0, count = g.n_nodes, len(anchors)
    # Two reductions settle the usual batch, whose anchors all predate it.
    if count and (
        np.minimum.reduce(anchors) < 0
        or (np.maximum.reduce(anchors) >= n0 and (anchors - np.arange(n0, n0 + count)).max() >= 0)
    ):
        raise ValueError(f"an anchor node of {anchors.tolist()} does not exist")
    if k_extra < 0:
        raise ValueError(f"k_extra must be non-negative, got {k_extra}")
    if k_extra == 0:
        lo, hi = anchors, np.arange(n0, n0 + count)
    else:
        lo, hi = _draw_links(n0, anchors, k_extra, rng)
    g._append(count, lo, hi)
    return lo, hi


def _draw_links(
    n0: int, anchors: np.ndarray, k_extra: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of add_nodes_linked with k_extra >= 1, as (lo, hi) arrays."""
    count = len(anchors)
    # Spawn j sees n0 + j nodes: it links them all while they number at
    # most k_extra + 1, samples like rng.choice while they number at most
    # _REJECTION_POOL_MIN, and rejection-samples past that.
    choice_from = min(count, max(0, k_extra + 2 - n0))
    reject_from = min(count, max(choice_from, _REJECTION_POOL_MIN + 1 - n0))
    words = _Words(rng, (reject_from - choice_from) * (2 * k_extra - 1) + (count - reject_from) * k_extra)
    if not reject_from:
        return _distinct_links(words, n0, anchors, k_extra)
    lo, hi = _choice_links(words, n0, anchors[:reject_from], k_extra, choice_from)
    if reject_from == count:
        return lo, hi
    lo_r, hi_r = _distinct_links(words, n0 + reject_from, anchors[reject_from:], k_extra)
    return np.concatenate((lo, lo_r)), np.concatenate((hi, hi_r))


def _choice_links(
    words: _Words, n0: int, anchors: np.ndarray, k_extra: int, choice_from: int
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of spawns that link all older nodes, up to choice_from, then sample like rng.choice."""
    count = len(anchors)
    lo = [u for v in range(n0, n0 + choice_from) for u in range(v)]
    hi = [v for v in range(n0, n0 + choice_from) for _ in range(v)]
    lo_parts, hi_parts = [], []
    width = 2 * k_extra - 1
    j, window = choice_from, count - choice_from
    while j < count:
        if count - j >= _VECTOR_MIN:
            size = min(window, count - j)
            w = words.ahead(size * width).reshape(size, width)
            rows = _choice_rows(w, n0 + j, anchors[j : j + size], k_extra)
            c = len(rows)
            words.at += c * width
            lo_parts.append(rows.ravel())
            hi_parts.append(np.repeat(np.arange(n0 + j, n0 + j + c), k_extra + 1))
            j += c
            # After a spawn that reads more words, the rest of the run is
            # decoded again from the words after it. Blocks of about twice
            # the spawns that went through keep frequent ones (k_extra large
            # against the node count) from decoding the rest of a large
            # batch over and over.
            window = max(_VECTOR_MIN, 2 * (c + 1))
            if c == size:
                continue
        nbrs = _choice_one(words, n0 + j, anchors.item(j), k_extra)
        lo.extend(nbrs)
        hi.extend([n0 + j] * len(nbrs))
        j += 1
    # The edges decoded word by word come first, then each run of rows; a
    # lone part is returned as it is.
    if lo or not lo_parts:
        lo_parts.insert(0, np.array(lo, dtype=np.intp))
        hi_parts.insert(0, np.array(hi, dtype=np.intp))
    if len(lo_parts) == 1:
        return lo_parts[0], hi_parts[0]
    return np.concatenate(lo_parts), np.concatenate(hi_parts)


# rng.integers(0, r) and rng.choice read the generator's 32-bit words as
# Lemire draws; _Words and the decoders below read them the same way.
_WORD = 1 << 32
_LOW = _WORD - 1

# Runs of at least this many spawns in one sampling regime are decoded as
# array operations. Shorter ones are decoded in Python ints, which costs
# less for the one- to few-spawn batches that most steps make: word by
# word while they sample like rng.choice, and past _REJECTION_POOL_MIN in
# one pass that takes each spawn's k words as its picks.
_VECTOR_MIN = 12


class _Words:
    """The 32-bit words a batch of rng's bounded draws reads, drawn as they fall due.

    rng.integers(0, r) reads words w until the low half of w * r is at
    least 2**32 % r, and returns the high half (Lemire's method): a draw
    reads one word, or more when one is rejected. due starts at one word a
    draw, for every draw the batch makes at least, and goes up by one for
    each rejected word and each draw the decoding adds (a repeated pick).
    When the reads run past buf, the words up to due are drawn. rng thus
    reads exactly the words that the draws made one by one would.
    """

    __slots__ = ("_rng", "buf", "_ints", "at", "due")

    def __init__(self, rng: np.random.Generator, due: int):
        self._rng = rng
        # rng.integers(2**32, ...) reads one word per value, with a word
        # left over from an earlier draw first.
        self.buf = rng.integers(_WORD, size=due, dtype=np.uint64)
        self._ints: list[int] = []  # a prefix of buf as Python ints (see ints)
        self.at = 0  # the next word to read
        self.due = due

    def ahead(self, n: int) -> np.ndarray:
        """The n words from at, not yet read; n is at most due - at."""
        if self.at + n > len(self.buf):
            more = self._rng.integers(_WORD, size=self.due - len(self.buf), dtype=np.uint64)
            self.buf = np.concatenate((self.buf, more))
        return self.buf[self.at : self.at + n]

    def ints(self, n: int) -> list[int]:
        """buf as Python ints, through at least the n words from at; n is at most due - at."""
        if self.at + n > len(self._ints):
            if self.at + n > len(self.buf):
                self.ahead(n)
            self._ints = self.buf.tolist()
        return self._ints

    def bounded(self, r: int) -> int:
        """rng.integers(0, r), from the next words."""
        while True:
            at = self.at
            if at >= len(self._ints):
                self.ints(1)
            m = self._ints[at] * r
            self.at = at + 1
            # 2**32 % r < r, so the first test settles all but a few words.
            low = m & _LOW
            if low >= r or low >= _WORD % r:
                return m >> 32
            self.due += 1


def _lemire(w: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values rng.integers(0, r) reads from the uint64 words w, and where w may be rejected.

    A word is rejected when the low half of w * r is below 2**32 % r. The
    mask tests it against r instead, which needs no division and holds
    every rejected word, and a few others (about r in 2**32).
    """
    m = w * r
    return (m >> 32).astype(np.intp), (m & _LOW) < r


def _first_row(mask: np.ndarray) -> int:
    """The index of the first row of the 2-D mask that holds a True, or its row count."""
    i = int(mask.argmax())
    return i // mask.shape[1] if mask.flat[i] else len(mask)


def _choice_picks(words: _Words, pool: int, k: int) -> list[int]:
    """rng.choice(pool, k, replace=False), 0 < k < pool, as its values before the shuffle.

    Floyd's algorithm: draw t, 0 <= t < k, is over pool - k + t + 1
    values, and a value already picked is replaced by pool - k + t. The
    picks are then shuffled with draws over k, k - 1, ..., 2 values, which
    only reorder them, so those are read and dropped.
    """
    picks = []
    for top in range(pool - k + 1, pool + 1):
        v = words.bounded(top)
        picks.append(top - 1 if v in picks else v)
    for top in range(k, 1, -1):
        words.bounded(top)
    return picks


def _choice_one(words: _Words, n: int, anchor: int, k: int) -> list[int]:
    """The neighbors of a node appended to n nodes: anchor and, like rng.choice, k others."""
    # Position p among the n - 1 nodes other than the anchor names node p,
    # shifted past the anchor.
    return [anchor] + [p + (p >= anchor) for p in _choice_picks(words, n - 1, k)]


def _choice_rows(w: np.ndarray, n_first: int, anchors: np.ndarray, k: int) -> np.ndarray:
    """_choice_one for spawns seeing n_first, n_first + 1, ... nodes, one row of 2k - 1 words each.

    Returns their rows [anchor, k others] up to the first spawn that reads
    a word that may be rejected.
    """
    size = len(anchors)
    base = np.arange(n_first - 1 - k, n_first - 1 - k + size)  # pool - k, spawn by spawn
    tops = np.empty((size, 2 * k - 1), dtype=np.uint64)
    tops[:, :k] = base[:, None] + np.arange(1, k + 1)
    tops[:, k:] = np.arange(k, 1, -1)
    vals, maybe_rejected = _lemire(w, tops)
    picks = vals[:, :k]
    for t in range(1, k):
        seen = (picks[:, :t] == picks[:, t, None]).any(axis=1)
        picks[seen, t] = base[seen] + t
    picks += picks >= anchors[:, None]
    return np.concatenate((anchors[:, None], picks), axis=1)[: _first_row(maybe_rejected)]


def _distinct_one(words: _Words, n: int, anchor: int, k: int) -> list[int]:
    """The neighbors of a node appended to n nodes: anchor and k others drawn by rejection."""
    chosen = {anchor}
    while len(chosen) <= k:
        v = words.bounded(n)
        if v in chosen:
            words.due += 1
        chosen.add(v)
    return list(chosen)


def _distinct_links(
    words: _Words, n_first: int, anchors: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of spawns that see n_first, n_first + 1, ... nodes and draw like _distinct_one.

    A spawn's k words are its k picks unless it is flagged: a word may be
    rejected, or a pick repeats or is its anchor. Under _VECTOR_MIN spawns
    are checked in one pass over Python ints, more in array passes that fill
    one (c, k + 1) row array. A flagged spawn is decoded word by word by
    _distinct_one, and the pass goes on with the words after it.
    """
    c = len(anchors)
    if c < _VECTOR_MIN:
        flat: list[int] = []
        ints, at = words.ints(c * k), words.at
        for n, a in zip(range(n_first, n_first + c), anchors.tolist()):
            row = [a]
            for w in ints[at : at + k]:
                m = w * n
                v = m >> 32
                # The low half of m is below n for every rejected word.
                if (m & _LOW) < n or v in row:
                    words.at = at
                    row = _distinct_one(words, n, a, k)
                    ints, at = words.ints((n_first + c - 1 - n) * k), words.at
                    break
                row.append(v)
            else:
                at += k
            flat += row
        words.at = at
        lo = np.array(flat, dtype=np.intp)
    else:
        rows = np.empty((c, k + 1), dtype=np.intp)
        rows[:, 0] = anchors
        j, window = 0, c
        while j < c:
            size = min(window, c - j)
            block = rows[j : j + size]
            r = np.arange(n_first + j, n_first + j + size, dtype=np.uint64)[:, None]
            block[:, 1:], maybe_rejected = _lemire(words.ahead(size * k).reshape(size, k), r)
            ranked = np.sort(block, axis=1)
            good = _first_row((ranked[:, 1:] == ranked[:, :-1]) | maybe_rejected)
            words.at += good * k
            j += good
            # As in _choice_links, blocks of about twice the spawns that went
            # through keep frequent flags from decoding the rest of a large
            # batch over and over.
            window = max(_VECTOR_MIN, 2 * (good + 1))
            if good < size:
                rows[j] = _distinct_one(words, n_first + j, anchors.item(j), k)
                j += 1
        lo = rows.ravel()
    return lo, np.arange(n_first, n_first + c).repeat(k + 1)
