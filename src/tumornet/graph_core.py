"""Erdos-Renyi graph construction and queries.

The graph is a plain adjacency-set list over dense integer node ids.
Generation consumes random draws in a canonical order so the edge set is a
pure function of (n, p, seed), which is what makes golden-file tests and
cross-process sweeps possible.

A Graph only grows: nodes are appended, edges are added, and nothing is
ever removed. Nodes that were connected to each other therefore stay
connected, which is what lets linked_since check only the newest nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

NodeId = int

# Pair-by-pair sampling is quadratic in n. Beyond this size callers should
# switch to generate_er_skip, which jumps between accepted edges instead.
DENSE_SAMPLER_LIMIT = 20_000

# Below this pool size, sampling extra neighbors builds the candidate list
# outright; above it, rejection sampling avoids the O(n) allocation.
_REJECTION_POOL_MIN = 4096


class Graph:
    """Simple undirected graph with nodes numbered 0..n_nodes-1.

    Node ids are assigned densely at creation and never reused. No
    self-loops, no parallel edges. The stored edge count always equals half
    the degree sum. Nodes are only appended and edges are never removed;
    there is no API for either removal.
    """

    __slots__ = ("_adj", "_n_edges")

    def __init__(self, n_nodes: int = 0):
        if n_nodes < 0:
            raise ValueError(f"node count must be non-negative, got {n_nodes}")
        self._adj: list[set[int]] = [set() for _ in range(n_nodes)]
        self._n_edges = 0

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def add_node(self) -> NodeId:
        """Append an isolated node and return its id."""
        self._adj.append(set())
        return len(self._adj) - 1

    def add_edge(self, i: NodeId, j: NodeId) -> None:
        self._check_node(i)
        self._check_node(j)
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if j in self._adj[i]:
            raise ValueError(f"edge ({i}, {j}) already present")
        self._adj[i].add(j)
        self._adj[j].add(i)
        self._n_edges += 1

    def has_edge(self, i: NodeId, j: NodeId) -> bool:
        self._check_node(i)
        self._check_node(j)
        return j in self._adj[i]

    def neighbors(self, i: NodeId) -> set[int]:
        """Neighbor ids of node i, as a defensive copy."""
        self._check_node(i)
        return set(self._adj[i])

    def degree(self, i: NodeId) -> int:
        self._check_node(i)
        return len(self._adj[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (i, j) with i < j, in ascending lexicographic order."""
        for i, nbrs in enumerate(self._adj):
            for j in sorted(nbrs):
                if j > i:
                    yield (i, j)

    def _check_node(self, i: int) -> None:
        if not 0 <= i < len(self._adj):
            raise ValueError(f"node {i} does not exist")

    def __eq__(self, other: object):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class DegreeSequence:
    """Per-node degrees in ascending node-id order."""

    degrees: list[int]

    @property
    def edge_count(self) -> int:
        # Handshake lemma: the degree sum counts every edge twice.
        return sum(self.degrees) // 2


@dataclass(frozen=True)
class EdgeProbability:
    """An edge probability paired with the threshold for its graph size."""

    p: float
    p_star: float

    def __post_init__(self):
        _check_prob(self.p)

    @classmethod
    def for_size(cls, p: float, n: int) -> "EdgeProbability":
        return cls(p, connectivity_threshold(n))

    @property
    def above_threshold(self) -> bool:
        return self.p > self.p_star


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
    yields the same graph, independent of p. Quadratic in n; use
    generate_er_skip for large sparse graphs.

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
    g = Graph(n)
    adj = g._adj
    m = 0
    for i in range(n - 1):
        row = rng.random(n - 1 - i)
        for off in np.flatnonzero(row < p):
            j = i + 1 + int(off)
            adj[i].add(j)
            adj[j].add(i)
            m += 1
    g._n_edges = m
    return g


def generate_er_skip(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Sample G(n, p) by drawing geometric gaps between accepted edges.

    Matches generate_er in distribution but not draw-for-draw, so it must
    be fed its own dedicated rng stream. Runs in O(n + m) time, which is
    what makes populations in the hundreds of thousands practical.
    """
    _check_size(n)
    _check_prob(p)
    g = Graph(n)
    if p <= 0.0:
        return g
    adj = g._adj
    if p >= 1.0:
        for i in range(n - 1):
            for j in range(i + 1, n):
                adj[i].add(j)
                adj[j].add(i)
        g._n_edges = n * (n - 1) // 2
        return g
    lp = math.log1p(-p)
    m = 0
    v, w = 1, -1
    while v < n:
        u = rng.random()
        w = w + 1 + int(math.log1p(-u) / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            adj[v].add(w)
            adj[w].add(v)
            m += 1
    g._n_edges = m
    return g


def connectivity_threshold(n: int) -> float:
    """Return ln(n)/n, the sharp connectivity threshold for G(n, p)."""
    _check_size(n)
    return math.log(n) / n


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0."""
    n = g.n_nodes
    if n == 0:
        raise ValueError("connectivity is undefined for an empty graph")
    adj = g._adj
    seen = bytearray(n)
    seen[0] = 1
    count = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
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
    adj = g._adj
    return all(min(adj[i], default=i) < i for i in range(n_known, len(adj)))


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degrees in ascending node-id order; .edge_count recovers m."""
    return DegreeSequence([len(nbrs) for nbrs in g._adj])


def add_node_linked(g: Graph, anchor: NodeId, k_extra: int, rng: np.random.Generator) -> NodeId:
    """Append a node wired to anchor plus k_extra random older nodes.

    The anchor edge is unconditional. The extra neighbors are drawn
    uniformly without replacement from the nodes that existed before the
    call, excluding the anchor; when fewer than k_extra candidates exist,
    all of them are used.

    Returns the new node's id.

    Raises:
        ValueError: If the anchor does not exist or k_extra is negative.
    """
    if not 0 <= anchor < g.n_nodes:
        raise ValueError(f"anchor node {anchor} does not exist")
    if k_extra < 0:
        raise ValueError(f"k_extra must be non-negative, got {k_extra}")
    n_before = g.n_nodes
    new = g.add_node()
    g.add_edge(new, anchor)
    pool = n_before - 1
    k = min(k_extra, pool)
    if k <= 0:
        return new
    if k >= pool:
        chosen = [i for i in range(n_before) if i != anchor]
    elif n_before <= _REJECTION_POOL_MIN:
        # Sample positions in the pool with the anchor spliced out, then map
        # back: position idx names node idx, shifted past the anchor.
        picks = rng.choice(pool, size=k, replace=False)
        chosen = [int(idx) if idx < anchor else int(idx) + 1 for idx in picks]
    else:
        chosen = []
        seen = {anchor}
        while len(chosen) < k:
            cand = int(rng.integers(0, n_before))
            if cand in seen:
                continue
            seen.add(cand)
            chosen.append(cand)
    for c in chosen:
        g.add_edge(new, c)
    return new


def to_edge_list(g: Graph) -> str:
    """Serialize to the canonical edge-list text form.

    One header line "nodes=<n>", then one "i j" line per edge with i < j,
    sorted lexicographically. Stable bytes for identical graphs.
    """
    lines = [f"nodes={g.n_nodes}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list text form produced by to_edge_list."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("nodes="):
        raise ValueError("line 1: expected header 'nodes=<count>'")
    try:
        n = int(lines[0][len("nodes="):])
    except ValueError:
        raise ValueError("line 1: node count must be an integer") from None
    if n < 0:
        raise ValueError("line 1: node count must be non-negative")
    g = Graph(n)
    for lineno, raw in enumerate(lines[1:], start=2):
        s = raw.strip()
        if not s:
            continue
        parts = s.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        if i >= j:
            raise ValueError(f"line {lineno}: endpoints must satisfy i < j")
        try:
            g.add_edge(i, j)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return g
