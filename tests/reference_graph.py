"""Test-only graph helpers: the checked way to build a Graph, a networkx view
of one, and the samplers that graph_core's generators replaced.

grow is how tests build and extend graphs. It appends nodes and edges
through Graph._append, the one path the product grows a Graph by, in one
call, and asserts that every edge is new and joins two distinct nodes that
exist. as_networkx reads a Graph's edges back through its endpoint arrays,
for networkx to serve as the oracle.

generate_er_rowwise makes one rng.random(n-1-i) call per row i, testing
pairs (i, j) with i < j in lexicographic order, one uniform each, and builds
the graph from its hits through grow. graph_core.generate_er draws the same
uniforms in fixed-size blocks and builds the graph from its hit arrays
instead, so from one generator both must give the same graph and leave the
generator at the same position.

generate_er_skip_scalar is the gap sampler with one scalar rng.random()
call per edge. graph_core.generate_er_skip draws the same uniforms in
blocks, so from one generator both must give the same graph.
"""

from __future__ import annotations

import math
from typing import Iterable

import networkx as nx
import numpy as np

from tumornet.graph_core import Graph, _key


def grow(g: Graph, count: int = 0, pairs: Iterable[tuple[int, int]] = ()) -> Graph:
    """Append count isolated nodes and then the edges pairs to g, in one Graph._append call.

    Either end of a pair may come first. Asserts that each pair joins two
    distinct nodes of the grown graph, and that no edge is given twice or is
    already in g. Returns g.
    """
    ends = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    n_old = g.n_nodes
    assert count >= 0 and (lo >= 0).all() and (hi < n_old + count).all(), "an edge names a missing node"
    assert (lo < hi).all(), "a self-loop"
    keys = _key(lo, hi)
    assert len(np.unique(keys)) == len(keys), "an edge given twice"
    # Only an edge between two old nodes can already be in g.
    old = hi < n_old
    assert not (old.any() and np.isin(keys[old], _key(*g._endpoints())).any()), "an edge already in the graph"
    g._append(count, lo, hi)
    return g


def as_networkx(g: Graph) -> nx.Graph:
    """g's nodes and edges as a networkx graph."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    lo, hi = g._endpoints()
    h.add_edges_from(zip(lo.tolist(), hi.tolist()))
    return h


def generate_er_rowwise(n: int, p: float, rng: np.random.Generator) -> Graph:
    pairs = []
    for i in range(n - 1):
        row = rng.random(n - 1 - i)
        pairs.extend((i, i + 1 + off) for off in np.flatnonzero(row < p).tolist())
    return grow(Graph(), n, pairs)


def generate_er_skip_scalar(n: int, p: float, rng: np.random.Generator) -> Graph:
    """The per-edge loop. Its one change from the loop it replaced: the gap
    is capped at the pair count before int(), as the ratio is inf at
    subnormal p; a capped gap ends the loop just as the uncapped one."""
    if p <= 0.0:
        return grow(Graph(), n)
    if p >= 1.0:
        return grow(Graph(), n, [(w, v) for v in range(1, n) for w in range(v)])
    total = n * (n - 1) // 2
    lp = math.log1p(-p)
    pairs = []
    v, w = 1, -1
    while v < n:
        u = rng.random()
        w = w + 1 + int(min(math.log1p(-u) / lp, total))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            pairs.append((w, v))
    return grow(Graph(), n, pairs)
