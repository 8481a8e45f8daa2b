"""Test-only references: the samplers that graph_core's generators replaced.

generate_er_rowwise makes one rng.random(n-1-i) call per row i, testing
pairs (i, j) with i < j in lexicographic order, one uniform each, and adds
each hit through the public Graph.add_edge. graph_core.generate_er draws
the same uniforms in fixed-size blocks and builds the graph from its hit
arrays instead, so from one generator both must give the same graph and
leave the generator at the same position.

generate_er_skip_scalar is the gap sampler with one scalar rng.random()
call per edge. graph_core.generate_er_skip draws the same uniforms in
blocks, so from one generator both must give the same graph.
"""

from __future__ import annotations

import math

import numpy as np

from tumornet.graph_core import Graph


def generate_er_rowwise(n: int, p: float, rng: np.random.Generator) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        row = rng.random(n - 1 - i)
        for off in np.flatnonzero(row < p).tolist():
            g.add_edge(i, i + 1 + off)
    return g


def generate_er_skip_scalar(n: int, p: float, rng: np.random.Generator) -> Graph:
    """The per-edge loop. Its one change from the loop it replaced: the gap
    is capped at the pair count before int(), as the ratio is inf at
    subnormal p; a capped gap ends the loop just as the uncapped one."""
    g = Graph(n)
    if p <= 0.0:
        return g
    if p >= 1.0:
        for v in range(1, n):
            for w in range(v):
                g.add_edge(w, v)
        return g
    total = n * (n - 1) // 2
    lp = math.log1p(-p)
    v, w = 1, -1
    while v < n:
        u = rng.random()
        w = w + 1 + int(min(math.log1p(-u) / lp, total))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            g.add_edge(w, v)
    return g
