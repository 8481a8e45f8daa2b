"""Test-only reference: the row-by-row pair sampler that generate_er replaced.

One rng.random(n-1-i) call per row i, testing pairs (i, j) with i < j in
lexicographic order, one uniform each. graph_core.generate_er draws the same
uniforms in fixed-size blocks instead, so from one generator both must give
the same graph and leave the generator at the same position.
"""

from __future__ import annotations

import numpy as np

from tumornet.graph_core import Graph


def generate_er_rowwise(n: int, p: float, rng: np.random.Generator) -> Graph:
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
