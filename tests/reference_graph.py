"""Test-only reference: the row-by-row pair sampler that generate_er replaced.

One rng.random(n-1-i) call per row i, testing pairs (i, j) with i < j in
lexicographic order, one uniform each, and adding each hit through the
public Graph.add_edge. graph_core.generate_er draws the same uniforms in
fixed-size blocks and builds the graph from its hit arrays instead, so from
one generator both must give the same graph and leave the generator at the
same position.
"""

from __future__ import annotations

import numpy as np

from tumornet.graph_core import Graph


def generate_er_rowwise(n: int, p: float, rng: np.random.Generator) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        row = rng.random(n - 1 - i)
        for off in np.flatnonzero(row < p).tolist():
            g.add_edge(i, i + 1 + off)
    return g
