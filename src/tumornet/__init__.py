"""Agent-based simulation of tumor growth on Erdos-Renyi random graphs.

Cells live on graph nodes and switch between normal, quiescent,
metastatic, and dead states under three control factors; metastatic cells
grow the graph. Runs are fully deterministic given a seed, and the sweep
harness executes seeded parameter grids in parallel without changing the
output.
"""

from .engine import RngStream, run, step
from .graph_core import Graph, connectivity_threshold, generate_er, generate_er_skip, is_connected
from .metrics import tci_classify, volume_ratio
from .sweep import SweepError, SweepSpec, fig4_spec, run_sweep
from .tumor_model import ConfigError, ControlFactors, ModelConfig, init_model
from .cli_io import main

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControlFactors",
    "Graph",
    "ModelConfig",
    "RngStream",
    "SweepError",
    "SweepSpec",
    "connectivity_threshold",
    "fig4_spec",
    "generate_er",
    "generate_er_skip",
    "init_model",
    "is_connected",
    "main",
    "run",
    "run_sweep",
    "step",
    "tci_classify",
    "volume_ratio",
]
