"""Agent-based simulation of tumor growth on Erdos-Renyi random graphs.

Cells live on graph nodes and switch between normal, quiescent,
metastatic, and dead states under three control factors; metastatic cells
grow the graph. Runs are fully deterministic given a seed, and the sweep
harness executes seeded parameter grids in parallel without changing the
output.
"""

from .engine import (
    RngStream,
    StepRecord,
    TERM_DISCONNECTED,
    TERM_EXTINCT,
    TERM_MAX_STEPS,
    TimeSeries,
    collect,
    run,
    step,
)
from .graph_core import (
    DegreeSequence,
    EdgeProbability,
    Graph,
    NodeId,
    add_node_linked,
    connectivity_threshold,
    degree_sequence,
    from_edge_list,
    generate_er,
    generate_er_skip,
    is_connected,
    to_edge_list,
)
from .metrics import (
    GatedVolume,
    TciClass,
    degree_histogram,
    gated_volume_ratio,
    spheroid_volume,
    tci_classify,
    volume_ratio,
)
from .sweep import (
    CellAggregate,
    RunOutcome,
    SweepError,
    SweepResult,
    SweepSpec,
    aggregate,
    expand,
    fig4_spec,
    run_sweep,
)
from .tumor_model import (
    ConfigError,
    ControlFactors,
    MEDIUM_FACTORS,
    Model,
    ModelConfig,
    agent_step,
    factor_level,
    init_model,
    spawn_cell,
)
from .cli_io import main, parse_config, parse_sweep_spec, plot_svg, serialize_config

__version__ = "0.1.0"

__all__ = [
    "CellAggregate",
    "ConfigError",
    "ControlFactors",
    "DegreeSequence",
    "EdgeProbability",
    "GatedVolume",
    "Graph",
    "MEDIUM_FACTORS",
    "Model",
    "ModelConfig",
    "NodeId",
    "RngStream",
    "RunOutcome",
    "StepRecord",
    "SweepError",
    "SweepResult",
    "SweepSpec",
    "TERM_DISCONNECTED",
    "TERM_EXTINCT",
    "TERM_MAX_STEPS",
    "TciClass",
    "TimeSeries",
    "add_node_linked",
    "agent_step",
    "aggregate",
    "collect",
    "connectivity_threshold",
    "degree_histogram",
    "degree_sequence",
    "expand",
    "factor_level",
    "fig4_spec",
    "from_edge_list",
    "gated_volume_ratio",
    "generate_er",
    "generate_er_skip",
    "init_model",
    "is_connected",
    "main",
    "parse_config",
    "parse_sweep_spec",
    "plot_svg",
    "run",
    "run_sweep",
    "serialize_config",
    "spawn_cell",
    "spheroid_volume",
    "step",
    "tci_classify",
    "to_edge_list",
    "volume_ratio",
]
