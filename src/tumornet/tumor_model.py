"""Cells, control factors, and stochastic transitions on a growing graph.

Each graph node carries exactly one cell, and the model keeps one small-int
state code per node (NORMAL, QUIESCENT, METASTATIC or DEAD) plus a count of
cells per code. Three control factors in [0, 1] steer the dynamics:
angiogenesis feeds metastasis and growth, recovery clears metastatic cells
and wakes quiescent ones, quiescence pushes normal cells dormant when
angiogenesis is low. agent_step applies one whole step of transitions: as
array operations when every node holds a normal cell and acts, as at
step 1, and cell by cell otherwise.

BOUNDS is the one home of every numeric config bound. ModelConfig,
ControlFactors and sweep.SweepSpec check their fields against it when they
are built, so no invalid config object exists, and the text parsers in
cli_io hold no bound of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph_core
from .engine import RngStream, StepRecord
from .graph_core import DENSE_SAMPLER_LIMIT, Graph


class ConfigError(ValueError):
    """Invalid model or sweep configuration; field names the rejected field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


# field -> (low, high), inclusive; high None means no upper bound.
BOUNDS = {
    "n_initial": (1, None),
    "K": (1, None),
    "max_steps": (0, None),
    "seed": (0, None),
    "seeds_per_cell": (1, None),
    "workers": (1, None),
    "p": (0, 1),
    "spawn_rate": (0, 1),
    "metastasis_rate": (0, 1),
    "apoptosis_rate": (0, 1),
    "angiogenesis": (0, 1),
    "recovery": (0, 1),
    "quiescence": (0, 1),
}


def check_bound(field: str, value, bound: str | None = None) -> None:
    """Raise ConfigError naming field unless value lies in BOUNDS[bound or field]."""
    low, high = BOUNDS[bound or field]
    if high is None:
        if not value >= low:
            raise ConfigError(f"{field} must be at least {low}, got {value}", field)
    elif not low <= value <= high:
        raise ConfigError(f"{field} must lie in [{low}, {high}], got {value}", field)


def _check_fields(config) -> None:
    """Check every bounded field of a config dataclass; None means unset."""
    for name, value in vars(config).items():
        if name in BOUNDS and value is not None:
            check_bound(name, value)


# Cell state codes: the values of Model.state and the indexes of Model.counts,
# in state_counts() order.
NORMAL, QUIESCENT, METASTATIC, DEAD = range(4)


# Preset levels for each control factor.
FACTOR_LEVELS = {
    "angiogenesis": {"low": 0.0, "medium": 0.4, "high": 1.0},
    "recovery": {"low": 0.1, "medium": 0.3, "high": 1.0},
    "quiescent": {"low": 0.1, "medium": 0.5, "high": 1.0},
}

# The factor table row is named "quiescent"; the config key and the
# ControlFactors field use the noun form. Accept both.
_FACTOR_ALIASES = {"quiescence": "quiescent"}


def factor_level(factor: str, level: str) -> float:
    """Look up a preset, e.g. ("angiogenesis", "medium") -> 0.4."""
    name = _FACTOR_ALIASES.get(factor, factor)
    row = FACTOR_LEVELS.get(name)
    if row is None:
        raise ConfigError(f"unknown control factor {factor!r}")
    value = row.get(level)
    if value is None:
        raise ConfigError(f"unknown level {level!r} for factor {factor!r}")
    return value


@dataclass(frozen=True)
class ControlFactors:
    angiogenesis: float
    recovery: float
    quiescence: float

    def __post_init__(self):
        _check_fields(self)


MEDIUM_FACTORS = ControlFactors(angiogenesis=0.4, recovery=0.3, quiescence=0.5)


@dataclass(frozen=True)
class ModelConfig:
    """Parameters for a single run.

    When p is None it is derived as K/(n_initial - 1), the density whose
    expected average degree is K. That value sits below the connectivity
    threshold for realistic sizes, so starting such a run requires
    allow_below_threshold; the run then stops on its own once the
    disconnected start is observed.

    Attributes:
        n_initial: Starting cell count, at least 1.
        K: Configured average degree (typical range 3..8).
        p: Explicit edge probability, or None to derive it from K.
        factors: The three control factors.
        spawn_rate: Growth probability scale for metastatic cells.
        metastasis_rate: Degree-weighted metastasis probability scale.
        apoptosis_rate: Baseline death probability for normal cells.
        max_steps: Default step budget for run().
        seed: Root seed; all substreams derive from it.
        allow_below_threshold: Permit a start that is almost surely
            disconnected instead of raising.
    """

    n_initial: int
    K: int = 4
    p: float | None = None
    factors: ControlFactors = MEDIUM_FACTORS
    spawn_rate: float = 0.25
    metastasis_rate: float = 0.5
    apoptosis_rate: float = 0.01
    max_steps: int = 500
    seed: int = 0
    allow_below_threshold: bool = False

    def __post_init__(self):
        _check_fields(self)

    @property
    def edge_prob(self) -> float:
        """Explicit p, or the density that makes the expected degree K."""
        if self.p is not None:
            return self.p
        if self.n_initial == 1:
            return 1.0
        return min(1.0, self.K / (self.n_initial - 1))


class Model:
    """Mutable simulation state, driven by the engine's step loop.

    state[i] is the state code of the cell on node i; counts[c] is the
    number of cells holding code c.
    """

    def __init__(self, config: ModelConfig, graph: Graph, rng: RngStream):
        n = graph.n_nodes
        self.config = config
        self.graph = graph
        self.state = [NORMAL] * n
        self.counts = [n, 0, 0, 0]
        self.step_count = 0
        self.records: list[StepRecord] = []
        self.schedule_rng = rng.substream("schedule")
        self._trans_rng = rng.substream("transitions")
        self._growth_rng = rng.substream("growth")
        # live_ids() as of its last call, with the node and dead counts then.
        self._live = list(range(n))
        self._n_listed = n
        self._n_dead = 0

    def live_ids(self) -> list[int]:
        """Ids of live cells, ascending: the previous list minus the cells that
        died since, plus the ids appended since (dead is absorbing)."""
        if self.counts[DEAD] != self._n_dead:
            state = self.state
            self._live = [i for i in self._live if state[i] != DEAD]
            self._n_dead = self.counts[DEAD]
        n = len(self.state)
        self._live.extend(range(self._n_listed, n))
        self._n_listed = n
        return list(self._live)

    def state_counts(self) -> tuple[int, int, int, int]:
        return tuple(self.counts)

    def activate(self, live: list[int], order: np.ndarray) -> None:
        """Act the cells live[k] for k in order, once each, in that order."""
        if self.counts[NORMAL] == len(self.state) == len(live):
            # Every node holds a live cell, so live is range(n) and order the ids.
            agent_step(self, order)
        else:
            agent_step(self, [live[k] for k in order.tolist()])


def init_model(config: ModelConfig) -> Model:
    """Build the starting population: an ER graph, one Normal stem cell per node.

    Raises ConfigError when the edge probability sits at or below the
    connectivity threshold and the config does not opt into a disconnected
    start.
    """
    p = config.edge_prob
    p_star = graph_core.connectivity_threshold(config.n_initial)
    if p <= p_star and not config.allow_below_threshold:
        raise ConfigError(
            f"edge probability {p:.6g} is at or below the connectivity threshold "
            f"{p_star:.6g} for n={config.n_initial}; such a graph is almost surely "
            "disconnected at the start (set allow_below_threshold to proceed)"
        )
    rng = RngStream(config.seed)
    if config.n_initial <= DENSE_SAMPLER_LIMIT:
        graph = graph_core.generate_er(config.n_initial, p, rng.substream("graph"))
    else:
        # The gap sampler gets its own stream; it is distribution-equivalent
        # to the pairwise one, not draw-for-draw identical.
        graph = graph_core.generate_er_skip(config.n_initial, p, rng.substream("graph-skip"))
    return Model(config, graph, rng)


def agent_step(model: Model, ids: list[int] | np.ndarray) -> None:
    """Apply one step's transitions to the live cells ids, in that order.

    ids holds distinct cell ids, as a list or an int array. Every
    activation consumes exactly one uniform, whatever the outcome, and all
    of them are drawn in one call up front, so the transition stream
    layout depends only on the activation sequence. The rules, by state:

      metastatic: cleared with probability recovery; otherwise spawns a new
          cell with probability angiogenesis * spawn_rate.
      quiescent: wakes to normal with probability recovery.
      normal: turns quiescent with probability quiescence * (1 - angiogenesis);
          otherwise metastasizes with probability
          min(1, angiogenesis * metastasis_rate * degree / K);
          otherwise dies with probability apoptosis_rate.

    A cell's degree is read when it acts: cells spawned earlier in the step
    may have linked to it. Raises ValueError at the first dead cell in ids.

    When every node holds a normal cell and acts, no cell can spawn and
    every degree is the one at step start, so the step is taken as array
    operations: the same uniforms and float expressions give the same
    states as the cell-by-cell loop, which takes every other step.
    """
    if model.counts[NORMAL] == len(model.state) == len(ids):
        _all_normal_step(model, ids)
        return
    cfg = model.config
    f = cfg.factors
    state = model.state
    counts = model.counts
    degrees = model.graph._deg
    recovery = f.recovery
    spawn_below = recovery + (1.0 - recovery) * f.angiogenesis * cfg.spawn_rate
    q_eff = f.quiescence * (1.0 - f.angiogenesis)
    # Normal-cell thresholds (metastasize below, die below) by degree.
    normal_below: dict[int, tuple[float, float]] = {}
    for i, u in zip(ids, model._trans_rng.random(len(ids)).tolist()):
        s = state[i]
        if s == NORMAL:
            deg = degrees[i]
            below = normal_below.get(deg)
            if below is None:
                m_eff = min(1.0, f.angiogenesis * cfg.metastasis_rate * deg / cfg.K)
                t2 = q_eff + (1.0 - q_eff) * m_eff
                t3 = t2 + (1.0 - q_eff) * (1.0 - m_eff) * cfg.apoptosis_rate
                below = normal_below[deg] = (t2, t3)
            if u < q_eff:
                new = QUIESCENT
            elif u < below[0]:
                new = METASTATIC
            elif u < below[1]:
                new = DEAD
            else:
                continue
        elif s == METASTATIC:
            if u >= recovery:
                if u < spawn_below:
                    spawn_cell(model, i)
                continue
            new = DEAD
        elif s == QUIESCENT:
            if u >= recovery:
                continue
            new = NORMAL
        else:
            raise ValueError(f"cell {i} is dead and cannot act")
        state[i] = new
        counts[s] -= 1
        counts[new] += 1


def _all_normal_step(model: Model, ids: list[int] | np.ndarray) -> None:
    """agent_step when ids orders every node and every node holds a normal cell."""
    cfg = model.config
    f = cfg.factors
    n = len(ids)
    u = np.empty(n)
    u[ids] = model._trans_rng.random(n)  # u[i]: the uniform cell i acts on
    degrees = np.fromiter(model.graph._deg, np.intp, n)
    q_eff = f.quiescence * (1.0 - f.angiogenesis)
    m_eff = np.minimum(1.0, f.angiogenesis * cfg.metastasis_rate * degrees / cfg.K)
    t2 = q_eff + (1.0 - q_eff) * m_eff
    t3 = t2 + (1.0 - q_eff) * (1.0 - m_eff) * cfg.apoptosis_rate
    new = np.where(u < q_eff, QUIESCENT, np.where(u < t2, METASTATIC, np.where(u < t3, DEAD, NORMAL)))
    model.state[:] = new.tolist()
    model.counts[:] = np.bincount(new, minlength=4).tolist()


def spawn_cell(model: Model, parent: int) -> int:
    """Grow by one normal cell, on a new node linked to parent and K-1 others; returns its id."""
    node = graph_core.add_node_linked(model.graph, parent, model.config.K - 1, model._growth_rng)
    model.state.append(NORMAL)
    model.counts[NORMAL] += 1
    return node
