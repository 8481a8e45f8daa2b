"""Cells, control factors, and stochastic transitions on a growing graph.

Each graph node carries exactly one cell. The model keeps the state codes
(NORMAL, QUIESCENT, METASTATIC or DEAD) in one int8 array indexed by node,
which grows with the graph's degree array as spawned nodes are appended,
plus a count of cells per code. Three control factors in [0, 1] steer the
dynamics: angiogenesis feeds metastasis and growth, recovery clears
metastatic cells and wakes quiescent ones, quiescence pushes normal cells
dormant when angiogenesis is low. agent_step applies one whole step: its
spawns in one batch, then its transitions. Both read one rule table of
thresholds, as array operations when at least _ARRAY_MIN cells act and cell
by cell otherwise.

BOUNDS is the one home of every numeric field bound. ModelConfig,
ControlFactors and sweep.SweepSpec check their fields against it when they
are built, and ModelConfig also bounds its start graph's size, so no
invalid config object exists, and the text parsers in cli_io hold no bound
of their own.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
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


# Preset levels for each control factor, by ControlFactors field name.
FACTOR_LEVELS = {
    "angiogenesis": {"low": 0.0, "medium": 0.4, "high": 1.0},
    "recovery": {"low": 0.1, "medium": 0.3, "high": 1.0},
    "quiescence": {"low": 0.1, "medium": 0.5, "high": 1.0},
}


def factor_level(factor: str, level: str) -> float:
    """Look up a preset, e.g. ("angiogenesis", "medium") -> 0.4."""
    row = FACTOR_LEVELS.get(factor)
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


MEDIUM_FACTORS = ControlFactors(**{factor: row["medium"] for factor, row in FACTOR_LEVELS.items()})

# The most nodes plus expected edges a start graph may have. At its peak a
# start costs about 26 B a node and 50-65 B an edge: 5M nodes and almost no
# edges took 122 MiB, 1M nodes and 2M edges 121 MiB, 20,000 nodes and 8M
# edges 371 MiB (Python 3.11, numpy 2.4, x86-64). So this keeps a start
# near 0.6 GiB at most, while the 200,000-cell start of the scale tests
# holds about 600,000.
_START_LIMIT = 10_000_000

# The most runs one sweep may hold, and the most run.csv rows a sweep with
# --keep-runs may keep. A run costs about 800 B until the sweep ends: a
# 100,000-run sweep peaked 77 MiB above its start, half of it the configs
# and tasks built before the first run. A kept row costs 25-40 B of text:
# 476,314 rows took 11 MiB more than the same sweep without them, and
# connected_500's run.csv is 20,170 B for 501 rows (Python 3.11, numpy 2.4,
# x86-64). So each keeps a sweep near 0.8 GiB at most, while fig4's 1,350
# runs keep at most 676,350 rows.
_RUN_LIMIT = 1_000_000
_KEPT_ROW_LIMIT = 20_000_000


@dataclass(frozen=True)
class ModelConfig:
    """Parameters for a single run.

    When p is None it is derived as K/(n_initial - 1), the density whose
    expected average degree is K. That value sits below the connectivity
    threshold for realistic sizes, so starting such a run requires
    allow_below_threshold; the run then stops on its own once the
    disconnected start is observed. n_initial plus the expected edge count
    p * n_initial * (n_initial - 1) / 2 may not exceed _START_LIMIT; a
    larger start raises ConfigError, naming p if it is set, else n_initial.

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
        n, p = self.n_initial, self.edge_prob
        size = n + p * n * (n - 1) / 2
        if size > _START_LIMIT:
            raise ConfigError(
                f"n_initial={n} at edge probability {p:.6g} expects a start graph of "
                f"{size:.3g} nodes and edges, more than the {_START_LIMIT:,} allowed",
                "n_initial" if self.p is None else "p",
            )

    @property
    def edge_prob(self) -> float:
        """Explicit p, or the density that makes the expected degree K."""
        if self.p is not None:
            return self.p
        if self.n_initial == 1:
            return 1.0
        return min(1.0, self.K / (self.n_initial - 1))


# Steps in which at least this many cells act are taken as array operations,
# smaller ones cell by cell: the array step pays about 20 numpy calls a step,
# the loop about 0.3 us a cell. Timed as the median of 1,500 calls on one
# step, interleaved in shuffled blocks of 50, on a 2-core 2.1 GHz Xeon VM
# (Python 3.11, numpy 2.4), the loop against the arrays took 33 us against
# 60 at 36 cells, 39 against 39 at 56, 43 against 39 at 64, 63 against 62
# at 96 and 81 against 44 at 190 on spawn-free steps, and 103 against 111
# at 36 cells, 120 against 118 at 56, 127 against 121 at 64 and 114
# against 111 at 96 on steps with a spawn per 50 to 75 cells.
_ARRAY_MIN = 64

# The outcome codes of both step paths: code 4 * s + r for a cell in state s
# whose uniform reaches r of its three thresholds in the rule table.
# _NEXT[code] is the state it takes, and _MOVES[code] = (s, _NEXT[code])
# moves it in the counts. A uniform reaches no 2.0 sentinel, so codes 6, 7
# and 11 do not occur.
_NEXT = np.array([
    QUIESCENT, METASTATIC, DEAD, NORMAL,  # normal
    NORMAL, QUIESCENT, QUIESCENT, QUIESCENT,  # quiescent
    DEAD, METASTATIC, METASTATIC, METASTATIC,  # metastatic
], dtype=np.int8)
_MOVES = [(code // 4, new) for code, new in enumerate(_NEXT.tolist())]


class Model:
    """Mutable simulation state, driven by the engine's step loop.

    state[i] is the state code of the cell on node i, an int8 array view of
    length graph.n_nodes; counts[c] is the number of cells holding code c.
    """

    def __init__(self, config: ModelConfig, graph: Graph, rng: RngStream):
        n = graph.n_nodes
        self.config = config
        self.graph = graph
        # _state[i] is the code of node i's cell for i < n_nodes. It has room
        # for appended nodes; the slots past n_nodes are 0, NORMAL.
        self._state = np.zeros(n, dtype=np.int8)
        self.counts = [n, 0, 0, 0]
        self.step_count = 0
        self.records: list[StepRecord] = []
        self.schedule_rng = rng.substream("schedule")
        self._trans_rng = rng.substream("transitions")
        self._growth_rng = rng.substream("growth")
        # The rule table of _threshold_table: its rows, read by the cell loop
        # and both spawn checks, and its columns a, b and c, read by the
        # array step. Sized now, so its metastatic row exists at step 1.
        self._rows: tuple[tuple[float, float, float], ...] = ()
        self._thresholds(0)

    @property
    def state(self) -> np.ndarray:
        return self._state[: self.graph.n_nodes]

    def live_ids(self) -> np.ndarray:
        """Ids of live cells, ascending, as an int array."""
        return (self._state[: self.graph.n_nodes] != DEAD).nonzero()[0]

    def state_counts(self) -> tuple[int, int, int, int]:
        return tuple(self.counts)

    def activate(self, ids: np.ndarray) -> None:
        """Act the cells ids, once each, in that order, through agent_step."""
        agent_step(self, ids)

    def _thresholds(self, max_deg: int) -> None:
        """Make the threshold table cover degree max_deg, doubling it."""
        if max_deg >= len(self._rows) // 3:
            cfg = self.config
            self._rows, self._a, self._b, self._c = _threshold_table(
                cfg.factors, cfg.K, cfg.spawn_rate, cfg.metastasis_rate, cfg.apoptosis_rate,
                1 << max_deg.bit_length(),
            )


@functools.lru_cache(maxsize=64)
def _threshold_table(factors: ControlFactors, K: int, spawn_rate: float, metastasis_rate: float,
                     apoptosis_rate: float, size: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The rule table of every live cell at degrees 0..size-1: rows, and its
    columns a, b and c. Row s * size + d holds the thresholds of a cell in
    state s at degree d, ascending:

      normal: (q_eff, t2, t3)
      quiescent: (recovery, 2.0, 2.0)
      metastatic: (recovery, spawn_below, 2.0)

    A normal cell turns quiescent below q_eff, metastasizes below t2 and
    dies below t3, which depend on its degree; a quiescent or metastatic
    cell recovers below recovery, and a metastatic one spawns below
    spawn_below. Each threshold is the one before it plus a product of
    non-negative floats, so it is not below it: every row ascends, as
    bisect_right in the cell loop needs, and 2.0 lies above every uniform.
    So the number of thresholds a uniform reaches, which the array step
    counts and bisect_right finds, names the rule that applies. Models with
    the same factors share the table (fig4's 1,350 runs share 9), so the
    arrays are read-only.
    """
    recovery, angiogenesis = factors.recovery, factors.angiogenesis
    spawn_below = recovery + (1.0 - recovery) * angiogenesis * spawn_rate
    q_eff = factors.quiescence * (1.0 - angiogenesis)
    normal = []
    for deg in range(size):
        m_eff = min(1.0, angiogenesis * metastasis_rate * deg / K)
        t2 = q_eff + (1.0 - q_eff) * m_eff
        normal.append((q_eff, t2, t2 + (1.0 - q_eff) * (1.0 - m_eff) * apoptosis_rate))
    rows = (*normal, *[(recovery, 2.0, 2.0)] * size, *[(recovery, spawn_below, 2.0)] * size)
    columns = np.array(rows).T.copy()
    columns.flags.writeable = False
    return rows, *columns


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
    may have linked to it. Raises ValueError, before any cell acts, if ids
    holds a dead cell.

    Within a step a cell's state changes only through its own activation,
    and whether a metastatic cell spawns depends only on its uniform. So
    every step spawns first, in one graph_core.add_nodes_linked batch that
    makes the same growth draws as spawning one by one in activation order.
    Then the transitions apply. The rule table of _threshold_table holds the
    three thresholds of each state and degree, and the number of them a
    cell's uniform reaches names its next state. A step of at least
    _ARRAY_MIN cells counts them as array operations; a smaller one finds
    them with bisect_right, cell by cell. Both read the same table rows with
    the same uniforms, so they agree, and both take the spawn rule's
    thresholds from its metastatic row.
    """
    ids = np.asarray(ids, dtype=np.intp)
    m = len(ids)
    u = model._trans_rng.random(m)
    if m >= _ARRAY_MIN:
        _array_step(model, ids, u)
    else:
        _cell_loop(model, ids, u)


def _dead_cell(ids: np.ndarray, k: int) -> ValueError:
    return ValueError(f"cell {ids[k]} is dead and cannot act")


def _array_step(model: Model, ids: np.ndarray, u: np.ndarray) -> None:
    """agent_step as array operations; the cells ids act on the uniforms u."""
    s = model._state[ids]
    counts = model.counts
    if counts[DEAD] and s.max() == DEAD:
        raise _dead_cell(ids, np.flatnonzero(s == DEAD)[0])
    # act_deg[k]: the degree of cell ids[k] as it acts.
    act_deg = model.graph._deg[ids]
    if counts[METASTATIC]:
        recovery, spawn_below = model._rows[-1][:2]
        spawners = ((s == METASTATIC) & (u >= recovery) & (u < spawn_below)).nonzero()[0]
        if spawners.size:
            act_deg += _spawn(model, ids, spawners)
    model._thresholds(int(act_deg.max()))
    # The row of each cell in the rule table, and the thresholds u reaches.
    key = np.multiply(s, len(model._rows) // 3, dtype=np.intp)
    key += act_deg
    code = 4 * s + (u >= model._a[key]) + (u >= model._b[key]) + (u >= model._c[key])
    model._state[ids] = _NEXT[code]
    for (old, new), n in zip(_MOVES, np.bincount(code, minlength=12).tolist()):
        if n:
            counts[old] -= n
            counts[new] += n


def _cell_loop(model: Model, ids: np.ndarray, u: np.ndarray) -> None:
    """agent_step cell by cell, on Python lists gathered once per step."""
    states = model._state[ids].tolist()
    if DEAD in states:
        raise _dead_cell(ids, states.index(DEAD))
    ids_list, xs = ids.tolist(), u.tolist()
    degrees = model.graph._deg[ids]
    counts = model.counts
    if counts[METASTATIC]:
        recovery, spawn_below = model._rows[-1][:2]
        spawners = [k for k, s in enumerate(states) if s == METASTATIC and recovery <= xs[k] < spawn_below]
        if spawners:
            degrees += _spawn(model, ids, np.array(spawners))
    degrees = degrees.tolist()
    model._thresholds(max(degrees, default=0))
    rows = model._rows
    size = len(rows) // 3
    state = model._state
    for i, s, x, d in zip(ids_list, states, xs, degrees):
        old, new = _MOVES[4 * s + bisect_right(rows[s * size + d], x)]
        if new != old:
            state[i] = new
            counts[old] -= 1
            counts[new] += 1


def _spawn(model: Model, ids: np.ndarray, spawners: np.ndarray) -> np.ndarray:
    """Spawn, in one batch, a normal cell for each cell ids[q], q in spawners ascending.

    Returns the degree increments by position in ids: the new cell of the
    spawner at q counts for the cell at k iff k > q, which acts after it.
    """
    graph = model.graph
    n0 = graph.n_nodes
    lo, hi = graph_core.add_nodes_linked(graph, ids[spawners], model.config.K - 1, model._growth_rng)
    # at[c] is where cell c acts in ids, or -1 if it does not act in this step.
    at = np.full(graph.n_nodes, -1)
    at[ids] = np.arange(len(ids))
    later = at[lo]
    later = later[later > spawners[hi - n0]]
    # The new cells' slots read 0, NORMAL.
    model._state = graph_core.with_room(model._state, graph.n_nodes)
    model.counts[NORMAL] += len(spawners)
    return np.bincount(later, minlength=len(ids))


def spawn_cell(model: Model, parent: int) -> int:
    """Grow by one normal cell, on a new node linked to parent and K-1 others; returns its id."""
    _spawn(model, np.array([parent]), np.zeros(1, dtype=np.intp))
    return model.graph.n_nodes - 1
