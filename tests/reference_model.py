"""Test-only reference: the per-object cell model that tumor_model replaced.

One CellAgent per cell, a CellState enum, a dict of counts keyed by state,
a live list rescanned every step, one scalar uniform drawn per activation,
and each spawned node appended on its own through reference_graph.grow,
which checks every edge. It reads the same rng substreams as
tumor_model.Model, so from one config both must give the same graphs and
the same StepRecords, step by step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from reference_graph import grow
from tumornet import graph_core, tumor_model
from tumornet.engine import RngStream
from tumornet.graph_core import Graph


class CellState(enum.Enum):
    """Valued by the flat model's state codes, so states compare directly."""

    NORMAL = tumor_model.NORMAL
    QUIESCENT = tumor_model.QUIESCENT
    METASTATIC = tumor_model.METASTATIC
    DEAD = tumor_model.DEAD


@dataclass(slots=True)
class CellAgent:
    agent_id: int
    state: CellState


class ReferenceModel:
    """Drop-in for tumor_model.Model under engine.step and engine.run."""

    def __init__(self, config: tumor_model.ModelConfig):
        self.config = config
        # The flat model's init builds the graph from the same seed.
        self.graph = tumor_model.init_model(config).graph
        self.agents = [CellAgent(i, CellState.NORMAL) for i in range(self.graph.n_nodes)]
        self.step_count = 0
        self.records = []
        rng = RngStream(config.seed)
        self.schedule_rng = rng.substream("schedule")
        self._trans_rng = rng.substream("transitions")
        self._growth_rng = rng.substream("growth")
        self._counts = {state: 0 for state in CellState}
        self._counts[CellState.NORMAL] = len(self.agents)

    def live_ids(self) -> np.ndarray:
        ids = [a.agent_id for a in self.agents if a.state is not CellState.DEAD]
        return np.array(ids, dtype=np.intp)

    def state_counts(self) -> tuple[int, int, int, int]:
        return tuple(self._counts[s] for s in CellState)

    def activate(self, ids: np.ndarray) -> None:
        for agent_id in ids.tolist():
            agent_step(self.agents[agent_id], self)

    def set_state(self, agent: CellAgent, new_state: CellState) -> None:
        self._counts[agent.state] -= 1
        agent.state = new_state
        self._counts[new_state] += 1


def agent_step(agent: CellAgent, model: ReferenceModel) -> None:
    """One activation: one scalar uniform, thresholds recomputed every time."""
    state = agent.state
    if state is CellState.DEAD:
        raise ValueError(f"agent {agent.agent_id} is dead and cannot act")
    f = model.config.factors
    u = model._trans_rng.random()
    if state is CellState.METASTATIC:
        if u < f.recovery:
            model.set_state(agent, CellState.DEAD)
        elif u < f.recovery + (1.0 - f.recovery) * f.angiogenesis * model.config.spawn_rate:
            spawn_cell(agent, model)
    elif state is CellState.QUIESCENT:
        if u < f.recovery:
            model.set_state(agent, CellState.NORMAL)
    else:
        q_eff = f.quiescence * (1.0 - f.angiogenesis)
        deg = int(model.graph.degrees[agent.agent_id])
        m_eff = min(1.0, f.angiogenesis * model.config.metastasis_rate * deg / model.config.K)
        t1 = q_eff
        t2 = t1 + (1.0 - q_eff) * m_eff
        t3 = t2 + (1.0 - q_eff) * (1.0 - m_eff) * model.config.apoptosis_rate
        if u < t1:
            model.set_state(agent, CellState.QUIESCENT)
        elif u < t2:
            model.set_state(agent, CellState.METASTATIC)
        elif u < t3:
            model.set_state(agent, CellState.DEAD)


def spawn_cell(parent: CellAgent, model: ReferenceModel) -> None:
    node = add_node_linked_checked(model.graph, parent.agent_id, model.config.K - 1, model._growth_rng)
    model.agents.append(CellAgent(node, CellState.NORMAL))
    model._counts[CellState.NORMAL] += 1


def add_node_linked_checked(g: Graph, anchor: int, k_extra: int, rng) -> int:
    """graph_core.add_node_linked's draws, with the new node and its edges appended through grow."""
    new = n_before = g.n_nodes
    pool = n_before - 1
    k = min(k_extra, pool)
    if k <= 0:
        chosen = []
    elif k >= pool:
        chosen = [i for i in range(n_before) if i != anchor]
    elif n_before <= graph_core._REJECTION_POOL_MIN:
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
    grow(g, 1, [(new, c) for c in [anchor] + chosen])
    return new
