"""Deterministic run loop: rng streams, scheduling, and data collection.

The engine is generic over the model object it drives. A model must expose:

    graph          a graph_core.Graph, append-only: nodes are only added and
                   edges are never removed, so run() can check connectivity
                   over the nodes each step added rather than the whole graph
    step_count     int, number of completed steps
    records        list the engine appends StepRecords to
    schedule_rng   numpy Generator used only for activation order
    live_ids()     ids of live agents in ascending order, as an int array
    activate(ids)  apply one step's transitions: the agents ids, an int
                   array, act once each, in that order; called once per
                   step, unless no agent is live
    state_counts() (normal, quiescent, metastatic, dead) tallies

Keeping the loop separate from the cell rules means scheduling and
collection can be tested with stub models.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import graph_core, metrics

TERM_MAX_STEPS = "max_steps"
TERM_DISCONNECTED = "disconnected"
TERM_EXTINCT = "extinct"

_WORD_MASK = 0xFFFF_FFFF


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an int: its 32-bit words, least significant
    first, with no high zero words ([0] for 0)."""
    if n < 0:
        raise ValueError(f"seed words need a non-negative int, got {n}")
    words = [n & _WORD_MASK]
    n >>= 32
    while n:
        words.append(n & _WORD_MASK)
        n >>= 32
    return words


@functools.lru_cache(maxsize=256)
def _label_words(label: str) -> tuple[int, ...]:
    """The words of a label's key: the first 16 bytes of its sha256, big-endian."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(_words(int.from_bytes(digest[:16], "big")))


class RngStream:
    """A root seed fanned out into independent named substreams.

    Labels are hashed with sha256, never the process-salted built-in hash,
    so (seed, label) reproduces the same generator in every process.
    Distinct labels give independent streams; drawing more from one
    subsystem never shifts another.

    The generator of (seed, label) is the one SeedSequence([seed, 0, key])
    seeds, key being the label's hash; the 0 word is part of the frozen
    seeding, and dropping it would change every stream. SeedSequence joins
    the 32-bit words of those ints, so substream hands it the words
    directly, with the seed's converted once per stream and each label's
    once per process.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._seed_words = _words(self.seed)

    def substream(self, label: str) -> np.random.Generator:
        words = [*self._seed_words, 0, *_label_words(label)]
        return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@dataclass(frozen=True)
class StepRecord:
    """Population and graph tallies after one step (or at step 0): a row of
    run.csv, one field per column, in order."""

    step: int
    n_nodes: int
    n_edges: int
    normal: int
    quiescent: int
    metastatic: int
    dead: int
    volume_ratio: float

    @property
    def count_live(self) -> int:
        return self.normal + self.quiescent + self.metastatic


@dataclass
class TimeSeries:
    """Records from step 0 upward, plus the reason the run stopped."""

    records: list[StepRecord] = field(default_factory=list)
    termination: str | None = None


def collect(model) -> StepRecord:
    """Snapshot the model into a StepRecord without mutating anything."""
    g = model.graph
    return StepRecord(
        model.step_count, g.n_nodes, g.n_edges, *model.state_counts(), metrics.volume_ratio(g)
    )


def step(model) -> StepRecord:
    """Activate every currently-live agent once, in fresh random order.

    The live set is snapshotted before any activation, so agents spawned
    during the step wait for the next one. The permutation comes from the
    model's "schedule" stream and is the only randomness consumed here; the
    model gets the permuted live ids in one activate() call.
    """
    live = model.live_ids()
    if len(live):
        model.activate(live[model.schedule_rng.permutation(len(live))])
    model.step_count += 1
    record = collect(model)
    model.records.append(record)
    return record


def run(model, max_steps: int) -> TimeSeries:
    """Drive step() until max_steps, disconnection, or extinction.

    The step-0 record captures the initial state. Both stop conditions are
    evaluated after each step, so the record of the step that tripped one
    is always part of the series. A graph that starts disconnected stops
    the run right after the first step.

    The connectivity verdict is exact every step, but only the first check
    walks the whole graph. Once the graph has been seen connected with
    `known` nodes, it stays so while every newer node has an older
    neighbor (graph_core.linked_since); only when one lacks it does the full
    is_connected search run again.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if model.step_count != 0 or model.records:
        raise ValueError("run() requires a freshly initialized model")
    model.records.append(collect(model))
    termination = TERM_MAX_STEPS
    known = 0
    while model.step_count < max_steps:
        record = step(model)
        g = model.graph
        if not (graph_core.linked_since(g, known) or graph_core.is_connected(g)):
            termination = TERM_DISCONNECTED
            break
        known = g.n_nodes
        if record.count_live == 0:
            termination = TERM_EXTINCT
            break
    return TimeSeries(records=list(model.records), termination=termination)
