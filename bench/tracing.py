"""Spans around tumornet's public functions, recorded from outside the package.

Tracer.wrap() replaces an attribute that callers look up at call time
(graph_core.is_connected, engine.step, tumor_model.Model.live_ids, ...) with
a wrapper that records one span per call; Tracer.restore() puts every
original back. A span is (parent, name, start, end, a, b): a and b are two
counts the wrapper measured from the call's arguments and result, such as
the nodes a connectivity check visited and whether it returned True.

Spans stay in flat arrays in memory until the pass ends. In a forked sweep
worker the entry wrapper (sweep._execute) starts a fresh buffer and appends
each run's spans to a per-process file, which merge() folds back in under
the parent's run_sweep span.

The arithmetic helpers at the bottom (self times, useful ratios, the high
percentile) are pure functions of arrays and lists, tested on their own.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from pathlib import Path

import numpy as np

SPAN_DTYPE = np.dtype(
    [("parent", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8"), ("a", "i8"), ("b", "i8")]
)

ROOT = -1


class Tracer:
    def __init__(self, spans_dir: str | Path | None = None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.spans_dir = Path(spans_dir) if spans_dir is not None else None
        self._pid = os.getpid()
        self._reset_buffers()

    def _reset_buffers(self) -> None:
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [ROOT]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, span_name: str, measure=None, worker_entry: bool = False):
        """Replace owner.attr with a span-recording wrapper.

        measure(args, result) -> (a, b) runs after the span has closed, so its
        cost is not charged to the call. worker_entry marks the function a
        process pool runs in its workers (see the module docstring).
        """
        original = vars(owner)[attr]
        nid = self.name_id(span_name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if worker_entry and os.getpid() != tracer._pid:
                tracer._pid = os.getpid()
                tracer._reset_buffers()
            start = tracer.start
            idx = len(start)
            tracer.parent.append(tracer._stack[-1])
            tracer.name.append(nid)
            tracer.end.append(0.0)
            tracer.a.append(0)
            tracer.b.append(0)
            tracer._stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if measure is not None:
                tracer.a[idx], tracer.b[idx] = measure(args, result)
            if worker_entry and tracer._stack == [ROOT] and tracer.spans_dir is not None:
                tracer._flush_worker()
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _flush_worker(self) -> None:
        """Append this worker's finished spans to its own file, then start over."""
        path = self.spans_dir / f"worker-{os.getpid()}.npy"
        with open(path, "ab") as fh:
            np.save(fh, self._own_spans())
        self._reset_buffers()

    def _own_spans(self) -> np.ndarray:
        out = np.empty(len(self.start), dtype=SPAN_DTYPE)
        out["parent"] = np.frombuffer(self.parent, dtype=np.int64)
        out["name"] = np.frombuffer(self.name, dtype=np.int32)
        out["start"] = np.frombuffer(self.start, dtype=np.float64)
        out["end"] = np.frombuffer(self.end, dtype=np.float64)
        out["a"] = np.frombuffer(self.a, dtype=np.int64)
        out["b"] = np.frombuffer(self.b, dtype=np.int64)
        return out

    def merge(self, pool_span: str) -> np.ndarray:
        """This process's spans plus every worker batch, re-indexed.

        A worker batch's root spans become children of the last span named
        pool_span, the call that owned the process pool.
        """
        parts = [self._own_spans()]
        total = len(parts[0])
        pool_idx = ROOT
        if pool_span in self._name_ids:
            hits = np.flatnonzero(parts[0]["name"] == self._name_ids[pool_span])
            if len(hits):
                pool_idx = int(hits[-1])
        files = sorted(self.spans_dir.glob("worker-*.npy")) if self.spans_dir else []
        for path in files:
            size = path.stat().st_size
            with open(path, "rb") as fh:
                while fh.tell() < size:
                    batch = np.load(fh)
                    roots = batch["parent"] == ROOT
                    batch["parent"] += total
                    batch["parent"][roots] = pool_idx
                    parts.append(batch)
                    total += len(batch)
        return np.concatenate(parts)


def save_spans(path: str | Path, spans: np.ndarray, names: list[str]) -> None:
    np.savez(path, spans=spans, names=np.array(names))


# ---------------------------------------------------------------------------
# arithmetic over spans


def union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by a set of intervals, overlaps counted once."""
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.maximum(0.0, e - np.maximum(s, prev)).sum())


def self_times(spans: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Self time of each target span: its duration minus what its direct children cover.

    Children are clipped to their parent's interval and overlapping children
    (parallel workers) are counted once, so self time is never negative.
    """
    out = spans["end"][targets] - spans["start"][targets]
    if len(targets) == 0:
        return out
    pos = {int(t): k for k, t in enumerate(targets)}
    child = np.flatnonzero(np.isin(spans["parent"], targets))
    if len(child) == 0:
        return out
    parent = spans["parent"][child]
    cs = np.maximum(spans["start"][child], spans["start"][parent])
    ce = np.minimum(spans["end"][child], spans["end"][parent])
    order = np.lexsort((cs, parent))
    parent, cs, ce = parent[order], cs[order], ce[order]
    bounds = np.flatnonzero(np.diff(parent)) + 1
    for lo, hi in zip(np.concatenate(([0], bounds)), np.concatenate((bounds, [len(parent)]))):
        out[pos[int(parent[lo])]] -= union_length(cs[lo:hi], ce[lo:hi])
    return out


def useful_ratio(check_runs: list[list[bool]]) -> float:
    """Share of connectivity checks that could change a run's outcome.

    Within one run, every check up to and including the first True is
    useful; edges are never removed, so later checks can only repeat it.
    0.0 when there were no checks at all.
    """
    total = sum(len(run) for run in check_runs)
    if total == 0:
        return 0.0
    useful = 0
    for run in check_runs:
        useful += next((k + 1 for k, ok in enumerate(run) if ok), len(run))
    return useful / total


def high_percentile(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples beyond it.

    That is the sample of rank n - 10 in ascending order, so it needs at
    least eleven samples; None below that.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, xs[n - 11]
