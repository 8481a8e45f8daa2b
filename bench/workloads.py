"""The four benchmark workloads, driven through the calls the CLI makes.

Each workload is a function of its seed. It returns a Result with the
emitted bytes, monotonic timestamps of its phases and the counts the metrics
need. Every call into tumornet goes through a module attribute looked up at
call time (cli_io.parse_config, engine.run, ...), so the tracer's wrappers
see it. The shape guards here hold for any seed; a change that stops a
workload from doing its work fails them instead of reading as a speed-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

from tumornet import cli_io, engine, sweep, tumor_model

SWEEP_WORKERS = 2

CONNECTED_500 = """\
n_initial=3000
p=0.004
angiogenesis=0.3
recovery=low
quiescence=medium
max_steps=500
"""

GROWTH_BURST = """\
n_initial=1000
p=0.01
angiogenesis=high
recovery=low
quiescence=low
max_steps=44
"""
# Node count after 44 steps; seeds 0-20 and 42 ended between 72.7k and 86.1k.
# The step cap is load-bearing: the same config keeps growing exponentially.
GROWTH_NODE_BAND = (60_000, 100_000)

SCALE_N = 200_000
SCALE_STEPS = 10


@dataclasses.dataclass
class Result:
    """One repetition: phase timestamps (time.monotonic), counts and outputs.

    setup_end closes set-up (import plus parse/init or expand); skipped_s is
    untimed time spent before it on discarded seeds; sim_start opens the
    measured simulation after any untimed guard; run_start is
    where the "run" of runs_per_s begins (init_model for single runs,
    run_sweep for the sweep); sim_start..sim_end is the step loop (or the
    whole sweep) for activations_per_s.
    """

    setup_end: float
    skipped_s: float
    run_start: float
    sim_start: float
    sim_end: float
    emit_end: float
    runs: int
    activations: int
    outputs: dict[str, bytes]
    digest_parts: dict[str, bytes]
    guard_failures: list[str]
    extra: dict

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.digest_parts):
            data = self.digest_parts[name]
            h.update(f"{name}:{len(data)}:".encode())
            h.update(data)
        return h.hexdigest()

    @property
    def bytes_out(self) -> int:
        return sum(len(v) for v in self.outputs.values())


def component_size(graph, root: int = 0) -> int:
    """Nodes reachable from root, by the benchmark's own search over the public API."""
    seen = {root}
    stack = [root]
    while stack:
        for j in graph.neighbors(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen)


def _summary_bytes(summary: dict) -> bytes:
    return (json.dumps(summary) + "\n").encode()


def _single_run(text: str, seed: int) -> tuple:
    """parse_config -> init_model -> engine.run -> format_run_csv/summarize_run.

    The engine stops a run whose starting graph is disconnected after one
    step, and about 2-4% of seeds give such a start at these densities. The
    workload then takes the next seed; the discarded attempt is not timed.
    """
    skipped_s = 0.0
    while True:
        attempt = time.monotonic()
        config = cli_io.parse_config(text + f"seed={seed}\n")
        run_start = time.monotonic()
        model = tumor_model.init_model(config)
        setup_end = time.monotonic()
        if component_size(model.graph) == model.graph.n_nodes:
            break
        skipped_s += time.monotonic() - attempt
        seed += 1
    sim_start = time.monotonic()
    series = engine.run(model, config.max_steps)
    sim_end = time.monotonic()
    run_csv = cli_io.format_run_csv(series).encode()
    summary = cli_io.summarize_run(series, config.seed, False, sim_end - run_start)
    summary_json = _summary_bytes(summary)
    emit_end = time.monotonic()
    stable = {k: v for k, v in summary.items() if k != "wall_clock_s"}
    # Live cells before each step are the activations of that step.
    activations = sum(r.count_live for r in series.records[:-1])
    final = series.records[-1]
    return (
        dict(
            setup_end=setup_end,
            run_start=run_start,
            sim_start=sim_start,
            sim_end=sim_end,
            emit_end=emit_end,
            skipped_s=skipped_s,
            runs=1,
            activations=activations,
            outputs={"run.csv": run_csv, "summary.json": summary_json},
            digest_parts={"run.csv": run_csv, "summary.json": _summary_bytes(stable)},
            extra={"config_seed": config.seed, "final_step": final.step, "final_nodes": final.n_nodes},
        ),
        series,
    )


def connected_500(seed: int) -> Result:
    fields, series = _single_run(CONNECTED_500, seed)
    failures = []
    final = series.records[-1]
    if series.termination != engine.TERM_MAX_STEPS or final.step != 500:
        failures.append(
            f"connected_500: ended {series.termination} at step {final.step}, "
            "expected max_steps at step 500"
        )
    return Result(guard_failures=failures, **fields)


def growth_burst(seed: int) -> Result:
    fields, series = _single_run(GROWTH_BURST, seed)
    failures = []
    final = series.records[-1]
    lo, hi = GROWTH_NODE_BAND
    if series.termination != engine.TERM_MAX_STEPS or final.step != 44:
        failures.append(
            f"growth_burst: ended {series.termination} at step {final.step}, "
            "expected max_steps at step 44"
        )
    if not lo <= final.n_nodes <= hi:
        failures.append(f"growth_burst: {final.n_nodes} nodes, outside [{lo}, {hi}]")
    return Result(guard_failures=failures, **fields)


def scale_200k(seed: int) -> Result:
    """init_model at 200k cells with the derived p, then SCALE_STEPS engine.step calls."""
    config = cli_io.parse_config(f"n_initial={SCALE_N}\nK=4\nseed={seed}\n")
    config = dataclasses.replace(config, allow_below_threshold=True)
    run_start = time.monotonic()
    model = tumor_model.init_model(config)
    setup_end = time.monotonic()
    first = engine.collect(model)
    for _ in range(SCALE_STEPS):
        engine.step(model)
    sim_end = time.monotonic()
    records = list(model.records)
    run_csv = cli_io.format_run_csv(engine.TimeSeries(records=records)).encode()
    emit_end = time.monotonic()
    activations = first.count_live + sum(r.count_live for r in records[:-1])
    failures = []
    if len(records) != SCALE_STEPS or records[-1].n_nodes < SCALE_N:
        failures.append(
            f"scale_200k: {len(records)} records ending at {records[-1].n_nodes} nodes, "
            f"expected {SCALE_STEPS} records and at least {SCALE_N} nodes"
        )
    return Result(
        setup_end=setup_end,
        skipped_s=0.0,
        run_start=run_start,
        sim_start=setup_end,
        sim_end=sim_end,
        emit_end=emit_end,
        runs=1,
        activations=activations,
        outputs={"run.csv": run_csv},
        digest_parts={"run.csv": run_csv},
        guard_failures=failures,
        extra={"final_step": records[-1].step, "final_nodes": records[-1].n_nodes},
    )


class _ActivationCounter:
    """Sums live cells before each step over every engine.run, in any process.

    Sweep workers are forked from this process, so they inherit the wrapped
    engine.run and write into the same shared counter. It costs one call and
    one pass over the records per run, not per activation.
    """

    def __init__(self):
        import multiprocessing

        self.total = multiprocessing.Value("q", 0)
        self._original = engine.run

    def __enter__(self):
        original, total = self._original, self.total

        def counting_run(model, max_steps):
            series = original(model, max_steps)
            n = sum(r.count_live for r in series.records[:-1])
            with total.get_lock():
                total.value += n
            return series

        engine.run = counting_run
        return self

    def __exit__(self, *exc):
        engine.run = self._original


def fig4_sweep(seed: int, workers: int = SWEEP_WORKERS) -> Result:
    """The fig4 preset through sweep.run_sweep, then the sweep CSV emitters."""
    spec = sweep.fig4_spec(base_seed=seed)
    sweep.expand(spec)
    setup_end = time.monotonic()
    with _ActivationCounter() as counter:
        sim_start = time.monotonic()
        result = sweep.run_sweep(spec, workers=workers)
        sim_end = time.monotonic()
    summary_csv = cli_io.format_sweep_summary(result.cells).encode()
    runs_csv = cli_io.format_sweep_runs(result.runs).encode()
    emit_end = time.monotonic()
    outputs = {"summary.csv": summary_csv, "runs.csv": runs_csv}
    failures = []
    if len(result.runs) != spec.n_runs or len(result.cells) != spec.n_cells:
        failures.append(
            f"fig4_sweep: {len(result.runs)} runs over {len(result.cells)} cells, "
            f"expected {spec.n_runs} over {spec.n_cells}"
        )
    activations = counter.total.value
    if activations <= 0:
        failures.append("fig4_sweep: activation counter saw no runs (workers not forked?)")
    step1 = sum(1 for o in result.runs if o.steps == 1)
    return Result(
        setup_end=setup_end,
        skipped_s=0.0,
        run_start=sim_start,
        sim_start=sim_start,
        sim_end=sim_end,
        emit_end=emit_end,
        runs=len(result.runs),
        activations=activations,
        outputs=outputs,
        digest_parts=dict(outputs),
        guard_failures=failures,
        extra={"step1_share": step1 / max(1, len(result.runs)), "workers": workers},
    )


WORKLOADS = {
    "fig4_sweep": fig4_sweep,
    "connected_500": connected_500,
    "growth_burst": growth_burst,
    "scale_200k": scale_200k,
}
