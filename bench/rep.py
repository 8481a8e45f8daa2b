"""One repetition of one workload in a fresh process; prints one JSON line.

bench/run.py starts this script with the resource ceiling already set and
src/ on PYTHONPATH, and passes --t0, its monotonic clock reading just before
the start, so that set-up is timed from process start. With --trace 0 the
CPU-speed probe runs throughout, and wall_s, activations_per_s and runs_per_s
are in seconds at its reference speed (bench/probe.py); elapsed_s and setup_s
are plain seconds. With --trace 1 the public functions of every tumornet
module are wrapped for the duration of the repetition and the per-layer
metrics are computed from the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of any reaped child (sweep workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def install_tracer(tracer) -> None:
    """Wrap the public functions of each module, at the attributes callers look up."""
    from tumornet import cli_io, engine, graph_core, metrics, sweep, tumor_model
    from workloads import component_size

    def connected(args, ok):
        g = args[0]
        return (g.n_nodes if ok else component_size(g)), int(ok)

    w = tracer.wrap
    w(graph_core, "generate_er", "graph_core.generate_er", lambda a, g: (a[0] * (a[0] - 1) // 2, 0))
    w(graph_core, "generate_er_skip", "graph_core.generate_er_skip", lambda a, g: (g.n_edges, 0))
    w(graph_core, "is_connected", "graph_core.is_connected", connected)
    w(graph_core, "add_node_linked", "graph_core.add_node_linked")
    w(tumor_model, "init_model", "tumor_model.init_model")
    w(tumor_model, "agent_step", "tumor_model.agent_step")
    w(tumor_model, "spawn_cell", "tumor_model.spawn_cell")
    # One agent per graph node, so n_nodes is the number of agents scanned.
    w(tumor_model.Model, "live_ids", "tumor_model.live_ids", lambda a, ids: (len(ids), a[0].graph.n_nodes))
    w(engine, "step", "engine.step")
    w(engine, "run", "engine.run")
    w(metrics, "tci_classify", "metrics.tci_classify")
    w(sweep, "expand", "sweep.expand")
    w(sweep, "run_sweep", "sweep.run_sweep")
    w(sweep, "aggregate", "sweep.aggregate")
    w(sweep, "_execute", "sweep.run", worker_entry=True)
    w(cli_io, "parse_config", "cli_io.parse_config")
    for name in ("format_run_csv", "format_sweep_runs", "format_sweep_summary", "summarize_run"):
        w(cli_io, name, f"cli_io.{name}")


def layer_metrics(spans, names: list[str]) -> dict[str, float]:
    """Per-layer metrics from merged spans; a layer that never ran reads 0."""
    import numpy as np

    from tracing import high_percentile, self_times, useful_ratio

    ids = {n: i for i, n in enumerate(names)}
    dur = spans["end"] - spans["start"]

    def pick(name):
        if name not in ids:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(spans["name"] == ids[name])

    def busy(name):
        return float(dur[pick(name)].sum())

    def total(name, field):
        return int(spans[field][pick(name)].sum())

    def p50_high(name, scale):
        values = sorted(float(v) * scale for v in dur[pick(name)])
        if not values:
            return 0.0, 0.0
        high = high_percentile(values)
        # Below eleven samples no percentile has ten beyond it; report the maximum.
        return float(np.median(values)), (high[1] if high else values[-1])

    checks = pick("graph_core.is_connected")
    by_run: dict[int, list[tuple[float, bool]]] = {}
    for k in checks:
        by_run.setdefault(int(spans["parent"][k]), []).append(
            (float(spans["start"][k]), bool(spans["b"][k]))
        )
    check_runs = [[ok for _, ok in sorted(v)] for v in by_run.values()]
    live = pick("tumor_model.live_ids")
    scanned = int(spans["b"][live].sum())
    step_p50, step_high = p50_high("engine.step", 1000.0)
    run_p50, run_high = p50_high("sweep.run", 1.0)
    return {
        "graph_core.is_connected.calls": len(checks),
        "graph_core.is_connected.s": busy("graph_core.is_connected"),
        "graph_core.is_connected.nodes_visited": total("graph_core.is_connected", "a"),
        "engine.is_connected.useful_ratio": useful_ratio(check_runs),
        "graph_core.generate_er.calls": len(pick("graph_core.generate_er")),
        "graph_core.generate_er.s": busy("graph_core.generate_er"),
        "graph_core.generate_er.pairs": total("graph_core.generate_er", "a"),
        "graph_core.generate_er_skip.s": busy("graph_core.generate_er_skip"),
        "graph_core.generate_er_skip.edges": total("graph_core.generate_er_skip", "a"),
        "tumor_model.init_model.s": busy("tumor_model.init_model"),
        "tumor_model.init_model.self_s": float(self_times(spans, pick("tumor_model.init_model")).sum()),
        "graph_core.add_node_linked.calls": len(pick("graph_core.add_node_linked")),
        "graph_core.add_node_linked.s": busy("graph_core.add_node_linked"),
        "tumor_model.spawn_cell.calls": len(pick("tumor_model.spawn_cell")),
        "tumor_model.agent_step.calls": len(pick("tumor_model.agent_step")),
        "tumor_model.agent_step.s": busy("tumor_model.agent_step"),
        "tumor_model.live_ids.s": busy("tumor_model.live_ids"),
        "tumor_model.live_ids.useful_ratio": (int(spans["a"][live].sum()) / scanned) if scanned else 0.0,
        "engine.step.calls": len(pick("engine.step")),
        "engine.step.self_s": float(self_times(spans, pick("engine.step")).sum()),
        "engine.step.ms_p50": step_p50,
        "engine.step.ms_high": step_high,
        "engine.run.s": busy("engine.run"),
        "sweep.expand.s": busy("sweep.expand"),
        "sweep.run_sweep.s": busy("sweep.run_sweep"),
        "sweep.aggregate.s": busy("sweep.aggregate"),
        "sweep.run.s_p50": run_p50,
        "sweep.run.s_high": run_high,
        "metrics.tci_classify.calls": len(pick("metrics.tci_classify")),
        "metrics.tci_classify.s": busy("metrics.tci_classify"),
        "cli_io.parse_config.s": busy("cli_io.parse_config"),
        "cli_io.format_run_csv.s": busy("cli_io.format_run_csv"),
        "cli_io.format_sweep_runs.s": busy("cli_io.format_sweep_runs"),
        "cli_io.format_sweep_summary.s": busy("cli_io.format_sweep_summary"),
    }


def run_once(args) -> dict:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="rep-", dir=out_dir)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, work_dir: str) -> dict:
    """Run the workload; untraced it is probed (bench/probe.py), traced it is wrapped."""
    from probe import Probe, speed

    probe = None
    if not args.trace:
        probe = Probe(work_dir)
        probe.start()  # before tumornet is imported, so set-up is probed too
    import workloads
    from tracing import Tracer, save_spans
    from tumornet import sweep

    tracer = None
    if args.trace:
        tracer = Tracer(work_dir)
        install_tracer(tracer)
    else:
        probe.wrap_worker_entry(sweep, "_execute")
    fn = workloads.WORKLOADS[args.workload]
    try:
        if args.workers is not None:
            res = fn(args.seed, workers=args.workers)
        else:
            res = fn(args.seed)
    finally:
        if tracer is not None:
            tracer.restore()
        if probe is not None:
            probe.stop()
    gap = res.sim_start - res.setup_end  # untimed guard between set-up and simulation
    elapsed = res.emit_end - args.t0 - res.skipped_s - gap
    out = {
        "ok": not res.guard_failures,
        "error": "; ".join(res.guard_failures),
        "digest": res.digest(),
        "setup_s": res.setup_end - args.t0 - res.skipped_s,
        "elapsed_s": elapsed,
        "peak_rss_mb": _peak_rss_mb(),
        "activations": res.activations,
        "runs": res.runs,
        "bytes_out": res.bytes_out,
        "extra": res.extra,
    }
    if probe is not None:
        # Seconds at the reference speed: each span times the core's mean speed during it.
        samples = probe.samples()
        whole = speed(samples, args.t0, res.emit_end)
        sim = (res.sim_end - res.sim_start) * speed(samples, res.sim_start, res.sim_end)
        run = ((res.sim_end - res.run_start) - gap) * speed(samples, res.run_start, res.sim_end)
        out.update(speed=whole, probes=len(samples), wall_s=elapsed * whole,
                   activations_per_s=res.activations / sim, runs_per_s=res.runs / run)
    if tracer is not None:
        spans = tracer.merge("sweep.run_sweep")
        save_spans(Path(args.out_dir) / f"spans-{args.workload}.npz", spans, tracer.names)
        out["layers"] = layer_metrics(spans, tracer.names)
        out["spans"] = len(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=".bench_out")
    args = parser.parse_args(argv)
    try:
        out = run_once(args)
    except Exception:
        out = {"ok": False, "error": traceback.format_exc(limit=4)}
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
