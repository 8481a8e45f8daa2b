#!/usr/bin/env python3
"""tumornet benchmark: four workloads, end-to-end metrics and a traced per-layer pass.

    python3 bench/run.py --workload connected_500 --seed 7 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Every repetition runs in a child process of its own (bench/rep.py) under a
memory and CPU-time ceiling. --trace 0 repeats the workload untraced for
--seconds in batches of repetitions that run at once (see reps_at_once), at
least three batches, and reports the median over batch means of each
end-to-end metric. A single-run workload takes the next seed in each batch
(see batch_seed). Untraced repetitions report their times in seconds at a
reference CPU speed (see bench/probe.py).
--trace 1 runs one child at a time: the workload once untraced
(fig4_sweep also once with a single worker) and once traced, and reports
the per-layer metrics. Both modes check every repetition's output digest
and shape guards. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Metric names and units
come from BENCHMARK.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SWEEP_WORKERS = 2  # workloads.SWEEP_WORKERS; run.py does not import tumornet
DEFAULT_SEEDS = {"fig4_sweep": 42, "connected_500": 7, "growth_burst": 7, "scale_200k": 5}
MIN_BATCHES = 3
# The whole invocation must end within 180 s; no repetition starts that
# cannot finish inside this budget, and none may run longer than the cap.
RUN_BUDGET_S = 165.0
REP_TIMEOUT_S = 120.0
# Per repetition process (sweep workers inherit it). A runaway growth run
# fails here instead of taking the shared machine down.
MEM_CEILING_BYTES = 3 * 2**30
CPU_CEILING_S = 100


def _ceiling() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CEILING_BYTES, MEM_CEILING_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CEILING_S, CPU_CEILING_S + 5))


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reps_at_once(workload: str) -> int:
    """Repetitions to run at once: as many as keep every core busy, never more.

    The sweep's workers already fill the cores. A single run uses one core,
    so two run side by side. Each core of a shared host drifts in speed on
    its own, and a batch that uses all of them averages that drift.
    """
    procs = SWEEP_WORKERS if workload == "fig4_sweep" else 1
    return max(1, len(os.sched_getaffinity(0)) // procs)


def batch_seed(workload: str, seed: int, batch: int) -> int:
    """The seed of a run's batch-th batch.

    A single run's speed depends on its seed: activations per node visited
    differ by about 5% between seeds. Batch k of a single-run workload runs
    seed + k, so a run's median is taken over seeds. The sweep's 1350 runs
    already average over seeds, and all its batches keep the run's seed.
    """
    return seed if workload == "fig4_sweep" else seed + batch


def run_reps(workload: str, seed: int, deadline: float, count: int = 1, trace: bool = False,
             workers: int | None = None) -> list[dict]:
    """Run count repetitions at once, each in a fresh, resource-capped process; a breach is a failure."""
    label = "traced" if trace else ("1 worker" if workers == 1 else "untraced")
    timeout = min(REP_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return [{"ok": False, "label": label, "seed": seed, "error": "no time left in the run budget"}
                for _ in range(count)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out-dir", str(ROOT / ".bench_out")]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    end = time.monotonic() + timeout
    procs = []
    try:
        for _ in range(count):
            procs.append(subprocess.Popen(
                cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, preexec_fn=_ceiling, start_new_session=True,
            ))
        return [dict(_finish(proc, label, end, timeout), seed=seed) for proc in procs]
    finally:
        for proc in procs:
            _kill_group(proc.pid)  # any sweep worker the repetition left behind
            proc.wait()


def run_rep(workload: str, seed: int, deadline: float, trace: bool = False, workers: int | None = None) -> dict:
    return run_reps(workload, seed, deadline, 1, trace, workers)[0]


def _finish(proc: subprocess.Popen, label: str, end: float, timeout: float) -> dict:
    """Wait for one repetition until end (timeout after the batch started) and read its JSON line."""
    try:
        out, err = proc.communicate(timeout=max(0.0, end - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"ok": False, "label": label, "error": f"timed out after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        if proc.returncode < 0:
            error = f"killed by {signal.Signals(-proc.returncode).name} (resource ceiling?)"
        else:
            error = f"exit {proc.returncode}: {err.strip()[-400:]}"
        return {"ok": False, "label": label, "error": error}
    result["label"] = label
    return result


def check_digests(workload: str, reps: list[dict]) -> str:
    """Fail every repetition whose digest differs from the expected one for its seed; say how."""
    table = json.loads((BENCH / "reference_digests.json").read_text()).get(workload, {})
    notes = Counter()
    for seed in sorted({r["seed"] for r in reps}):
        group = [r for r in reps if r["seed"] == seed]
        expected = table.get(str(seed))
        source = "reference"
        if expected is None:
            seen = Counter(r["digest"] for r in group if r["ok"])
            if not seen:
                notes["no digest (every repetition failed)"] += 1
                continue
            expected = seen.most_common(1)[0][0]
            source = "agreement between repetitions (no reference digest)"
        notes[source] += 1
        for r in group:
            if r["ok"] and r["digest"] != expected:
                r["ok"] = False
                r["error"] = f"output digest {r['digest'][:12]} differs from expected {expected[:12]}"
    return "; ".join(f"{n} seed(s) checked against {source}" for source, n in notes.items())


def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            commit = got or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "load1": os.getloadavg()[0],
    }


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _print_reps(reps: list[dict]) -> None:
    for k, r in enumerate(reps, 1):
        if r["ok"]:
            speed = f"  speed {r['speed']:.3f}" if "speed" in r else ""
            print(f"  rep {k} ({r['label']}, seed {r['seed']}): ok  elapsed {r['elapsed_s']:.3f} s{speed}  "
                  f"digest {r['digest'][:12]}")
        else:
            print(f"  rep {k} ({r['label']}, seed {r['seed']}): FAILED  {r['error']}")


def end_to_end(workload: str, seed: int, seconds: float, units: dict[str, str]) -> tuple[list[dict], dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    started = time.monotonic()
    at_once = reps_at_once(workload)
    batches: list[list[dict]] = []
    took: list[float] = []
    while True:
        now = time.monotonic()
        # Start another batch only if it should end within --seconds.
        if len(batches) >= MIN_BATCHES and now - started + statistics.median(took) > seconds:
            break
        if took and now + max(took) > deadline:
            break
        batches.append(run_reps(workload, batch_seed(workload, seed, len(batches)), deadline, at_once))
        took.append(time.monotonic() - now)
    reps = [r for batch in batches for r in batch]
    digest_note = check_digests(workload, reps)
    _print_reps(reps)
    # One sample per batch: the mean over its repetitions, which ran at the same time.
    samples = [{name: statistics.fmean(r[name] for r in good) for name in units}
               for good in ([r for r in batch if r["ok"]] for batch in batches) if good]
    metrics = {}
    if samples:
        good = next(r for r in reps if r["ok"])
        print(f"  activations {good['activations']}  runs {good['runs']}  extra {good['extra']}")
        print(f"  {at_once} repetition(s) at a time; each sample is the mean of one batch")
        for name, unit in units.items():
            value = _median(samples, name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<20} {value:14.4f} {unit:<4} median of {len(samples)} samples "
                  "(a high percentile needs >= 11)")
    failed = sum(not r["ok"] for r in reps)
    print(f"  {'error_rate':<20} {failed / len(reps):14.4f}      {failed} failed of {len(reps)}")
    print(f"  digest {digest_note}")
    return reps, metrics


def per_layer(workload: str, seed: int, units: dict[str, str]) -> tuple[list[dict], dict]:
    deadline = time.monotonic() + RUN_BUDGET_S
    reps = [run_rep(workload, seed, deadline)]
    if workload == "fig4_sweep":
        reps.append(run_rep(workload, seed, deadline, workers=1))
    reps.append(run_rep(workload, seed, deadline, trace=True))
    digest_note = check_digests(workload, reps)
    _print_reps(reps)
    metrics = {}
    if all(r["ok"] for r in reps):
        traced = reps[-1]
        untraced_wall = _median([r for r in reps if r["label"] == "untraced"], "elapsed_s")
        one_worker = [r for r in reps if r["label"] == "1 worker"]
        values = dict(traced["layers"])
        values["sweep.step1_share"] = traced["extra"].get("step1_share", 0.0)
        values["sweep.speedup_2w"] = one_worker[0]["elapsed_s"] / untraced_wall if one_worker else 0.0
        values["cli_io.bytes_out"] = traced["bytes_out"]
        values["trace.overhead_s"] = traced["elapsed_s"] - untraced_wall
        if set(values) != set(units):
            raise RuntimeError(f"per-layer metrics {sorted(set(values) ^ set(units))} "
                               "differ between BENCHMARK.json and the benchmark")
        print(f"  traced pass: {traced['spans']} spans; untraced wall {untraced_wall:.3f} s, "
              f"traced {traced['elapsed_s']:.3f} s")
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<40} {values[name]:16.6f} {unit}")
    failed = sum(not r["ok"] for r in reps)
    print(f"  {'error_rate':<40} {failed / len(reps):16.6f}   {failed} failed of {len(reps)}")
    print(f"  digest {digest_note}")
    return reps, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS) + ["all"])
    parser.add_argument("--seed", type=int, default=None, help="default: per workload, see README")
    parser.add_argument("--seconds", type=float, default=60.0, help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so run_rep's finally kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tumornet" / "__init__.py").is_file():
        print(f"error: no tumornet sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    prov = provenance()
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if prov["load1"] > prov["nproc"]:
        print(f"warning: 1-minute load {prov['load1']:.2f} exceeds nproc {prov['nproc']}; "
              "timings will be noisy", file=sys.stderr)

    names = sorted(DEFAULT_SEEDS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        print(f"== {name} seed={seed} trace={args.trace}")
        if args.trace:
            reps, got = per_layer(name, seed, units)
        else:
            reps, got = end_to_end(name, seed, args.seconds, units)
        attempted += len(reps)
        failed += sum(not r["ok"] for r in reps)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
