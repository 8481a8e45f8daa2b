"""In-process A/B of the working tree against a git revision, with a byte check.

    python3 tests/ab.py --base HEAD~1
    python3 tests/ab.py --base REV --workload fig4_sweep --pairs 10 --seeds 42-42
    python3 tests/ab.py --base REV --workload connected_500 --pairs 20 --seeds 7-11

pytest does not collect this file: it collects only test_*.py. The tool
extracts src/tumornet at REV with git archive into a temporary directory and
imports that tree and the working tree's src/tumornet in this one process,
under the package names tumornet_base and tumornet_change (src imports its
own modules relatively, so both load side by side). It then runs
alternating pairs of the workload's timed call:

- connected_500: engine.run of the benchmark's connected 3,000-cell config
  to step 500, once per seed; init_model is not timed.
- fig4_sweep: run_sweep of the fig4 preset on 1 worker, once per base
  seed; the grid is expanded inside the timed call, as the CLI does.

Within a pair each side runs every seed once, the side that goes first
alternating seed by seed, and the pair's ratio is change / base of their
summed times. Each call's output (run.csv, or summary.csv and runs.csv) is
compared byte for byte between the sides. One warm-up pair runs first and
is not counted. The tool prints one line per pair to stderr, then one JSON
object on stdout: the machine, the ratios, their median and quartiles and
the number of pairs the change was faster in. It exits 1 if any call's
bytes differ, and writes nothing under the checkout: no bytecode, and no
git state changes.

On a 2-core machine a connected_500 pair over five seeds takes about 1 s,
most of it the untimed init_model calls, and a fig4_sweep pair about 5 s.
A ratio below 1 means the change is faster. Against itself (--base HEAD on
a clean tree) the tool measures the noise of the machine.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

# bench/workloads.py's CONNECTED_500: a connected start that runs 500 steps.
CONNECTED_500 = """\
n_initial=3000
p=0.004
angiogenesis=0.3
recovery=low
quiescence=medium
max_steps=500
"""

DEFAULT_SEEDS = {"connected_500": "7-11", "fig4_sweep": "42-42"}


def load(name: str, path: Path):
    """Import the package directory path under the package name name; returns it."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def extract(rev: str, into: Path) -> Path:
    """src/tumornet at rev, extracted under into; returns the package directory."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/tumornet"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12 and 3.11.4 on
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src" / "tumornet"


def connected_500(package: str, seed: int) -> tuple[float, bytes]:
    """engine.run of connected_500 at seed, timed, and its run.csv bytes."""
    cli_io = importlib.import_module(f"{package}.cli_io")
    engine = importlib.import_module(f"{package}.engine")
    tumor_model = importlib.import_module(f"{package}.tumor_model")
    config = cli_io.parse_config(CONNECTED_500 + f"seed={seed}\n")
    model = tumor_model.init_model(config)
    gc.collect()
    started = time.perf_counter()
    series = engine.run(model, config.max_steps)
    took = time.perf_counter() - started
    return took, cli_io.format_run_csv(series).encode()


def fig4_sweep(package: str, seed: int) -> tuple[float, bytes]:
    """run_sweep of fig4 at base seed seed on 1 worker, timed, and its summary.csv and runs.csv bytes."""
    cli_io = importlib.import_module(f"{package}.cli_io")
    sweep = importlib.import_module(f"{package}.sweep")
    spec = sweep.fig4_spec(base_seed=seed)
    gc.collect()
    started = time.perf_counter()
    result = sweep.run_sweep(spec, workers=1)
    took = time.perf_counter() - started
    text = cli_io.format_sweep_summary(result.cells) + cli_io.format_sweep_runs(result.runs)
    return took, text.encode()


WORKLOADS = {"connected_500": connected_500, "fig4_sweep": fig4_sweep}


class BytesDiffer(Exception):
    """The two sides wrote different bytes for the same call."""


def pair(workload, seeds: list[int], first_base: bool) -> float:
    """One pair: each side runs every seed once; returns change / base of the summed times.

    The side that goes first alternates seed by seed, starting with base
    when first_base. Raises BytesDiffer naming the seed whose bytes differ.
    """
    times = {"base": 0.0, "change": 0.0}
    for i, seed in enumerate(seeds):
        order = ("base", "change") if (i % 2 == 0) == first_base else ("change", "base")
        out = {}
        for side in order:
            took, out[side] = workload(f"tumornet_{side}", seed)
            times[side] += took
        if out["base"] != out["change"]:
            raise BytesDiffer(f"seed {seed}: the base and the change wrote different bytes")
    return times["change"] / times["base"]


def summarize(ratios: list[float]) -> dict:
    """The median ratio, its quartiles and the number of pairs the change was faster in (ratio < 1)."""
    if len(ratios) > 1:
        quartiles = statistics.quantiles(ratios, n=4, method="inclusive")
        quartiles = [quartiles[0], quartiles[2]]
    else:
        quartiles = list(ratios) * 2
    return {
        "pairs": len(ratios),
        "median_ratio": statistics.median(ratios),
        "quartiles": quartiles,
        "change_faster_in": sum(r < 1 for r in ratios),
    }


def parse_seeds(text: str) -> list[int]:
    """"A-B" as the seeds A..B, both included; "A" as [A]."""
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os": platform.platform(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="connected_500")
    parser.add_argument("--pairs", type=int, default=20, help="counted pairs, after one warm-up pair")
    parser.add_argument("--seeds", type=parse_seeds, default=None, help="A-B, both included")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = args.seeds or parse_seeds(DEFAULT_SEEDS[args.workload])
    sys.dont_write_bytecode = True  # no __pycache__ in the working tree's src
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="tumornet-ab-") as tmp:
        load("tumornet_base", extract(args.base, Path(tmp)))
        load("tumornet_change", ROOT / "src" / "tumornet")
        ratios = []
        try:
            for i in range(args.pairs + 1):
                ratio = pair(workload, seeds, first_base=i % 2 == 0)
                print(f"pair {i}{' (warm-up)' if i == 0 else ''}: ratio {ratio:.4f}", file=sys.stderr, flush=True)
                if i:
                    ratios.append(ratio)
        except BytesDiffer as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
    report = {
        "base": args.base,
        "workload": args.workload,
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "timed": "engine.run" if args.workload == "connected_500" else "run_sweep, 1 worker",
        "machine": machine(),
        "identical_bytes": True,
        **summarize(ratios),
        "ratios": ratios,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
