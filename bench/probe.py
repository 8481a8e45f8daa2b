"""CPU-speed probe: express run times at a fixed reference speed.

The cores of a shared host change speed by 10-40% from one second to the
next as other tenants come and go, and a whole run's median moves with them.
The probe measures that speed on the same core, at the same moments as the
program: a SIGALRM timer interrupts the process every INTERVAL_S of wall time,
and the handler times a fixed pure-Python loop between the program's own
bytecodes. REFERENCE_S divided by the loop's duration is the core's speed
relative to the reference at that moment. Because the probes are spread
evenly over wall time, the mean of that ratio over the probes in an interval
is the interval's average speed, and its length times that mean is its length
in seconds at the reference speed ("ref_s"). The loop costs about 1% of a run,
which stays in the times.

Forked sweep workers do not inherit the timer. wrap_worker_entry() starts it
in each worker on its first task and appends the worker's probes to a file in
out_dir after each task, where samples() finds them.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from array import array
from pathlib import Path

INTERVAL_S = 0.025
SPIN_ITERS = 4000
# The loop's typical duration on one quiet core of a 2.1 GHz Xeon VM under
# Python 3.11.7; it only sets the scale of ref_s.
REFERENCE_S = 250e-6


def spin() -> int:
    s = 0
    for i in range(SPIN_ITERS):
        s += i * i % 7
    return s


def mean_speed(samples: list[tuple[float, float]], start: float, end: float) -> float | None:
    """Mean of REFERENCE_S / duration over the probes that began in [start, end]."""
    ratios = [REFERENCE_S / d for t, d in samples if start <= t <= end]
    return sum(ratios) / len(ratios) if ratios else None


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean speed over [start, end], or over every probe if the span was too short to hold one."""
    return mean_speed(samples, start, end) or mean_speed(samples, float("-inf"), float("inf"))


class Probe:
    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._parent = self._pid = os.getpid()
        self._samples = array("d")  # flat (start, duration) pairs

    def _tick(self, signum, frame) -> None:
        t = time.monotonic()
        spin()
        # One C call, so a nested handler cannot split a pair.
        self._samples.extend((t, time.monotonic() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def wrap_worker_entry(self, owner, attr: str) -> None:
        """Probe in every forked worker that runs owner.attr (the pool's entry function)."""
        original = vars(owner)[attr]
        probe = self

        @functools.wraps(original)
        def entry(*args, **kwargs):
            if os.getpid() != probe._pid:
                probe._pid = os.getpid()
                probe._samples = array("d")
                probe.start()
            try:
                return original(*args, **kwargs)
            finally:
                if probe._pid != probe._parent and probe._samples:
                    done, probe._samples = probe._samples, array("d")
                    with open(probe.out_dir / f"probe-{probe._pid}.bin", "ab") as fh:
                        done.tofile(fh)

        setattr(owner, attr, entry)

    def samples(self) -> list[tuple[float, float]]:
        """(start, duration) of every probe, this process's and its workers'."""
        flat = array("d", self._samples)
        for path in sorted(self.out_dir.glob("probe-*.bin")):
            flat.frombytes(path.read_bytes())
        return list(zip(flat[0::2], flat[1::2]))
