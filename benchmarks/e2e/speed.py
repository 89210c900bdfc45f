"""Host speed, sampled inside the processes that do a unit's work.

The benchmark runs on a few virtual CPUs of a shared machine, and their
speed changes with what other tenants run.  A fixed pure-Python loop
takes from 0.7x to 1.3x its median time within a few seconds, and the
median of a 30-second window still moves by about 10% from one window to
the next, so host times measured raw spread wider than any usable
regression bound.  The virtual CPUs slow down independently, so a loop
timed on another CPU says nothing of the work's speed, and a sampler
process that wakes on the work's CPU tracked it less well than samples
taken inside the working process (README.md has the numbers).

So a unit runs on one CPU, and every process of the unit samples its
own speed: :func:`start` arms a timer that, after every ``PERIOD_S`` of
the process's CPU time, runs ``calibration_loop`` in the process itself
and appends the loop's start and duration to ``<dir>/speed-<pid>.txt``.
Forked children (the serve pool's workers) re-arm it.  The samples are
spread evenly over the CPU time the unit spends.  A sample's speed
factor is ``REFERENCE_NS`` over its duration: 1.0 on the reference
host, 0.5 while the CPU runs at half that speed.  :meth:`Speed.seconds`
reports a host interval as its length, minus the time the loops took
from it, times the mean speed factor of the samples in and nearest to
it: the time the interval would have taken on the reference host.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

#: CPU time of a process between two samples.
PERIOD_S = 0.025
#: ``calibration_loop``'s time on the reference host: about its time in
#: the quiet moments of the 2-vCPU x86 host (Xeon, 2.0 GHz, Python 3.11)
#: of the baseline in README.md.
REFERENCE_NS = 500_000
#: An interval holding fewer samples than this is scaled by this many
#: samples nearest to it (about 0.1 s of CPU time).  Speed changes fast
#: enough that nearer samples beat more: over 28 design-sweep units,
#: scaling each design by its 4, 16 and 128 nearest samples left
#: median-latency spreads of 4.5%, 5.6% and 10.5% (18% raw).
MIN_SAMPLES = 4
#: Longer than any one loop takes, so a loop that started before an
#: interval and ran into it is found.
MAX_LOOP_NS = 100_000_000

Sample = Tuple[int, int]

_STATE: Dict[str, object] = {"dir": None, "fd": None, "hooked": False}


def calibration_loop(n: int = 1800) -> int:
    """A fixed mix of the operations the program spends its time on:
    integer arithmetic, dict lookups and updates, list appends and
    indexing, tuple building and a builtin call.  It calls nothing of
    the program, so a change to the program leaves its work the same."""
    table: Dict[int, int] = {}
    items = []
    total = 0
    step = abs
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0) + i
        items.append((key, i ^ key))
        total += step(items[i][1] - key) % 7
    return total + len(table)


def _tick(signum, frame) -> None:
    # The loop's allocations must not run the program's collections: a
    # full one would time the program's heap, not the host.
    collecting = gc.isenabled()
    gc.disable()
    start = time.monotonic_ns()
    calibration_loop()
    duration = time.monotonic_ns() - start
    if collecting:
        gc.enable()
    os.write(_STATE["fd"], b"%d %d\n" % (start, duration))


def _arm() -> None:
    path = os.path.join(_STATE["dir"], f"speed-{os.getpid()}.txt")
    _STATE["fd"] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    signal.signal(signal.SIGPROF, _tick)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)


def _after_fork() -> None:
    # A forked child keeps the handler but not the timer, and must not
    # write into its parent's file.
    if _STATE["dir"] is not None:
        _arm()


def start(directory: str) -> None:
    """Sample this process, and every child it forks, into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    _STATE["dir"] = directory
    _arm()
    if not _STATE["hooked"]:
        os.register_at_fork(after_in_child=_after_fork)
        _STATE["hooked"] = True


def stop() -> None:
    """Stop sampling this process."""
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, signal.SIG_DFL)
    if _STATE["fd"] is not None:
        os.close(_STATE["fd"])
    _STATE.update(dir=None, fd=None)


def load(directory: str) -> "Speed":
    """Every sample written into ``directory``.  A line cut short by a
    process killed mid-write is skipped."""
    samples: List[Sample] = []
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        with open(os.path.join(directory, name), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and line.endswith("\n"):
                    samples.append((int(parts[0]), int(parts[1])))
    return Speed(samples)


class Speed:
    """The samples of one unit, and host intervals scaled by them."""

    def __init__(self, samples: Sequence[Sample]):
        self.samples = sorted(samples)
        self.starts = [start for start, _ in self.samples]

    def _nearest(self, start_ns: int, end_ns: int) -> List[Sample]:
        """The samples taken in the interval, widened on whichever side
        is nearer until there are ``MIN_SAMPLES``."""
        lo = bisect_left(self.starts, start_ns)
        hi = bisect_right(self.starts, end_ns)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = start_ns - self.starts[lo - 1] if lo > 0 else None
            after = self.starts[hi] - end_ns if hi < len(self.starts) else None
            if after is None or (before is not None and before <= after):
                lo -= 1
            else:
                hi += 1
        return self.samples[lo:hi]

    def factor(self, start_ns: int, end_ns: int) -> Optional[float]:
        """Mean speed factor of the samples in and nearest to the
        interval; None without any sample."""
        near = self._nearest(start_ns, end_ns)
        if not near:
            return None
        return sum(REFERENCE_NS / max(1, duration) for _, duration in near) / len(near)

    def seconds(self, start_ns: int, end_ns: int) -> Optional[float]:
        """The interval's length on the reference host, in seconds."""
        factor = self.factor(start_ns, end_ns)
        if factor is None:
            return None
        lo = bisect_left(self.starts, start_ns - MAX_LOOP_NS)
        hi = bisect_right(self.starts, end_ns)
        taken = sum(
            max(0, min(end_ns, start + duration) - max(start_ns, start))
            for start, duration in self.samples[lo:hi]
        )
        return max(0, end_ns - start_ns - taken) * factor / 1e9
