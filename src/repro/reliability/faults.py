"""Deterministic fault injection for chaos-testing the execution layer.

A *fault plan* arms named fault points scattered through the cache, the
process pool, the journal, and the pipeline.  Each point is armed with a
count (``worker_crash:2`` -- fire on the first two queries), an *at*
position (``kill_point:@3`` -- fire on exactly the third query, letting
chaos tests strike mid-sweep instead of at the start), or a probability
(``cache_read:0.5`` -- fire on each query with p=0.5 from a seeded PRNG,
so a given plan misbehaves identically on every run).

Activation is environment-driven (``REPRO_FAULTS`` + ``REPRO_FAULTS_SEED``)
or scoped with the :func:`inject_faults` context manager in tests.  The
environment is re-read **at call time**: the plan is re-parsed only when
the ``(spec, seed)`` pair actually changes, so query/PRNG state is stable
while a plan is armed, yet flipping ``REPRO_FAULTS`` after import (tests,
serve workers, subprocess drivers) takes effect immediately -- the same
fix the PR 2 ``REPRO_CACHE`` import-freeze bug got, applied to the last
offender of that class.  With no plan armed every hook costs one environ
lookup and an ``is None`` check.

Fault points currently wired in:

=================  ==========================================================
``cache_read``     reading a cache entry raises ``OSError`` (treated as miss)
``cache_write``    a cache write is dropped (entry simply not persisted)
``cache_corrupt``  a cache write lands with a tampered payload (bit-rot)
``worker_crash``   a ``parallel_map`` worker raises before running its item
                   (the pool re-dispatches it once, then recomputes it in
                   the parent)
``worker_hang``    a ``parallel_map`` worker sleeps past
                   ``REPRO_TASK_TIMEOUT`` (the pool SIGKILLs it, then as
                   ``worker_crash``)
``worker_reorder`` ``parallel_map`` items are submitted in shuffled order
``stage_fail``     a pipeline stage raises before running
``journal_write``  a write-ahead journal append is dropped (lost record)
``kill_point``     the process SIGKILLs itself (via :func:`fire_kill`)
``hopcroft_offby1`` Hopcroft output gets one transition bumped off by one
``serve_worker_crash`` a pool worker SIGKILLs itself before any job
``serve_worker_hang``  a pool worker stalls before any job (past the stall
                       budget, if the pool has one)
``router_probe_fail``  a cluster router health probe is dropped (probe loss)
``replica_partition``  a router->replica request hits a simulated partition
=================  ==========================================================
"""

from __future__ import annotations

import os
import random
import signal
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

KNOWN_POINTS = frozenset(
    {
        "cache_read",
        "cache_write",
        "cache_corrupt",
        "worker_crash",
        "worker_hang",
        "worker_reorder",
        "stage_fail",
        "journal_write",
        "kill_point",
        "hopcroft_offby1",
        "serve_worker_crash",
        "serve_worker_hang",
        "router_probe_fail",
        "replica_partition",
    }
)


class InjectedFault(Exception):
    """Raised by an armed fault point.

    Deliberately *not* a :class:`~repro.reliability.errors.ReproError`:
    injected faults simulate infrastructure failures (bit-rot, OOM-killed
    workers), and the recovery machinery must either heal them invisibly
    or surface them wrapped in the structured hierarchy -- an escaped
    ``InjectedFault`` in a result is itself a test failure.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault: {point}")
        self.point = point

    def __reduce__(self):
        # Survive the pool boundary without re-prefixing the message.
        return (InjectedFault, (self.point,))


class FaultPlan:
    """Parsed ``name:value`` fault spec with a seeded PRNG."""

    def __init__(self, spec: str, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self.rng = random.Random(seed)
        self.counts: Dict[str, int] = {}
        self.at: Dict[str, int] = {}
        self.probabilities: Dict[str, float] = {}
        self.fired: Dict[str, int] = {}
        self.seen: Dict[str, int] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            name, _, raw = clause.partition(":")
            name = name.strip()
            if name not in KNOWN_POINTS:
                raise ValueError(
                    f"unknown fault point {name!r} "
                    f"(known: {', '.join(sorted(KNOWN_POINTS))})"
                )
            raw = raw.strip() or "1"
            try:
                if raw.startswith("@"):
                    position = int(raw[1:])
                    if position < 1:
                        raise ValueError
                    self.at[name] = position
                elif any(ch in raw for ch in ".eE"):
                    probability = float(raw)
                    if not 0.0 <= probability <= 1.0:
                        raise ValueError
                    self.probabilities[name] = probability
                else:
                    self.counts[name] = int(raw)
            except ValueError:
                raise ValueError(
                    f"fault value {raw!r} for {name!r} is not a count, an "
                    "@position, or a probability in [0, 1]"
                ) from None

    def query(self, point: str) -> bool:
        """Should this occurrence of ``point`` fail?  Consumes counts and
        advances the PRNG, so identical query sequences fire identically."""
        fire = False
        self.seen[point] = self.seen.get(point, 0) + 1
        remaining = self.counts.get(point)
        if remaining is not None and remaining > 0:
            self.counts[point] = remaining - 1
            fire = True
        elif point in self.at:
            fire = self.seen[point] == self.at[point]
        elif point in self.probabilities:
            fire = self.rng.random() < self.probabilities[point]
        if fire:
            self.fired[point] = self.fired.get(point, 0) + 1
            # Unified observability: fault hits land in the same registry
            # as the cache/pool counters (and aggregate across workers).
            from repro.obs.metrics import metrics

            metrics().incr(f"faults.fired.{point}")
        return fire


def _plan_from_env() -> Optional[FaultPlan]:
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    try:
        seed = int(os.environ.get("REPRO_FAULTS_SEED", "0") or 0)
    except ValueError:
        seed = 0
    return FaultPlan(spec, seed=seed)


# The active plan.  ``_override`` is set while :func:`inject_faults` /
# :func:`no_faults` scope a plan explicitly (the environment is ignored
# for the duration); otherwise the plan tracks the environment lazily:
# ``_env_sig`` remembers the (spec, seed) pair the current plan was
# parsed from, and the plan is re-parsed only when that pair changes --
# query counts and the seeded PRNG stay stable while a plan is armed,
# but REPRO_FAULTS set *after* import is honoured (no import freezing).
_plan: Optional[FaultPlan] = None
_override = False
_env_sig: Optional[tuple] = None


def _current_plan() -> Optional[FaultPlan]:
    global _plan, _env_sig
    if _override:
        return _plan
    sig = (
        os.environ.get("REPRO_FAULTS", ""),
        os.environ.get("REPRO_FAULTS_SEED", ""),
    )
    if sig != _env_sig:
        _env_sig = sig
        _plan = _plan_from_env()
    return _plan


def active_plan() -> Optional[FaultPlan]:
    return _current_plan()


def faults_enabled() -> bool:
    return _current_plan() is not None


def should_fire(point: str) -> bool:
    """True when ``point`` should fail now.  The disabled path is two
    environ lookups and an ``is None`` test."""
    plan = _current_plan()
    if plan is None:
        return False
    return plan.query(point)


def fire(point: str) -> None:
    """Raise :class:`InjectedFault` when ``point`` is armed and due."""
    plan = _current_plan()
    if plan is not None and plan.query(point):
        raise InjectedFault(point)


def fire_kill(point: str) -> None:
    """SIGKILL this process when ``point`` is armed and due -- the real
    thing, not an exception: no handler, no cleanup, no atexit, exactly
    what an OOM kill or a CI timeout does.  Chaos tests arm it (usually
    ``kill_point:@k``) in a *subprocess* and then prove the resumed run
    is byte-identical to an uninterrupted one."""
    plan = _current_plan()
    if plan is not None and plan.query(point):
        os.kill(os.getpid(), signal.SIGKILL)


def hang_seconds() -> float:
    """How long an armed ``worker_hang``/``serve_worker_hang`` sleeps
    (``REPRO_FAULT_HANG_SECONDS``, default 30; junk falls back to 30)."""
    raw = os.environ.get("REPRO_FAULT_HANG_SECONDS", "30")
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 30.0


def plan_rng() -> Optional[random.Random]:
    """The active plan's PRNG (for order-shuffling faults); None when
    faults are disabled."""
    plan = _current_plan()
    return plan.rng if plan is not None else None


@contextmanager
def inject_faults(
    spec: str, seed: int = 0, propagate_env: bool = False
) -> Iterator[FaultPlan]:
    """Arm ``spec`` for the duration of the block (tests, selfcheck).

    ``propagate_env=True`` additionally exports ``REPRO_FAULTS`` /
    ``REPRO_FAULTS_SEED`` so freshly spawned pool workers inherit the
    plan; counts are per-process either way.
    """
    global _plan, _override
    previous = (_plan, _override)
    previous_env = (
        os.environ.get("REPRO_FAULTS"),
        os.environ.get("REPRO_FAULTS_SEED"),
    )
    plan = FaultPlan(spec, seed=seed)
    _plan, _override = plan, True
    if propagate_env:
        os.environ["REPRO_FAULTS"] = spec
        os.environ["REPRO_FAULTS_SEED"] = str(seed)
    try:
        yield plan
    finally:
        _plan, _override = previous
        if propagate_env:
            for key, value in zip(
                ("REPRO_FAULTS", "REPRO_FAULTS_SEED"), previous_env
            ):
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


@contextmanager
def no_faults() -> Iterator[None]:
    """Disarm every fault point for the block (lets targeted tests assert
    clean-path behaviour even under a chaos CI environment)."""
    global _plan, _override
    previous = (_plan, _override)
    _plan, _override = None, True
    try:
        yield
    finally:
        _plan, _override = previous
