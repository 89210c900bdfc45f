"""Deterministic, fault-tolerant mapping of experiment shards over workers.

``parallel_map(fn, items)`` is a drop-in for ``[fn(x) for x in items]``:
results always come back in input order and anything that prevents pooling
(``REPRO_JOBS=1``, an unpicklable ``fn``, or already being inside a
worker) silently degrades to the serial loop.  Because every shard
function in the harness is a pure function of its arguments, serial and
parallel runs are byte-identical.

A pooled run is an ordered gather over
:class:`repro.serve.pool.SupervisedPool`, the repo's one worker pool: one
job per item, results awaited in submission order.  An item whose worker
dies, is stall-killed (past ``REPRO_TASK_TIMEOUT`` seconds; unset means
no budget) or hits an injected fault is re-dispatched once and then
recomputed in the parent; if that fails too, a
:class:`~repro.reliability.errors.WorkerError` names the item index.
Exceptions raised by ``fn`` itself are *not* retried: they propagate
unchanged, exactly like the serial loop.  ``KeyboardInterrupt`` (Ctrl-C,
or the CLI's SIGTERM handler) stops the pool (no zombie workers) and
propagates, so the durability layer above can report a resumable run.

``on_result(index, value)`` (optional) runs in the parent as each item's
result lands, in input order for the serial path and submission order
for the pooled path -- :func:`repro.reliability.durability.durable_map`
uses it to journal shard completions *as they happen*, so an interrupt
mid-sweep loses only in-flight shards, not finished ones.

Worker count comes from ``jobs=...`` or the ``REPRO_JOBS`` environment
variable (default 1: opt-in parallelism).  The ``worker_crash``/
``worker_hang``/``worker_reorder`` fault points
(:mod:`repro.reliability.faults`) let the chaos suite prove all of this.
"""

from __future__ import annotations

import asyncio
import functools
import os
import pickle
import time
from typing import Callable, Dict, Iterable, List, Optional, TypeVar

from repro.obs.metrics import metrics
from repro.obs.tracing import trace_span
from repro.reliability import faults
from repro.reliability.errors import WorkerError
from repro.reliability.faults import InjectedFault

T = TypeVar("T")
R = TypeVar("R")

#: Set in pool workers: a nested ``parallel_map`` runs serially.
_IN_WORKER = False

#: The pool events a sweep counts, under their ``parallel.*`` names.
_COUNTERS = {
    "completed": "parallel.pool_tasks",
    "redispatches": "parallel.retries",
    "watchdog_stall_kills": "parallel.timeouts",
    "inline_fallbacks": "parallel.serial_fallbacks",
}


def default_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, jobs)


def task_timeout() -> Optional[float]:
    """Per-item stall budget in seconds (``REPRO_TASK_TIMEOUT``); None =
    wait forever (the default)."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def _task(fn: Callable[[T], R], item: T) -> R:
    """Runs inside a pool worker; hosts the worker-side fault points."""
    faults.fire("worker_crash")
    if faults.should_fire("worker_hang"):
        time.sleep(faults.hang_seconds())
    with trace_span("parallel.task", where="worker"):
        return fn(item)


def _recompute(fn: Callable[[T], R], index: int, item: T) -> R:
    """The parent's last resort for an item the pool lost twice.  A pure
    ``fn`` returns the identical value, so the output stays the same."""
    from repro.serve.pool import MAX_DISPATCHES

    try:
        with trace_span("parallel.task", where="fallback", index=index):
            return fn(item)
    except InjectedFault as exc:
        raise WorkerError(
            f"work item {index} failed {MAX_DISPATCHES} pool attempts "
            "and the serial recompute",
            stage="parallel_map",
            item_index=index,
            attempts=MAX_DISPATCHES,
        ) from exc


def _serial_map(
    fn: Callable[[T], R],
    work: List[T],
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[R]:
    """The serial path; spans still mark task boundaries (same stage name
    as pooled tasks, so ``--profile`` aggregates them together)."""
    results: List[R] = []
    for index, item in enumerate(work):
        with trace_span("parallel.task", where="serial", index=index):
            results.append(fn(item))
        if on_result is not None:
            on_result(index, results[-1])
    return results


async def _gather(
    fn: Callable[[T], R],
    work: List[T],
    order: List[int],
    n_jobs: int,
    on_result: Optional[Callable[[int, R], None]],
) -> List[R]:
    from repro.serve.pool import SupervisedPool

    pool = SupervisedPool(n_jobs, stall_s=task_timeout(), counters=_COUNTERS)
    futures: Dict[int, "asyncio.Future[R]"] = {}
    results: List[Optional[R]] = [None] * len(work)
    try:
        await pool.start()
        for index in order:
            futures[index] = pool.call(
                _task, (fn, work[index]),
                fallback=functools.partial(_recompute, fn, index, work[index]),
            )
        for index in order:
            results[index] = await futures[index]
            if on_result is not None:
                on_result(index, results[index])
    finally:
        await pool.stop()
        # An aborted gather leaves answers nobody reads; mark them read.
        for future in futures.values():
            if future.done() and not future.cancelled():
                future.exception()
    return results  # type: ignore[return-value]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving input order in the result.

    ``on_result(index, value)`` (optional) is invoked in the parent once
    per item as its result becomes available (exactly once per item, on
    success only) -- the durability layer's journaling hook.
    """
    work = list(items)
    n_jobs = default_jobs() if jobs is None else max(1, int(jobs))
    n_jobs = min(n_jobs, len(work))
    if _IN_WORKER or n_jobs <= 1 or len(work) <= 1:
        return _serial_map(fn, work, on_result)
    try:
        # Lambdas/closures can't cross the process boundary; probing here
        # (pickling raises AttributeError, not just PicklingError) keeps
        # the pool path for real shard functions only.
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError):
        return _serial_map(fn, work, on_result)

    order = list(range(len(work)))
    rng = faults.plan_rng()
    if rng is not None and faults.should_fire("worker_reorder"):
        # Chaos: shuffled submission/completion order must not change
        # the output, because results are keyed by item index.
        rng.shuffle(order)
    try:
        return asyncio.run(_gather(fn, work, order, n_jobs, on_result))
    except KeyboardInterrupt:
        # Graceful shutdown, not an infrastructure failure: the pool is
        # already stopped (no zombies); let the interrupt propagate to
        # the CLI handler.
        metrics().incr("parallel.interrupts")
        raise
