"""Deterministic, fault-tolerant process-pool mapping for experiment shards.

``parallel_map(fn, items)`` is a drop-in for ``[fn(x) for x in items]``:
results always come back in input order and anything that prevents pooling
(``REPRO_JOBS=1``, an unpicklable ``fn``, a sandbox without process
support, or already being inside a worker) silently degrades to the serial
loop.  Because every shard function in the harness is a pure function of
its arguments, serial and parallel runs are byte-identical -- and the
hardening below preserves that under infrastructure failure:

* **crash isolation** -- a worker that dies (``BrokenProcessPool``) fails
  only its own item; the item is retried on a fresh pool with bounded
  deterministic backoff and, as a last resort, recomputed serially in the
  parent instead of aborting the whole sweep;
* **per-task timeout** -- ``REPRO_TASK_TIMEOUT`` (seconds) bounds each
  item; a hung worker is abandoned (and terminated) rather than waited on
  forever, and its item goes through the same retry/serial path;
* **structured failure** -- an item that still cannot be computed raises
  :class:`~repro.reliability.errors.WorkerError` naming the item index.

Exceptions raised by ``fn`` itself are *not* retried: they are
deterministic application errors and propagate unchanged, exactly like
the serial loop.  ``KeyboardInterrupt`` (Ctrl-C, or the CLI's SIGTERM
handler) is *never* treated as retryable either -- the pool is torn down
immediately (no zombie workers) and the interrupt propagates, so the
durability layer above can report a resumable run instead of half-dying
into a hung process tree.

``on_result(index, value)`` (optional) runs in the parent as each item's
result lands, in input order for the serial path and submission order
for the pooled path -- :func:`repro.reliability.durability.durable_map`
uses it to journal shard completions *as they happen*, so an interrupt
mid-sweep loses only in-flight shards, not finished ones.

Worker count comes from ``jobs=...`` or the ``REPRO_JOBS`` environment
variable (default 1: opt-in parallelism); retries from
``REPRO_TASK_RETRIES`` (default 2).  The ``worker_crash``/``worker_hang``/
``worker_reorder`` fault points (:mod:`repro.reliability.faults`) let the
chaos suite prove all of this.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from typing import Callable, Dict, Iterable, List, Optional, TypeVar

from repro.obs.metrics import metrics
from repro.obs.tracing import trace_span
from repro.reliability import faults
from repro.reliability.errors import WorkerError
from repro.reliability.faults import InjectedFault

T = TypeVar("T")
R = TypeVar("R")

_IN_WORKER = False

_BACKOFF_BASE = 0.05  # seconds; doubles per retry pass, deterministic
_BACKOFF_MAX = 0.5


def _mark_worker() -> None:
    """Pool initializer: flags the process so nested ``parallel_map`` calls
    inside shard functions run serially instead of forking pools of pools.

    Also resets SIGTERM to the default action.  Forked workers inherit the
    CLI's handler, which raises ``KeyboardInterrupt`` -- correct for the
    *parent* (drain, journal, resume hint), but poison in a worker: the
    pool ships the ``KeyboardInterrupt`` back as the task's result and the
    whole sweep aborts because one worker was politely killed.  With the
    default action the SIGTERMed worker simply dies, the parent sees a
    ``BrokenProcessPool``, re-dispatches the item, and the sweep result
    stays byte-identical."""
    global _IN_WORKER
    _IN_WORKER = True
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def default_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, jobs)


def task_timeout() -> Optional[float]:
    """Per-item timeout in seconds (``REPRO_TASK_TIMEOUT``); None = wait
    forever (the default)."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def task_retries() -> int:
    """Pool retry passes per item before the serial fallback
    (``REPRO_TASK_RETRIES``, default 2)."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "2")
    try:
        retries = int(raw)
    except ValueError:
        return 2
    return max(0, retries)


def _pool_call(fn: Callable[[T], R], item: T):
    """Runs inside a pool worker; hosts the worker-side fault points.

    Returns ``(result, metrics_delta)``: the counters the task gained in
    this worker process (cache hits/misses, fault hits, nested spans) are
    snapshotted around the call and shipped back through the result
    channel, so the parent can merge them into its own registry --
    without this, worker-side counters die with the pool and the parent's
    ``cache_stats()`` silently under-reports under ``REPRO_JOBS>1``.
    """
    faults.fire("worker_crash")
    if faults.should_fire("worker_hang"):
        time.sleep(faults.hang_seconds())
    before = metrics().snapshot()
    with trace_span("parallel.task", where="worker"):
        value = fn(item)
    return value, metrics().diff_since(before)


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


def _reap(pool) -> None:
    """Abandon a pool without waiting on hung workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:
        pass


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
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        # Lambdas/closures can't cross the process boundary; probing here
        # (pickling raises AttributeError, not just PicklingError) keeps
        # the pool path for real shard functions only.
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError):
        return _serial_map(fn, work, on_result)

    timeout = task_timeout()
    retries = task_retries()
    # Only infrastructure failures are retryable; fn's own exceptions are
    # deterministic and propagate unchanged (same as the serial loop).
    retryable = (FuturesTimeout, BrokenProcessPool, InjectedFault,
                 pickle.PicklingError)

    results: List[Optional[R]] = [None] * len(work)
    pending = set(range(len(work)))
    last_error: Dict[int, BaseException] = {}

    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt:
            time.sleep(min(_BACKOFF_BASE * (2 ** (attempt - 1)), _BACKOFF_MAX))
        order = sorted(pending)
        rng = faults.plan_rng()
        if rng is not None and faults.should_fire("worker_reorder"):
            # Chaos: shuffled submission/completion order must not change
            # the output, because results are keyed by item index.
            rng.shuffle(order)
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(n_jobs, len(order)), initializer=_mark_worker
            )
        except OSError:
            break  # no subprocess support at all: serial fallback below
        try:
            try:
                futures = {
                    index: pool.submit(_pool_call, fn, work[index])
                    for index in order
                }
            except (BrokenProcessPool, OSError, pickle.PicklingError) as exc:
                for index in order:
                    last_error.setdefault(index, exc)
                continue
            for index in order:
                try:
                    value, worker_delta = futures[index].result(timeout=timeout)
                    # The worker-aggregation fix: fold the task's counter
                    # delta (cache hits/misses, fault hits) into the
                    # parent registry before handing back the value.
                    metrics().merge(worker_delta)
                    metrics().incr("parallel.pool_tasks")
                    results[index] = value
                    pending.discard(index)
                    if on_result is not None:
                        on_result(index, value)
                except KeyboardInterrupt:
                    # Graceful shutdown, not an infrastructure failure:
                    # never lands in the retry/serial-fallback machinery.
                    # Terminate the workers right here (no zombies) and
                    # let the interrupt propagate to the CLI handler.
                    metrics().incr("parallel.interrupts")
                    raise
                except retryable as exc:
                    last_error[index] = exc
                    metrics().incr("parallel.retries")
                    if isinstance(exc, FuturesTimeout):
                        metrics().incr("parallel.timeouts")
        finally:
            _reap(pool)

    # Last resort: recompute survivors serially in the parent.  A pure fn
    # returns the identical value, so the output stays byte-identical.
    # KeyboardInterrupt is not in `retryable`: an interrupt here aborts
    # the sweep instead of being converted into a WorkerError.
    for index in sorted(pending):
        metrics().incr("parallel.serial_fallbacks")
        try:
            with trace_span("parallel.task", where="fallback", index=index):
                results[index] = fn(work[index])
        except retryable as exc:
            raise WorkerError(
                f"work item {index} failed {retries + 1} pool attempts "
                "and the serial recompute",
                stage="parallel_map",
                item_index=index,
                attempts=retries + 1,
                last_pool_error=repr(last_error.get(index)),
            ) from exc
        if on_result is not None:
            on_result(index, results[index])
    return results  # type: ignore[return-value]
