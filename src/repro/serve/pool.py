"""The supervised worker pool: crash-only workers, a parent that never dies.

Design requests execute in forked worker processes connected to the
asyncio parent by ``multiprocessing.Pipe``.  Each worker gets a dedicated
daemon *reader thread* in the parent that blocks on ``conn.recv()`` and
trampolines results onto the event loop with ``call_soon_threadsafe`` --
the loop itself never blocks on a pipe.

Supervision invariants (the chaos suite proves each):

* **crash containment** -- a worker that dies (SIGKILL, SIGTERM, fault
  injection, segfault) takes down only itself.  The parent observes EOF
  on the pipe, reaps the corpse, and respawns a replacement with
  exponential backoff (``0.05 * 2^n`` capped at 2s; the streak resets
  on any completed job, so the climb only bites a pool that is
  finishing nothing at all).
* **exactly-once re-dispatch, zero loss** -- an in-flight request on a
  dead worker is re-queued at the front exactly once; if the *retry* also
  dies with it, the parent computes it inline (in a thread, off the
  event loop).  The inline path cannot be killed by the serve fault
  points -- they are queried only inside :func:`worker_main` -- so every
  accepted request is answered.  Re-execution is idempotent: the design
  flow is memoized content-addressed behind single-flight locks, and
  the executor is a pure function of the request, so a double-run
  produces byte-identical payloads.
* **hang detection** -- a watchdog wakes 10x/second; a worker that has
  sat on one job longer than the stall budget is presumed wedged and
  SIGKILLed, which funnels into the same EOF -> re-dispatch path.  A job
  whose *deadline* has already passed is answered with a 504 first and
  then *not* re-dispatched -- killing the worker is then just cleanup.
* **graceful shutdown** -- ``drain()`` waits for in-flight futures (up to
  a budget); ``stop()`` closes pipes, terminates what remains, joins.

The pool knows nothing about sockets or admission -- that is
:mod:`repro.serve.server`'s job.  ``submit`` returns an ``asyncio.Future``
that always resolves to a response envelope, never raises.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, Optional

from repro.obs.metrics import metrics
from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, execute_envelope

_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
_WATCHDOG_TICK_S = 0.1
_DEADLINE_GRACE_S = 0.25

#: Listener fds (registered by the servers that own them) that forked
#: workers must close first thing.  A ``fork`` child inherits every open
#: fd, so a worker spawned -- or *respawned after a crash* -- while a
#: listening socket is open would keep that port bound even after the
#: owning server closed it, and a restarted server could never rebind.
_CLOSE_IN_CHILD: set = set()


def close_fd_after_fork(fd: int) -> None:
    """Register ``fd`` to be closed in every subsequently forked worker."""
    _CLOSE_IN_CHILD.add(fd)


def forget_fd_after_fork(fd: int) -> None:
    """Unregister ``fd`` (the owner closed it; the number may be reused)."""
    _CLOSE_IN_CHILD.discard(fd)


def _close_inherited_fds() -> None:
    for fd in list(_CLOSE_IN_CHILD):
        try:
            os.close(fd)
        except OSError:
            pass
    _CLOSE_IN_CHILD.clear()


def worker_main(conn) -> None:
    """Worker process body: recv job -> execute -> send envelope, forever.

    The serve chaos fault points live here and *only* here -- the
    parent's inline fallback must be unkillable.  SIGTERM is reset to
    the default action so a politely-killed worker dies into the normal
    EOF/re-dispatch path instead of raising the CLI's KeyboardInterrupt
    mid-``send`` (the pool-poisoning bug class; see
    ``repro.perf.parallel._mark_worker``).  SIGINT is ignored: Ctrl-C at
    the terminal signals the whole foreground group, and drain decisions
    belong to the parent alone.
    """
    from repro.reliability import faults

    _close_inherited_fds()
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:  # orderly shutdown
            break
        faults.fire_kill("serve_worker_crash")
        if faults.should_fire("serve_worker_hang"):
            time.sleep(faults.hang_seconds())
        envelope = execute_envelope(
            msg["request"],
            degrade=msg["degrade"],
            deadline_s=msg["deadline_s"],
            collect_metrics=True,
        )
        try:
            conn.send({"job_id": msg["job_id"], "envelope": envelope})
        except (BrokenPipeError, OSError):  # parent went away
            break


@dataclass
class _Job:
    job_id: int
    request: DesignRequest
    degrade: FrozenSet[str]
    deadline_at: float  # absolute monotonic
    future: "asyncio.Future[Dict[str, Any]]"
    attempts: int = 0
    resolved: bool = False


@dataclass
class _Worker:
    worker_id: int
    process: mp.process.BaseProcess
    conn: Any
    reader: threading.Thread
    job: Optional[_Job] = None
    dispatched_at: float = 0.0
    spawned_at: float = field(default_factory=time.monotonic)
    dead: bool = False


class SupervisedPool:
    """A fixed-size pool of supervised design workers on one event loop."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._ctx = mp.get_context("fork")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: Dict[int, _Worker] = {}
        self._idle: Deque[int] = collections.deque()
        self._backlog: Deque[_Job] = collections.deque()
        self._jobs: Dict[int, _Job] = {}
        self._job_ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._deaths_in_a_row = 0
        self._watchdog: Optional[asyncio.Task] = None
        self._respawns: set = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for _ in range(self.config.workers):
            self._spawn_worker()
        self._watchdog = asyncio.ensure_future(self._watchdog_loop())

    async def drain(self, timeout_s: float) -> bool:
        """Wait for every in-flight/queued job to resolve.  Returns True
        when the pool drained fully inside the budget."""
        pending = [j.future for j in self._jobs.values() if not j.future.done()]
        if not pending:
            return True
        done, not_done = await asyncio.wait(pending, timeout=timeout_s)
        return not not_done

    async def stop(self) -> None:
        """Tear the pool down: retire workers, cancel the watchdog, and
        fail any jobs that are somehow still unresolved."""
        self._stopping = True
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
        for task in list(self._respawns):
            task.cancel()
        for worker in list(self._workers.values()):
            self._retire_worker(worker, terminate=True)
        for job in list(self._jobs.values()):
            if not job.future.done():
                from repro.serve import protocol

                job.future.set_result(
                    protocol.error_response(
                        500, "server shut down before completion",
                        job.request.request_id, kind="ServeError",
                    )
                )
        self._jobs.clear()
        self._backlog.clear()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Admitted-but-unresolved job count (queued + in flight)."""
        return len(self._jobs)

    def workers_alive(self) -> int:
        return sum(1 for w in self._workers.values() if not w.dead)

    def submit(
        self,
        request: DesignRequest,
        degrade: FrozenSet[str] = frozenset(),
        deadline_s: Optional[float] = None,
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Enqueue one request; the future resolves to an envelope."""
        assert self._loop is not None, "pool not started"
        deadline_s = (
            deadline_s if deadline_s is not None else self.config.deadline_s
        )
        job = _Job(
            job_id=next(self._job_ids),
            request=request,
            degrade=frozenset(degrade),
            deadline_at=time.monotonic() + deadline_s,
            future=self._loop.create_future(),
        )
        self._jobs[job.job_id] = job
        self._backlog.append(job)
        metrics().incr("serve.submitted")
        self._pump()
        return job.future

    # ------------------------------------------------------------------
    # Dispatch machinery (all on the event loop thread)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Match queued jobs with idle workers."""
        while self._backlog and self._idle:
            worker = self._workers.get(self._idle.popleft())
            if worker is None or worker.dead or worker.job is not None:
                continue
            job = self._backlog.popleft()
            if job.future.done():
                self._jobs.pop(job.job_id, None)
                self._idle.appendleft(worker.worker_id)
                continue
            self._dispatch(worker, job)

    def _dispatch(self, worker: _Worker, job: _Job) -> None:
        job.attempts += 1
        worker.job = job
        worker.dispatched_at = time.monotonic()
        # An already-expired deadline must reach the worker as expired
        # (its first checkpoint raises DeadlineError -> 504), not as
        # "no deadline" -- deadline_scope treats <= 0 as unlimited.
        remaining = max(1e-9, job.deadline_at - worker.dispatched_at)
        try:
            worker.conn.send(
                {
                    "job_id": job.job_id,
                    "request": job.request,
                    "degrade": tuple(sorted(job.degrade)),
                    "deadline_s": remaining,
                }
            )
            metrics().incr("serve.dispatches")
        except (BrokenPipeError, OSError):
            # The worker died between going idle and this send; the
            # reader thread's EOF callback handles respawn + this job.
            worker.job = job  # ensure EOF path sees it
            return

    def _spawn_worker(self) -> None:
        if self._stopping:
            return
        worker_id = next(self._worker_ids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main, args=(child_conn,), daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        reader = threading.Thread(
            target=self._reader_body,
            args=(worker_id, parent_conn),
            name=f"repro-serve-reader-{worker_id}",
            daemon=True,
        )
        worker = _Worker(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            reader=reader,
        )
        self._workers[worker_id] = worker
        self._idle.append(worker_id)
        reader.start()
        metrics().incr("serve.worker_spawns")
        self._pump()

    def _reader_body(self, worker_id: int, conn) -> None:
        """Runs in a daemon thread: block on the pipe, trampoline to the
        loop.  EOF means the worker is gone (exit, crash, or kill)."""
        loop = self._loop
        assert loop is not None
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                if not loop.is_closed():
                    loop.call_soon_threadsafe(self._on_worker_eof, worker_id)
                return
            if not loop.is_closed():
                loop.call_soon_threadsafe(self._on_result, worker_id, msg)

    def _on_result(self, worker_id: int, msg: Dict[str, Any]) -> None:
        worker = self._workers.get(worker_id)
        job = self._jobs.pop(msg.get("job_id"), None)
        envelope = msg.get("envelope", {})
        # Fold the worker's counter deltas into the parent registry so
        # the metrics endpoint sees cache hits/spans from worker runs.
        delta = envelope.pop("metrics", None)
        if delta:
            metrics().merge(delta)
        if job is not None and not job.future.done():
            job.future.set_result(envelope)
            job.resolved = True
            metrics().incr("serve.completed")
        if job is not None:
            # Any completed job is proof the pool can still do work:
            # reset the respawn backoff streak (its exponential climb is
            # for the pool that dies before finishing *anything*).
            self._deaths_in_a_row = 0
        if worker is not None and not worker.dead:
            worker.job = None
            self._idle.append(worker_id)
            self._pump()

    def _on_worker_eof(self, worker_id: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.dead:
            return
        metrics().incr("serve.worker_deaths")
        job = worker.job
        self._retire_worker(worker, terminate=False)
        if job is not None and not job.resolved and not job.future.done():
            if job.attempts <= 1:
                # Exactly-once re-dispatch: front of the queue, another
                # worker picks it up as soon as one is free.
                metrics().incr("serve.redispatches")
                self._backlog.appendleft(job)
            else:
                # Second casualty: guarantee the answer inline.  The
                # serve fault points only exist in worker_main, so this
                # path cannot be crashed or hung by the chaos plan.
                metrics().incr("serve.inline_fallbacks")
                assert self._loop is not None
                task = self._loop.run_in_executor(
                    None,
                    lambda: execute_envelope(
                        job.request,
                        degrade=job.degrade,
                        deadline_s=max(
                            1e-9, job.deadline_at - time.monotonic()
                        ),
                        collect_metrics=False,
                    ),
                )
                task.add_done_callback(
                    lambda fut, j=job: self._finish_inline(j, fut)
                )
        if not self._stopping:
            self._deaths_in_a_row += 1
            backoff = min(
                _BACKOFF_BASE * (2 ** max(0, self._deaths_in_a_row - 1)),
                _BACKOFF_MAX,
            )
            respawn = asyncio.ensure_future(self._respawn_after(backoff))
            self._respawns.add(respawn)
            respawn.add_done_callback(self._respawns.discard)
        self._pump()

    def _finish_inline(self, job: _Job, fut) -> None:
        self._jobs.pop(job.job_id, None)
        if job.future.done():
            return
        try:
            job.future.set_result(fut.result())
            job.resolved = True
            metrics().incr("serve.completed")
        except Exception as exc:  # pragma: no cover - belt and braces
            from repro.serve import protocol

            job.future.set_result(
                protocol.error_response(
                    500, f"inline fallback failed: {exc}",
                    job.request.request_id, kind=type(exc).__name__,
                )
            )

    async def _respawn_after(self, delay_s: float) -> None:
        await asyncio.sleep(delay_s)
        metrics().incr("serve.worker_respawns")
        self._spawn_worker()

    def _retire_worker(self, worker: _Worker, terminate: bool) -> None:
        worker.dead = True
        self._workers.pop(worker.worker_id, None)
        try:
            self._idle.remove(worker.worker_id)
        except ValueError:
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        try:
            worker.process.join(timeout=1.0)
        except (AssertionError, ValueError):  # pragma: no cover
            pass
        if worker.process.is_alive():  # pragma: no cover - stubborn corpse
            worker.process.kill()
            worker.process.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    async def _watchdog_loop(self) -> None:
        from repro.serve import protocol

        stall_s = self.config.effective_stall_s()
        while True:
            await asyncio.sleep(_WATCHDOG_TICK_S)
            now = time.monotonic()
            # Queued jobs whose deadline already passed: answer 504
            # without burning a worker.
            for job in list(self._backlog):
                if now > job.deadline_at and not job.future.done():
                    job.future.set_result(
                        protocol.timeout_response(
                            "deadline expired while queued",
                            job.request.request_id,
                        )
                    )
                    job.resolved = True
                    self._jobs.pop(job.job_id, None)
                    self._backlog.remove(job)
                    metrics().incr("serve.queue_timeouts")
            for worker in list(self._workers.values()):
                job = worker.job
                if job is None or worker.dead:
                    continue
                if now > job.deadline_at + _DEADLINE_GRACE_S:
                    # The worker missed its cooperative deadline (likely
                    # wedged inside one stage): answer the client now,
                    # then recycle the worker.  resolved=True keeps the
                    # EOF path from re-dispatching a dead request.
                    if not job.future.done():
                        job.future.set_result(
                            protocol.timeout_response(
                                "deadline expired in flight",
                                job.request.request_id,
                            )
                        )
                    job.resolved = True
                    self._jobs.pop(job.job_id, None)
                    metrics().incr("serve.watchdog_timeouts")
                    self._kill_worker(worker)
                elif now > worker.dispatched_at + stall_s:
                    # Stalled but the deadline still has budget: kill and
                    # let the EOF path re-dispatch/fallback.
                    metrics().incr("serve.watchdog_stall_kills")
                    self._kill_worker(worker)

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            if worker.process.pid is not None:
                os.kill(worker.process.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "workers": {
                str(w.worker_id): {
                    "pid": w.process.pid,
                    "busy": w.job is not None,
                    "age_s": round(time.monotonic() - w.spawned_at, 3),
                }
                for w in self._workers.values()
            },
            "alive": self.workers_alive(),
            "queue_depth": self.depth(),
            "backlog": len(self._backlog),
        }
