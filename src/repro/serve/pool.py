"""The supervised worker pool: crash-only workers, a parent that never dies.

The one pool behind every forked computation: served design requests
(:meth:`SupervisedPool.submit`) and :func:`repro.perf.parallel.parallel_map`
shards (:meth:`SupervisedPool.call`).  A job is a plain call
``fn(*args, **kwargs)`` run in a forked worker connected to the asyncio
parent by ``multiprocessing.Pipe``.  Each worker gets a dedicated daemon
*reader thread* in the parent that blocks on ``conn.recv()`` and
trampolines replies onto the event loop with ``call_soon_threadsafe`` --
the loop itself never blocks on a pipe.

Supervision invariants (the chaos suites prove each):

* **crash containment** -- a worker that dies (SIGKILL, SIGTERM, fault
  injection, segfault) takes down only itself.  The parent observes EOF
  on the pipe, reaps the corpse, and respawns a replacement with
  exponential backoff (``0.05 * 2^n`` capped at 2s; the streak resets
  on any completed job, so the climb only bites a pool that is
  finishing nothing at all).
* **exactly-once re-dispatch, zero loss** -- a job that loses its worker
  (death, stall kill, or an
  :class:`~repro.reliability.faults.InjectedFault` reply) is re-queued
  at the front exactly once; if the
  *retry* is lost too, the parent computes it inline (in a thread, off
  the event loop).  The inline path cannot be killed by the fault
  points -- they are queried only in worker processes -- so every
  accepted job is answered.  Re-execution is idempotent: jobs are pure
  (the design flow is memoized content-addressed behind single-flight
  locks), so a double-run produces byte-identical payloads.
* **hang detection** -- a watchdog wakes 10x/second; a worker that has
  sat on one job longer than the stall budget (``stall_s``; None = no
  budget) is presumed wedged and SIGKILLed, which funnels into the same
  EOF -> re-dispatch path.  A job whose *deadline* has already passed is
  answered with a 504 first and then *not* re-dispatched -- killing the
  worker is then just cleanup.  A job without a deadline is never
  answered 504.
* **no orphans** -- workers close every parent-side pipe end they
  inherit, so a parent's death (even by SIGKILL) is EOF to them.
* **graceful shutdown** -- ``drain()`` waits for in-flight futures (up to
  a budget); ``stop()`` terminates what remains and joins it.

The pool knows nothing about sockets or admission -- that is
:mod:`repro.serve.server`'s job.  ``submit`` returns an ``asyncio.Future``
that always resolves to a response envelope, never raises.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import itertools
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.obs.metrics import metrics
from repro.reliability.faults import InjectedFault
from repro.serve.jobs import DesignRequest, execute_envelope

_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
_WATCHDOG_TICK_S = 0.1
_DEADLINE_GRACE_S = 0.25

#: Worker dispatches per job before the parent computes it inline.
MAX_DISPATCHES = 2

#: Fds that forked workers must close first thing: listener sockets
#: (registered by the servers that own them) and the parent-side end of
#: every worker pipe.  A ``fork`` child inherits every open fd, so a
#: worker spawned -- or *respawned after a crash* -- while a listening
#: socket is open would keep that port bound even after the owning
#: server closed it, and a held pipe end would keep a worker's ``recv``
#: from ever seeing EOF once the parent is gone.
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
    """Worker process body: recv a call -> run it -> reply, forever.

    The reply carries the call's value (``envelope``) or exception
    (``error``) and the counters the job added (``metrics``).  SIGTERM is
    reset to the default action so a politely-killed worker dies into the
    EOF/re-dispatch path instead of raising the CLI's KeyboardInterrupt
    mid-job; SIGINT is ignored (drain decisions belong to the parent); a
    ``parallel_map`` inside a job runs serially.  The ``serve_worker_*``
    fault points live here, never in the parent's inline fallback.
    """
    from repro.perf import parallel
    from repro.reliability import faults

    _close_inherited_fds()
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    parallel._IN_WORKER = True
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
        fn, args, kwargs = msg["call"]
        before = metrics().snapshot()
        try:
            reply = {"envelope": fn(*args, **kwargs)}
        except BaseException as exc:  # noqa: BLE001 - the parent decides
            reply = {"error": exc}
        reply["job_id"] = msg["job_id"]
        reply["metrics"] = metrics().diff_since(before)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent went away
            break


@dataclass
class _Job:
    job_id: int
    call: Tuple[Callable[..., Any], tuple, Dict[str, Any]]
    deadline_at: Optional[float]  # absolute monotonic; None = no deadline
    future: "asyncio.Future[Any]"
    fallback: Optional[Callable[[], Any]] = None
    refuse: Optional[Callable[[int, str], Any]] = None
    attempts: int = 0
    resolved: bool = False


@dataclass
class _Worker:
    worker_id: int
    process: mp.process.BaseProcess
    conn: Any
    job: Optional[_Job] = None
    dispatched_at: float = 0.0
    spawned_at: float = field(default_factory=time.monotonic)
    dead: bool = False


class SupervisedPool:
    """A fixed-size pool of supervised workers on one event loop.

    ``stall_s`` is the stall budget (None: no budget) and ``deadline_s``
    the default deadline of :meth:`submit`.  Pool events are counted as
    ``serve.<event>``; a ``counters`` map renames them instead, and an
    event it leaves out is not counted.
    """

    def __init__(
        self,
        workers: int,
        stall_s: Optional[float] = None,
        deadline_s: float = 30.0,
        counters: Optional[Mapping[str, str]] = None,
    ):
        self.workers = max(1, workers)
        self.stall_s = stall_s
        self.deadline_s = deadline_s
        self._counters = counters
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

    def _count(self, event: str) -> None:
        name = self._counters.get(event) if self._counters else f"serve.{event}"
        if name is not None:
            metrics().incr(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for _ in range(self.workers):
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
        refuse (or cancel) any jobs that are somehow still unresolved."""
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
            self._refuse(job, 500, "server shut down before completion")
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
        """Enqueue one design request; the future resolves to an envelope."""
        from repro.serve import protocol

        def refuse(code: int, reason: str) -> Dict[str, Any]:
            if code == 504:
                return protocol.timeout_response(reason, request.request_id)
            return protocol.error_response(
                code, reason, request.request_id, kind="ServeError"
            )

        return self.call(
            execute_envelope,
            (request,),
            {"degrade": tuple(sorted(degrade))},
            deadline_s=deadline_s if deadline_s is not None else self.deadline_s,
            refuse=refuse,
        )

    def call(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        deadline_s: Optional[float] = None,
        fallback: Optional[Callable[[], Any]] = None,
        refuse: Optional[Callable[[int, str], Any]] = None,
    ) -> "asyncio.Future[Any]":
        """Enqueue the job ``fn(*args, **kwargs)``; the future resolves to
        its value or raises its exception.  With ``deadline_s`` each run
        gets its remaining budget as the keyword ``deadline_s``, and an
        expired job is answered ``refuse(504, reason)``.  ``refuse`` also
        answers jobs open at :meth:`stop` (500); without it they are
        cancelled.  ``fallback`` is the parent's inline run (default:
        the same call)."""
        assert self._loop is not None, "pool not started"
        job = _Job(
            job_id=next(self._job_ids),
            call=(fn, tuple(args), dict(kwargs or {})),
            deadline_at=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
            future=self._loop.create_future(),
            fallback=fallback,
            refuse=refuse,
        )
        self._jobs[job.job_id] = job
        self._backlog.append(job)
        self._count("submitted")
        self._pump()
        return job.future

    # ------------------------------------------------------------------
    # Dispatch machinery (all on the event loop thread)
    # ------------------------------------------------------------------
    def _call_now(self, job: _Job) -> Tuple[Callable[..., Any], tuple, Dict[str, Any]]:
        fn, args, kwargs = job.call
        if job.deadline_at is not None:
            # An already-expired deadline must reach the call as expired
            # (its first checkpoint raises DeadlineError -> 504), not as
            # "no deadline" -- deadline_scope treats <= 0 as unlimited.
            remaining = max(1e-9, job.deadline_at - time.monotonic())
            kwargs = dict(kwargs, deadline_s=remaining)
        return fn, args, kwargs

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
        try:
            worker.conn.send({"job_id": job.job_id, "call": self._call_now(job)})
            self._count("dispatches")
        except (BrokenPipeError, OSError):
            # The worker died between going idle and this send; the
            # reader thread's EOF callback handles respawn + this job.
            return
        except (pickle.PicklingError, AttributeError, TypeError):
            # The call does not pickle, so nothing was sent.
            worker.job = None
            self._idle.append(worker.worker_id)
            self._lost(job)

    def _spawn_worker(self) -> None:
        if self._stopping:
            return
        worker_id = next(self._worker_ids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Every worker forked from now on, this one included, closes this
        # end: then the parent is its only holder and its death is EOF.
        close_fd_after_fork(parent_conn.fileno())
        process = self._ctx.Process(
            target=worker_main, args=(child_conn,), daemon=True,
            name=f"repro-pool-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        self._workers[worker_id] = _Worker(worker_id, process, parent_conn)
        self._idle.append(worker_id)
        threading.Thread(
            target=self._reader_body,
            args=(worker_id, parent_conn),
            name=f"repro-pool-reader-{worker_id}",
            daemon=True,
        ).start()
        self._count("worker_spawns")
        self._pump()

    def _reader_body(self, worker_id: int, conn) -> None:
        """Runs in a daemon thread: block on the pipe, trampoline to the
        loop.  EOF means the worker is gone (exit, crash, or kill); only
        then is the pipe closed, by this thread, never under its read."""
        loop = self._loop
        assert loop is not None
        try:
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    loop.call_soon_threadsafe(self._on_worker_eof, worker_id)
                    return
                loop.call_soon_threadsafe(self._on_result, worker_id, msg)
        except RuntimeError:  # the loop closed under us
            return
        finally:
            forget_fd_after_fork(conn.fileno())
            conn.close()

    def _on_result(self, worker_id: int, msg: Dict[str, Any]) -> None:
        worker = self._workers.get(worker_id)
        job = self._jobs.get(msg.get("job_id"))
        # Fold the worker's counter deltas into the parent registry so
        # the parent's counters include the work its workers did.
        metrics().merge(msg.get("metrics") or {})
        if worker is not None and not worker.dead:
            worker.job = None
            self._idle.append(worker_id)
        if job is not None:
            # Any completed job is proof the pool can still do work:
            # reset the respawn backoff streak (its exponential climb is
            # for the pool that dies before finishing *anything*).
            self._deaths_in_a_row = 0
            error = msg.get("error")
            if isinstance(error, InjectedFault):
                self._lost(job)
            else:
                self._resolve(job, msg.get("envelope"), error)
        self._pump()

    def _on_worker_eof(self, worker_id: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.dead:
            return
        self._count("worker_deaths")
        job = worker.job
        self._retire_worker(worker, terminate=False)
        if job is not None:
            self._lost(job)
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

    def _lost(self, job: _Job) -> None:
        """``job`` lost its worker: re-dispatch it, or compute it inline."""
        if job.resolved or job.future.done():
            return
        if job.attempts < MAX_DISPATCHES:
            # Exactly-once re-dispatch: front of the queue, another
            # worker picks it up as soon as one is free.
            self._count("redispatches")
            self._backlog.appendleft(job)
            return
        # Second casualty: guarantee the answer inline.  The pool fault
        # points only exist in worker processes, so this path cannot be
        # crashed or hung by the chaos plan.
        self._count("inline_fallbacks")
        if job.fallback is not None:
            run = job.fallback
        else:
            fn, args, kwargs = self._call_now(job)
            run = functools.partial(fn, *args, **kwargs)
        assert self._loop is not None
        task = self._loop.run_in_executor(None, run)
        task.add_done_callback(lambda fut, j=job: self._finish_inline(j, fut))

    def _finish_inline(self, job: _Job, fut: "asyncio.Future[Any]") -> None:
        if fut.cancelled():
            self._jobs.pop(job.job_id, None)
            return
        error = fut.exception()
        self._resolve(job, None if error else fut.result(), error)

    def _resolve(self, job: _Job, value: Any, error: Optional[BaseException]) -> None:
        self._jobs.pop(job.job_id, None)
        if job.future.done():
            return
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(value)
        job.resolved = True
        self._count("completed")

    def _refuse(self, job: _Job, code: int, reason: str) -> None:
        """Answer ``job`` without running it (504/500), or cancel it."""
        if not job.future.done():
            if job.refuse is None:
                job.future.cancel()
            else:
                job.future.set_result(job.refuse(code, reason))
        job.resolved = True
        self._jobs.pop(job.job_id, None)

    async def _respawn_after(self, delay_s: float) -> None:
        await asyncio.sleep(delay_s)
        self._count("worker_respawns")
        self._spawn_worker()

    def _retire_worker(self, worker: _Worker, terminate: bool) -> None:
        worker.dead = True
        self._workers.pop(worker.worker_id, None)
        try:
            self._idle.remove(worker.worker_id)
        except ValueError:
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
        while True:
            await asyncio.sleep(_WATCHDOG_TICK_S)
            now = time.monotonic()
            # Queued jobs whose deadline already passed: answer 504
            # without burning a worker.
            for job in list(self._backlog):
                if (
                    job.deadline_at is not None
                    and now > job.deadline_at
                    and not job.future.done()
                ):
                    self._refuse(job, 504, "deadline expired while queued")
                    self._backlog.remove(job)
                    self._count("queue_timeouts")
            for worker in list(self._workers.values()):
                job = worker.job
                if job is None or worker.dead:
                    continue
                if (
                    job.deadline_at is not None
                    and now > job.deadline_at + _DEADLINE_GRACE_S
                ):
                    # The worker missed its cooperative deadline (likely
                    # wedged inside one stage): answer the client now,
                    # then recycle the worker.  resolved=True keeps the
                    # EOF path from re-dispatching a dead request.
                    self._refuse(job, 504, "deadline expired in flight")
                    self._count("watchdog_timeouts")
                    self._kill_worker(worker)
                elif (
                    self.stall_s is not None
                    and now > worker.dispatched_at + self.stall_s
                ):
                    # Stalled but the deadline still has budget: kill and
                    # let the EOF path re-dispatch/fallback.
                    self._count("watchdog_stall_kills")
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
