"""The asyncio front end: admission control, degradation, graceful drain.

``DesignServer`` accepts newline-delimited JSON requests on a TCP socket
(:mod:`repro.serve.protocol`) and executes ``design`` ops on the
:class:`~repro.serve.pool.SupervisedPool`.  What this layer adds on top
of the pool's crash tolerance:

* **bounded admission** -- at most ``queue_limit`` requests may be
  admitted-but-unresolved; request N+1 is shed immediately with a 503
  whose ``retry_after_s`` hint is computed from live state (queue depth /
  workers x an EMA of recent service time), so well-behaved clients
  back off proportionally to actual load.
* **circuit breakers** (:mod:`repro.serve.breaker`) -- repeated cache
  failures open the ``cache`` breaker and subsequent requests run
  ``no-cache``; repeated verification failures shed verification
  (``no-verify``); repeated failures inside one design stage fast-fail
  matching requests with a 503 instead of burning workers.  Degraded
  responses carry a ``degraded`` list in the envelope; the payload bytes
  are identical to the undegraded answer.
* **deadline-aware degradation** -- a request whose remaining deadline is
  tight relative to the service-time EMA sheds verification up front
  rather than timing out at 95% done.
* **graceful drain** -- SIGTERM (or ``shutdown()``) stops admission
  (late arrivals get a 503 with ``reason: draining``), closes the
  listener, waits up to the drain budget for in-flight requests, flushes
  a final metrics line, and stops the pool.  The CLI then exits 0.

``healthz`` answers readiness from live supervision state (accepting +
at least one live worker); ``{"op": "healthz", "deep": true}`` round-trips
a real verified probe design (the selfcheck battery's paper trace)
through the pool first.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, FrozenSet, Optional, Set

from repro.obs.metrics import metrics
from repro.reliability.errors import ReproError
from repro.serve import protocol
from repro.serve.breaker import BreakerBoard
from repro.serve.config import ServeConfig
from repro.serve.jobs import (
    DEGRADE_NO_CACHE,
    DEGRADE_NO_VERIFY,
    DesignRequest,
    classify_error,
)
from repro.serve.pool import (
    SupervisedPool,
    close_fd_after_fork,
    forget_fd_after_fork,
)

_EMA_ALPHA = 0.2
_EMA_INITIAL_S = 0.5
#: Shed verification when the remaining deadline is under this multiple
#: of the recent service-time EMA.
_PRESSURE_FACTOR = 1.5


class DesignServer:
    """One listening socket + one supervised pool + the control plane."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.pool = SupervisedPool(
            config.workers,
            stall_s=config.effective_stall_s(),
            deadline_s=config.deadline_s,
        )
        self.breakers = BreakerBoard(
            threshold=config.breaker_threshold,
            reset_after=config.breaker_reset_s,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._ema_s = _EMA_INITIAL_S
        self._connections: Set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._listener_fds: Set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        # Workers forked (or respawned) from here on must not inherit
        # the listener: a held fd would keep the port bound after this
        # server exits, blocking a restart on the same port.
        self._listener_fds = {
            sock.fileno() for sock in self._server.sockets
        }
        for fd in self._listener_fds:
            close_fd_after_fork(fd)

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`shutdown` completes (the CLI's main await)."""
        assert self._server is not None
        async with self._server:
            await self._drained.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish in-flight, flush, stop."""
        if self._draining:
            return
        self._draining = True
        metrics().incr("serve.drains")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for fd in self._listener_fds:
            forget_fd_after_fork(fd)
        self._listener_fds = set()
        drained = await self.pool.drain(self.config.drain_timeout_s)
        if not drained:
            metrics().incr("serve.drain_abandoned")
        # The pool futures have resolved; give connection handlers a
        # beat to actually flush those envelopes to their sockets before
        # anything is torn down (finish-in-flight includes delivery).
        flush_deadline = asyncio.get_running_loop().time() + 5.0
        while (
            self._active_requests
            and asyncio.get_running_loop().time() < flush_deadline
        ):
            await asyncio.sleep(0.01)
        await self.pool.stop()
        # Nudge lingering idle connections: closing the transport makes
        # their pending readline() see EOF and the handler exit cleanly.
        for writer in list(self._connections):
            try:
                writer.close()
            except OSError:
                pass
        self._drained.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Read request lines and answer them **concurrently**.

        Requests on one connection used to be awaited serially, so a
        slow ``design`` stalled a pipelined ``healthz``/``metrics`` on
        the same socket -- exactly the probe a router needs answered
        while the replica is busy.  Each parsed line now runs in its own
        task; only the *writes* are serialized (one response line at a
        time), and responses carry the request ``id``, so clients that
        pipeline correlate by id, not by arrival order.
        """
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    async with write_lock:
                        await self._send(
                            writer,
                            protocol.error_response(
                                400,
                                "request line exceeds "
                                f"{protocol.MAX_LINE_BYTES} bytes",
                            ),
                        )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self._active_requests += 1
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                # EOF on the read side must not drop responses still in
                # flight: a half-closing client is owed its envelopes.
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_line(self, line: bytes, writer, write_lock) -> None:
        try:
            envelope = await self._handle_line(line)
            async with write_lock:
                await self._send(writer, envelope)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._active_requests -= 1

    async def _send(self, writer, envelope: Dict[str, Any]) -> None:
        writer.write(protocol.canonical_json(envelope) + b"\n")
        await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            obj = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            metrics().incr("serve.protocol_errors")
            return protocol.error_response(400, str(exc), kind="ProtocolError")
        op = obj["op"]
        if op == "ping":
            return protocol.response("ok", 200, obj.get("id"), op="ping")
        if op == "healthz":
            return await self._healthz(obj)
        if op == "metrics":
            return self._metrics_response(obj)
        return await self._design(obj)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    async def _design(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        request_id = obj.get("id")
        if self._draining:
            metrics().incr("serve.shed_draining")
            return protocol.rejected_response(
                "draining", self._retry_after_s(), request_id
            )
        if self.pool.depth() >= self.config.queue_limit:
            metrics().incr("serve.shed_overload")
            return protocol.rejected_response(
                "queue full", self._retry_after_s(), request_id
            )
        try:
            request = DesignRequest.from_payload(obj)
        except ReproError as exc:
            metrics().incr("serve.bad_requests")
            code, kind = classify_error(exc)
            return protocol.error_response(
                code, str(exc), request_id, kind=kind, stage=exc.stage
            )
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.deadline_s
        )
        degrade, shed = self._degrade_for(request, deadline_s)
        if shed is not None:
            return shed
        started = time.monotonic()
        envelope = await self.pool.submit(
            request, degrade=degrade, deadline_s=deadline_s
        )
        self._observe(request, degrade, envelope, time.monotonic() - started)
        return envelope

    def _degrade_for(
        self, request: DesignRequest, deadline_s: float
    ) -> tuple:
        """Decide this request's degrade set, or shed it outright when
        its design-stage breaker is open."""
        degrade: Set[str] = set()
        if not self.breakers.get("cache").allow():
            degrade.add(DEGRADE_NO_CACHE)
            metrics().incr("serve.degraded_no_cache")
        if request.verify:
            if not self.breakers.get("verify").allow():
                degrade.add(DEGRADE_NO_VERIFY)
                metrics().incr("serve.degraded_no_verify")
            elif deadline_s < _PRESSURE_FACTOR * self._ema_s:
                # Deadline pressure: shedding verification now beats a
                # 504 after the design work is done.
                degrade.add(DEGRADE_NO_VERIFY)
                metrics().incr("serve.degraded_deadline_pressure")
        stage_breaker = self.breakers.get(f"stage:order={request.order}")
        if not stage_breaker.allow():
            metrics().incr("serve.shed_breaker")
            return degrade, protocol.rejected_response(
                "design stage circuit open",
                max(0.1, stage_breaker.retry_after_s()),
                request.request_id,
            )
        return frozenset(degrade), None

    def _observe(
        self,
        request: DesignRequest,
        degrade: FrozenSet[str],
        envelope: Dict[str, Any],
        latency_s: float,
    ) -> None:
        """Feed one outcome back into the EMA and the breaker board."""
        status = envelope.get("status")
        code = envelope.get("code", 0)
        if status == "ok":
            self._ema_s = (
                (1 - _EMA_ALPHA) * self._ema_s + _EMA_ALPHA * latency_s
            )
            self.breakers.record("cache", ok=True)
            if request.verify and DEGRADE_NO_VERIFY not in degrade:
                self.breakers.record("verify", ok=True)
            self.breakers.record(f"stage:order={request.order}", ok=True)
            return
        if code in (400, 503):
            return  # client errors and sheds are not dependency failures
        stage = envelope.get("stage")
        kind = envelope.get("kind", "")
        if stage == "cache" or kind == "CacheError":
            self.breakers.record("cache", ok=False)
        elif stage == "verify":
            self.breakers.record("verify", ok=False)
        else:
            self.breakers.record(f"stage:order={request.order}", ok=False)

    async def _healthz(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        ready = not self._draining and self.pool.workers_alive() > 0
        body: Dict[str, Any] = {
            "op": "healthz",
            "ready": ready,
            "draining": self._draining,
            "workers_alive": self.pool.workers_alive(),
            "queue_depth": self.pool.depth(),
        }
        if obj.get("deep") and ready:
            if self.pool.depth() >= self.config.queue_limit:
                # The probe must yield to admission control: submitting
                # straight to a saturated pool would add load exactly
                # when the server is overloaded (and the shallow fields
                # above already answer "is it alive").
                body["deep"] = "skipped_overloaded"
                metrics().incr("serve.deep_probe_skipped")
            else:
                # Deep probe: the selfcheck battery's paper trace,
                # designed and verified end-to-end through the real pool.
                from repro.reliability.selfcheck import PAPER_TRACE

                probe = DesignRequest(
                    trace="".join(str(b) for b in PAPER_TRACE * 4),
                    order=2,
                    verify=True,
                    emit=(),
                )
                envelope = await self.pool.submit(
                    probe, deadline_s=self.config.deadline_s
                )
                body["deep"] = envelope.get("status") == "ok"
                if not body["deep"]:
                    body["deep_error"] = envelope.get("error", "probe failed")
                    ready = body["ready"] = False
        return protocol.response(
            "ok" if ready else "error",
            200 if ready else 503,
            obj.get("id"),
            **body,
        )

    def _metrics_response(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.response(
            "ok",
            200,
            obj.get("id"),
            op="metrics",
            metrics_schema=protocol.METRICS_SCHEMA,
            counters=metrics().snapshot(),
            queue_depth=self.pool.depth(),
            queue_limit=self.config.queue_limit,
            breakers=self.breakers.snapshot(),
            pool=self.pool.snapshot(),
            ema_latency_s=round(self._ema_s, 4),
            draining=self._draining,
        )

    def _retry_after_s(self) -> float:
        """Backoff hint: expected time to drain my slot of the queue."""
        per_worker = self.pool.depth() / max(1, self.config.workers)
        return max(0.1, round(per_worker * self._ema_s, 3))
