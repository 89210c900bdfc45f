"""The cluster router: one ``repro.serve/1`` endpoint over N replicas.

``ClusterRouter`` speaks the exact single-host wire protocol to clients
-- existing clients (loadgen, ``nc``, the CI scripts) point at the
router and cannot tell the difference -- and fans ``design`` requests
out to the replica set kept by :class:`ReplicaRegistry`.  What the
router adds over picking a replica at random:

* **hedged dispatch** -- a request whose primary replica has been quiet
  longer than the hedge delay (a live P95 of recent cluster latencies,
  clamped to ``[hedge_floor, hedge_cap]``) is issued *again* on a second
  replica, and the first definitive answer wins; the loser is cancelled.
  Safe because responses are canonical bytes of a pure function: both
  replicas can only produce the identical payload (the second usually
  via the shared content-addressed cache).
* **single-flight coalescing** -- concurrent requests whose payloads are
  identical up to ``id`` collapse into one upstream call
  (:mod:`repro.serve.cluster.coalesce`); the envelope is fanned back to
  every waiter with its own ``id`` restored.
* **retry with replica failover** -- a dead connection mid-dispatch is
  retried on a different replica (up to the retry budget), and counts as
  failure evidence against the replica that dropped it.
* **aggregated honest backpressure** -- replica 503 ``retry_after_s``
  hints put that replica on hold; the router sheds (with the soonest
  hold expiry as its hint) only when *every* admitted replica is on
  hold, so shed decisions reflect cluster capacity, not one replica.
* **local edge validation** -- malformed requests are 400'd at the
  router without burning a replica round trip, using the same
  ``DesignRequest.from_payload`` validation the replicas run.

``healthz`` aggregates membership (ready iff at least one replica is
up); ``metrics`` reports router counters plus the registry snapshot.
SIGTERM drains: stop admitting, finish and deliver in-flight upstream
calls, stop probing, exit 0.
"""

from __future__ import annotations

import asyncio
import collections
import time
from typing import Any, Deque, Dict, List, Optional, Set

from repro.obs.metrics import metrics
from repro.reliability.errors import ReproError
from repro.serve import protocol
from repro.serve.cluster.coalesce import SingleFlight
from repro.serve.cluster.config import RouterConfig
from repro.serve.cluster.registry import Replica, ReplicaRegistry
from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, classify_error
from repro.serve.pool import close_fd_after_fork, forget_fd_after_fork

ROUTER_METRICS_SCHEMA = "repro.serve-router-metrics/1"

#: Latency samples kept for the hedge-delay estimator.
_LATENCY_WINDOW = 256
#: Definitive statuses: an envelope that answers the request.  A 503
#: ("rejected") is advisory -- it feeds backpressure instead of winning
#: a hedge race.
_DEFINITIVE = ("ok", "error", "timeout")


class _HedgeEstimator:
    """P95 of recent definitive-answer latencies, clamped to the knob
    range; before enough samples exist the cap is used (hedge late, not
    eagerly, until the router has evidence)."""

    def __init__(self, floor_s: float, cap_s: float, min_samples: int = 10):
        self.floor_s = floor_s
        self.cap_s = cap_s
        self.min_samples = min_samples
        self._samples: Deque[float] = collections.deque(maxlen=_LATENCY_WINDOW)

    def observe(self, latency_s: float) -> None:
        self._samples.append(latency_s)

    def p95_s(self) -> float:
        ordered = sorted(self._samples)
        position = 0.95 * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def delay_s(self) -> float:
        if len(self._samples) < self.min_samples:
            return self.cap_s
        return min(self.cap_s, max(self.floor_s, self.p95_s()))


class ClusterRouter:
    """One listening socket + the replica registry + the dispatch brain."""

    def __init__(self, config: RouterConfig):
        if not config.replicas:
            raise ValueError("router needs at least one replica endpoint")
        self.config = config
        self.registry = ReplicaRegistry(config)
        self.flights = SingleFlight()
        self.hedge = _HedgeEstimator(config.hedge_floor_s, config.hedge_cap_s)
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._unresolved = 0
        self._listener_fds: Set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.registry.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        # A replica DesignServer forked in the same process (the dev /
        # test topology) must not inherit the router's listener.
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
        assert self._server is not None
        async with self._server:
            await self._drained.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, let in-flight upstream calls
        finish and deliver, stop probing, release connections."""
        if self._draining:
            return
        self._draining = True
        metrics().incr("serve.router.drains")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for fd in self._listener_fds:
            forget_fd_after_fork(fd)
        self._listener_fds = set()
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_timeout_s
        )
        while (
            self._unresolved and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.01)
        if self._unresolved:
            metrics().incr("serve.router.drain_abandoned")
        await self.registry.stop()
        for writer in list(self._connections):
            try:
                writer.close()
            except OSError:
                pass
        self._drained.set()

    # ------------------------------------------------------------------
    # Connection handling (per-line tasks; writes serialized per socket)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
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
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
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

    async def _send(self, writer, envelope: Dict[str, Any]) -> None:
        writer.write(protocol.canonical_json(envelope) + b"\n")
        await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            obj = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            metrics().incr("serve.router.protocol_errors")
            return protocol.error_response(400, str(exc), kind="ProtocolError")
        op = obj["op"]
        if op == "ping":
            return protocol.response("ok", 200, obj.get("id"), op="ping")
        if op == "healthz":
            return self._healthz(obj)
        if op == "metrics":
            return self._metrics_response(obj)
        return await self._design(obj)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _healthz(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        up = self.registry.up_replicas()
        ready = not self._draining and bool(up)
        return protocol.response(
            "ok" if ready else "error",
            200 if ready else 503,
            obj.get("id"),
            op="healthz",
            ready=ready,
            draining=self._draining,
            role="router",
            replicas_up=len(up),
            replicas_total=len(self.registry.replicas),
            replicas=self.registry.snapshot(),
        )

    def _metrics_response(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        return protocol.response(
            "ok",
            200,
            obj.get("id"),
            op="metrics",
            metrics_schema=ROUTER_METRICS_SCHEMA,
            counters=metrics().snapshot(),
            queue_depth=self._unresolved,
            queue_limit=self.config.queue_limit,
            hedge_delay_s=round(self.hedge.delay_s(), 4),
            coalesce_inflight=self.flights.inflight(),
            replicas=self.registry.snapshot(),
            draining=self._draining,
        )

    async def _design(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        request_id = obj.get("id")
        if self._draining:
            metrics().incr("serve.router.shed_draining")
            return protocol.rejected_response(
                "draining", self.hedge.delay_s(), request_id
            )
        if self._unresolved >= self.config.queue_limit:
            metrics().incr("serve.router.shed_overload")
            return protocol.rejected_response(
                "router queue full", self.hedge.delay_s(), request_id
            )
        try:
            request = DesignRequest.from_payload(obj)
        except ReproError as exc:
            metrics().incr("serve.router.bad_requests")
            code, kind = classify_error(exc)
            return protocol.error_response(
                code, str(exc), request_id, kind=kind, stage=exc.stage
            )
        if not self.registry.up_replicas():
            metrics().incr("serve.router.shed_no_replicas")
            return protocol.rejected_response(
                "no replicas available",
                max(0.1, self.config.probe_interval_s),
                request_id,
            )
        if not self.registry.available():
            # Every admitted replica is on a 503 hold: the *cluster* is
            # saturated, and the honest hint is the soonest hold expiry.
            metrics().incr("serve.router.shed_backpressure")
            return protocol.rejected_response(
                "cluster saturated",
                self.registry.earliest_hold_expiry_s(),
                request_id,
            )
        metrics().incr("serve.router.requests")
        self._unresolved += 1
        try:
            upstream = {k: v for k, v in obj.items() if k != "id"}
            key = protocol.canonical_json(upstream)
            deadline_s = (
                request.deadline_s
                if request.deadline_s is not None
                else ServeConfig.deadline_s
            )
            envelope, _coalesced = await self.flights.run(
                key, lambda: self._dispatch(key, deadline_s)
            )
        finally:
            self._unresolved -= 1
        envelope.pop("id", None)
        if request_id is not None:
            envelope["id"] = request_id
        return envelope

    # ------------------------------------------------------------------
    # Upstream dispatch: failover retries + hedging
    # ------------------------------------------------------------------
    async def _dispatch(
        self, line: bytes, deadline_s: float
    ) -> Dict[str, Any]:
        """Run one upstream call to completion: pick a replica, hedge
        after the P95 delay, fail over on dead connections, aggregate
        503 holds.  Always returns an envelope."""
        tried: List[Replica] = []
        rejected: Optional[Dict[str, Any]] = None
        for _attempt in range(self.config.retry_budget):
            replica = self.registry.pick(exclude=tried)
            if replica is None:
                break
            tried.append(replica)
            envelope = await self._call_hedged(replica, line, deadline_s, tried)
            if envelope is None:
                metrics().incr("serve.router.retries")
                continue
            if envelope.get("status") == "rejected":
                rejected = envelope
                metrics().incr("serve.router.retries")
                continue
            return envelope
        if rejected is not None:
            return rejected
        metrics().incr("serve.router.upstream_failures")
        return protocol.rejected_response(
            "no replica answered",
            max(0.1, self.config.probe_interval_s),
            None,
        )

    async def _call_hedged(
        self,
        primary: Replica,
        line: bytes,
        deadline_s: float,
        tried: List[Replica],
    ) -> Optional[Dict[str, Any]]:
        """One attempt, possibly forked into a hedge.  Returns the first
        definitive envelope, a 503 when that is all the replicas had to
        say, or ``None`` when every leg died at the connection level."""
        tasks: Dict[asyncio.Task, Replica] = {}
        primary_task = asyncio.ensure_future(
            self._call_replica(primary, line, deadline_s)
        )
        tasks[primary_task] = primary
        hedge_delay = self.hedge.delay_s()
        try:
            winner: Optional[Dict[str, Any]] = None
            rejected: Optional[Dict[str, Any]] = None
            hedged = False
            while tasks:
                timeout = None
                if not hedged:
                    timeout = hedge_delay
                done, pending = await asyncio.wait(
                    set(tasks),
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done and not hedged:
                    # Primary quiet past the hedge delay: fork the same
                    # bytes to a second replica; first answer wins.
                    hedged = True
                    secondary = self.registry.pick(
                        exclude=tried + [tasks[t] for t in tasks]
                    )
                    if secondary is not None and secondary not in tasks.values():
                        metrics().incr("serve.router.hedges")
                        tried.append(secondary)
                        hedge_task = asyncio.ensure_future(
                            self._call_replica(secondary, line, deadline_s)
                        )
                        tasks[hedge_task] = secondary
                    continue
                for task in done:
                    replica = tasks.pop(task)
                    envelope = task.result()
                    if envelope is None:
                        continue
                    if envelope.get("status") in _DEFINITIVE:
                        winner = envelope
                        if hedged and replica is not primary:
                            metrics().incr("serve.router.hedge_wins")
                        break
                    rejected = envelope
                if winner is not None:
                    return winner
            return rejected
        finally:
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass

    async def _call_replica(
        self, replica: Replica, line: bytes, deadline_s: float
    ) -> Optional[Dict[str, Any]]:
        """One request on one replica.  Connection-level death returns
        ``None`` (the client's own retry budget is 1 here: failover to a
        *different* replica beats hammering a dead one)."""
        replica.inflight += 1
        started = time.monotonic()
        try:
            envelope = await replica.client.request(
                line, timeout_s=deadline_s + 5.0, max_attempts=1
            )
        finally:
            replica.inflight -= 1
        if envelope is None:
            self.registry.record_dead(replica, "connection died mid-request")
            return None
        status = envelope.get("status")
        if status == "rejected":
            self.registry.record_backpressure(
                replica, float(envelope.get("retry_after_s", 0.1))
            )
            return envelope
        if status in _DEFINITIVE:
            latency = time.monotonic() - started
            self.registry.record_ok(replica, latency)
            self.hedge.observe(latency)
        return envelope
