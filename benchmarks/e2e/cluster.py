"""The ``serve-mixed`` cluster and its closed-loop clients.

The cluster is the deployed topology: ``repro serve-router`` in front of
two ``repro serve --workers 1`` replicas, each its own subprocess,
sharing the unit's fresh program cache.  Every server binds an ephemeral
port, which is read from the ``listening`` line it prints.  The servers
start through :mod:`benchmarks.e2e.launch`, so they and their workers
sample their host speed (and, in a traced unit, record spans).  The cluster
counts as started once the router reports both replicas up and a deep
``healthz`` probe has designed a machine through each replica's worker,
so no timed request pays a worker's first-call set-up.  ``stop``
tears them down on every exit path: SIGTERM (the servers drain), then
SIGKILL for anything still alive.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HOST = "127.0.0.1"
REPLICAS = 2
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 20.0
#: Sheds (503) a request may absorb before it counts as failed.
MAX_SHEDS = 32
#: The router's hedge delay, floor and cap alike: longer than any
#: request's deadline, so the router never hedges.  The whole cluster
#: runs on one CPU (see ``unit.py``), where a hedge cannot finish before
#: its primary and only takes CPU from it.  With the router's default
#: delays, the number of hedges in one unit of the same requests in the
#: same order varied from 0 to 5 with host timing, and moved the unit's
#: time by up to 17% and its median latency by up to 40%.
HEDGE_DELAY_S = 300.0


def _peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _ask(port: int, request: Dict[str, Any], timeout_s: float = 5.0) -> Dict[str, Any]:
    """One request on a fresh connection (control ops only)."""
    with socket.create_connection((HOST, port), timeout=timeout_s) as sock:
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        with sock.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise ConnectionError(f"no reply from port {port}")
    return json.loads(line)


class Cluster:
    """A router plus replicas, started as subprocesses of this process."""

    def __init__(self, work_dir: str, span_dir: Optional[str], speed_dir: str):
        self.work_dir = work_dir
        self.span_dir = span_dir
        self.speed_dir = speed_dir
        self.procs: List[subprocess.Popen] = []
        self.port_pids: Dict[int, int] = {}
        self.router_port = 0
        self.replica_ports: List[int] = []

    def _spawn(self, *args: str) -> subprocess.Popen:
        argv = [
            sys.executable, "-m", "benchmarks.e2e.launch",
            self.speed_dir, self.span_dir or "-", *args,
        ]
        log = open(
            os.path.join(self.work_dir, f"{args[0]}-{len(self.procs)}.log"), "wb"
        )
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log)
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def _listening(self, proc: subprocess.Popen) -> int:
        """Wait for the server's ``listening`` line; return its port."""
        deadline = time.monotonic() + START_TIMEOUT_S
        fd = proc.stdout.fileno()
        buffered = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buffered += chunk
                while b"\n" in buffered:
                    line, buffered = buffered.split(b"\n", 1)
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if event.get("event") == "listening":
                        self.port_pids[int(event["port"])] = int(event["pid"])
                        return int(event["port"])
        raise RuntimeError(f"server {proc.args[5:]} never reported listening")

    def start(self) -> None:
        replicas = [
            self._spawn("serve", "--host", HOST, "--port", "0", "--workers", "1")
            for _ in range(REPLICAS)
        ]
        self.replica_ports = [self._listening(proc) for proc in replicas]
        router = self._spawn(
            "serve-router",
            "--host",
            HOST,
            "--port",
            "0",
            "--replicas",
            ",".join(f"{HOST}:{port}" for port in self.replica_ports),
            "--hedge-floor",
            str(HEDGE_DELAY_S),
            "--hedge-cap",
            str(HEDGE_DELAY_S),
        )
        self.router_port = self._listening(router)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            health = _ask(self.router_port, {"op": "healthz"})
            if health.get("ready") and health.get("replicas_up") == REPLICAS:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"router not ready: {health}")
            time.sleep(0.05)
        for port in self.replica_ports:
            probe = _ask(port, {"op": "healthz", "deep": True}, START_TIMEOUT_S)
            if probe.get("deep") is not True:
                raise RuntimeError(f"replica {port} failed its deep probe: {probe}")

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the servers and the replicas' workers."""
        pids = [proc.pid for proc in self.procs]
        for port in self.replica_ports:
            pool = _ask(port, {"op": "metrics"}).get("pool", {})
            pids.extend(w["pid"] for w in pool.get("workers", {}).values())
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            proc.stdout.close()
        self.procs = []


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------


def closed_loop(
    port: int,
    requests: List[Tuple[str, Dict[str, Any]]],
    clients: int,
    recorder=None,
) -> List[Dict[str, Any]]:
    """Send ``(template, payload)`` requests over ``clients`` connections;
    each client sends its next request only after its previous reply.
    Returns one op record per request, in request order."""
    return asyncio.run(_closed_loop(port, requests, clients, recorder))


async def _closed_loop(port, requests, clients, recorder):
    from benchmarks.e2e.spans import payload_key
    from benchmarks.e2e.workloads import op_record
    from repro.serve.protocol import MAX_LINE_BYTES, canonical_json

    pending = collections.deque(enumerate(requests))
    ops: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    timeout_s = max(p.get("deadline_s", 60.0) for _t, p in requests) + 30.0

    async def exchange(reader, writer, line: bytes) -> Dict[str, Any]:
        for _attempt in range(MAX_SHEDS):
            writer.write(line)
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
            if not raw:
                raise ConnectionError("connection closed mid-request")
            envelope = json.loads(raw)
            if envelope.get("status") != "rejected":
                return envelope
            await asyncio.sleep(min(float(envelope.get("retry_after_s", 0.1)), 2.0))
        return envelope

    async def client() -> None:
        conn = None
        try:
            while pending:
                n, (template, payload) = pending.popleft()
                if conn is None:
                    conn = await asyncio.open_connection(
                        HOST, port, limit=MAX_LINE_BYTES
                    )
                line = canonical_json(payload) + b"\n"
                span = None
                if recorder is not None:
                    span = recorder.open("op", "router", payload_key(payload))
                start = time.monotonic_ns()
                try:
                    envelope = await exchange(conn[0], conn[1], line)
                    error = None
                except (OSError, asyncio.TimeoutError, ValueError) as exc:
                    envelope, error = None, f"{type(exc).__name__}: {exc}"
                    conn[1].close()
                    conn = None
                end = time.monotonic_ns()
                if span is not None:
                    recorder.close(span)
                op = op_record(payload["id"], start, end)
                op["template"] = template
                if envelope is not None:
                    if envelope.get("status") == "ok" and envelope.get("id") == payload["id"]:
                        op["payload_digest"] = hashlib.sha256(
                            canonical_json(envelope["payload"])
                        ).hexdigest()
                    else:
                        error = f"{envelope.get('status')}: {envelope.get('error')}"
                op["error"] = error
                ops[n] = op
        finally:
            if conn is not None:
                conn[1].close()
                await conn[1].wait_closed()

    await asyncio.gather(*(client() for _ in range(clients)))
    return ops
