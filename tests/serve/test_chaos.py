"""Serving-layer chaos: workers die mid-request, answers stay perfect.

Two attack modes:

* an external SIGKILL aimed at a random *busy* worker (the OOM-killer
  shape) while a burst of requests is in flight at ``workers=2``;
* the ``serve_worker_crash`` fault point armed by probability in the
  worker processes themselves (the CI serve job's configuration).

In both cases every accepted request must be answered, and every ``ok``
payload must be byte-identical to the batch reference
(:func:`execute_request` in-process -- the same bytes
``python -m repro serve --oneshot`` prints).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal

from repro.serve import protocol
from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, execute_request
from repro.serve.loadgen import build_request_payload, run_loadgen
from repro.serve.server import DesignServer

PAPER = "000010001011110111101111"


def run(coro):
    return asyncio.run(coro)


async def roundtrip(port, obj, timeout_s=120.0):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(protocol.canonical_json(obj) + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionResetError):
            pass
    assert line, "connection closed without a response"
    return json.loads(line)


def _payloads(seed: int, count: int):
    return [build_request_payload(seed, index) for index in range(count)]


class TestSigkillChaos:
    def test_sigkill_random_busy_worker_mid_request(self):
        """SIGKILL a random busy worker while a burst is in flight at
        workers=2; every request is answered byte-identical to the batch
        reference and the pool ends the test healthy."""

        async def scenario():
            server = DesignServer(
                ServeConfig(host="127.0.0.1", port=0, workers=2, queue_limit=64)
            )
            await server.start()
            try:
                payloads = _payloads(seed=11, count=8)
                # Guarantee sustained busy windows for the assassin:
                # a few deliberately heavier cold designs in the burst.
                payloads += [
                    {
                        "trace": PAPER * 30,
                        "order": order,
                        "id": f"heavy-{i}",
                        "dont_care_fraction": 0.01,
                    }
                    for i, order in enumerate((3, 4, 4))
                ]
                clients = [
                    asyncio.ensure_future(roundtrip(server.port, p))
                    for p in payloads
                ]

                async def assassin():
                    rng = random.Random(0xDEAD)
                    kills = 0
                    for _ in range(400):
                        await asyncio.sleep(0.02)
                        busy = [
                            w
                            for w in server.pool._workers.values()
                            if w.job is not None and not w.dead
                        ]
                        if busy and kills < 3:
                            victim = rng.choice(busy)
                            try:
                                os.kill(victim.process.pid, signal.SIGKILL)
                                kills += 1
                            except (ProcessLookupError, OSError):
                                pass
                        if all(c.done() for c in clients):
                            break
                    return kills

                kills = (
                    await asyncio.gather(assassin(), *clients)
                )[0]
                assert kills >= 1, "chaos never found a busy worker"
                for payload, client in zip(payloads, clients):
                    env = client.result()
                    assert env["status"] == "ok", env
                    want = protocol.canonical_json(
                        execute_request(DesignRequest.from_payload(payload))
                    )
                    assert protocol.canonical_json(env["payload"]) == want
                # The supervisor restored the pool.
                for _ in range(100):
                    if server.pool.workers_alive() == 2:
                        break
                    await asyncio.sleep(0.05)
                assert server.pool.workers_alive() == 2
            finally:
                await server.shutdown()

        run(scenario())


class TestFaultPointChaos:
    def test_loadgen_under_armed_worker_crashes(self, monkeypatch):
        """The CI serve-job scenario at test scale: crash probability
        armed in workers, concurrent seeded clients, zero lost and zero
        incorrect (byte-checked) responses."""
        monkeypatch.setenv("REPRO_FAULTS", "serve_worker_crash:0.15")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "42")

        async def scenario():
            server = DesignServer(
                ServeConfig(host="127.0.0.1", port=0, workers=2, queue_limit=64)
            )
            await server.start()
            try:
                summary = await run_loadgen(
                    "127.0.0.1",
                    server.port,
                    clients=12,
                    requests=2,
                    seed=9,
                    check=True,
                )
                assert summary["passed"], summary
                assert summary["ok"] == 24
                assert summary["lost"] == []
                assert summary["incorrect"] == []
            finally:
                await server.shutdown()
            from repro.obs.metrics import metrics

            assert metrics().get("serve.worker_deaths") > 0, (
                "the fault plan never fired -- chaos proved nothing"
            )

        run(scenario())

    def test_worker_hang_is_detected_and_request_recovers(self, monkeypatch):
        """A wedged worker (serve_worker_hang) is SIGKILLed by the stall
        watchdog and its request is re-dispatched and answered."""
        monkeypatch.setenv("REPRO_FAULTS", "serve_worker_hang:1")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "0")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "60")

        async def scenario():
            server = DesignServer(
                ServeConfig(
                    host="127.0.0.1",
                    port=0,
                    workers=1,
                    queue_limit=8,
                    stall_s=0.5,
                )
            )
            await server.start()
            try:
                payload = {
                    "trace": PAPER * 4,
                    "order": 2,
                    "id": "hung",
                    "deadline_s": 60.0,
                }
                env = await roundtrip(server.port, payload)
                assert env["status"] == "ok", env
                want = protocol.canonical_json(
                    execute_request(DesignRequest.from_payload(payload))
                )
                assert protocol.canonical_json(env["payload"]) == want
            finally:
                await server.shutdown()
            from repro.obs.metrics import metrics

            assert metrics().get("serve.watchdog_stall_kills") >= 1

        run(scenario())

    def test_junk_hang_seconds_still_hangs_the_worker(self, monkeypatch):
        """A malformed ``REPRO_FAULT_HANG_SECONDS`` falls back to the 30 s
        default: an armed ``serve_worker_hang`` must stall the worker, not
        crash it with a parse error before it answers."""
        from multiprocessing import Pipe

        from repro.perf import parallel
        from repro.reliability import faults
        from repro.serve import pool

        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "junk")
        sleeps = []
        monkeypatch.setattr(pool.time, "sleep", sleeps.append)
        # worker_main is a process body: keep it from touching this
        # process's signal handlers, registered fds and nested-call flag.
        monkeypatch.setattr(pool.signal, "signal", lambda *args: None)
        monkeypatch.setattr(pool, "_close_inherited_fds", lambda: None)
        monkeypatch.setattr(parallel, "_IN_WORKER", parallel._IN_WORKER)
        parent, child = Pipe()
        request = DesignRequest.from_payload({"trace": PAPER, "order": 2})
        try:
            parent.send(
                {
                    "job_id": 7,
                    "call": (
                        pool.execute_envelope,
                        (request,),
                        {"degrade": (), "deadline_s": 60.0},
                    ),
                }
            )
            parent.send(None)
            with faults.inject_faults("serve_worker_hang:1"):
                pool.worker_main(child)
            reply = parent.recv()
        finally:
            parent.close()
            child.close()
        assert sleeps == [30.0]
        assert reply["job_id"] == 7
        assert reply["envelope"]["status"] == "ok", reply
