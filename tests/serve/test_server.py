"""End-to-end server tests: a real socket, real worker processes.

Each test boots a :class:`DesignServer` on an ephemeral port inside its
own event loop, talks to it over TCP, and shuts it down -- the same code
path the CLI runs, minus argv parsing.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import protocol
from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, execute_request
from repro.serve.server import DesignServer

PAPER = "000010001011110111101111"


def run(coro):
    return asyncio.run(coro)


async def boot(**overrides) -> DesignServer:
    defaults = dict(host="127.0.0.1", port=0, workers=1, queue_limit=8)
    defaults.update(overrides)
    server = DesignServer(ServeConfig(**defaults))
    await server.start()
    return server


async def roundtrip(port, obj, timeout_s=60.0):
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


class TestServerBasics:
    def test_design_roundtrip_matches_batch_reference(self):
        async def scenario():
            server = await boot()
            try:
                payload = {
                    "trace": PAPER * 4,
                    "order": 2,
                    "verify": True,
                    "id": "rt",
                }
                env = await roundtrip(server.port, payload)
                assert (env["status"], env["code"]) == ("ok", 200)
                assert env["id"] == "rt"
                got = protocol.canonical_json(env["payload"])
                want = protocol.canonical_json(
                    execute_request(DesignRequest.from_payload(payload))
                )
                assert got == want
            finally:
                await server.shutdown()

        run(scenario())

    def test_ping_healthz_metrics_ops(self):
        async def scenario():
            server = await boot()
            try:
                ping = await roundtrip(server.port, {"op": "ping", "id": 1})
                assert (ping["status"], ping["op"]) == ("ok", "ping")

                health = await roundtrip(server.port, {"op": "healthz"})
                assert health["ready"] is True
                assert health["workers_alive"] == 1
                assert health["draining"] is False

                stats = await roundtrip(server.port, {"op": "metrics"})
                assert stats["metrics_schema"] == "repro.serve-metrics/1"
                assert "serve.worker_spawns" in stats["counters"]
                assert stats["queue_limit"] == 8
                assert isinstance(stats["breakers"], dict)
                assert stats["pool"]["alive"] == 1
            finally:
                await server.shutdown()

        run(scenario())

    def test_deep_healthz_round_trips_a_verified_probe(self):
        async def scenario():
            server = await boot()
            try:
                health = await roundtrip(
                    server.port, {"op": "healthz", "deep": True}
                )
                assert health["ready"] is True
                assert health["deep"] is True
            finally:
                await server.shutdown()

        run(scenario())

    def test_pipelined_requests_are_not_head_of_line_blocked(self):
        async def scenario():
            server = await boot(workers=1)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A slow design followed by a ping on the SAME
                # connection: the ping's answer must not wait for the
                # design (responses correlate by id, not by order).
                writer.write(
                    protocol.canonical_json(
                        {"trace": PAPER * 40, "order": 4, "id": "slow"}
                    )
                    + b"\n"
                    + protocol.canonical_json({"op": "ping", "id": "fast"})
                    + b"\n"
                )
                await writer.drain()
                first = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=60)
                )
                second = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=120)
                )
                assert first["id"] == "fast"
                assert first["op"] == "ping"
                assert second["id"] == "slow"
                assert second["status"] == "ok"
                writer.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_half_closed_pipelined_client_still_gets_every_answer(self):
        async def scenario():
            server = await boot(workers=1)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    protocol.canonical_json(
                        {"trace": PAPER * 2, "order": 1, "id": "a"}
                    )
                    + b"\n"
                    + protocol.canonical_json(
                        {"trace": PAPER * 3, "order": 1, "id": "b"}
                    )
                    + b"\n"
                )
                await writer.drain()
                writer.write_eof()  # done sending; still owed 2 envelopes
                got = set()
                for _ in range(2):
                    env = json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=60)
                    )
                    assert env["status"] == "ok"
                    got.add(env["id"])
                assert got == {"a", "b"}
                writer.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_malformed_line_gets_400_and_connection_survives(self):
        async def scenario():
            server = await boot()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["code"] == 400
                assert bad["kind"] == "ProtocolError"
                # Same connection still works afterwards.
                writer.write(
                    protocol.canonical_json({"op": "ping"}) + b"\n"
                )
                await writer.drain()
                ok = json.loads(await reader.readline())
                assert ok["status"] == "ok"
                writer.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_client_error_envelope(self):
        async def scenario():
            server = await boot()
            try:
                env = await roundtrip(
                    server.port, {"trace": "01x", "order": 1, "id": "bad"}
                )
                assert (env["status"], env["code"]) == ("error", 400)
                assert env["kind"] == "TraceError"
            finally:
                await server.shutdown()

        run(scenario())


class TestAdmissionAndDeadlines:
    def test_queue_full_sheds_with_retry_hint(self):
        async def scenario():
            # workers=1, queue_limit=1: the second concurrent request
            # must be shed while the first is still in flight.
            server = await boot(workers=1, queue_limit=1)
            try:
                slow = asyncio.ensure_future(
                    roundtrip(
                        server.port,
                        {"trace": PAPER * 40, "order": 4, "id": "slow"},
                    )
                )
                # Wait until the slow job is admitted.
                for _ in range(200):
                    if server.pool.depth() >= 1:
                        break
                    await asyncio.sleep(0.01)
                shed = await roundtrip(
                    server.port, {"trace": PAPER * 2, "order": 1, "id": "x"}
                )
                assert (shed["status"], shed["code"]) == ("rejected", 503)
                assert shed["reason"] == "queue full"
                assert shed["retry_after_s"] > 0
                first = await slow
                assert first["status"] == "ok"
            finally:
                await server.shutdown()

        run(scenario())

    def test_deep_healthz_yields_to_admission_when_saturated(self):
        async def scenario():
            server = await boot(workers=1, queue_limit=1)
            try:
                slow = asyncio.ensure_future(
                    roundtrip(
                        server.port,
                        {"trace": PAPER * 40, "order": 4, "id": "slow"},
                    )
                )
                for _ in range(200):
                    if server.pool.depth() >= 1:
                        break
                    await asyncio.sleep(0.01)
                health = await roundtrip(
                    server.port, {"op": "healthz", "deep": True}
                )
                # The probe must not jump the admission queue: shallow
                # readiness is still reported, the deep design is not run.
                assert health["ready"] is True
                assert health["deep"] == "skipped_overloaded"
                first = await slow
                assert first["status"] == "ok"
            finally:
                await server.shutdown()

        run(scenario())

    def test_expired_deadline_maps_to_504(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")  # cold compute every time

        async def scenario():
            server = await boot()
            try:
                env = await roundtrip(
                    server.port,
                    {"trace": PAPER * 4, "order": 3, "deadline_s": 1e-6},
                )
                assert (env["status"], env["code"]) == ("timeout", 504)
            finally:
                await server.shutdown()

        run(scenario())


class TestDegradation:
    def test_open_verify_breaker_sheds_verification_only(self):
        async def scenario():
            server = await boot()
            try:
                # Force the verify breaker open by hand (its failure path
                # needs a buggy oracle; the degrade plumbing is what's
                # under test here).
                breaker = server.breakers.get("verify")
                for _ in range(server.config.breaker_threshold):
                    breaker.record_failure()
                payload = {
                    "trace": PAPER * 4,
                    "order": 2,
                    "verify": True,
                    "id": "d",
                }
                env = await roundtrip(server.port, payload)
                assert env["status"] == "ok"
                assert env["degraded"] == ["no-verify"]
                # Degradation never changes payload bytes.
                want = protocol.canonical_json(
                    execute_request(DesignRequest.from_payload(payload))
                )
                assert protocol.canonical_json(env["payload"]) == want
            finally:
                await server.shutdown()

        run(scenario())

    def test_open_stage_breaker_fast_fails_matching_requests(self):
        async def scenario():
            server = await boot()
            try:
                breaker = server.breakers.get("stage:order=6")
                for _ in range(server.config.breaker_threshold):
                    breaker.record_failure()
                shed = await roundtrip(
                    server.port, {"trace": PAPER * 8, "order": 6}
                )
                assert (shed["status"], shed["code"]) == ("rejected", 503)
                # Other orders are unaffected.
                ok = await roundtrip(
                    server.port, {"trace": PAPER * 4, "order": 2}
                )
                assert ok["status"] == "ok"
            finally:
                await server.shutdown()

        run(scenario())


class TestDrain:
    def test_drain_finishes_inflight_then_rejects_new(self):
        async def scenario():
            server = await boot(workers=1)
            inflight = asyncio.ensure_future(
                roundtrip(
                    server.port,
                    {"trace": PAPER * 40, "order": 4, "id": "inflight"},
                )
            )
            for _ in range(200):
                if server.pool.depth() >= 1:
                    break
                await asyncio.sleep(0.01)
            port = server.port
            shutdown = asyncio.ensure_future(server.shutdown())
            # The in-flight request completes with a real answer.
            env = await inflight
            assert env["status"] == "ok"
            await shutdown
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        run(scenario())

    def test_shutdown_is_idempotent(self):
        async def scenario():
            server = await boot()
            await server.shutdown()
            await server.shutdown()

        run(scenario())
