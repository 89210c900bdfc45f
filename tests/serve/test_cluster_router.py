"""ClusterRouter end-to-end: wire compatibility, coalescing, shedding."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.metrics import metrics
from repro.serve import protocol
from repro.serve.cluster.config import RouterConfig
from repro.serve.cluster.router import ClusterRouter
from repro.serve.jobs import DesignRequest, execute_request
from tests.serve.fakes import FakeReplica, free_port

PAPER = "000010001011110111101111"


def run(coro):
    return asyncio.run(coro)


async def boot_router(ports, **overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        replicas=[("127.0.0.1", p) for p in ports],
        probe_interval_s=0.1,
        connect_timeout_s=1.0,
    )
    defaults.update(overrides)
    router = ClusterRouter(RouterConfig(**defaults))
    await router.start()
    return router


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


class TestWireCompatibility:
    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            ClusterRouter(RouterConfig(replicas=[]))

    def test_design_through_router_matches_batch_reference(self):
        async def scenario():
            fakes = [await FakeReplica().start(), await FakeReplica().start()]
            router = await boot_router([f.port for f in fakes])
            try:
                payload = {
                    "trace": PAPER * 4,
                    "order": 2,
                    "verify": True,
                    "id": "via-router",
                }
                env = await roundtrip(router.port, payload)
                assert (env["status"], env["code"]) == ("ok", 200)
                assert env["id"] == "via-router"
                want = protocol.canonical_json(
                    execute_request(DesignRequest.from_payload(payload))
                )
                assert protocol.canonical_json(env["payload"]) == want
            finally:
                await router.shutdown()
                for fake in fakes:
                    await fake.stop()

        run(scenario())

    def test_ping_healthz_metrics_ops(self):
        async def scenario():
            fakes = [await FakeReplica().start(), await FakeReplica().start()]
            router = await boot_router([f.port for f in fakes])
            try:
                ping = await roundtrip(router.port, {"op": "ping", "id": 1})
                assert (ping["status"], ping["op"]) == ("ok", "ping")

                health = await roundtrip(router.port, {"op": "healthz"})
                assert health["ready"] is True
                assert health["role"] == "router"
                assert health["replicas_up"] == 2
                assert health["replicas_total"] == 2

                stats = await roundtrip(router.port, {"op": "metrics"})
                assert (
                    stats["metrics_schema"] == "repro.serve-router-metrics/1"
                )
                assert stats["queue_limit"] == router.config.queue_limit
                assert stats["hedge_delay_s"] > 0
                assert len(stats["replicas"]) == 2
            finally:
                await router.shutdown()
                for fake in fakes:
                    await fake.stop()

        run(scenario())

    def test_malformed_and_invalid_requests_rejected_at_the_edge(self):
        async def scenario():
            fake = await FakeReplica().start()
            router = await boot_router([fake.port])
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port
                )
                writer.write(b"not json\n")
                await writer.drain()
                bad = json.loads(await reader.readline())
                assert bad["code"] == 400
                assert bad["kind"] == "ProtocolError"
                writer.close()

                # Invalid design payloads are 400'd locally: the replica
                # never sees them.
                env = await roundtrip(
                    router.port, {"trace": "01x", "order": 1, "id": "bad"}
                )
                assert (env["status"], env["code"]) == ("error", 400)
                assert env["kind"] == "TraceError"
                assert env["id"] == "bad"
                assert fake.design_calls == 0
            finally:
                await router.shutdown()
                await fake.stop()

        run(scenario())


class TestCoalescing:
    def test_same_digest_burst_collapses_to_one_upstream_call(self):
        async def scenario():
            fake = await FakeReplica(design_delay_s=0.3).start()
            router = await boot_router([fake.port], hedge_cap_s=10.0)
            hits_before = metrics().get("serve.coalesce.hits")
            try:
                base = {"trace": PAPER * 2, "order": 1}
                tasks = [
                    asyncio.ensure_future(
                        roundtrip(router.port, dict(base, id=f"burst-{i}"))
                    )
                    for i in range(8)
                ]
                envelopes = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=30.0
                )
                assert fake.design_calls == 1
                assert (
                    metrics().get("serve.coalesce.hits") - hits_before >= 7
                )
                payloads = {
                    protocol.canonical_json(env["payload"])
                    for env in envelopes
                }
                assert len(payloads) == 1  # byte-identical fan-out
                assert sorted(env["id"] for env in envelopes) == sorted(
                    f"burst-{i}" for i in range(8)
                )
            finally:
                await router.shutdown()
                await fake.stop()

        run(scenario())

    def test_mixed_digest_burst_never_cross_delivers(self):
        async def scenario():
            fake = await FakeReplica(design_delay_s=0.2).start()
            router = await boot_router([fake.port], hedge_cap_s=10.0)
            try:
                payload_a = {"trace": PAPER * 2, "order": 1, "id": "a"}
                payload_b = {"trace": PAPER * 3, "order": 2, "id": "b"}
                env_a, env_b = await asyncio.wait_for(
                    asyncio.gather(
                        roundtrip(router.port, payload_a),
                        roundtrip(router.port, payload_b),
                    ),
                    timeout=30.0,
                )
                assert fake.design_calls == 2
                assert env_a["id"] == "a" and env_b["id"] == "b"
                for env, payload in ((env_a, payload_a), (env_b, payload_b)):
                    want = protocol.canonical_json(
                        execute_request(DesignRequest.from_payload(payload))
                    )
                    assert protocol.canonical_json(env["payload"]) == want
            finally:
                await router.shutdown()
                await fake.stop()

        run(scenario())


class TestShedding:
    def test_no_up_replicas_sheds_with_503(self):
        async def scenario():
            router = await boot_router([free_port()], probe_interval_s=0.2)
            try:
                health = await roundtrip(router.port, {"op": "healthz"})
                assert health["ready"] is False
                env = await roundtrip(
                    router.port, {"trace": PAPER * 2, "order": 1, "id": "x"}
                )
                assert (env["status"], env["code"]) == ("rejected", 503)
                assert env["reason"] == "no replicas available"
                assert env["retry_after_s"] > 0
            finally:
                await router.shutdown()

        run(scenario())

    def test_backpressure_aggregates_replica_503s(self):
        async def scenario():
            fake = await FakeReplica(
                reject_all=True, retry_after_s=0.5
            ).start()
            router = await boot_router([fake.port], retry_budget=2)
            shed_before = metrics().get("serve.router.shed_backpressure")
            try:
                first = await roundtrip(
                    router.port, {"trace": PAPER * 2, "order": 1, "id": "f"}
                )
                # The replica's own 503 passes through...
                assert (first["status"], first["code"]) == ("rejected", 503)
                # ...and puts it on hold: the next request sheds at the
                # router without an upstream round trip.
                calls_after_first = fake.design_calls
                second = await roundtrip(
                    router.port, {"trace": PAPER * 2, "order": 1, "id": "g"}
                )
                assert (second["status"], second["code"]) == ("rejected", 503)
                assert second["reason"] == "cluster saturated"
                assert 0 < second["retry_after_s"] <= 0.5
                assert fake.design_calls == calls_after_first
                assert (
                    metrics().get("serve.router.shed_backpressure")
                    - shed_before
                    >= 1
                )
            finally:
                await router.shutdown()
                await fake.stop()

        run(scenario())


class TestDrain:
    def test_drain_closes_listener_and_is_idempotent(self):
        async def scenario():
            fake = await FakeReplica().start()
            router = await boot_router([fake.port])
            port = router.port
            serve_task = asyncio.ensure_future(router.serve_until_shutdown())
            assert (await roundtrip(port, {"op": "ping"}))["status"] == "ok"
            await router.shutdown()
            await router.shutdown()  # idempotent
            await asyncio.wait_for(serve_task, timeout=5.0)
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            await fake.stop()

        run(scenario())
