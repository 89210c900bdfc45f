"""Cluster failure drills: coalesced-leader death, hedging, replica crash.

Satellite coverage for the fault-tolerance claims: a coalesced upstream
call that dies must deliver the retried result to *every* waiter exactly
once (no hangs, no cross-delivery); a slow primary must be hedged and the
fast secondary's answer must win; a replica lost mid-burst must cost zero
answers and be ejected, then readmitted once it returns.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.obs.metrics import metrics
from repro.serve import protocol
from repro.serve.cluster.client import ResilientClient
from repro.serve.cluster.config import RouterConfig
from repro.serve.cluster.router import ClusterRouter
from repro.serve.config import ServeConfig
from repro.serve.jobs import DesignRequest, execute_request
from repro.serve.server import DesignServer
from tests.serve.fakes import FakeReplica

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


class TestCoalescingUnderFailure:
    def test_dead_leader_call_retries_and_feeds_every_waiter_once(self):
        """The single-flight leader's first upstream attempt dies at the
        connection level; the retried (failed-over) result must reach all
        coalesced waiters exactly once."""

        async def scenario():
            # Replica A kills the connection on its first design; B is
            # slow enough that the burst piles onto one flight.
            fake_a = await FakeReplica(drop_designs=1).start()
            fake_b = await FakeReplica(design_delay_s=0.3).start()
            router = await boot_router(
                [fake_a.port, fake_b.port],
                hedge_cap_s=10.0,  # keep hedging out of this drill
                retry_budget=3,
            )
            hits_before = metrics().get("serve.coalesce.hits")
            retries_before = metrics().get("serve.router.retries")
            try:
                base = {"trace": PAPER * 2, "order": 1}
                tasks = [
                    asyncio.ensure_future(
                        roundtrip(router.port, dict(base, id=f"w-{i}"))
                    )
                    for i in range(5)
                ]
                envelopes = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=30.0
                )
                # Exactly one envelope per waiter, every one ok, every
                # one carrying its own id.
                assert [env["status"] for env in envelopes] == ["ok"] * 5
                assert sorted(env["id"] for env in envelopes) == sorted(
                    f"w-{i}" for i in range(5)
                )
                payloads = {
                    protocol.canonical_json(env["payload"])
                    for env in envelopes
                }
                assert len(payloads) == 1
                # One flight: A saw the doomed attempt, B served the
                # failover, the other four waiters coalesced.
                assert fake_a.design_calls + fake_b.design_calls <= 2
                assert fake_b.design_calls == 1
                assert metrics().get("serve.router.retries") > retries_before
                assert (
                    metrics().get("serve.coalesce.hits") - hits_before >= 4
                )
            finally:
                await router.shutdown()
                await fake_a.stop()
                await fake_b.stop()

        run(scenario())


class TestHedging:
    def test_slow_primary_is_hedged_and_fast_secondary_wins(self):
        async def scenario():
            # Deterministic selection picks replicas[0] first: make it
            # the slow one, hedge after 0.15s, and the fast secondary
            # must answer long before the primary's 5s stall.
            slow = await FakeReplica(design_delay_s=5.0).start()
            fast = await FakeReplica().start()
            router = await boot_router(
                [slow.port, fast.port],
                hedge_floor_s=0.05,
                hedge_cap_s=0.15,
            )
            hedges_before = metrics().get("serve.router.hedges")
            wins_before = metrics().get("serve.router.hedge_wins")
            try:
                started = time.monotonic()
                env = await asyncio.wait_for(
                    roundtrip(
                        router.port,
                        {"trace": PAPER * 2, "order": 1, "id": "hedged"},
                    ),
                    timeout=10.0,
                )
                elapsed = time.monotonic() - started
                assert env["status"] == "ok"
                assert env["id"] == "hedged"
                assert elapsed < 4.0  # did not wait out the slow primary
                assert metrics().get("serve.router.hedges") > hedges_before
                assert metrics().get("serve.router.hedge_wins") > wins_before
                assert slow.design_calls == 1
                assert fast.design_calls == 1
                want = protocol.canonical_json(
                    execute_request(
                        DesignRequest.from_payload(
                            {"trace": PAPER * 2, "order": 1}
                        )
                    )
                )
                assert protocol.canonical_json(env["payload"]) == want
            finally:
                await router.shutdown()
                await slow.stop()
                await fast.stop()

        run(scenario())


class TestReplicaCrash:
    def test_replica_lost_mid_burst_costs_nothing_then_readmits(self):
        """Two real DesignServers behind the router; one goes away mid
        burst.  Every accepted request must still come back ok and
        byte-identical, the lost replica must be ejected, and bringing it
        back on the same port must readmit it."""

        async def scenario():
            server_a = DesignServer(
                ServeConfig(host="127.0.0.1", port=0, workers=1, queue_limit=8)
            )
            server_b = DesignServer(
                ServeConfig(host="127.0.0.1", port=0, workers=1, queue_limit=8)
            )
            await server_a.start()
            await server_b.start()
            port_a = server_a.port
            router = await boot_router(
                [port_a, server_b.port],
                probe_interval_s=0.1,
                eject_after=1,
                retry_budget=3,
                hedge_cap_s=10.0,
            )
            ejects_before = metrics().get("serve.router.ejects")
            readmits_before = metrics().get("serve.router.readmits")
            client = ResilientClient(
                "127.0.0.1", router.port, pool_size=4, max_attempts=8
            )
            try:
                payloads = [
                    {
                        "trace": PAPER * (2 + i % 3),
                        "order": 1 + i % 2,
                        "id": f"burst-{i}",
                    }
                    for i in range(8)
                ]
                tasks = [
                    asyncio.ensure_future(
                        client.request(dict(p), timeout_s=60.0)
                    )
                    for p in payloads
                ]
                # Take replica A away while the burst is in flight.
                await asyncio.sleep(0.05)
                await server_a.shutdown()
                envelopes = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=60.0
                )
                assert all(env is not None for env in envelopes)
                assert [env["status"] for env in envelopes] == ["ok"] * 8
                for env, payload in zip(envelopes, payloads):
                    assert env["id"] == payload["id"]
                    want = protocol.canonical_json(
                        execute_request(
                            DesignRequest.from_payload(
                                {k: v for k, v in payload.items() if k != "id"}
                            )
                        )
                    )
                    assert protocol.canonical_json(env["payload"]) == want

                # The dead replica is ejected (probe or traffic evidence).
                deadline = time.monotonic() + 10.0
                while (
                    metrics().get("serve.router.ejects") <= ejects_before
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.05)
                assert metrics().get("serve.router.ejects") > ejects_before

                # Bring A back on its original port: readmission is
                # automatic, no operator action.
                server_a2 = DesignServer(
                    ServeConfig(
                        host="127.0.0.1",
                        port=port_a,
                        workers=1,
                        queue_limit=8,
                    )
                )
                await server_a2.start()
                try:
                    deadline = time.monotonic() + 10.0
                    while (
                        metrics().get("serve.router.readmits")
                        <= readmits_before
                        and time.monotonic() < deadline
                    ):
                        await asyncio.sleep(0.05)
                    assert (
                        metrics().get("serve.router.readmits")
                        > readmits_before
                    )
                    health = await roundtrip(router.port, {"op": "healthz"})
                    assert health["ready"] is True
                    assert health["replicas_up"] == 2
                finally:
                    await server_a2.shutdown()
            finally:
                await client.close()
                await router.shutdown()
                await server_b.shutdown()

        run(scenario())
