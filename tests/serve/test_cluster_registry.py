"""ReplicaRegistry: leases, eject/readmit, holds, selection."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.obs.metrics import metrics
from repro.reliability import faults
from repro.serve.cluster.config import RouterConfig, parse_replica_spec
from repro.serve.cluster.registry import ReplicaRegistry
from tests.serve.fakes import FakeReplica, free_port


def run(coro):
    return asyncio.run(coro)


def make_config(*ports, **overrides):
    defaults = dict(
        replicas=[("127.0.0.1", port) for port in ports],
        probe_interval_s=0.05,
        eject_after=2,
        connect_timeout_s=0.5,
    )
    defaults.update(overrides)
    return RouterConfig(**defaults)


class TestReplicaSpec:
    def test_parses_comma_separated_endpoints(self):
        assert parse_replica_spec("127.0.0.1:7477, 127.0.0.1:7479") == (
            ("127.0.0.1", 7477),
            ("127.0.0.1", 7479),
        )

    def test_empty_spec_is_empty(self):
        assert parse_replica_spec("") == ()

    @pytest.mark.parametrize(
        "bad", ["localhost", "host:notaport", "host:0", "host:70000", ":7477"]
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_replica_spec(bad)


class TestMembership:
    def test_ready_probe_admits_and_renews_lease(self):
        async def scenario():
            fake = await FakeReplica().start()
            registry = ReplicaRegistry(make_config(fake.port))
            try:
                replica = registry.replicas[0]
                assert not replica.up()
                assert await registry.probe_once(replica)
                assert replica.up()
                assert replica.probe_failures == 0
            finally:
                await registry.stop()
                await fake.stop()

        run(scenario())

    def test_eject_after_consecutive_failures_then_readmit(self):
        async def scenario():
            fake = await FakeReplica().start()
            registry = ReplicaRegistry(make_config(fake.port))
            ejects_before = metrics().get("serve.router.ejects")
            readmits_before = metrics().get("serve.router.readmits")
            try:
                replica = registry.replicas[0]
                await registry.probe_once(replica)
                assert replica.admitted

                fake.ready = False
                await registry.probe_once(replica)
                assert replica.admitted  # one failure < eject_after
                await registry.probe_once(replica)
                assert not replica.admitted
                assert metrics().get("serve.router.ejects") - ejects_before == 1

                fake.ready = True
                await registry.probe_once(replica)
                assert replica.admitted  # first good probe readmits
                assert (
                    metrics().get("serve.router.readmits") - readmits_before
                    == 1
                )
            finally:
                await registry.stop()
                await fake.stop()

        run(scenario())

    def test_lease_expiry_stops_routing_without_a_probe(self):
        async def scenario():
            fake = await FakeReplica().start()
            registry = ReplicaRegistry(
                make_config(fake.port, probe_interval_s=0.04)
            )
            try:
                replica = registry.replicas[0]
                await registry.probe_once(replica)
                assert replica.up()
                await asyncio.sleep(0.2)  # > lease (3x probe interval)
                assert replica.admitted  # never ejected...
                assert not replica.up()  # ...but the lease lapsed
                assert registry.up_replicas() == []
            finally:
                await registry.stop()
                await fake.stop()

        run(scenario())

    def test_dead_endpoint_never_admits(self):
        async def scenario():
            registry = ReplicaRegistry(make_config(free_port()))
            try:
                replica = registry.replicas[0]
                assert not await registry.probe_once(replica)
                assert not replica.admitted
                assert replica.probe_failures == 1
            finally:
                await registry.stop()

        run(scenario())

    def test_router_probe_fail_fault_drops_probes(self):
        async def scenario():
            fake = await FakeReplica().start()
            registry = ReplicaRegistry(make_config(fake.port))
            try:
                replica = registry.replicas[0]
                await registry.probe_once(replica)
                assert replica.admitted
                with faults.inject_faults("router_probe_fail:2"):
                    await registry.probe_once(replica)
                    await registry.probe_once(replica)
                assert not replica.admitted
                # The probes were dropped before any socket I/O.
                assert fake.healthz_calls == 1
            finally:
                await registry.stop()
                await fake.stop()

        run(scenario())

    def test_request_path_death_counts_toward_ejection(self):
        async def scenario():
            fake = await FakeReplica().start()
            registry = ReplicaRegistry(make_config(fake.port, eject_after=2))
            try:
                replica = registry.replicas[0]
                await registry.probe_once(replica)
                registry.record_dead(replica, "connection died")
                assert replica.admitted
                registry.record_dead(replica, "connection died")
                assert not replica.admitted
                assert replica.last_error == "connection died"
            finally:
                await registry.stop()
                await fake.stop()

        run(scenario())


class TestSelectionAndHolds:
    def test_pick_prefers_least_inflight(self):
        async def scenario():
            registry = ReplicaRegistry(make_config(free_port(), free_port()))
            try:
                loaded, idle = registry.replicas
                for replica in registry.replicas:
                    replica.admitted = True
                    replica.lease_until = time.monotonic() + 60.0
                loaded.inflight = 3
                assert registry.pick() is idle
            finally:
                await registry.stop()

        run(scenario())

    def test_pick_prefers_untried_but_falls_back(self):
        async def scenario():
            registry = ReplicaRegistry(make_config(free_port(), free_port()))
            try:
                first, second = registry.replicas
                for replica in registry.replicas:
                    replica.admitted = True
                    replica.lease_until = time.monotonic() + 60.0
                assert registry.pick(exclude=[first]) is second
                # With every candidate excluded, failover still picks one
                # rather than dropping the request.
                assert registry.pick(exclude=[first, second]) is not None
            finally:
                await registry.stop()

        run(scenario())

    def test_backpressure_hold_removes_from_selection(self):
        async def scenario():
            registry = ReplicaRegistry(make_config(free_port()))
            try:
                replica = registry.replicas[0]
                replica.admitted = True
                replica.lease_until = time.monotonic() + 60.0
                assert registry.available() == [replica]
                registry.record_backpressure(replica, 0.5)
                assert registry.available() == []
                assert registry.up_replicas() == [replica]
                hint = registry.earliest_hold_expiry_s()
                assert 0.0 < hint <= 0.5
            finally:
                await registry.stop()

        run(scenario())


class TestRouterConfig:
    def test_lease_defaults_to_three_probe_intervals(self):
        assert RouterConfig(probe_interval_s=0.05).lease_s == pytest.approx(0.15)
        assert RouterConfig().lease_s == pytest.approx(3.0)

    def test_lease_is_never_below_the_probe_interval(self):
        config = RouterConfig(probe_interval_s=2.0, lease_s=0.5)
        assert config.lease_s == pytest.approx(2.0)

    def test_hedge_cap_below_floor_raises(self):
        with pytest.raises(ValueError):
            RouterConfig(hedge_floor_s=1.0, hedge_cap_s=0.5)
        assert RouterConfig(hedge_floor_s=3.0, hedge_cap_s=3.0).hedge_cap_s == 3.0
