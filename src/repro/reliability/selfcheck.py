"""``python -m repro selfcheck``: the full self-validation battery.

Runs, in-process and in a couple of minutes of CPU at most:

1. **oracle equivalence** -- design machines for orders 1-6 from the
   paper's worked trace and a seeded pseudo-random trace, and prove each
   against the direct-construction oracle;
2. **cache round-trip** -- store/hit/corrupt/quarantine/recompute against
   a throwaway cache directory, checking the counters at each step;
3. **parallel determinism** -- a pooled sweep must equal the serial sweep
   element-for-element;
4. **fault-injection smoke** -- each recoverable injector (worker crash,
   cache corruption) heals invisibly, and an unrecoverable one
   (``stage_fail``) surfaces as a structured ``DesignError`` naming the
   stage;
5. **metrics aggregation** -- a pooled sweep's cache hit/miss/write
   totals equal the serial sweep's: worker-side counters must ride each
   job's reply back to the parent registry instead of dying with the
   pool.
6. **durability** -- a journaled sweep replays from its write-ahead
   journal without recomputing (a poisoned shard function proves no
   shard re-executes), a torn final journal line is tolerated, and the
   replayed results equal the originals.
7. **conformance** -- the differential-oracle runner passes clean on a
   corpus sample, and an injected ``hopcroft_offby1`` fault is caught at
   exactly the ``automata.hopcroft`` stage with a delta-debugged
   counterexample (the watcher is proven able to see, not just quiet).
8. **serving** -- an in-process :class:`~repro.serve.server.DesignServer`
   (one supervised worker, ephemeral port) answers a verified design
   request byte-identically to the batch path, the design passes an
   independent ``verify_design`` pass, and graceful drain leaves no
   worker processes behind.

Every check is independent; the command prints one PASS/FAIL line per
check plus the cache counters and exits non-zero when anything failed.
"""

from __future__ import annotations

import os
import random
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterator, List, Tuple

PAPER_TRACE = [int(ch) for ch in "000010001011110111101111"]
SELFCHECK_ORDERS = (1, 2, 3, 4, 5, 6)


@contextmanager
def _scratch_env() -> Iterator[str]:
    """A throwaway cache dir with caching force-enabled and ambient fault
    plans stripped, so the battery measures the code, not the caller's
    environment.  Everything is restored on exit."""
    from repro.perf.cache import set_cache_enabled

    saved = {
        key: os.environ.get(key)
        for key in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_MB",
                    "REPRO_FAULTS", "REPRO_FAULTS_SEED",
                    "REPRO_TRACE", "REPRO_TRACE_FILE",
                    "REPRO_RUN_DIR", "REPRO_DURABLE",
                    "REPRO_JOURNAL_FSYNC", "REPRO_LOCK_TIMEOUT")
    }
    with tempfile.TemporaryDirectory(prefix="repro-selfcheck-") as scratch:
        for key in saved:
            os.environ.pop(key, None)
        os.environ["REPRO_CACHE_DIR"] = scratch
        os.environ["REPRO_RUN_DIR"] = os.path.join(scratch, "runs")
        set_cache_enabled(True)
        try:
            yield scratch
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def _random_trace(length: int = 400, seed: int = 0xC0FFEE) -> List[int]:
    rng = random.Random(seed)
    return [rng.random() < 0.7 and 1 or 0 for _ in range(length)]


def _design_summary(order: int) -> Tuple[int, Tuple[str, ...]]:
    """Picklable parallel shard: design the paper trace at ``order``."""
    from repro.core.pipeline import design_predictor

    result = design_predictor(PAPER_TRACE * 20, order=order)
    return result.machine.num_states, tuple(result.cover_strings())


def _check_oracle_equivalence() -> str:
    from repro.core.pipeline import design_predictor
    from repro.reliability.verify import verify_design

    random_trace = _random_trace()
    for order in SELFCHECK_ORDERS:
        for trace in (PAPER_TRACE * 4, random_trace):
            verify_design(design_predictor(trace, order=order))
    return f"orders {SELFCHECK_ORDERS[0]}-{SELFCHECK_ORDERS[-1]} proven"


def _check_cache_round_trip() -> str:
    from repro.perf.cache import (
        cache_dir,
        cache_stats,
        cached,
        digest_of,
        quarantine_dir,
        reset_cache_stats,
    )

    reset_cache_stats()
    key = digest_of("selfcheck-roundtrip", 1)
    value = {"rows": list(range(32))}
    first = cached("selfcheck", key, lambda: value)
    second = cached("selfcheck", key, lambda: {"rows": []})
    if first != value or second != value:
        raise AssertionError("cache hit returned a different value")
    stats = cache_stats()
    if stats.hits != 1 or stats.misses != 1 or stats.writes != 1:
        raise AssertionError(f"unexpected counters after round trip: {stats}")

    # Bit-rot: flip one payload byte behind the checksum's back.
    path = cache_dir() / "selfcheck" / key[:2] / f"{key}.pkl"
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    path.write_bytes(bytes(payload))
    healed = cached("selfcheck", key, lambda: value)
    if healed != value:
        raise AssertionError("corrupt entry was not recomputed correctly")
    stats = cache_stats()
    if stats.quarantined != 1:
        raise AssertionError(f"corrupt entry was not quarantined: {stats}")
    if not any(quarantine_dir().rglob("*.pkl")):
        raise AssertionError("quarantine directory holds no evidence")
    return f"store/hit/corrupt/quarantine/recompute ok ({stats})"


def _check_parallel_determinism() -> str:
    from repro.perf.parallel import parallel_map

    orders = list(SELFCHECK_ORDERS)
    serial = [_design_summary(order) for order in orders]
    pooled = parallel_map(_design_summary, orders, jobs=2)
    if serial != pooled:
        raise AssertionError("parallel sweep diverged from the serial sweep")
    return f"{len(orders)} shards identical serial vs pooled"


def _check_fault_smoke() -> str:
    from repro.core.pipeline import design_predictor
    from repro.perf.cache import cached, digest_of
    from repro.perf.parallel import parallel_map
    from repro.reliability.errors import DesignError
    from repro.reliability.faults import inject_faults

    orders = list(SELFCHECK_ORDERS[:3])
    expected = [_design_summary(order) for order in orders]

    # Recoverable: crashed workers are retried / recomputed serially.
    with inject_faults("worker_crash:2", seed=7, propagate_env=True):
        survived = parallel_map(_design_summary, orders, jobs=2)
    if survived != expected:
        raise AssertionError("worker_crash injection changed sweep results")

    # Recoverable: a corrupted write is caught, quarantined, recomputed.
    key = digest_of("selfcheck-faults", 2)
    with inject_faults("cache_corrupt:1", seed=7):
        cached("selfcheck", key, lambda: "truth")
    if cached("selfcheck", key, lambda: "truth") != "truth":
        raise AssertionError("cache_corrupt injection leaked a wrong value")

    # Unrecoverable: a failed stage must raise a structured error that
    # names the stage, never return a machine.  (A fresh trace: a cache
    # hit would skip the stages entirely.)
    with inject_faults("stage_fail:1", seed=7):
        try:
            design_predictor(_random_trace(seed=0xBEEF), order=2)
        except DesignError as exc:
            if not exc.stage:
                raise AssertionError("stage failure did not name its stage")
        else:
            raise AssertionError("stage failure produced a result")
    return "crash recovered, corruption healed, stage failure structured"


def _check_metrics_aggregation() -> str:
    """The stats-correctness contract: pooled and serial sweeps must
    report identical cache counter totals.  Worker-side increments ride
    each job's reply back into the parent's
    :mod:`repro.obs.metrics` registry; before that fix they vanished with
    the worker process and ``REPRO_JOBS>1`` silently under-reported."""
    import shutil

    from repro.obs.metrics import reset_metrics
    from repro.perf.cache import cache_dir, cache_stats
    from repro.perf.parallel import parallel_map

    orders = list(SELFCHECK_ORDERS)

    def totals(jobs: int) -> Tuple[int, int, int]:
        # Fresh cache contents and zeroed counters for each leg, so both
        # legs do identical cold (miss+write) then warm (hit) work.
        shutil.rmtree(cache_dir() / "designs", ignore_errors=True)
        reset_metrics()
        parallel_map(_design_summary, orders, jobs=jobs)
        parallel_map(_design_summary, orders, jobs=jobs)
        stats = cache_stats()
        return stats.hits, stats.misses, stats.writes

    serial = totals(jobs=1)
    pooled = totals(jobs=2)
    if serial != pooled:
        raise AssertionError(
            f"pooled cache counters {pooled} != serial {serial} "
            "(worker deltas not aggregated)"
        )
    if serial[0] == 0 or serial[1] == 0:
        raise AssertionError(f"sweep saw no cache traffic ({serial})")
    return f"serial == pooled (hits,misses,writes) = {serial}"


def _poison(order: int) -> Tuple[int, Tuple[str, ...]]:
    """A shard function that must never run: replay means *no* recompute."""
    raise AssertionError(f"durable replay recomputed shard {order}")


def _check_durability() -> str:
    from repro.obs.metrics import metrics, reset_metrics
    from repro.reliability.durability import (
        derive_run_id,
        durable_map,
        journal_path,
        read_journal,
    )

    orders = list(SELFCHECK_ORDERS[:4])
    run_id = derive_run_id("selfcheck", "durability")
    expected = [_design_summary(order) for order in orders]

    # Cold journaled sweep (pooled, to cross the pickle boundary too).
    first = durable_map(
        _design_summary, orders, run_id=run_id, sweep="selfcheck", jobs=2
    )
    if first != expected:
        raise AssertionError("journaled sweep diverged from the plain sweep")

    # Resume: every shard must replay from disk -- the poisoned function
    # raising anywhere proves a recompute happened.
    reset_metrics()
    replayed = durable_map(
        _poison, orders, run_id=run_id, sweep="selfcheck", jobs=2
    )
    if replayed != expected:
        raise AssertionError("replayed sweep diverged from the original")
    snapshot = dict(metrics().rows())
    if snapshot.get("durable.replayed") != len(orders):
        raise AssertionError(f"expected {len(orders)} replays: {snapshot}")

    # A torn final line (crash mid-append) must be skipped, not fatal.
    with open(journal_path(run_id), "ab") as handle:
        handle.write(b'{"schema": "repro.journal/1", "event": "torn')
    after_tear = durable_map(
        _poison, orders, run_id=run_id, sweep="selfcheck", jobs=2
    )
    if after_tear != expected:
        raise AssertionError("torn journal line broke replay")

    events = [record.get("event") for record in read_journal(run_id)]
    if "shard_completed" not in events or "sweep_completed" not in events:
        raise AssertionError(f"journal missing lifecycle events: {events}")
    return (
        f"{len(orders)} shards journaled, replayed twice without recompute "
        "(torn tail tolerated)"
    )


def _check_conformance() -> str:
    from repro.conformance.diff import check_conformance, minimize_counterexample
    from repro.reliability.faults import inject_faults

    # Clean leg: a corpus sample (paper trace at two orders, plus a
    # random trace) must show no stage diverging from its oracle.
    random_trace = _random_trace(length=200, seed=0xFACE)
    for trace, order in (
        (PAPER_TRACE * 4, 2),
        (PAPER_TRACE * 4, 3),
        (random_trace, 2),
    ):
        divergence = check_conformance(trace, order=order)
        if divergence is not None:
            raise AssertionError(
                f"clean pipeline diverged: {divergence.describe()}"
            )

    # Negative leg: a deliberately wrong Hopcroft must be caught at its
    # own stage and the counterexample must survive minimization.  A
    # probability-1.0 spec keeps firing across the delta-debug probes.
    with inject_faults("hopcroft_offby1:1.0", seed=3):
        divergence = check_conformance(PAPER_TRACE * 4, order=2)
        if divergence is None:
            raise AssertionError("injected hopcroft_offby1 went undetected")
        if divergence.stage != "automata.hopcroft":
            raise AssertionError(
                f"fault blamed on {divergence.stage}, not automata.hopcroft"
            )
        minimized = minimize_counterexample(divergence)
    if minimized.stage != "automata.hopcroft":
        raise AssertionError("minimization wandered off the hopcroft stage")
    if len(minimized.trace) > len(divergence.trace):
        raise AssertionError("minimization grew the counterexample")
    return (
        "oracles agree clean; injected hopcroft fault caught, "
        f"counterexample {len(divergence.trace)} -> {len(minimized.trace)} bits"
    )


def _check_serving() -> str:
    import asyncio
    import json

    from repro.core.pipeline import DesignConfig, FSMDesigner
    from repro.reliability.verify import verify_design
    from repro.serve import protocol
    from repro.serve.config import ServeConfig
    from repro.serve.jobs import DesignRequest, execute_request
    from repro.serve.server import DesignServer

    payload = {
        "trace": "".join(str(bit) for bit in PAPER_TRACE * 4),
        "order": 2,
        "verify": True,
        "emit": ["verilog"],
        "id": "selfcheck-serving",
    }

    async def scenario():
        server = DesignServer(
            ServeConfig(host="127.0.0.1", port=0, workers=1, queue_limit=8)
        )
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(protocol.canonical_json(payload) + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=120)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionResetError):
                    pass
        finally:
            await server.shutdown()
        if not line:
            raise AssertionError("server closed the connection mid-request")
        return json.loads(line), server

    envelope, server = asyncio.run(scenario())
    if envelope.get("status") != "ok":
        raise AssertionError(f"serving round-trip failed: {envelope}")
    want = protocol.canonical_json(
        execute_request(DesignRequest.from_payload(payload))
    )
    got = protocol.canonical_json(envelope["payload"])
    if got != want:
        raise AssertionError(
            "served payload is not byte-identical to the batch reference"
        )
    # Independent oracle pass over the same design, outside the server.
    result = FSMDesigner(DesignConfig(order=2, verify=False)).design_from_trace(
        PAPER_TRACE * 4
    )
    verify_design(result)
    if server.pool.workers_alive() != 0:
        raise AssertionError("drain left worker processes running")
    states = envelope["payload"]["state_counts"]["startup_removed"]
    return (
        f"round-trip ok ({states} states, verified), payload byte-identical "
        "to batch, drained cleanly"
    )


CHECKS: Tuple[Tuple[str, Callable[[], str]], ...] = (
    ("oracle-equivalence", _check_oracle_equivalence),
    ("cache-round-trip", _check_cache_round_trip),
    ("parallel-determinism", _check_parallel_determinism),
    ("fault-injection-smoke", _check_fault_smoke),
    ("metrics-aggregation", _check_metrics_aggregation),
    ("durability", _check_durability),
    ("conformance", _check_conformance),
    ("serving", _check_serving),
)


def run_selfcheck(verbose: bool = True) -> int:
    """Run the battery; returns 0 when every check passes."""
    from repro.perf.cache import cache_stats
    from repro.reliability.faults import no_faults

    failures = 0
    with _scratch_env(), no_faults():
        for name, check in CHECKS:
            try:
                detail = check()
            except Exception as exc:  # a failed check must not stop the rest
                failures += 1
                status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
            else:
                status = "PASS"
            if verbose:
                print(f"[{status}] {name:<24s} {detail}")
        if verbose:
            print(f"cache counters: {cache_stats()}")
    if verbose:
        total = len(CHECKS)
        print(
            f"selfcheck: {total - failures}/{total} checks passed"
            + ("" if failures == 0 else f", {failures} FAILED")
        )
    return 0 if failures == 0 else 1
