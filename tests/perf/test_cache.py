"""The design cache must be invisible: hits return exactly what a cold
computation returns, and a warm figure run renders byte-identical text."""

import pickle

import pytest

from repro.perf import cache as cache_mod
from repro.perf.cache import cache_dir, cached, digest_of, set_cache_enabled
from repro.reliability.faults import no_faults


@pytest.fixture
def tmp_cache(monkeypatch, tmp_path):
    """Point the cache at a fresh directory and make sure it is on.

    Ambient fault plans are disarmed (the CI chaos job arms cache_read
    and cache_write, which would break these exact-count unit tests);
    ``inject_faults`` inside a test still arms its own plan."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(cache_mod, "_runtime_enabled", True)
    with no_faults():
        yield tmp_path / "cache"


def test_digest_is_deterministic_and_sensitive():
    assert digest_of("a", 1, (2.5, True)) == digest_of("a", 1, (2.5, True))
    assert digest_of("a", 1) != digest_of("a", 2)
    # Length prefixing: the concatenation "ab"+"c" must not collide "a"+"bc".
    assert digest_of("ab", "c") != digest_of("a", "bc")


def test_cached_computes_once_then_hits(tmp_cache):
    calls = []

    def compute():
        calls.append(1)
        return {"rows": [1, 2, 3]}

    key = digest_of("unit", 1)
    first = cached("traces", key, compute)
    second = cached("traces", key, compute)
    assert first == second == {"rows": [1, 2, 3]}
    assert len(calls) == 1
    assert (tmp_cache / "traces" / key[:2] / f"{key}.pkl").exists()


def test_corrupt_entry_is_a_miss(tmp_cache):
    key = digest_of("unit", 2)
    assert cached("designs", key, lambda: 42) == 42
    path = tmp_cache / "designs" / key[:2] / f"{key}.pkl"
    path.write_bytes(b"not a pickle")
    assert cached("designs", key, lambda: 42) == 42
    # The recompute also repaired the entry.
    with open(path, "rb") as fh:
        assert pickle.load(fh) == 42


def test_disabled_cache_recomputes(tmp_cache):
    calls = []

    def compute():
        calls.append(1)
        return "value"

    key = digest_of("unit", 3)
    cached("traces", key, compute)
    set_cache_enabled(False)
    try:
        cached("traces", key, compute)
    finally:
        set_cache_enabled(True)
    assert len(calls) == 2


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache_dir() == tmp_path / "elsewhere"


# ----------------------------------------------------------------------
# Cross-process single-flight locking
# ----------------------------------------------------------------------

def _locked_compute(args):
    """Pool helper: a slow cached compute that logs every execution."""
    import os
    import time

    cache_dir_str, marker = args
    os.environ["REPRO_CACHE_DIR"] = cache_dir_str

    def compute():
        with open(marker, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(0.6)
        return "computed-once"

    key = digest_of("single-flight", 1)
    return cached("sf", key, compute)


def test_single_flight_computes_once_across_processes(tmp_cache, tmp_path):
    """Two processes missing on the same key: one computes, the loser
    waits on the lock and then *reads* the winner's entry."""
    from concurrent.futures import ProcessPoolExecutor

    marker = tmp_path / "computes.log"
    args = (str(tmp_cache), str(marker))
    with ProcessPoolExecutor(max_workers=2) as pool:
        values = list(pool.map(_locked_compute, [args, args]))
    assert values == ["computed-once", "computed-once"]
    computes = marker.read_text().splitlines()
    assert len(computes) == 1, f"both processes computed: {computes}"


def test_stale_lock_is_broken(tmp_cache, monkeypatch):
    import os
    import time

    from repro.obs.metrics import metrics, reset_metrics

    key = digest_of("stale", 1)
    path = tmp_cache / "locks" / key[:2] / f"{key}.pkl"
    lock = path.with_suffix(".lock")
    lock.parent.mkdir(parents=True)
    lock.write_text("99999\n")  # a holder that died without cleanup
    stale = time.time() - 3600
    os.utime(lock, (stale, stale))
    reset_metrics()
    assert cached("locks", key, lambda: "fresh") == "fresh"
    assert metrics().get("cache.lock_stale_broken") == 1
    assert not lock.exists()


def test_lock_timeout_computes_anyway(tmp_cache, monkeypatch):
    import os
    import time

    from repro.obs.metrics import metrics, reset_metrics

    monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "0.2")
    key = digest_of("timeout", 1)
    path = tmp_cache / "locks" / key[:2] / f"{key}.pkl"
    lock = path.with_suffix(".lock")
    lock.parent.mkdir(parents=True)
    lock.write_text("1\n")
    # mtime in the future: the lock never looks stale, so the waiter must
    # exhaust its deadline and proceed unlocked -- never deadlock.
    future = time.time() + 3600
    os.utime(lock, (future, future))
    reset_metrics()
    assert cached("locks", key, lambda: "anyway") == "anyway"
    assert metrics().get("cache.lock_timeouts") == 1


# ----------------------------------------------------------------------
# Eviction races
# ----------------------------------------------------------------------

def _populate(count):
    for i in range(count):
        cached("bulk", digest_of("bulk", i), lambda i=i: bytes(4096) + bytes([i]))


def test_eviction_tolerates_vanishing_entries(tmp_cache, monkeypatch):
    """An entry deleted between the eviction scan's listing and its
    stat() (a concurrent evictor) is skipped, never a crash."""
    from pathlib import Path

    _populate(4)  # no size bound yet: all four entries survive
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")

    real_stat = Path.stat
    tripped = []

    def flaky_stat(self, **kwargs):
        if self.suffix == ".pkl" and not tripped:
            tripped.append(self)
            raise FileNotFoundError(2, "vanished under the scan", str(self))
        return real_stat(self, **kwargs)

    monkeypatch.setattr(Path, "stat", flaky_stat)
    cache_mod._evict_if_needed()  # must not raise
    assert tripped, "the injected ENOENT was never exercised"


def _evict_worker(cache_dir_str):
    import os

    os.environ["REPRO_CACHE_DIR"] = cache_dir_str
    os.environ["REPRO_CACHE_MAX_MB"] = "0.001"
    cache_mod._evict_if_needed()
    return True


def test_two_process_eviction_race(tmp_cache):
    """Two processes evicting the same directory concurrently: entries
    vanish under both scans; neither may crash."""
    from concurrent.futures import ProcessPoolExecutor

    _populate(24)
    args = str(tmp_cache)
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(_evict_worker, [args, args])) == [True, True]


def test_warm_figure_run_is_byte_identical(tmp_cache):
    """Cold run populates the cache; the warm run must render the exact
    same figure text from cached traces and designs."""
    from repro.harness.fig2 import run_fig2_benchmark

    kwargs = dict(
        num_loads=6_000, history_lengths=(2, 3), bias_thresholds=(0.5, 0.9)
    )
    cold = run_fig2_benchmark("gcc", **kwargs).render()
    # The cold run must have left entries behind (traces and designs).
    categories = {p.name for p in tmp_cache.iterdir()}
    assert "loads" in categories
    warm = run_fig2_benchmark("gcc", **kwargs).render()
    assert warm == cold
