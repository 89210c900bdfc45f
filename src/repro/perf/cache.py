"""Content-addressed on-disk memoization for the design flow.

Figure runs re-derive the same VM traces and the same FSM designs over and
over; both are pure functions of small keys, so they cache perfectly.  Keys
are sha256 digests of the inputs plus an explicit *version salt* per
producer (`TRACE_VERSION`, `DESIGN_FLOW_VERSION`) -- bump the salt whenever
the producing code changes meaning, and stale entries simply stop being
addressed.

Entries are pickles written atomically (temp file + ``os.replace``) so
concurrent workers racing on the same key are safe: last writer wins and
every reader sees a complete file.

Hardening (the ``repro.reliability`` contract):

* every payload gets a sha256 **checksum sidecar** (``<key>.sha256``);
  truncation or bit-rot that would still unpickle "fine" is detected on
  load instead of silently poisoning every figure that reads the entry;
* entries that fail the checksum, fail to unpickle despite a valid
  checksum, or fail a caller-supplied ``validate`` hook are **moved to a
  quarantine directory** (``<cache>/quarantine/<category>/``) -- evidence
  preserved, entry recomputed;
* ``REPRO_CACHE_MAX_MB`` bounds the cache size with oldest-first
  eviction after each write; eviction tolerates entries vanishing under
  it (a second process evicting or reading concurrently is normal);
* a **cross-process single-flight lock** per key: concurrent workers
  that miss on the same key elect one computer via an ``O_EXCL`` lock
  file; the rest wait and then read the winner's entry instead of
  duplicating minutes of design-flow work.  A lock whose holder died
  (crash, SIGKILL) goes *stale* and is broken after
  ``REPRO_LOCK_TIMEOUT`` seconds (default 30); a waiter that exhausts
  the timeout computes anyway -- duplicated work, never a deadlock
  (``cache.lock_*`` counters record all of it);
* hit/miss/write/quarantine/eviction **counters** in the unified
  :mod:`repro.obs.metrics` registry (:func:`cache_stats` is a snapshot
  view), aggregated across pool workers and surfaced by
  ``python -m repro selfcheck``;
* fault-injection hooks (``cache_read``/``cache_write``/``cache_corrupt``,
  see :mod:`repro.reliability.faults`) chaos-test all of the above.

Knobs:

- ``REPRO_CACHE_DIR`` -- cache location (default ``.repro-cache/`` at the
  repository root).
- ``REPRO_CACHE=0`` or :func:`set_cache_enabled` (the ``--no-cache`` CLI
  flag) -- disable reads and writes; everything is recomputed.  The
  environment is re-read on every call, so tests and pool workers that
  flip ``REPRO_CACHE`` after import are honoured.
- ``REPRO_CACHE_MAX_MB`` -- approximate size bound; unset means unbounded.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple, TypeVar

from repro.obs.metrics import metrics
from repro.obs.tracing import trace_span
from repro.reliability.errors import CacheError
from repro.reliability.faults import should_fire

T = TypeVar("T")

# Version salts: bump when the producer's output semantics change.
TRACE_VERSION = 1
# 2: config cache keys switched to explicit semantic field tuples so that
# non-semantic knobs (DesignConfig.verify) do not split the key space.
# 3: designs may now be produced by the batched kernels (entry-space
# subset construction, machine-batched simulation); results are
# bit-identical by construction, but the salt guarantees no pre-batch
# cache entry can ever be served for a batched-era key or vice versa.
DESIGN_FLOW_VERSION = 3

_runtime_enabled = True

_MISS = object()  # sentinel: _load_entry found nothing usable


@dataclass
class CacheStats:
    """Snapshot view of the ``cache.*`` counters in the unified
    :class:`~repro.obs.metrics.MetricsRegistry`.

    The registry (not this dataclass) is the source of truth: cache
    activity inside pool workers is shipped back to the parent with
    each job's reply and merged, so these totals are
    correct under ``REPRO_JOBS>1`` -- previously each worker counted
    into a private module global that died with the process.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    evictions: int = 0

    FIELDS = ("hits", "misses", "writes", "quarantined", "evictions")

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} writes={self.writes} "
            f"quarantined={self.quarantined} evictions={self.evictions}"
        )


def _count(event: str) -> None:
    metrics().incr(f"cache.{event}")


def cache_stats() -> CacheStats:
    """Current ``cache.*`` totals (parent work plus merged worker deltas)."""
    registry = metrics()
    return CacheStats(
        **{name: registry.get(f"cache.{name}") for name in CacheStats.FIELDS}
    )


def reset_cache_stats() -> CacheStats:
    metrics().reset(prefix="cache.")
    return cache_stats()


def set_cache_enabled(enabled: bool) -> None:
    """Runtime switch (the CLI's ``--no-cache``); overrides nothing the
    environment already disabled."""
    global _runtime_enabled
    _runtime_enabled = bool(enabled)


def cache_enabled() -> bool:
    # Re-read the environment every call: REPRO_CACHE=0 set after import
    # (tests, pool workers, the CLI propagating --no-cache) must win.
    env_disabled = os.environ.get("REPRO_CACHE", "1").lower() in (
        "0",
        "false",
        "off",
    )
    return _runtime_enabled and not env_disabled


def cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    # src/repro/perf/cache.py -> repository root
    return Path(__file__).resolve().parents[3] / ".repro-cache"


def quarantine_dir() -> Path:
    return cache_dir() / "quarantine"


def digest_of(*parts: Any) -> str:
    """sha256 over the reprs of ``parts``.

    Parts must have deterministic reprs (ints, strings, floats, bools,
    tuples/lists of those, dataclasses of those).  Length-prefixing each
    part keeps concatenations unambiguous.
    """
    h = hashlib.sha256()
    for part in parts:
        encoded = repr(part).encode("utf-8")
        h.update(str(len(encoded)).encode("ascii"))
        h.update(b":")
        h.update(encoded)
    return h.hexdigest()


def _max_cache_bytes() -> Optional[int]:
    raw = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _quarantine(category: str, path: Path, sidecar: Path, reason: str) -> None:
    """Move a poisoned entry aside so it can be inspected, never re-read.

    Raises :class:`CacheError` only when the entry can neither be moved
    nor deleted -- the one case recompute cannot heal, because the next
    reader would load the same poison again.
    """
    target_dir = quarantine_dir() / category
    try:
        target_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, target_dir / path.name)
        if sidecar.exists():
            os.replace(sidecar, target_dir / sidecar.name)
    except OSError:
        try:
            path.unlink(missing_ok=True)
            sidecar.unlink(missing_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot quarantine or remove poisoned cache entry "
                f"({reason})",
                stage="cache",
                category=category,
                entry=str(path),
            ) from exc
    _count("quarantined")


def _load_entry(
    category: str,
    path: Path,
    validate: Optional[Callable[[Any], bool]],
) -> Any:
    """Load and fully vet one cache entry; ``_MISS`` when absent/unusable."""
    sidecar = path.with_suffix(".sha256")
    try:
        if should_fire("cache_read"):
            raise OSError("injected fault: cache_read")
        payload = path.read_bytes()
        expected = sidecar.read_text().strip()
    except OSError:
        # Absent entry, unreadable file, or a pre-checksum legacy entry
        # (no sidecar): a plain miss, recompute overwrites it.
        return _MISS
    if hashlib.sha256(payload).hexdigest() != expected:
        _quarantine(category, path, sidecar, reason="checksum mismatch")
        return _MISS
    try:
        value = pickle.loads(payload)
    except Exception:
        # Checksum valid but content unloadable: the *writer* stored
        # garbage (version skew, interpreter bug).  Keep the evidence.
        _quarantine(category, path, sidecar, reason="unpicklable payload")
        return _MISS
    if validate is not None and not validate(value):
        # Loadable but wrong -- the dangerous case.  Quarantine and
        # recompute instead of letting it poison every downstream figure.
        _quarantine(category, path, sidecar, reason="failed validation")
        return _MISS
    return value


def _store_entry(path: Path, value: Any) -> None:
    """Best-effort atomic write of payload + checksum sidecar."""
    if should_fire("cache_write"):
        return  # dropped write: the entry is simply recomputed next time
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return  # unpicklable value: caching is best-effort
    checksum = hashlib.sha256(payload).hexdigest()
    if should_fire("cache_corrupt"):
        # Simulated bit-rot: flip one mid-payload byte *after* the
        # checksum was computed, exactly what the sidecar must catch.
        middle = len(payload) // 2
        payload = (
            payload[:middle]
            + bytes([payload[middle] ^ 0x01])
            + payload[middle + 1 :]
        )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, payload)
        _atomic_write(path.with_suffix(".sha256"), checksum.encode("ascii"))
    except OSError:
        return  # read-only filesystem etc.: caching is best-effort
    _count("writes")
    _evict_if_needed()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + ``os.replace``: readers
    racing the write see either the old complete file or the new complete
    file, never a torn one.  (Shared with the durability layer's journal
    result store and checkpoint blobs.)"""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Internal alias kept for the pre-durability callers in this module.
_atomic_write = atomic_write_bytes


def _evict_if_needed() -> None:
    """Oldest-first eviction down to ``REPRO_CACHE_MAX_MB`` (quarantined
    entries are evidence, not cache, and are never counted or evicted).

    Concurrency contract: several processes may evict (or read) the same
    directory at once, so every per-entry filesystem call tolerates the
    entry having just been deleted by somebody else -- a vanished entry
    is skipped, never a crash, and the scan keeps going instead of
    aborting the whole eviction pass.
    """
    limit = _max_cache_bytes()
    if limit is None:
        return
    root = cache_dir()
    quarantine = quarantine_dir()
    entries: List[Tuple[float, int, Path]] = []
    total = 0
    try:
        # Materialize the listing up front: rglob is lazy, and a
        # concurrently-removed directory mid-iteration would otherwise
        # abort the scan from inside the for loop.
        candidates = list(root.rglob("*.pkl"))
    except OSError:
        return
    for pkl in candidates:
        if quarantine in pkl.parents:
            continue
        try:
            stat = pkl.stat()
        except OSError:
            continue  # deleted by a concurrent evictor between list and stat
        size = stat.st_size
        try:
            size += pkl.with_suffix(".sha256").stat().st_size
        except OSError:
            pass  # sidecar missing (legacy entry) or just deleted
        entries.append((stat.st_mtime, size, pkl))
        total += size
    if total <= limit:
        return
    for _mtime, size, pkl in sorted(entries):
        try:
            pkl.unlink(missing_ok=True)
            pkl.with_suffix(".sha256").unlink(missing_ok=True)
        except OSError:
            continue
        _count("evictions")
        total -= size
        if total <= limit:
            break


# ----------------------------------------------------------------------
# Cross-process single-flight
# ----------------------------------------------------------------------

_LOCK_POLL_SECONDS = 0.05


def lock_timeout() -> float:
    """Seconds before a held key lock is considered stale and before a
    waiter gives up and computes anyway (``REPRO_LOCK_TIMEOUT``, default
    30).  Should exceed the longest single design-flow computation."""
    raw = os.environ.get("REPRO_LOCK_TIMEOUT", "").strip()
    if not raw:
        return 30.0
    try:
        seconds = float(raw)
    except ValueError:
        return 30.0
    return seconds if seconds > 0 else 30.0


@contextmanager
def _single_flight(path: Path) -> Iterator[bool]:
    """Elect one computer per cache key across processes.

    Creates ``<key>.lock`` with ``O_CREAT | O_EXCL`` (atomic on every
    filesystem we care about).  Losers poll; when the winner finishes
    (lock released) they re-check the cache and hit instead of
    recomputing.  A lock older than :func:`lock_timeout` means its holder
    died mid-compute (SIGKILL leaves no chance to clean up): it is broken
    and the race restarts.  A waiter that exhausts the timeout proceeds
    *without* the lock -- duplicate work, but the atomic entry writes
    keep that safe; this layer must never deadlock a sweep.

    Yields True when the caller waited for another process at some point
    (so re-checking the cache before computing is worthwhile).
    """
    lock = path.with_suffix(".lock")
    timeout = lock_timeout()
    deadline = time.monotonic() + timeout
    acquired = False
    waited = False
    try:
        while True:
            try:
                lock.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not waited:
                    waited = True
                    _count("lock_waits")
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # released between open and stat: retry now
                if age > timeout:
                    # Holder died (crash, OOM kill): break the stale lock.
                    try:
                        lock.unlink(missing_ok=True)
                    except OSError:
                        pass
                    _count("lock_stale_broken")
                    continue
                if time.monotonic() > deadline:
                    _count("lock_timeouts")
                    break
                time.sleep(_LOCK_POLL_SECONDS)
            except OSError:
                break  # unwritable cache dir: locking is best-effort
            else:
                try:
                    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                finally:
                    os.close(fd)
                acquired = True
                _count("lock_acquired")
                break
        yield waited
    finally:
        if acquired:
            try:
                lock.unlink(missing_ok=True)
            except OSError:
                pass


def cached(
    category: str,
    key: str,
    compute: Callable[[], T],
    validate: Optional[Callable[[Any], bool]] = None,
) -> T:
    """Return the cached value for ``category``/``key``, computing and
    storing it on a miss.  With caching disabled this is just
    ``compute()``.

    ``validate`` (optional) vets every cache *hit*; entries it rejects are
    quarantined and recomputed, so a loadable-but-wrong pickle can never
    reach a caller.
    """
    if not cache_enabled():
        return compute()
    path = cache_dir() / category / key[:2] / f"{key}.pkl"
    with trace_span("cache.read", category=category, key=key[:12]) as span:
        value = _load_entry(category, path, validate)
        span.set(hit=value is not _MISS)
    if value is not _MISS:
        _count("hits")
        return value
    _count("misses")
    # Single-flight: when several processes miss on this key at once, one
    # computes and the rest wait, then read its entry -- instead of every
    # worker redoing the same design-flow work.
    with _single_flight(path) as waited:
        if waited:
            value = _load_entry(category, path, validate)
            if value is not _MISS:
                _count("lock_hits")
                return value
        value = compute()
        with trace_span("cache.write", category=category, key=key[:12]):
            _store_entry(path, value)
    return value
