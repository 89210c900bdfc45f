"""Process-wide metrics registry: one place for every counter.

Before this layer each subsystem grew its own private counters --
``perf.cache`` kept a module-global ``CacheStats``, the process pool kept
retry/timeout tallies in locals, fault injection counted per plan -- and
anything incremented inside a pool worker silently vanished when the
worker exited.  The :class:`MetricsRegistry` unifies them:

* **dotted counter names** namespace the producers (``cache.hits``,
  ``cache.lock_acquired``, ``parallel.retries``, ``parallel.interrupts``,
  ``faults.fired.worker_crash``, ``journal.appends``,
  ``durable.replayed``, ``ga.resumed``, ``serve.router.hedges``,
  ``serve.coalesce.hits``, ``serve.client.reconnects``, ...);
* **snapshot / diff / merge** make the counters *transportable*: a pool
  worker (:func:`repro.serve.pool.worker_main`) snapshots the registry
  around each job, ships the per-job delta back with the job's reply,
  and the parent merges it -- so ``cache_stats()`` totals are correct
  under ``REPRO_JOBS>1`` and in ``repro serve`` instead of only counting
  the parent's work;
* zero dependencies (stdlib dicts), zero cost when nothing increments.

The registry is deliberately counters-only.  Durations and sizes belong
to spans (:mod:`repro.obs.tracing`); anything that needs averaging or
percentiles is derived from the span log, not accumulated here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class MetricsRegistry:
    """A named-counter store with snapshot/diff/merge for worker handoff."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def incr(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0 on first use)."""
        self._counts[name] = self._counts.get(name, 0) + value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    # ------------------------------------------------------------------
    # Transport (the worker-aggregation fix)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """A picklable copy of every counter."""
        return dict(self._counts)

    def diff_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counters gained since ``before`` (a prior :meth:`snapshot`).
        Only strictly-positive deltas are kept, so merging a diff never
        decrements anything."""
        delta: Dict[str, int] = {}
        for name, value in self._counts.items():
            gained = value - before.get(name, 0)
            if gained > 0:
                delta[name] = gained
        return delta

    def merge(self, delta: Optional[Mapping[str, int]]) -> None:
        """Fold a worker's diff into this (parent) registry."""
        if not delta:
            return
        for name, value in delta.items():
            if value:
                self.incr(name, value)

    # ------------------------------------------------------------------
    # Reset / reporting
    # ------------------------------------------------------------------
    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every counter, or only those under ``prefix`` (a dotted
        namespace like ``"cache."``)."""
        if prefix is None:
            self._counts.clear()
            return
        for name in [n for n in self._counts if n.startswith(prefix)]:
            del self._counts[name]

    def rows(self, prefix: str = "") -> List[Tuple[str, int]]:
        """Sorted ``(name, value)`` pairs for table rendering."""
        return sorted(
            (name, value)
            for name, value in self._counts.items()
            if name.startswith(prefix)
        )

    def total(self, names: Iterable[str]) -> int:
        return sum(self._counts.get(name, 0) for name in names)

    def __str__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.rows())
        return f"MetricsRegistry({inner})"


_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry (pool workers each get their own; their
    per-job diffs are merged back by the pool's parent)."""
    return _REGISTRY


def reset_metrics(prefix: Optional[str] = None) -> MetricsRegistry:
    _REGISTRY.reset(prefix)
    return _REGISTRY
