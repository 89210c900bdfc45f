"""Branch predictor protocol and simulation loop.

Every branch predictor exposes ``predict(pc) -> bool`` and
``update(pc, taken) -> None``; the simulator drives them over a trace of
``(pc, taken)`` records and accumulates a :class:`PredictionStats`.

Updates happen after the prediction for the same branch, which models the
usual speculative-update-free evaluation methodology of the paper's era.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Tuple


class BranchPredictor(abc.ABC):
    """Interface for conditional branch direction predictors."""

    name: str = "predictor"

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc`` (True = taken)."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome of the branch at ``pc``."""

    @abc.abstractmethod
    def area(self) -> float:
        """Estimated implementation area in the repo's common area units
        (see :mod:`repro.synth.area`)."""

    def reset(self) -> None:
        """Restore power-on state.  Default: predictors that keep all state
        in constructor-initialized fields may override; base raises so a
        forgotten override cannot silently alias runs."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")


@dataclass
class PredictionStats:
    """Hit/miss accounting for one simulation."""

    lookups: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def miss_rate(self) -> float:
        """Fraction of mispredicted branches.

        ``nan`` when ``lookups == 0``: a run that counted nothing (e.g.
        ``warmup >= len(trace)``) has *no* miss rate, and the old ``0.0``
        made it indistinguishable from a perfect predictor in fig2/fig5
        tables.  Callers that render rates should go through
        :func:`format_rate`, which prints the sentinel as ``n/a``; callers
        that aggregate should skip degenerate stats (``lookups == 0``).
        """
        if self.lookups == 0:
            return float("nan")
        return self.misses / self.lookups

    @property
    def hit_rate(self) -> float:
        """Fraction of correctly predicted branches; ``nan`` when
        ``lookups == 0`` (see :attr:`miss_rate`)."""
        if self.lookups == 0:
            return float("nan")
        return self.hits / self.lookups

    def record(self, correct: bool) -> None:
        self.lookups += 1
        if correct:
            self.hits += 1

    def merged(self, other: "PredictionStats") -> "PredictionStats":
        return PredictionStats(
            lookups=self.lookups + other.lookups, hits=self.hits + other.hits
        )

    def __str__(self) -> str:
        return (
            f"PredictionStats(lookups={self.lookups}, "
            f"miss_rate={format_rate(self.miss_rate)})"
        )


def format_rate(rate: float, precision: int = 4) -> str:
    """Render a hit/miss rate for reports; the ``nan`` degenerate sentinel
    (no counted lookups) prints as ``n/a`` instead of a number."""
    if rate != rate:  # NaN
        return "n/a"
    return f"{rate:.{precision}f}"


def simulate_predictor(
    predictor: BranchPredictor,
    trace: Iterable[Tuple[int, bool]],
    warmup: int = 0,
) -> PredictionStats:
    """Run ``predictor`` over ``trace``; the first ``warmup`` branches
    train the predictor without being counted.

    Column-oriented traces (anything exposing parallel ``pcs``/``outcomes``
    lists, like :class:`~repro.workloads.trace.BranchTrace`) take an
    array-based fast path: no per-record tuple building, no ``bool()``
    conversion, and hit counting in local variables instead of a method
    call per branch.  Both paths make exactly the same ``predict``/
    ``update`` calls in the same order, so the stats are identical.
    """
    from repro.obs.tracing import trace_span

    pcs = getattr(trace, "pcs", None)
    outcomes = getattr(trace, "outcomes", None)
    if pcs is not None and outcomes is not None:
        # Predictors exposing ``_batch_simulate`` replay the whole column
        # trace through the vectorized kernels in repro.perf.batched.  The
        # fast path returns (lookups, hits) -- or None to decline, in which
        # case the per-branch loop below runs.  Either way the predictor's
        # post-simulation state and the stats are bit-identical.
        batch = getattr(predictor, "_batch_simulate", None)
        if batch is not None:
            from repro.perf.batched import BATCH_THRESHOLD

            if len(pcs) < BATCH_THRESHOLD:
                batch = None
        with trace_span(
            "sim.predictor",
            predictor=getattr(predictor, "name", type(predictor).__name__),
            records=len(pcs),
        ) as span:
            counts = batch(pcs, outcomes, max(0, warmup)) if batch else None
            if counts is not None:
                lookups, hits = counts
            else:
                predict = predictor.predict
                update = predictor.update
                lookups = 0
                hits = 0
                for index, (pc, outcome) in enumerate(zip(pcs, outcomes)):
                    taken = outcome == 1
                    prediction = predict(pc)
                    if index >= warmup:
                        lookups += 1
                        if prediction == taken:
                            hits += 1
                    update(pc, taken)
            span.set(lookups=lookups, hits=hits)
        return PredictionStats(lookups=lookups, hits=hits)
    with trace_span(
        "sim.predictor",
        predictor=getattr(predictor, "name", type(predictor).__name__),
    ) as span:
        stats = PredictionStats()
        remaining_warmup = warmup
        for pc, taken in trace:
            prediction = predictor.predict(pc)
            if remaining_warmup > 0:
                remaining_warmup -= 1
            else:
                stats.record(prediction == bool(taken))
            predictor.update(pc, bool(taken))
        span.set(lookups=stats.lookups, hits=stats.hits)
    return stats
