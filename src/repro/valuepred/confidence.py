"""Confidence estimation for value prediction (Sections 6.2-6.4).

This module produces everything Figure 2 needs:

* ``correctness_trace`` -- run the two-delta stride predictor over a load
  stream and emit, per executed load, whether it was correctly value
  predicted (the 0/1 trace the FSM designer trains on) together with the
  table entry it mapped to;
* ``evaluate_counter_confidence`` / ``evaluate_fsm_confidence`` -- replay
  a correctness trace against one confidence unit *per table entry* (the
  paper: 2K entries means 2K confidence counters) and measure the
  accuracy/coverage trade-off;
* ``sud_configurations`` -- the paper's SUD sweep: "counters with a
  maximum value (number of states) of 5, 10, 20, and 40, miss penalties of
  1, 2, 5, 10, and full, and ... thresholds of 50% 80% and 90%".

Accuracy is "the percent of value predictions that were marked as
confident, that were in fact correct"; coverage is "the percent of correct
value predictions that were allowed through by the confidence predictor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.automata.moore import MooreMachine
from repro.predictors.resetting import ResettingCounter
from repro.predictors.sud import FULL_DECREMENT, SaturatingUpDownCounter
from repro.valuepred.stride import TwoDeltaStridePredictor
from repro.workloads.trace import LoadTrace


@dataclass(frozen=True)
class ConfidenceOutcome:
    """One replayed load: which entry it hit and whether the value
    prediction was correct."""

    entry_index: int
    correct: bool


@dataclass
class ConfidenceStats:
    """Accuracy/coverage accounting for one confidence configuration."""

    label: str = ""
    total: int = 0
    correct_total: int = 0
    confident: int = 0
    confident_correct: int = 0

    def record(self, is_confident: bool, is_correct: bool) -> None:
        self.total += 1
        if is_correct:
            self.correct_total += 1
        if is_confident:
            self.confident += 1
            if is_correct:
                self.confident_correct += 1

    @property
    def accuracy(self) -> float:
        """Of the predictions marked confident, the fraction correct."""
        if self.confident == 0:
            return 1.0  # vacuously accurate: nothing was let through
        return self.confident_correct / self.confident

    @property
    def coverage(self) -> float:
        """Of the correct predictions, the fraction marked confident."""
        if self.correct_total == 0:
            return 0.0
        return self.confident_correct / self.correct_total

    def __str__(self) -> str:
        return (
            f"{self.label or 'confidence'}: accuracy={self.accuracy:.3f} "
            f"coverage={self.coverage:.3f} (n={self.total})"
        )


def correctness_trace(
    loads: LoadTrace, num_entries: int = 2048
) -> Tuple[List[int], List[int]]:
    """Run the stride predictor over ``loads``.

    Returns ``(entry_indices, correct_bits)`` -- parallel lists, one
    element per dynamic load.  A table miss (no prediction available)
    counts as an incorrect prediction, matching how a real pipeline could
    not have used the value.
    """
    predictor = TwoDeltaStridePredictor(num_entries=num_entries)
    indices: List[int] = []
    bits: List[int] = []
    for pc, actual in loads:
        predicted = predictor.predict(pc)
        bits.append(1 if predicted == actual else 0)
        indices.append(predictor.index_of(pc))
        predictor.update(pc, actual)
    return indices, bits


def _banked_confidence(
    indices: Sequence[int],
    bits: Sequence[int],
    machine: MooreMachine,
    label: str,
) -> Optional[ConfidenceStats]:
    """Replay an entry-banked confidence sweep through
    :func:`repro.perf.batched.banked_replay`, or return ``None`` when the
    inputs are too short to pay for array setup or are not clean 0/1
    columns.
    """
    from repro.perf import batched

    if len(indices) < batched.BATCH_THRESHOLD:
        return None
    np = batched._np
    try:
        idx = np.asarray(indices, dtype=np.int64)
        ev = np.asarray(bits, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if idx.ndim != 1 or ev.ndim != 1 or idx.shape != ev.shape:
        return None
    if not ((ev == 0) | (ev == 1)).all():
        return None
    result = batched.banked_replay(
        machine.transitions, machine.start, idx, ev
    )
    outputs = np.asarray(machine.outputs, dtype=np.int64)
    confident = outputs[result.pre_states] == 1
    n = int(ev.shape[0])
    return ConfidenceStats(
        label=label,
        total=n,
        correct_total=int(ev.sum()),
        confident=int(confident.sum()),
        confident_correct=int((ev[confident] == 1).sum()),
    )


def evaluate_counter_confidence(
    indices: Sequence[int],
    bits: Sequence[int],
    counter_factory: Callable[[], object],
    label: str = "",
) -> ConfidenceStats:
    """Replay a correctness trace with one counter per table entry.

    ``counter_factory`` builds anything with ``predict() -> bool`` and
    ``update(event: bool)`` (SUD counters, resetting counters, or an
    :class:`~repro.predictors.fsm.FSMPredictor`).  Factories whose units
    expose ``as_moore()`` (SUD and resetting counters) take the banked
    fast path: the whole entry table advances through one
    :func:`~repro.perf.batched.banked_replay` call.
    """
    probe = counter_factory()
    as_moore = getattr(probe, "as_moore", None)
    if callable(as_moore):
        stats = _banked_confidence(indices, bits, as_moore(), label)
        if stats is not None:
            return stats
    stats = ConfidenceStats(label=label)
    units: Dict[int, object] = {}
    for index, bit in zip(indices, bits):
        unit = units.get(index)
        if unit is None:
            unit = counter_factory()
            units[index] = unit
        stats.record(unit.predict(), bool(bit))
        unit.update(bool(bit))
    return stats


def evaluate_fsm_confidence(
    indices: Sequence[int],
    bits: Sequence[int],
    machine: MooreMachine,
    label: str = "",
) -> ConfidenceStats:
    """Replay a correctness trace with one FSM state register per entry.

    Functionally ``evaluate_counter_confidence`` with an FSM unit, but
    implemented on the raw transition table because this inner loop runs
    millions of times in the Figure 2 sweep; long traces advance the whole
    bank through one :func:`~repro.perf.batched.banked_replay`.
    """
    batched_stats = _banked_confidence(indices, bits, machine, label)
    if batched_stats is not None:
        return batched_stats
    stats = ConfidenceStats(label=label)
    outputs = machine.outputs
    transitions = machine.transitions
    start = machine.start
    states: Dict[int, int] = {}
    get_state = states.get
    for index, bit in zip(indices, bits):
        state = get_state(index, start)
        stats.record(bool(outputs[state]), bool(bit))
        states[index] = transitions[state][bit]
    return stats


def sud_configurations() -> List[Tuple[str, Callable[[], SaturatingUpDownCounter]]]:
    """The paper's SUD sweep as (label, factory) pairs.

    Max values 5/10/20/40 states, wrong decrements 1/2/5/10/full, and
    confidence thresholds at 50%, 80% and 90% of the saturation value.
    """
    configurations: List[Tuple[str, Callable[[], SaturatingUpDownCounter]]] = []
    for num_states in (5, 10, 20, 40):
        max_value = num_states - 1
        for decrement in (1, 2, 5, 10, FULL_DECREMENT):
            for threshold_pct in (50, 80, 90):
                threshold = max(1, round(max_value * threshold_pct / 100))
                dec_label = "full" if decrement == FULL_DECREMENT else str(decrement)
                label = f"sud-m{max_value}-d{dec_label}-t{threshold_pct}"

                def factory(
                    max_value: int = max_value,
                    decrement: int = decrement,
                    threshold: int = threshold,
                ) -> SaturatingUpDownCounter:
                    return SaturatingUpDownCounter(
                        max_value=max_value,
                        increment=1,
                        decrement=decrement,
                        threshold=threshold,
                    )

                configurations.append((label, factory))
    return configurations


def resetting_configurations() -> List[Tuple[str, Callable[[], ResettingCounter]]]:
    """Resetting-counter sweep (Jacobsen et al.), used by the extended
    confidence comparison."""
    configurations: List[Tuple[str, Callable[[], ResettingCounter]]] = []
    for max_value in (4, 8, 16, 32):
        for threshold in sorted({max_value // 2, (max_value * 4) // 5, max_value}):
            if threshold < 1:
                continue
            label = f"reset-m{max_value}-t{threshold}"

            def factory(
                max_value: int = max_value, threshold: int = threshold
            ) -> ResettingCounter:
                return ResettingCounter(max_value=max_value, threshold=threshold)

            configurations.append((label, factory))
    return configurations
