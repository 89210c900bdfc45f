"""Order-N Markov models of binary behaviour traces (Section 4.2).

"An Nth order Markov Model is a table of size 2^N which contains
P[1 | last N inputs] for each of the possible 2^N last N inputs in the
trace."  The model is the statistical summary every later pipeline stage
works from; it stores raw counts so the pattern-definition stage can both
compute biases and identify rarely-seen histories for the don't-care set.

Histories are encoded as integers: bit 0 is the **most recent** outcome and
bit N-1 the oldest, so the integer read MSB-first as a bit string shows the
history in arrival order (the paper's notation).  Example: after the inputs
``0, 1`` (oldest first) with N=2 the history integer is ``0b01``, printed
``"01"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.reliability.errors import TraceError

# Below this many observations the per-element loop beats array setup.
_BATCH_THRESHOLD = 1024


@dataclass
class MarkovModel:
    """Counts of next-bit outcomes conditioned on the last-N-bit history.

    Sparse by design: the paper notes the models "can be compressed down
    significantly by only storing non-zero entries" (Section 7.3), which is
    what a dict of counts gives us.
    """

    order: int
    ones: Dict[int, int] = field(default_factory=dict)
    totals: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Sequence[int], order: int) -> "MarkovModel":
        """Build a model from a 0/1 trace by sliding a window of length
        ``order`` and counting the bit that follows each window."""
        model = cls(order=order)
        model.update_from_trace(trace)
        return model

    @classmethod
    def from_bit_string(cls, bits: str, order: int) -> "MarkovModel":
        """Convenience: train from a string like ``"00001000..."``; spaces
        are ignored (the paper groups traces in fours for readability)."""
        cleaned = bits.replace(" ", "")
        return cls.from_trace([int(ch) for ch in cleaned], order)

    def update_from_trace(self, trace: Sequence[int]) -> None:
        """Accumulate an additional trace into the model."""
        n = self.order
        if len(trace) <= n:
            return
        if len(trace) - n >= _BATCH_THRESHOLD:
            bits = _as_bit_array(trace)
            if bits is not None:
                # History bit j-1 holds the outcome j steps back, so the
                # whole history column is a sum of shifted trace slices.
                length = bits.shape[0]
                outcomes = bits[n:]
                hist = _np.zeros(length - n, dtype=_np.int64)
                for j in range(1, n + 1):
                    hist += bits[n - j : length - j] << (j - 1)
                self._accumulate_keys((hist << 1) | outcomes)
                return
        mask = (1 << n) - 1
        history = 0
        for bit in trace[:n]:
            history = ((history << 1) | _check_bit(bit)) & mask
        ones = self.ones
        totals = self.totals
        for bit in trace[n:]:
            bit = _check_bit(bit)
            totals[history] = totals.get(history, 0) + 1
            if bit:
                ones[history] = ones.get(history, 0) + 1
            history = ((history << 1) | bit) & mask

    def observe(self, history: int, outcome: int) -> None:
        """Record a single (history, next-bit) observation.

        Used by the branch-prediction flow, where each static branch has its
        own model fed with the *global* history at the time the branch
        executed (Section 7.3).
        """
        self.totals[history] = self.totals.get(history, 0) + 1
        if _check_bit(outcome):
            self.ones[history] = self.ones.get(history, 0) + 1

    def observe_trace(
        self, histories: Sequence[int], outcomes: Sequence[int]
    ) -> None:
        """Batch :meth:`observe`: accumulate aligned (history, outcome)
        columns in one pass.  The branch-training flow preconverts whole
        traces to arrays and feeds per-branch slices here instead of calling
        ``observe`` once per executed branch.
        """
        if len(histories) != len(outcomes):
            raise ValueError("histories and outcomes must be the same length")
        if len(histories) >= _BATCH_THRESHOLD:
            hist = _np.asarray(histories, dtype=_np.int64)
            outs = _as_bit_array(outcomes)
            if outs is not None:
                self._accumulate_keys((hist << 1) | outs)
                return
        for history, outcome in zip(histories, outcomes):
            self.observe(int(history), int(outcome))

    def _accumulate_keys(self, keys: "_np.ndarray") -> None:
        """Fold composite ``(history << 1) | outcome`` keys into the count
        dicts.  ``np.unique`` reduces millions of observations to one dict
        update per distinct (history, outcome) pair; counts land as plain
        Python ints.
        """
        uniq, counts = _np.unique(keys, return_counts=True)
        totals = self.totals
        ones = self.ones
        for key, count in zip(uniq.tolist(), counts.tolist()):
            history = key >> 1
            totals[history] = totals.get(history, 0) + count
            if key & 1:
                ones[history] = ones.get(history, 0) + count

    def merge(self, other: "MarkovModel") -> "MarkovModel":
        """Combine two models of the same order (used for aggregate traces
        and cross-training, Section 6.3)."""
        if other.order != self.order:
            raise ValueError("cannot merge models of different order")
        merged = MarkovModel(order=self.order)
        for src in (self, other):
            for h, c in src.totals.items():
                merged.totals[h] = merged.totals.get(h, 0) + c
            for h, c in src.ones.items():
                merged.ones[h] = merged.ones.get(h, 0) + c
        return merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_histories(self) -> int:
        """Number of distinct histories observed."""
        return len(self.totals)

    @property
    def total_observations(self) -> int:
        return sum(self.totals.values())

    def count(self, history: int) -> int:
        """How many times ``history`` was observed."""
        return self.totals.get(history, 0)

    def probability_of_one(self, history: int) -> Optional[float]:
        """``P[1 | history]``, or None when the history was never seen."""
        total = self.totals.get(history, 0)
        if total == 0:
            return None
        return self.ones.get(history, 0) / total

    def histories(self) -> Iterator[int]:
        """Observed histories in ascending integer order."""
        return iter(sorted(self.totals))

    def history_string(self, history: int) -> str:
        """Render a history integer as the paper's bit-string notation
        (oldest bit first)."""
        if self.order == 0:
            return ""
        return format(history, f"0{self.order}b")

    def as_table(self) -> List[Tuple[str, int, Optional[float]]]:
        """Rows of (history string, count, P[1|history]) for reporting."""
        return [
            (self.history_string(h), self.count(h), self.probability_of_one(h))
            for h in self.histories()
        ]

    def truncated(self, order: int) -> "MarkovModel":
        """Project the model onto a shorter history length.

        Counts for histories sharing the same most-recent ``order`` bits are
        summed; used to sweep history lengths from one profiling pass.
        """
        if order > self.order:
            raise ValueError("cannot extend a Markov model; re-profile instead")
        if order == self.order:
            return self
        mask = (1 << order) - 1
        smaller = MarkovModel(order=order)
        for h, total in self.totals.items():
            key = h & mask
            smaller.totals[key] = smaller.totals.get(key, 0) + total
        for h, ones in self.ones.items():
            key = h & mask
            smaller.ones[key] = smaller.ones.get(key, 0) + ones
        return smaller

    def __str__(self) -> str:
        lines = [f"MarkovModel(order={self.order}, observations={self.total_observations})"]
        for history, count, prob in self.as_table():
            prob_text = "n/a" if prob is None else f"{prob:.3f}"
            lines.append(f"  P[1|{history}] = {prob_text}  (seen {count}x)")
        return "\n".join(lines)


def _check_bit(bit: int) -> int:
    if bit not in (0, 1):
        raise TraceError(
            f"trace element {bit!r} is not a 0/1 outcome", stage="profile"
        )
    return bit


def _as_bit_array(trace: Sequence[int]) -> Optional["_np.ndarray"]:
    """Convert ``trace`` to a validated int64 0/1 array, or ``None`` when
    the input is not array-convertible (caller falls back to the loop)."""
    try:
        bits = _np.asarray(trace, dtype=_np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if bits.ndim != 1:
        return None
    invalid = (bits != 0) & (bits != 1)
    if invalid.any():
        bad = bits[invalid][0]
        raise TraceError(
            f"trace element {int(bad)!r} is not a 0/1 outcome", stage="profile"
        )
    return bits


def history_push(history: int, bit: int, order: int) -> int:
    """Shift ``bit`` into ``history`` as the newest outcome (helper shared
    by the runtime predictors and the trainers)."""
    mask = (1 << order) - 1
    return ((history << 1) | bit) & mask
