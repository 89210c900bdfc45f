"""Batch Moore-machine simulation.

``MooreMachine.step``/``trace_outputs`` cost a Python-level dict/tuple walk
per symbol; figure runs consume hundreds of thousands of symbols per
machine.  :class:`CompiledMoore` lowers the binary-alphabet machine to dense
integer arrays and simulates whole traces at once:

1. Precompose the transition function over *blocks* of ``B`` bits: one table
   lookup advances a state ``B`` symbols.  The table is built by doubling
   (compose the ``k``-bit table with itself), so construction is a handful of
   vectorized gathers.
2. A short Python loop over the ``T/B`` blocks threads the start state of
   each block through the table.
3. ``B`` vectorized gathers expand every block's interior states in
   parallel across all blocks.

The result is exactly the state/output sequence of the per-symbol loop --
the equivalence property tests in ``tests/perf`` hold compiled and
interpreted runs bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover
    from repro.automata.moore import MooreMachine

BINARY = ("0", "1")


def _block_bits(num_states: int) -> int:
    """Block width: biggest table that stays a few MB."""
    if num_states <= 16:
        return 16
    if num_states <= 256:
        return 12
    return 8


class CompiledMoore:
    """A binary-alphabet Moore machine lowered to dense arrays.

    ``run_states(bits)`` returns the state *after* each consumed bit and
    ``run_bits(bits)`` the corresponding outputs (the batch analogue of
    :meth:`MooreMachine.trace_outputs`).  Prediction-style consumers want
    the output of the state *before* each bit; prepend the start state to
    ``run_states`` output and drop the last entry.
    """

    def __init__(self, machine: "MooreMachine") -> None:
        if tuple(machine.alphabet) != BINARY:
            raise ValueError(
                f"CompiledMoore requires the binary alphabet, got {machine.alphabet}"
            )
        self.machine = machine
        self.start = machine.start
        self.num_states = machine.num_states
        self._delta_list: List[List[int]] = [list(r) for r in machine.transitions]
        n = self.num_states
        self._delta = _np.asarray(machine.transitions, dtype=_np.int64)
        self._outputs = _np.asarray(machine.outputs, dtype=_np.int64)
        self.block_bits = _block_bits(n)
        # table[p, s] = state after consuming the B bits of pattern ``p``
        # (first-consumed bit in the LSB) starting from ``s``.  Built by
        # doubling power-of-two tables, then composing the set bits of B
        # lowest-first; each composition is r[hi, lo, s] = t_hi[hi, t_lo[lo, s]]
        # so the flattened pattern index is (hi << lo_bits) | lo.
        pow_tables = {1: self._delta.T.copy()}  # shape (2, n)
        k = 1
        while 2 * k <= self.block_bits:  # no powers beyond B's top bit
            t = pow_tables[k]
            pow_tables[2 * k] = t[:, t].reshape(-1, n)
            k *= 2
        table = None
        for k in sorted(pow_tables):
            if not self.block_bits & k:
                continue
            t = pow_tables[k]
            table = t if table is None else t[:, table].reshape(-1, n)
        self._block_table = table

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def run_states(self, bits: Sequence[int], start: Optional[int] = None):
        """State after each consumed bit, as a numpy array."""
        state = self.start if start is None else start
        bits_arr = _np.asarray(bits, dtype=_np.int64)
        T = bits_arr.shape[0]
        if T == 0:
            return _np.empty(0, dtype=_np.int64)
        B = self.block_bits
        nblocks = T // B
        states = _np.empty(T, dtype=_np.int64)
        if nblocks:
            blocked = bits_arr[: nblocks * B].reshape(nblocks, B)
            weights = _np.left_shift(
                _np.int64(1), _np.arange(B, dtype=_np.int64)
            )
            patterns = blocked @ weights
            if self.num_states <= 64:
                # Each block is a composed map over the state set; a
                # pairwise composition scan threads the start state through
                # all blocks without a per-block Python loop.
                maps = self._block_table[patterns]
                starts, state = _scan_starts(maps, state)
            else:
                # Wide state sets make whole-map composition cost more than
                # it saves; walk the (B× shortened) block sequence instead.
                starts = _np.empty(nblocks, dtype=_np.int64)
                table = self._block_table
                s = state
                for i, p in enumerate(patterns.tolist()):
                    starts[i] = s
                    s = table[p, s]
                state = int(s)
            # Expand block interiors: one gather per bit position, across
            # all blocks at once.
            delta_flat = self._delta.ravel()
            cur = starts
            mat = states[: nblocks * B].reshape(nblocks, B)
            for j in range(B):
                cur = delta_flat[2 * cur + blocked[:, j]]
                mat[:, j] = cur
            # mat writes land in `states` via the reshape view.
        for k in range(nblocks * B, T):
            state = self._delta_list[state][int(bits_arr[k])]
            states[k] = state
        return states

    def run_bits(self, bits: Sequence[int], start: Optional[int] = None):
        """Outputs of the states visited while consuming ``bits`` -- the
        batch form of :meth:`MooreMachine.trace_outputs`."""
        return self._outputs[self.run_states(bits, start=start)]

    def final_state(self, bits: Sequence[int], start: Optional[int] = None) -> int:
        states = self.run_states(bits, start=start)
        if len(states) == 0:
            return self.start if start is None else start
        return int(states[-1])


def _scan_starts(maps: "_np.ndarray", state: int):
    """Thread ``state`` through a sequence of state maps.

    ``maps[i, s]`` is block ``i``'s composed transition.  Returns the state
    *before* each block plus the final state.  Recursion composes adjacent
    pairs (``odd ∘ even``) until few enough maps remain to walk directly;
    the down-sweep recovers odd-position starts with one gather per level.
    Total work is O(num_maps × num_states) gathered elements -- no
    per-block Python loop.
    """
    m = maps.shape[0]
    if m <= 64:
        starts = _np.empty(m, dtype=_np.int64)
        rows = maps.tolist()
        s = state
        for i in range(m):
            starts[i] = s
            s = rows[i][s]
        return starts, s
    half = m // 2
    even = maps[0 : 2 * half : 2]
    odd = maps[1 : 2 * half : 2]
    pairs = _np.take_along_axis(odd, even, axis=1)  # odd∘even per pair
    if m % 2:
        pairs = _np.concatenate([pairs, maps[-1:]])
    super_starts, final = _scan_starts(pairs, state)
    starts = _np.empty(m, dtype=_np.int64)
    starts[0::2] = super_starts[: m - half]
    starts[1::2] = _np.take_along_axis(
        even, super_starts[:half, None], axis=1
    )[:, 0]
    return starts, final
