"""Moore-machine simulation kernels.

``MooreMachine.step``/``trace_outputs`` cost a Python-level walk per
symbol; figure runs consume hundreds of thousands of symbols per machine,
and the opt(k) oracle simulates every canonical k-state structure.  Two
kernels cover every shape:

``BatchedMoore``
    M machines consuming the **same** bit stream: one designed machine
    (the stack ``[machine]``), a designed-FSM family under the update-all
    policy of Section 7.3, a GA population, or an oracle shard given as
    one ``(M, k, 2)`` transition array.  Transition tables are stacked and
    padded to the widest state count.  Transitions are precomposed over
    *blocks* of ``B`` bits, so one lookup advances a state ``B`` symbols;
    a walk threads every machine's state through the block sequence, and
    ``B`` gathers then expand every block's interior in parallel.  The
    block width and the walk (one flat gather per block, or a chunked
    scan for small stacks) follow from the shape ``(M, S, N)`` alone; see
    :func:`_plan`.  :meth:`BatchedMoore.visit_counts` reads per-(state,
    bit) visit counts from the same walk, one ``bincount`` per block
    position.

``banked_replay``
    One machine replicated across the entries of an indexed table (gshare
    counters, LGC banks, per-entry confidence units).  Each entry consumes
    the subsequence of events that hit its index.  A stable sort groups
    events by entry, block tables advance every entry's segment in
    parallel, and an interior-expansion pass recovers the state *before*
    every event -- exactly what table predictors read.  A masked-update
    variant (``update_mask``) models the LGC chooser, which is read on
    every branch but trained only on disagreement.

Both kernels are bit-identical to the per-event loops they replace; the
``tests/perf`` property suites pin them against
:mod:`repro.conformance.oracles` (``oracle_moore_outputs``,
``oracle_banked_replay``).  Callers keep those loops for inputs below
:data:`BATCH_THRESHOLD`, where array setup costs more than it saves.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as _np

# Below this many events the per-event loop beats array setup.
BATCH_THRESHOLD = 2048


def _block_bits(num_states: int) -> int:
    """Block width of :func:`banked_replay`: biggest table that stays a
    few MB."""
    if num_states <= 16:
        return 16
    if num_states <= 256:
        return 12
    return 8


def backend_info() -> Dict[str, object]:
    """The active simulation backend, for bench snapshots and logs."""
    return {
        "backend": f"numpy-{_np.__version__}",
        "max_block_bits": _block_bits(2),
    }


def _check_binary(machine) -> None:
    if tuple(machine.alphabet) != ("0", "1"):
        raise ValueError(
            f"batched kernels require the binary alphabet, got {machine.alphabet}"
        )


# ----------------------------------------------------------------------
# Kernel A: M machines x one shared bit stream
# ----------------------------------------------------------------------

#: Cost model behind :func:`_plan`, in units of one gathered element
#: (measured on a 2-vCPU x86 host): the fixed overhead of one numpy
#: call, and the build cost of one block-table element including its
#: doubling intermediates.
_CALL_COST = 600
_BUILD_COST = 2
#: Block tables stay under this many int32 elements (16 MB).
_MAX_TABLE = 1 << 22
#: Encoded elements per :meth:`BatchedMoore.visit_counts` chunk.
_COUNT_CHUNK = 1 << 22


def _plan(M: int, S: int, N: int) -> Tuple[bool, int]:
    """``(direct, B)`` for M machines of at most S states over N bits.

    A direct walk step gathers one state per machine and costs about a
    numpy call; a chunked-scan step composes all S states of every
    machine (see :meth:`BatchedMoore._block_starts`), so the walk follows
    from the shape alone.  ``B`` minimizes the modeled table build
    (``M*S*2**B`` elements) plus the walk over ``N/B`` blocks; it never
    shrinks as ``N`` grows.
    """
    direct = M * S > _CALL_COST
    step = _CALL_COST + M if direct else M * (S + 1)
    widths = [1] + [b for b in range(2, 17) if (M * S) << b <= _MAX_TABLE]
    return direct, min(
        widths, key=lambda b: ((M * S) << b) * _BUILD_COST + N * step / b
    )


class BatchedMoore:
    """A stack of binary-alphabet Moore machines lowered to one table.

    ``run_states(bits)`` returns the ``(M, N)`` matrix of states *after*
    each consumed bit, machine ``m``'s row bit-identical to
    ``machines[m]``'s own walk; one machine is the stack ``[machine]``.
    Machines may have heterogeneous state counts; tables are padded to
    the widest machine with self-loop rows that no reachable state ever
    indexes.
    """

    def __init__(self, machines: Iterable[object]) -> None:
        machines = list(machines)
        if not machines:
            raise ValueError("BatchedMoore needs at least one machine")
        for machine in machines:
            _check_binary(machine)
        M = len(machines)
        S = max(m.num_states for m in machines)
        delta = _np.tile(
            _np.arange(S, dtype=_np.int64)[None, :, None], (M, 1, 2)
        )
        outputs = _np.zeros((M, S), dtype=_np.int64)
        for m, machine in enumerate(machines):
            n = machine.num_states
            delta[m, :n, :] = _np.asarray(machine.transitions, dtype=_np.int64)
            outputs[m, :n] = _np.asarray(machine.outputs, dtype=_np.int64)
        self._lower(delta, outputs, [m.start for m in machines])

    @classmethod
    def from_tables(cls, delta) -> "BatchedMoore":
        """A stack given as one array, ``delta[m, s, bit]`` machine
        ``m``'s successor of ``s``; every machine starts in state 0 and
        outputs 0 (what :meth:`visit_counts` callers need)."""
        delta = _np.asarray(delta, dtype=_np.int64)
        M, S = delta.shape[:2]
        stack = cls.__new__(cls)
        stack._lower(delta, _np.zeros((M, S), dtype=_np.int64), [0] * M)
        return stack

    def _lower(self, delta, outputs, starts) -> None:
        M, S = delta.shape[:2]
        self.num_machines, self.max_states = M, S
        self._starts_arr = _np.asarray(starts, dtype=_np.int64)
        self._base_q = _np.arange(M, dtype=_np.int64) * S
        # Narrow state values: block-table builds and scans are
        # memory-bound, so the element size is a direct cost.
        vdt = _np.uint8 if S <= 256 else _np.uint16 if S <= 65536 else _np.int32
        self._step = delta.transpose(0, 2, 1).astype(vdt)  # (M, 2, S)
        # The per-bit delta with the machine offset *and* the output bit
        # folded into the value: enc[m, s, b] = ((m*S + s') << 1) |
        # out[m, s'].  Advancing the whole stack one bit is then a single
        # add plus a single flat gather, and run_outputs is a bit mask.
        midx = _np.arange(M, dtype=_np.int64)
        enc = (
            ((self._base_q[:, None, None] + delta) << 1)
            | outputs[midx[:, None, None], delta]
        )
        self._enc_delta_flat = _np.ascontiguousarray(
            enc, dtype=_np.int32
        ).reshape(-1)
        self._tables: Dict[int, object] = {}

    def _table(self, B: int):
        """The width-``B`` block table, flat int32, built once per width.

        Entry ``m*P*S + p*S + s`` (``P = 2**B``) holds ``m*P*S + s'``:
        machine ``m`` in state ``s`` reaches ``s'`` after consuming the
        ``B`` bits of pattern ``p`` (first-consumed bit in the LSB).  The
        machine offset in the value makes a step one add and one flat
        gather.  Built by doubling power-of-two tables, then composing the
        set bits of ``B`` lowest-first.
        """
        table = self._tables.get(B)
        if table is None:
            M, S = self.num_machines, self.max_states
            pow_tables = {1: self._step}
            k = 1
            while 2 * k <= B:
                pow_tables[2 * k] = _compose_batch(pow_tables[k], pow_tables[k])
                k *= 2
            composed = None
            for k in sorted(pow_tables):
                if B & k:
                    t = pow_tables[k]
                    composed = t if composed is None else _compose_batch(t, composed)
            base = _np.arange(M, dtype=_np.int32) * ((1 << B) * S)
            table = (composed + base[:, None, None]).reshape(-1)
            self._tables[B] = table
        return table

    # ------------------------------------------------------------------
    def _start_codes(self):
        """Encoded start states ``(m*S + s) << 1`` (output bit clear)."""
        return ((self._base_q + self._starts_arr) << 1).astype(_np.int32)

    def _blocks(self, bits_arr, c, plan):
        """Split ``bits_arr`` into ``B``-bit blocks and find every
        machine's encoded state before each, starting from ``c``.

        Returns ``(blk, pre)``: ``blk[j]`` the bit at position ``j`` of
        every block (``(B, nblocks)`` int32) and ``pre`` the ``(M,
        nblocks)`` encoded pre-block states, output bit clear.
        """
        direct, B = plan
        nblocks = bits_arr.shape[0] // B
        if not nblocks:
            empty = _np.empty((0, 0), dtype=_np.int32)
            return empty, empty.reshape(self.num_machines, 0)
        blocked = bits_arr[: nblocks * B].reshape(nblocks, B)
        patterns = blocked @ _np.left_shift(1, _np.arange(B))
        states = (c >> 1) - self._base_q.astype(_np.int32)
        starts = self._block_starts(patterns, states, B, direct)
        pre = ((self._base_q[:, None] + starts) << 1).astype(_np.int32)
        return _np.ascontiguousarray(blocked.T).astype(_np.int32), pre

    def _run(self, bits):
        """The ``(M, N)`` encoded states ``((m*S + s) << 1) | out[m, s]``
        after each bit."""
        bits_arr = _np.asarray(bits, dtype=_np.int64)
        M, N = self.num_machines, bits_arr.shape[0]
        plan = _plan(M, self.max_states, N)
        enc = _np.empty((M, N), dtype=_np.int32)
        enc_flat = self._enc_delta_flat
        c = self._start_codes()
        blk, pre = self._blocks(bits_arr, c, plan)
        nblocks = pre.shape[1]
        if nblocks:
            # Interior expansion: one add + one flat gather per bit
            # position, across all machines and all blocks at once.
            mat = enc[:, : blk.size].reshape(M, nblocks, -1)
            for j, col in enumerate(blk):
                pre = enc_flat.take((pre & -2) + col)
                mat[:, :, j] = pre
            c = pre[:, -1]
        for k in range(blk.size, N):
            c = enc_flat.take((c & -2) + int(bits_arr[k]))
            enc[:, k] = c
        return enc

    def _block_starts(self, patterns, states, B: int, direct: bool):
        """The state of every machine before every block, ``(M, nblocks)``.

        Threading one state per machine through the block maps is the
        only sequential dependency in a run.  The *direct* walk takes one
        flat gather per block across the whole stack.  For small stacks
        that gather is mostly call overhead, so the *chunked scan* splits
        the ``nblocks`` blocks into ``C`` chunks of ``K`` and threads in
        three passes, each a short Python loop:

        1. compose every chunk's maps with a K-step walk of all S start
           states, vectorized over machines and chunks;
        2. thread the start state through the C chunk maps;
        3. recover per-block starts inside every chunk with a second
           K-step walk from the chunk entry states.
        """
        M, S = self.num_machines, self.max_states
        nblocks = patterns.shape[0]
        table = self._table(B)
        base = _np.arange(M, dtype=_np.int32) * ((1 << B) * S)
        scaled = (patterns * S).astype(_np.int32)
        if direct:
            rows = _np.empty((nblocks, M), dtype=_np.int32)
            c = base + states
            for i, off in enumerate(scaled.tolist()):
                rows[i] = c
                c = table.take(c + off)
            return rows.T - base[:, None]
        C = max(1, min(nblocks, math.isqrt(2 * nblocks)))
        K = -(-nblocks // C)
        # Pad the tail chunk with pattern 0: its garbage composition is
        # never read (entries stop at the last real chunk, and pass 3's
        # padded starts are sliced off).
        padded = _np.zeros(C * K, dtype=_np.int32)
        padded[:nblocks] = scaled
        cols = _np.ascontiguousarray(padded.reshape(C, K).T)  # (K, C)
        # Pass 1: chunk maps.
        x = _np.broadcast_to(
            base[:, None, None] + _np.arange(S, dtype=_np.int32), (M, C, S)
        )
        for j in range(K):
            x = table.take(x + cols[j][:, None])
        chunk_maps = (x - base[:, None, None]).reshape(-1)
        # Pass 2: thread the start state through the chunk maps.
        entries = _np.empty((C, M), dtype=_np.int32)
        map_base = _np.arange(M, dtype=_np.int32) * (C * S)
        s = states
        for ci in range(C):
            entries[ci] = s
            s = chunk_maps.take(map_base + ci * S + s)
        # Pass 3: per-block starts inside each chunk.
        starts = _np.empty((M, C, K), dtype=_np.int32)
        c = base[:, None] + entries.T
        for j in range(K):
            starts[:, :, j] = c
            c = table.take(c + cols[j])
        return starts.reshape(M, C * K)[:, :nblocks] - base[:, None]

    # ------------------------------------------------------------------
    def run_states(self, bits: Sequence[int]):
        """States after each consumed bit: ``(M, N)`` array."""
        enc = self._run(bits)
        return (enc >> 1) - self._base_q.astype(_np.int32)[:, None]

    def pre_states(self, bits: Sequence[int]):
        """States *before* each consumed bit (prediction-style reads)."""
        after = self.run_states(bits)
        M, N = after.shape
        before = _np.empty_like(after)
        before[:, 0:1] = self._starts_arr[:, None] if N else 0
        if N > 1:
            before[:, 1:] = after[:, :-1]
        return before

    def run_outputs(self, bits: Sequence[int]):
        """Outputs of the visited states -- the stacked analogue of
        :meth:`MooreMachine.trace_outputs`."""
        # The output bit rides in the encoded state's LSB: no gather.
        return self._run(bits) & 1

    def final_states(self, bits: Sequence[int]):
        after = self.run_states(bits)
        if after.shape[1] == 0:
            return self._starts_arr.copy()
        return after[:, -1].copy()

    def visit_counts(self, bits: Sequence[int]):
        """``counts[m, s, b]``: how often machine ``m`` was in state ``s``
        when bit ``b`` arrived, ``(M, S, 2)``.

        The stream is walked in chunks of about :data:`_COUNT_CHUNK`
        encoded elements, each chunk starting from the previous chunk's
        end states.  Stepping from an output-free encoded pre-state, the
        gather index ``pre + bit`` is the count slot of ``(m, s, bit)``,
        so each block position's slots land with one ``bincount``.
        """
        bits_arr = _np.asarray(bits, dtype=_np.int64)
        M, S = self.num_machines, self.max_states
        plan = _plan(M, S, bits_arr.shape[0])
        B = plan[1]
        even = self._enc_delta_flat & -2  # the stepping table, outputs off
        counts = _np.zeros(2 * M * S, dtype=_np.int64)
        c = self._start_codes()
        step = max(B, _COUNT_CHUNK // M // B * B)
        for lo in range(0, bits_arr.shape[0], step):
            chunk = bits_arr[lo : lo + step]
            blk, pre = self._blocks(chunk, c, plan)
            for col in blk:
                slots = pre + col
                pre = even.take(slots)
                counts += _np.bincount(slots.reshape(-1), minlength=2 * M * S)
            if pre.shape[1]:
                c = pre[:, -1]
            for bit in chunk[blk.size :].tolist():
                slots = c + bit
                c = even.take(slots)
                counts[slots] += 1
        return counts.reshape(M, S, 2)


def _compose_batch(hi, lo):
    """Compose stacked pattern tables: ``r[m, h*P_lo + l, s] =
    hi[m, h, lo[m, l, s]]`` (flattened pattern index ``(h << lo_bits) | l``,
    first-consumed bits low)."""
    M, P_hi, S = hi.shape
    rows = (_np.arange(M * P_hi, dtype=_np.int32) * S).reshape(M, P_hi, 1, 1)
    return hi.reshape(-1)[rows + lo[:, None, :, :]].reshape(M, -1, S)


# ----------------------------------------------------------------------
# Kernel B: one machine replicated over the entries of an indexed table
# ----------------------------------------------------------------------

class BankResult:
    """Output of :func:`banked_replay`.

    ``entries``
        The distinct indices touched, ascending.
    ``pre_states``
        Per event, the state of that event's entry *before* the event --
        what a table predictor reads.  Aligned with the input order.
    ``final_states``
        Per entry (aligned with ``entries``), the state after its last
        *applied* update.
    """

    __slots__ = ("entries", "pre_states", "final_states")

    def __init__(self, entries, pre_states, final_states) -> None:
        self.entries = entries
        self.pre_states = pre_states
        self.final_states = final_states


# Banked machines repeat across calls (every gshare size shares the 2-bit
# counter, every fig2 config its SUD table), so block tables are memoized
# per transition table.  Keys are the raw table bytes -- no aliasing.
_BANK_TABLE_CACHE: Dict[bytes, object] = {}


def _bank_block_table(delta, B: int, S: int):
    """Block table ``(2**B, S)``: power-of-two tables by doubling, the set
    bits of B composed lowest-first (first-consumed bit in the LSB)."""
    key = delta.tobytes() + bytes([B])
    cached = _BANK_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    pow_tables = {1: delta.T.copy()}  # (2, S)
    k = 1
    while 2 * k <= B:
        t = pow_tables[k]
        pow_tables[2 * k] = t[:, t].reshape(-1, S)
        k *= 2
    btab = None
    for k in sorted(pow_tables):
        if not B & k:
            continue
        t = pow_tables[k]
        btab = t if btab is None else t[:, btab].reshape(-1, S)
    if len(_BANK_TABLE_CACHE) > 256:  # unbounded growth guard
        _BANK_TABLE_CACHE.clear()
    _BANK_TABLE_CACHE[key] = btab
    return btab


def banked_replay(
    transitions: Sequence[Sequence[int]],
    start: int,
    indices,
    bits,
    update_mask=None,
    entry_initial: Optional[Callable[[Sequence[int]], Sequence[int]]] = None,
) -> BankResult:
    """Replay a bank of identical state machines, one per distinct index.

    Event ``i`` reads entry ``indices[i]`` (its pre-update state lands in
    ``pre_states[i]``) and, unless masked off by ``update_mask``, steps it
    along the edge labelled ``bits[i]``.  ``entry_initial``, when given,
    maps the touched-entry array to their per-entry initial states
    (default: every entry starts in ``start``).

    Semantically identical to the dict-of-states loop in
    :func:`repro.valuepred.confidence.evaluate_fsm_confidence`, but the
    whole bank advances in block steps regardless of how ragged the
    per-entry subsequences are.
    """
    idx = _np.asarray(indices, dtype=_np.int64)
    ev = _np.asarray(bits, dtype=_np.int64)
    N = idx.shape[0]
    S = len(transitions)
    if N == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return BankResult(empty, empty, empty.copy())
    order = _np.argsort(idx, kind="stable")
    sidx = idx[order]
    sbits = ev[order]

    new_seg = _np.empty(N, dtype=bool)
    new_seg[0] = True
    _np.not_equal(sidx[1:], sidx[:-1], out=new_seg[1:])
    seg_start_pos = _np.flatnonzero(new_seg)
    seg_ids = _np.cumsum(new_seg) - 1
    entries = sidx[seg_start_pos]
    G = entries.shape[0]

    if entry_initial is None:
        init = _np.full(G, start, dtype=_np.int64)
    else:
        init = _np.asarray(entry_initial(entries), dtype=_np.int64)

    delta = _np.asarray(transitions, dtype=_np.int64)  # (S, 2)
    B = _block_bits(S)
    btab = _bank_block_table(delta, B, S)

    # The applied (unmasked) events, grouped by segment.  ``L`` is the
    # applied count per segment and ``upd_base`` its exclusive prefix sum:
    # slot ``upd_base[g] + k`` of ``after_upd`` holds the state after
    # segment ``g``'s ``k``-th applied update.
    if update_mask is None:
        U = N
        seg_end_pos = _np.append(seg_start_pos[1:], N) - 1
        L = seg_end_pos - seg_start_pos + 1
        upd_base = seg_start_pos
        upd_seg = seg_ids
        upd_local = _np.arange(N, dtype=_np.int64) - seg_start_pos[seg_ids]
        upd_bits = sbits
    else:
        smask = _np.asarray(update_mask).astype(_np.int64)[order]
        upd = _np.flatnonzero(smask)
        U = upd.shape[0]
        L = (
            _np.bincount(seg_ids[upd], minlength=G)
            if U
            else _np.zeros(G, dtype=_np.int64)
        )
        upd_base = _np.concatenate(
            [_np.zeros(1, dtype=_np.int64), _np.cumsum(L)[:-1]]
        )
        if U:
            upd_seg = seg_ids[upd]
            upd_local = _np.arange(U, dtype=_np.int64) - upd_base[upd_seg]
            upd_bits = sbits[upd]

    after_upd = _np.empty(0, dtype=_np.int64)
    if U:
        nblk = (L + B - 1) // B
        blk_base = _np.concatenate(
            [_np.zeros(1, dtype=_np.int64), _np.cumsum(nblk)[:-1]]
        )
        total_blocks = int(nblk.sum())
        rows = blk_base[upd_seg] + upd_local // B
        cols = upd_local % B
        matrix = _np.zeros((total_blocks, B), dtype=_np.int64)
        matrix[rows, cols] = upd_bits
        weights = _np.left_shift(_np.int64(1), _np.arange(B, dtype=_np.int64))
        patterns = matrix @ weights

        # Per-segment block walk, one round per block position.  Segments
        # sorted by descending block count so each round's active set is a
        # prefix.  The zero-padded tail block leaves its segment's carry
        # state garbage, but nothing downstream reads it: final states come
        # from the interior expansion below.
        perm = _np.argsort(-nblk, kind="stable")
        cur_p = init[perm].copy()
        blk_base_p = blk_base[perm]
        nblk_sorted = -_np.sort(-nblk)
        starts_blk = _np.empty(total_blocks, dtype=_np.int64)
        max_rounds = int(nblk_sorted[0])
        for r in range(max_rounds):
            k_active = int(
                _np.searchsorted(-nblk_sorted, -(r + 1), side="right")
            )
            pos = blk_base_p[:k_active] + r
            starts_blk[pos] = cur_p[:k_active]
            cur_p[:k_active] = btab[patterns[pos], cur_p[:k_active]]

        # Interior expansion: state after every applied event.
        delta_flat = delta.reshape(-1)
        cur_b = starts_blk
        after_mat = _np.empty((total_blocks, B), dtype=_np.int64)
        for j in range(B):
            cur_b = delta_flat[2 * cur_b + matrix[:, j]]
            after_mat[:, j] = cur_b
        after_upd = after_mat[rows, cols]

    # Pre-update state per event: the state after the last applied update
    # that precedes it within its segment (or the entry's initial state).
    if update_mask is None:
        shifted = _np.empty(N, dtype=_np.int64)
        shifted[0] = 0
        shifted[1:] = after_upd[:-1]
        pre_sorted = _np.where(new_seg, init[seg_ids], shifted)
        final = after_upd[seg_end_pos]
    else:
        C = _np.cumsum(smask)
        before_count = C - smask
        excl = before_count - before_count[seg_start_pos][seg_ids]
        if U:
            gather = upd_base[seg_ids] + excl - 1
            pre_sorted = _np.where(
                excl > 0, after_upd[_np.maximum(gather, 0)], init[seg_ids]
            )
            final = _np.where(
                L > 0, after_upd[_np.maximum(upd_base + L - 1, 0)], init
            )
        else:
            pre_sorted = init[seg_ids]
            final = init.copy()
    pre = _np.empty(N, dtype=_np.int64)
    pre[order] = pre_sorted
    return BankResult(entries, pre, final)


# ----------------------------------------------------------------------
# Sweep-level entry points
# ----------------------------------------------------------------------

def simulate_predictors_batched(predictors, trace, warmup: int = 0):
    """Simulate a family of predictors over one trace: exactly
    :func:`repro.predictors.base.simulate_predictor` in a loop.

    Nothing in the package calls it; ``benchmarks/e2e/spans.py`` wraps
    it by name, so it stays until that table drops the row.
    """
    from repro.predictors.base import simulate_predictor

    return [simulate_predictor(p, trace, warmup=warmup) for p in predictors]
