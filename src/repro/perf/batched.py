"""Machine-batched simulation kernels.

:class:`~repro.perf.compiled.CompiledMoore` batches over the *bits* of one
machine; the figure sweeps batch over *machines* too.  Two kernels cover
every sweep shape in the harness:

``BatchedMoore``
    M machines consuming the **same** bit stream (the update-all policy of
    Section 7.3, and any designed-FSM family evaluated over one trace).
    The M transition tables are stacked into one ``(M, S, 2)`` array padded
    to the widest state count; one gather per block step advances the whole
    stack, reusing ``CompiledMoore``'s block-precomposition trick.  Block
    tables store *machine-offset-encoded* values (``m*P*S + s``) in the
    narrowest dtype that fits, so threading states through blocks is one
    add plus one flat gather per step, and the start-of-block states come
    from a chunked three-pass scan instead of a log-depth map-composition
    recursion (see :meth:`BatchedMoore._scan_chunked`).

``banked_replay``
    One machine replicated across the entries of an indexed table (gshare
    counters, LGC banks, per-entry confidence units).  Each entry consumes
    the subsequence of events that hit its index.  A stable sort groups
    events by entry, block tables advance every entry's segment in
    parallel, and an interior-expansion pass recovers the state *before*
    every event -- exactly what table predictors read.  A masked-update
    variant (``update_mask``) models the LGC chooser, which is read on
    every branch but trained only on disagreement.

Both kernels are bit-identical to the per-event loops they replace (the
``tests/perf`` property suites pin this; ``banked_replay``'s reference is
:func:`repro.conformance.oracles.oracle_banked_replay`).  Callers keep
those loops for inputs below :data:`BATCH_THRESHOLD`, where array setup
costs more than it saves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as _np

from repro.perf.compiled import _block_bits

# Below this many events the per-event loop beats array setup.
BATCH_THRESHOLD = 2048


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

class BatchedMoore:
    """A stack of binary-alphabet Moore machines lowered to one table.

    ``run_states(bits)`` returns the ``(M, N)`` matrix of states *after*
    each consumed bit, machine ``m``'s row bit-identical to
    ``CompiledMoore(machines[m]).run_states(bits)``.  Machines may have
    heterogeneous state counts; tables are padded to the widest machine
    with self-loop rows that no reachable state ever indexes.
    """

    def __init__(self, machines: Iterable[object]) -> None:
        machines = list(machines)
        if not machines:
            raise ValueError("BatchedMoore needs at least one machine")
        for machine in machines:
            _check_binary(machine)
        self.machines = machines
        self.num_machines = len(machines)
        self.state_counts = [m.num_states for m in machines]
        self.max_states = max(self.state_counts)
        self.starts = [m.start for m in machines]
        M, S = self.num_machines, self.max_states
        # Padded stacked tables: rows for states a machine does not have
        # self-loop, so the doubling composition below stays in range.
        delta = _np.tile(
            _np.arange(S, dtype=_np.int64)[None, :, None], (M, 1, 2)
        )
        outputs = _np.zeros((M, S), dtype=_np.int64)
        for m, machine in enumerate(machines):
            n = machine.num_states
            delta[m, :n, :] = _np.asarray(machine.transitions, dtype=_np.int64)
            outputs[m, :n] = _np.asarray(machine.outputs, dtype=_np.int64)
        self._delta = delta
        self._outputs = outputs
        self._starts_arr = _np.asarray(self.starts, dtype=_np.int64)
        # States fit a narrow dtype; gathers through block tables are
        # memory-bound, so shrinking the element size is a direct speedup.
        self._vdt = _np.uint8 if S <= 256 else _np.int64
        # Interior-expansion delta with the machine offset *and* the output
        # bit folded into the value: enc[m, s, b] = ((m*S + s') << 1) |
        # out[m, s'].  Advancing the whole stack one bit is then a single
        # add plus a single flat gather, and run_outputs is a bit mask.
        midx = _np.arange(M, dtype=_np.int64)
        self._base_q = midx * S  # encoded-state offset per machine
        enc = (
            ((self._base_q[:, None, None] + delta) << 1)
            | outputs[midx[:, None, None], delta]
        )
        self._enc_delta_flat = _np.ascontiguousarray(enc, dtype=_np.int32
                                                     ).reshape(-1)
        # Block tables are built lazily per width (see _table): short
        # streams stop at B=10 where the (M, 2**B, S) build is cheap, long
        # streams pay for B=12 once and amortize it over 4x fewer blocks.
        self._pow_tables: Dict[int, object] = {
            1: delta.transpose(0, 2, 1).astype(self._vdt)  # (M, 2, S)
        }
        self._tables: Dict[int, Tuple[object, object]] = {}

    def _table(self, B: int):
        """``(block_table, enc_flat)`` for width ``B``, built on demand.

        ``block_table`` is ``(M, 2**B, S)`` in the narrow value dtype:
        power-of-two tables by doubling, then the set bits of B composed
        lowest-first, exactly mirroring CompiledMoore but batched over
        machines.  ``enc_flat`` (scan path only, ``S <= 64``) carries the
        same table with the machine offset folded into the values
        (``m*P*S + s``) and flattened, so one flat gather steps every
        machine through its own block map.
        """
        cached = self._tables.get(B)
        if cached is not None:
            return cached
        M, S = self.num_machines, self.max_states
        pow_tables = self._pow_tables
        k = 1
        while 2 * k <= B:
            if 2 * k not in pow_tables:
                pow_tables[2 * k] = _compose_batch(
                    pow_tables[k], pow_tables[k]
                )
            k *= 2
        table = None
        for k in sorted(pow_tables):
            if not B & k:
                continue
            t = pow_tables[k]
            table = t if table is None else _compose_batch(t, table)
        enc_flat = None
        if S <= 64:
            P = table.shape[1]
            base = (_np.arange(M, dtype=_np.int64) * (P * S)).astype(
                _np.int32
            )
            enc_flat = _np.ascontiguousarray(
                table.astype(_np.int32) + base[:, None, None]
            ).reshape(-1)
        cached = (table, enc_flat)
        self._tables[B] = cached
        return cached

    # ------------------------------------------------------------------
    def _run_encoded(self, bits_arr):
        """The encoded-state matrix ``(M, N)`` int32: each element is
        ``((m*S + s) << 1) | out[m, s]`` for the state ``s`` reached after
        the corresponding bit."""
        N = bits_arr.shape[0]
        M, S = self.num_machines, self.max_states
        enc = _np.empty((M, N), dtype=_np.int32)
        cur = self._starts_arr.copy()
        if S <= 64:
            # Build/run balance: B=10 keeps the (M, 2**B, S) build cheap
            # for sweep-sized streams; long streams amortize the B=12
            # build over 4x fewer blocks (both measured).
            B = 12 if N >= 12 * 4096 else 10
        else:
            B = _block_bits(S)
        nblocks = N // B
        # Encoded current state; the output bit of the pre-block state is
        # irrelevant (indexing masks it off), so 0 is fine.
        c = ((self._base_q + cur) << 1).astype(_np.int32)
        enc_flat = self._enc_delta_flat
        if nblocks:
            blocked = bits_arr[: nblocks * B].reshape(nblocks, B)
            weights = _np.left_shift(
                _np.int64(1), _np.arange(B, dtype=_np.int64)
            )
            patterns = blocked @ weights
            if S <= 64:
                starts = self._scan_chunked(patterns, cur, B)
            else:
                table, _ = self._table(B)
                starts = _np.empty((M, nblocks), dtype=_np.int64)
                midx = _np.arange(M)
                for i, p in enumerate(patterns.tolist()):
                    starts[:, i] = cur
                    cur = table[midx, p, cur]
            # Interior expansion: one add + one flat gather per bit
            # position, across all machines and all blocks at once.
            c = ((self._base_q[:, None] + starts) << 1).astype(_np.int32)
            blk = _np.ascontiguousarray(blocked.T).astype(_np.int32)
            mat = enc[:, : nblocks * B].reshape(M, nblocks, B)
            for j in range(B):
                c = enc_flat[(c & -2) + blk[j]]
                mat[:, :, j] = c
            c = _np.ascontiguousarray(c[:, -1])
        for k in range(nblocks * B, N):
            c = enc_flat[(c & -2) + _np.int32(bits_arr[k])]
            enc[:, k] = c
        return enc

    def run_states(self, bits: Sequence[int]):
        """States after each consumed bit: ``(M, N)`` array."""
        bits_arr = _np.asarray(bits, dtype=_np.int64)
        enc = self._run_encoded(bits_arr)
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
        enc = self._run_encoded(_np.asarray(bits, dtype=_np.int64))
        return enc & 1

    def final_states(self, bits: Sequence[int]):
        after = self.run_states(bits)
        if after.shape[1] == 0:
            return self._starts_arr.copy()
        return after[:, -1].copy()

    # ------------------------------------------------------------------
    def _scan_chunked(self, patterns, cur0, B: int):
        """Start-of-block states ``(M, nblocks)`` via a chunked scan.

        Threading one state per machine through ``nblocks`` block maps is
        the only sequential dependency in the batch pass.  Splitting the
        block sequence into ``C`` contiguous chunks breaks it three ways:

        1. compose each chunk's maps with a K-step walk vectorized over
           all chunks (one pass over the data -- no log-depth recursion
           and no materialized ``(M, nblocks, S)`` map tensor);
        2. thread the start state through the C chunk maps sequentially
           (C tiny Python steps);
        3. recover per-block starts inside every chunk with a second
           K-step walk from the chunk entry states.

        Pass 1 carries almost all the work (it touches every block map
        for every carried state), so it runs per machine over each
        machine's *true* state count in the narrow value dtype -- padding
        states and int32 traffic would roughly double it.  Passes 2 and 3
        are tiny and stay batched over machines.
        """
        M, S = self.num_machines, self.max_states
        nblocks = patterns.shape[0]
        block_table, enc_flat = self._table(B)
        P = 1 << B
        base = (_np.arange(M, dtype=_np.int64) * (P * S)).astype(_np.int32)
        if nblocks <= 64:
            starts = _np.empty((M, nblocks), dtype=_np.int64)
            c = base + cur0.astype(_np.int32)
            scaled = (patterns * S).astype(_np.int32)
            for i in range(nblocks):
                starts[:, i] = c
                c = enc_flat[c + scaled[i]]
            return starts - base[:, None]
        C = min(1024, nblocks)
        K = -(-nblocks // C)
        scaled = _np.zeros(C * K, dtype=_np.int32)
        # Pad the tail chunk with pattern 0: its garbage composition is
        # never read (entries stop at the last real chunk, and pass 3's
        # padded starts are sliced off).
        _np.multiply(patterns, S, out=scaled[:nblocks], casting="unsafe")
        scaled = scaled.reshape(C, K)
        # Pass 1: chunk maps as plain per-machine states, ragged walk.
        cm = _np.empty((M, C, S), dtype=self._vdt)
        scaled_cols = _np.ascontiguousarray(scaled.T)  # (K, C)
        for m in range(M):
            sm = self.state_counts[m]
            flat_m = block_table[m].reshape(-1)  # (P * S,), row stride S
            x = _np.broadcast_to(
                _np.arange(sm, dtype=self._vdt), (C, sm)
            )
            for j in range(K):
                x = flat_m[scaled_cols[j][:, None] + x]
            cm[m, :, :sm] = x
        # Pass 2: thread the start state through the chunk maps.
        cm_flat = cm.reshape(-1)
        cm_base = (_np.arange(M, dtype=_np.int64) * (C * S)).astype(
            _np.int32
        )
        entries = _np.empty((M, C), dtype=_np.int32)
        c = cur0.astype(_np.int32)
        for ci in range(C):
            entries[:, ci] = c
            c = cm_flat[cm_base + ci * S + c]
        # Pass 3: per-block starts inside each chunk (encoded domain).
        starts_ck = _np.empty((M, C, K), dtype=_np.int32)
        c = base[:, None] + entries
        for j in range(K):
            starts_ck[:, :, j] = c
            c = enc_flat[c + scaled[:, j][None, :]]
        starts = starts_ck.reshape(M, C * K)[:, :nblocks]
        return (starts - base[:, None]).astype(_np.int64)


def _compose_batch(hi, lo):
    """Compose stacked pattern tables: ``r[m, h*P_lo + l, s] =
    hi[m, h, lo[m, l, s]]`` (flattened pattern index ``(h << lo_bits) | l``,
    matching CompiledMoore's layout)."""
    M, P_hi, S = hi.shape
    P_lo = lo.shape[1]
    hi_b = _np.broadcast_to(hi[:, :, None, :], (M, P_hi, P_lo, S)).reshape(
        M, P_hi * P_lo, S
    )
    lo_b = _np.broadcast_to(lo[:, None, :, :], (M, P_hi, P_lo, S)).reshape(
        M, P_hi * P_lo, S
    )
    return _np.take_along_axis(hi_b, lo_b, axis=2)


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
    """Simulate a family of predictors over one trace.

    Per-predictor results (and predictor mutation) are identical to
    calling :func:`repro.predictors.base.simulate_predictor` in a loop;
    predictors exposing a ``_batch_simulate`` fast path take it, so a
    figure's whole per-size family becomes a handful of vectorized
    kernel calls instead of ``len(trace)``-iteration Python loops.
    """
    from repro.predictors.base import simulate_predictor

    return [simulate_predictor(p, trace, warmup=warmup) for p in predictors]


# The harnesses call the sweep under this name; keep both exported.
batched_map = simulate_predictors_batched
