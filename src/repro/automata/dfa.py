"""Deterministic finite automata and subset construction.

"Once the non-deterministic FSM is completed it is converted to a
deterministic state machine using subset construction" (Section 4.6).  The
DFAs here are *complete*: every state has a transition on every alphabet
symbol (non-accepting dead state added where needed), which is what lets the
later Moore-machine view emit a prediction from every state on every input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as _np

from repro.automata.nfa import EPSILON, NFA

# Below this many NFA states the bignum worklist beats the numpy setup.
_ENTRY_THRESHOLD = 256


@dataclass
class DFA:
    """A complete DFA with dense integer states.

    ``transitions[state][symbol_index]`` is the successor; symbol indices
    follow the order of ``alphabet``.
    """

    alphabet: Tuple[str, ...]
    start: int
    accepts: FrozenSet[int]
    transitions: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.transitions)
        width = len(self.alphabet)
        for state, row in enumerate(self.transitions):
            if len(row) != width:
                raise ValueError(f"state {state} row has {len(row)} entries")
            for nxt in row:
                if not 0 <= nxt < n:
                    raise ValueError(f"state {state} transitions to {nxt} (n={n})")
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")
        for a in self.accepts:
            if not 0 <= a < n:
                raise ValueError(f"accept state {a} out of range")

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise KeyError(f"symbol {symbol!r} not in alphabet {self.alphabet}")

    def step(self, state: int, symbol: str) -> int:
        return self.transitions[state][self.symbol_index(symbol)]

    def run(self, text: str, start: Optional[int] = None) -> int:
        """Final state after consuming ``text`` from ``start`` (default:
        the DFA's start state)."""
        state = self.start if start is None else start
        for symbol in text:
            state = self.step(state, symbol)
        return state

    def accepts_string(self, text: str) -> bool:
        return self.run(text) in self.accepts

    def reachable_states(self, roots: Optional[Iterable[int]] = None) -> Set[int]:
        """States reachable from ``roots`` (default: the start state)."""
        frontier: List[int] = list(roots) if roots is not None else [self.start]
        seen: Set[int] = set(frontier)
        while frontier:
            state = frontier.pop()
            for nxt in self.transitions[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def _epsilon_closures(eps_succ: List[List[int]]) -> List[int]:
    """Per-state epsilon closure as an int bitmask (bit ``s`` = state ``s``)."""
    return _eps_propagate_multi(eps_succ, [None])[0]


def _eps_propagate(
    eps_succ: List[List[int]], seeds: Optional[List[int]]
) -> List[int]:
    """Single-column :func:`_eps_propagate_multi` (kept for callers that
    propagate one seed column at a time)."""
    return _eps_propagate_multi(eps_succ, [seeds])[0]


def _eps_propagate_multi(
    eps_succ: List[List[int]], seed_columns: List[Optional[List[int]]]
) -> List[List[int]]:
    """Per-state OR of each seed column over the state's epsilon closure.

    A ``None`` column seeds state ``s`` with ``1 << s``, which makes that
    column the epsilon closures themselves; any other column (e.g.
    per-state symbol-target masks) rides the same propagation, which is
    what the entry-space subset construction builds its move tables from.
    All columns share one graph traversal -- the bookkeeping is a
    significant fraction of the cost, so fusing the closure and per-symbol
    propagations is a direct win.

    Iterative Tarjan over the epsilon graph: SCCs complete in reverse
    topological order, so when a component is popped every value it can
    reach is already final and one OR per edge suffices.  Linear in states
    plus epsilon edges; no recursion (Thompson NFAs for long covers nest
    deeply enough to blow the interpreter stack).
    """
    n = len(eps_succ)
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    on_stack = bytearray(n)
    scc_stack: List[int] = []
    results: List[List[int]] = [[0] * n for _ in seed_columns]
    counter = 0
    for root in range(n):
        if index[root] != UNVISITED:
            continue
        work: List[List[int]] = [[root, 0]]  # [state, next-child position]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = 1
            descended = False
            children = eps_succ[v]
            while frame[1] < len(children):
                w = children[frame[1]]
                frame[1] += 1
                if index[w] == UNVISITED:
                    work.append([w, 0])
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                members: List[int] = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = 0
                    members.append(w)
                    if w == v:
                        break
                for col, seeds in enumerate(seed_columns):
                    closures = results[col]
                    closure = 0
                    if seeds is None:
                        for w in members:
                            closure |= 1 << w
                    else:
                        for w in members:
                            closure |= seeds[w]
                    for w in members:
                        for t in eps_succ[w]:
                            # Same-component targets still hold 0 here;
                            # their seeds are already in the member fold.
                            closure |= closures[t]
                    for w in members:
                        closures[w] = closure
    return results


def _byte_rows(masks: List[int], width: int) -> "_np.ndarray":
    """Int bitmasks to a ``(len(masks), width')`` little-endian uint8
    matrix, width padded up to a whole number of uint64 words so the OR
    kernels can run word-at-a-time over a ``view``."""
    width = ((width + 7) // 8) * 8
    out = _np.zeros((len(masks), width), dtype=_np.uint8)
    for i, mask in enumerate(masks):
        if mask:
            out[i] = _np.frombuffer(
                mask.to_bytes(width, "little"), dtype=_np.uint8
            )
    return out


def _nibble_tables(
    rows: "_np.ndarray",
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Low/high nibble OR tables for a row matrix.

    ``rows`` is ``(T, W)`` uint8 with W a multiple of 8 (see
    :func:`_byte_rows`); each result is ``(ceil(T/8), 16, W // 8)``
    uint64 with ``lo[c][v] = OR of rows[8c + j]`` over the set bits ``j``
    of ``v`` (``hi`` over ``rows[8c + 4 + j]``), built by the LSB
    recurrence in 15 short word-at-a-time steps.
    """
    T, W = rows.shape
    C = (T + 7) // 8
    padded = _np.zeros((C * 8, W), dtype=_np.uint8)
    padded[:T] = rows
    words = padded.view(_np.uint64)  # (C * 8, W // 8)
    lo = _np.zeros((C, 16, W // 8), dtype=_np.uint64)
    hi = _np.zeros((C, 16, W // 8), dtype=_np.uint64)
    for v in range(1, 16):
        lsb = v & -v
        j = lsb.bit_length() - 1
        lo[:, v, :] = lo[:, v ^ lsb, :] | words[j::8, :]
        hi[:, v, :] = hi[:, v ^ lsb, :] | words[j + 4 :: 8, :]
    return lo, hi


def _or_chunk_tables(rows: "_np.ndarray") -> "_np.ndarray":
    """Byte-chunk OR tables for a row matrix.

    The result ``(ceil(T/8), 256, W // 8)`` uint64 satisfies
    ``table[c][v] = OR of rows[8c + j] over the set bits j of v``
    word-at-a-time: the two 16-entry nibble tables composed with one
    vectorized OR.  Worth building only when the table is applied many
    times (the BFS move tables); for a one-shot apply the nibble form
    (:func:`_or_chunk_apply_nibble`) skips the 256-value compose.
    """
    lo, hi = _nibble_tables(rows)
    C, _, Wq = lo.shape
    out = _np.empty((C, 256, Wq), dtype=_np.uint64)
    # table[v] = lo[v & 15] | hi[v >> 4]: fill one high-nibble stripe per
    # step as a broadcast OR -- sequential writes instead of a fancy
    # gather over the value axis (~2x faster for table-sized operands).
    for h in range(16):
        _np.bitwise_or(lo, hi[:, h : h + 1, :], out=out[:, h * 16 : (h + 1) * 16, :])
    return out


def _or_chunk_apply(table: "_np.ndarray", masks: "_np.ndarray") -> "_np.ndarray":
    """OR the table rows selected by each mask: ``(K, C)`` uint8 masks
    against a ``(C, 256, W // 8)`` uint64 table gives ``(K, W)`` uint8
    (a view of the word accumulator -- same bits, byte-granular)."""
    K = masks.shape[0]
    out = _np.zeros((K, table.shape[2]), dtype=_np.uint64)
    # One vectorized pass finds the chunks any mask touches; frontier rows
    # are sparse, so most chunk columns are skipped without a Python-level
    # any() probe each.  Mask columns past the table's chunk count are
    # padding and always zero.
    for c in _np.flatnonzero(masks.any(axis=0)):
        out |= table[c][masks[:, c]]
    return out.view(_np.uint8)


def _or_chunk_apply_nibble(
    lo: "_np.ndarray", hi: "_np.ndarray", masks: "_np.ndarray"
) -> "_np.ndarray":
    """:func:`_or_chunk_apply` against nibble tables (two gathers per
    chunk instead of one, but no 256-value table build -- the cheaper
    trade when the table is applied exactly once)."""
    K = masks.shape[0]
    out = _np.zeros((K, lo.shape[2]), dtype=_np.uint64)
    for c in _np.flatnonzero(masks.any(axis=0)):
        col = masks[:, c]
        out |= lo[c][col & 15]
        out |= hi[c][col >> 4]
    return out.view(_np.uint8)


def _subset_construct_entry(
    nfa: NFA,
    eps_succ: List[List[int]],
    sym_succ: Dict[str, List[List[int]]],
) -> DFA:
    """Subset construction run in *entry space*.

    Every reachable DFA subset is a union of epsilon closures of "entry
    points" -- symbol-edge targets (plus the NFA start).  The move of a
    subset ``S`` on symbol ``si`` is determined by the set of ``si``-edge
    targets of ``S``, which is a union-homomorphism: representing subsets
    by their entry sets (T bits, T = #entries << n) makes the whole
    worklist a frontier of small uint8 rows advanced by byte-chunk OR
    gathers, with the full n-bit subsets materialized once at the end.

    Two entry sets can denote the same subset, but their successors are
    then *identical masks* (the move depends only on the subset), so
    duplicates discover nothing new; deduplicating materialized subsets by
    first appearance yields exactly the textbook FIFO numbering, making
    the result bit-identical to the bignum worklist.
    """
    n = nfa.num_states
    symbols = list(nfa.alphabet)
    targets: Set[int] = set()
    for symbol in symbols:
        for dsts in sym_succ[symbol]:
            targets.update(dsts)
    ents = sorted(targets | {nfa.start})
    T = len(ents)
    entid = {state: i for i, state in enumerate(ents)}
    # Row width in bytes, padded to whole uint64 words (_byte_rows pads
    # the same way, so frontier rows and move-table outputs agree).
    tbytes = ((T + 63) // 64) * 8

    # Move tables in entry space: seed each state with the entry ids of
    # its direct symbol targets, propagate over epsilon edges (union over
    # the closure), keep the entry rows, fold into chunk-OR tables.  The
    # epsilon closures themselves (None column) and every symbol's seed
    # column share one fused graph traversal.
    seed_columns: List[Optional[List[int]]] = [None]
    for symbol in symbols:
        succ = sym_succ[symbol]
        seeds = [0] * n
        for state in range(n):
            acc = 0
            for t in succ[state]:
                acc |= 1 << entid[t]
            seeds[state] = acc
        seed_columns.append(seeds)
    propagated = _eps_propagate_multi(eps_succ, seed_columns)
    closures = propagated[0]
    # One double-width move table: each entry's row is the concatenation
    # of its per-symbol move masks, so the BFS runs ONE chunked apply per
    # level (same bytes gathered, half the per-chunk loop overhead) and
    # slices the halves apart.  tbytes is a whole number of uint64 words,
    # so the halves stay word-aligned.
    tbits = tbytes * 8
    num_symbols = len(symbols)
    fused_rows = [0] * T
    for si, per_state in enumerate(propagated[1:]):
        shift = si * tbits
        for i, e in enumerate(ents):
            fused_rows[i] |= per_state[e] << shift
    move_table = _or_chunk_tables(
        _byte_rows(fused_rows, tbytes * num_symbols)
    )

    start_row = _np.zeros(tbytes, dtype=_np.uint8)
    e0 = entid[nfa.start]
    start_row[e0 >> 3] = 1 << (e0 & 7)
    index: Dict[bytes, int] = {start_row.tobytes(): 0}
    all_rows: List["_np.ndarray"] = [start_row]
    succ_ids: List[List[int]] = []
    frontier = start_row[None, :]
    while frontier.shape[0]:
        fused = _or_chunk_apply(move_table, frontier)
        moved = [
            fused[:, si * tbytes : (si + 1) * tbytes]
            for si in range(num_symbols)
        ]
        new_rows: List["_np.ndarray"] = []
        for k in range(frontier.shape[0]):
            row: List[int] = []
            for si in range(num_symbols):
                key = moved[si][k].tobytes()
                slot = index.get(key)
                if slot is None:
                    slot = len(index)
                    index[key] = slot
                    arr = moved[si][k].copy()
                    all_rows.append(arr)
                    new_rows.append(arr)
                row.append(slot)
            succ_ids.append(row)
        frontier = (
            _np.stack(new_rows)
            if new_rows
            else _np.empty((0, tbytes), dtype=_np.uint8)
        )

    # Collapse entry sets denoting the same subset; first appearances in
    # discovery order reproduce the FIFO numbering.  The full n-bit
    # subsets are materialized in one batched nibble-table pass and used
    # directly as dedup keys.  (Sampled fingerprints were measured and
    # rejected: the pipeline's reachable subsets are dense and pairwise
    # near-identical -- hundreds of shared states, differing in a
    # handful -- so word- or bit-sampled keys leave most rows colliding
    # and the exact verification pass re-does this materialization.)
    nbytes = (n + 7) // 8
    stacked = _np.stack(all_rows)
    lo, hi = _nibble_tables(
        _byte_rows([closures[e] for e in ents], nbytes)
    )
    subset_rows = _or_chunk_apply_nibble(lo, hi, stacked)
    num_rows = stacked.shape[0]
    sindex: Dict[bytes, int] = {}
    remap: List[int] = []
    reps: List[int] = []
    for d in range(num_rows):
        key = subset_rows[d].tobytes()
        slot = sindex.get(key)
        if slot is None:
            slot = len(sindex)
            sindex[key] = slot
            reps.append(d)
        remap.append(slot)
    rows = tuple(
        tuple(remap[x] for x in succ_ids[d]) for d in reps
    )
    # Accepting is decidable in entry space: the subset meets the accept
    # set iff some entry's closure does.
    accept_mask = 0
    for a in nfa.accepts:
        accept_mask |= 1 << a
    accept_ents = 0
    for i, e in enumerate(ents):
        if closures[e] & accept_mask:
            accept_ents |= 1 << i
    accept_row = _byte_rows([accept_ents], tbytes)[0]
    accepting = (
        (stacked[_np.asarray(reps, dtype=_np.int64)] & accept_row[None, :])
        .any(axis=1)
        .tolist()
    )
    accepts = frozenset(i for i, hit in enumerate(accepting) if hit)
    return DFA(
        alphabet=nfa.alphabet, start=0, accepts=accepts, transitions=rows
    )


def subset_construct(nfa: NFA) -> DFA:
    """Determinize ``nfa`` with the classic subset construction.

    The result is complete over the NFA's alphabet: the empty subset acts as
    the (non-accepting) dead state when it arises.

    Subsets are int bitmasks rather than frozensets, epsilon closures are
    precomputed per NFA state, and the per-symbol move-and-close step is an
    OR over chunk lookup tables -- the construction visits subsets in the
    same FIFO order as the textbook version, so state numbering (and the
    resulting DFA) is identical, just orders of magnitude cheaper on the
    dense subsets the predictor pipeline produces.  Large NFAs take the
    entry-space construction (:func:`_subset_construct_entry`), which is
    bit-identical again and another ~4x cheaper.
    """
    n = nfa.num_states
    eps_succ: List[List[int]] = [[] for _ in range(n)]
    sym_succ: Dict[str, List[List[int]]] = {
        symbol: [[] for _ in range(n)] for symbol in nfa.alphabet
    }
    for (state, symbol), dsts in nfa.transitions.items():
        if symbol == EPSILON:
            eps_succ[state] = sorted(dsts)
        elif symbol in sym_succ:
            sym_succ[symbol][state] = sorted(dsts)

    if n >= _ENTRY_THRESHOLD:
        return _subset_construct_entry(nfa, eps_succ, sym_succ)

    closures = _epsilon_closures(eps_succ)

    # step1[si][s] = epsilon-closed one-symbol image of {s}.
    step1: List[List[int]] = []
    for symbol in nfa.alphabet:
        column = [0] * n
        succ = sym_succ[symbol]
        for state in range(n):
            acc = 0
            for t in succ[state]:
                acc |= closures[t]
            column[state] = acc
        step1.append(column)

    # Chunk tables: table[c][v] = OR of step1 over the states of chunk ``c``
    # selected by the chunk-local bit pattern ``v``.  Byte chunks for small
    # machines, nibble chunks for big ones (keeps the tables ~10MB even for
    # multi-thousand-state NFAs).
    chunk_bits = 8 if n <= 1536 else 4
    chunk_size = 1 << chunk_bits
    nbytes = (n + 7) // 8
    # Nibble mode indexes chunks per byte (two tables per byte), so round
    # the chunk count up to a whole number of bytes; the padding tables
    # stay all-zero and are only probed for bits a subset can never hold.
    num_chunks = nbytes if chunk_bits == 8 else 2 * nbytes
    tables: List[List[List[int]]] = []
    for column in step1:
        sym_tables: List[List[int]] = []
        for c in range(num_chunks):
            base = c * chunk_bits
            tab = [0] * chunk_size
            for v in range(1, chunk_size):
                lsb = v & -v
                state = base + lsb.bit_length() - 1
                prev = tab[v ^ lsb]
                tab[v] = prev | column[state] if state < n else prev
            sym_tables.append(tab)
        tables.append(sym_tables)

    start_mask = closures[nfa.start]
    index: Dict[int, int] = {start_mask: 0}
    order: List[int] = [start_mask]
    rows: List[List[int]] = []
    worklist: deque = deque([start_mask])
    num_symbols = len(nfa.alphabet)
    while worklist:
        subset = worklist.popleft()
        row: List[int] = []
        sbytes = subset.to_bytes(nbytes, "little")
        for si in range(num_symbols):
            sym_tables = tables[si]
            nxt = 0
            if chunk_bits == 8:
                for c, piece in enumerate(sbytes):
                    if piece:
                        nxt |= sym_tables[c][piece]
            else:
                for c, piece in enumerate(sbytes):
                    if piece:
                        lo = piece & 15
                        if lo:
                            nxt |= sym_tables[2 * c][lo]
                        hi = piece >> 4
                        if hi:
                            nxt |= sym_tables[2 * c + 1][hi]
            slot = index.get(nxt)
            if slot is None:
                slot = len(order)
                index[nxt] = slot
                order.append(nxt)
                worklist.append(nxt)
            row.append(slot)
        rows.append(row)
    accept_mask = 0
    for a in nfa.accepts:
        accept_mask |= 1 << a
    accepts = frozenset(
        i for i, subset in enumerate(order) if subset & accept_mask
    )
    return DFA(
        alphabet=nfa.alphabet,
        start=0,
        accepts=accepts,
        transitions=tuple(tuple(r) for r in rows),
    )
