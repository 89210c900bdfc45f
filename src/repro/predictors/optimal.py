"""Exact optimal k-state predictor oracle.

"Prediction with Restricted Resources and Finite Automata" (arxiv
0812.1949) observes that for a *fixed* bit sequence the best k-state
finite-state predictor is exactly computable for small k.  This module
implements that oracle for the repo's Moore-machine predictors: given a
trace, :func:`optimal_predictors` returns the minimum achievable
mispredict count for every machine size up to ``kmax``, together with a
witness machine attaining it.  Every designed machine with ``S <= kmax``
states must mispredict at least ``opt(S)`` times -- which makes the
oracle both a reporting axis (the fig2 gap-to-optimal column) and a
conformance check on the whole design pipeline (check #10).

Three reductions make the exhaustive search tractable:

* **Outputs are never enumerated.**  Fix a transition structure and run
  the trace through it; if state ``s`` is visited ``z`` times before a 0
  and ``o`` times before a 1, the best output labeling predicts the
  per-state majority, costing ``min(z, o)`` mispredicts at ``s``.  The
  structure's cost is the sum over states -- the ``2^k`` output
  labelings collapse into one pass.
* **One structure per isomorphism class.**  Structures are generated
  directly in the canonical numbering where states are labeled in
  first-discovery order from the start state (scanning transition slots
  state-major, input-minor) -- the same canonical form the Hopcroft
  minimizer's BFS renumbering produces, so isomorphs (including all
  start-state relabelings) are never visited.  Witnesses are then
  re-canonicalized through :func:`~repro.automata.hopcroft.
  hopcroft_minimize` so equal bounds always present equal machines.
* **opt(k) is nonincreasing in k** (any k-state machine is also a
  (k+1)-state machine with an unreachable state), so the search runs
  cumulatively: exactly-k buckets are searched independently (and
  cached independently), then folded into the running best.

Cost: the number of initially-connected binary structures with exactly
k states is 1, 12, 216, 5248, 160675 for k = 1..5; the default
``kmax = 4`` searches 5477 structures per trace.  Long traces are
evaluated through a stacked numpy kernel (all structures stepped in one
gather per bit, visit counts via one ``bincount`` per chunk); short
traces use a plain python loop.  Per-(trace, k) results are memoized in
the content-addressed cache keyed by trace digest, and the exactly-k
sweep is sharded through ``durable_map`` so a killed run resumes.

The searched size defaults to :data:`DEFAULT_KMAX` (4); callers pass
``kmax`` up to :data:`MAX_KMAX` (k=5 costs ~30x k=4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.hopcroft import hopcroft_minimize
from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.obs.metrics import metrics
from repro.obs.tracing import trace_span
from repro.perf.cache import cached, digest_of
from repro.reliability.durability import durable_map

#: Version salt for cache entries and durable-map fingerprints; bump
#: when search semantics change.
OPTIMAL_VERSION = 1

DEFAULT_KMAX = 4
#: Hard cap on the searched machine size: k=6 has ~5.6M structure
#: classes, far past what an exhaustive python sweep should attempt.
MAX_KMAX = 5

#: Structures per durable_map shard in the exactly-k sweep.
SHARD_SIZE = 1024

#: Above this many (bits x structures) steps the numpy kernel takes over.
_NUMPY_CUTOVER = 200_000


# ----------------------------------------------------------------------
# Canonical structure enumeration
# ----------------------------------------------------------------------

def enumerate_structures(k: int) -> Iterator[Tuple[int, ...]]:
    """Every initially-connected k-state binary transition structure,
    exactly one per isomorphism class.

    Yields flat tuples ``t`` with ``t[2*s + bit]`` the successor of
    state ``s`` on ``bit``; state 0 is the start.  Canonical form:
    scanning slots in (state, bit) order, a never-seen target state must
    be the smallest unused label -- so states are numbered in
    first-discovery order and no two yielded structures are isomorphic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t: List[int] = []

    def rec(discovered: int) -> Iterator[Tuple[int, ...]]:
        slot = len(t)
        if slot == 2 * discovered:
            if discovered == k:
                yield tuple(t)
            return
        for target in range(discovered):  # existing states
            t.append(target)
            yield from rec(discovered)
            t.pop()
        if discovered < k:  # discover the next state
            t.append(discovered)
            yield from rec(discovered + 1)
            t.pop()

    yield from rec(1)


_STRUCTURE_COUNTS: Dict[int, int] = {}


def count_structures(k: int) -> int:
    """Number of isomorphism classes :func:`enumerate_structures` yields."""
    if k not in _STRUCTURE_COUNTS:
        _STRUCTURE_COUNTS[k] = sum(1 for _ in enumerate_structures(k))
    return _STRUCTURE_COUNTS[k]


# ----------------------------------------------------------------------
# Structure evaluation (majority-output cost)
# ----------------------------------------------------------------------

def _visit_counts(bits: Sequence[int], t: Tuple[int, ...], k: int) -> List[int]:
    """``counts[2*s + b]``: times state ``s`` was current when bit ``b``
    arrived (i.e. had to predict ``b``)."""
    counts = [0] * (2 * k)
    state = 0
    for b in bits:
        counts[2 * state + b] += 1
        state = t[2 * state + b]
    return counts


def _structure_cost(counts: Sequence[int], k: int) -> int:
    return sum(min(counts[2 * s], counts[2 * s + 1]) for s in range(k))


def _evaluate_python(
    bits: Sequence[int], structures: Sequence[Tuple[int, ...]], k: int
) -> Tuple[int, int]:
    best_cost = None
    best_idx = -1
    for idx, t in enumerate(structures):
        cost = _structure_cost(_visit_counts(bits, t, k), k)
        if best_cost is None or cost < best_cost:
            best_cost, best_idx = cost, idx
    return int(best_cost), best_idx


def _evaluate_numpy(
    bits: Sequence[int], structures: Sequence[Tuple[int, ...]], k: int
) -> Tuple[int, int]:
    """Stacked kernel: all structures advance through the trace together
    (one fancy-gather per bit over the whole shard), visit counts land
    via one ``bincount`` per chunk.  Costs are exact -- bit-identical to
    the python loop -- only the bookkeeping is vectorized."""
    table = np.asarray(structures, dtype=np.int32)  # (M, 2k)
    m = table.shape[0]
    mach = np.arange(m)
    bits_arr = np.asarray(bits, dtype=np.int32)
    counts = np.zeros(m * 2 * k, dtype=np.int64)
    offsets = mach * (2 * k)
    states = np.zeros(m, dtype=np.int32)
    chunk_rows = max(1, min(4096, (1 << 22) // max(1, m)))  # ~16MB of pre-states
    pre = np.empty((chunk_rows, m), dtype=np.int32)
    for start in range(0, len(bits_arr), chunk_rows):
        chunk = bits_arr[start : start + chunk_rows]
        for i in range(len(chunk)):
            pre[i] = states
            states = table[mach, states * 2 + chunk[i]]
        idx = offsets[None, :] + pre[: len(chunk)] * 2 + chunk[:, None]
        counts += np.bincount(idx.ravel(), minlength=m * 2 * k)
    per_state = counts.reshape(m, k, 2)
    costs = np.minimum(per_state[:, :, 0], per_state[:, :, 1]).sum(axis=1)
    best_idx = int(costs.argmin())  # argmin: first minimum, deterministic
    return int(costs[best_idx]), best_idx


def _search_shard(item: Tuple[Tuple[int, ...], int, int, int]) -> Tuple[int, int]:
    """One durable_map shard: best (cost, global index) over structures
    [start, stop) of the exactly-k enumeration."""
    bits, k, start, stop = item
    structures = list(itertools.islice(enumerate_structures(k), start, stop))
    if not structures:
        return (len(bits), -1)  # worst possible; never wins
    if len(bits) * len(structures) >= _NUMPY_CUTOVER:
        cost, idx = _evaluate_numpy(bits, structures, k)
    else:
        cost, idx = _evaluate_python(bits, structures, k)
    return (cost, start + idx)


def _nth_structure(k: int, index: int) -> Tuple[int, ...]:
    return next(itertools.islice(enumerate_structures(k), index, None))


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OptimalResult:
    """Best achievable prediction with at most ``num_states`` states."""

    num_states: int  # the size budget k (witness may use fewer states)
    mispredicts: int
    lookups: int
    witness: MooreMachine  # canonical minimal machine attaining the bound
    structures_searched: int  # cumulative classes examined through this k

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return float("nan")
        return self.mispredicts / self.lookups


def _validate_entry(value: object) -> bool:
    return (
        isinstance(value, dict)
        and isinstance(value.get("cost"), int)
        and isinstance(value.get("index"), int)
        and isinstance(value.get("searched"), int)
        and value["cost"] >= 0
        and value["index"] >= 0
    )


def _best_exactly_k(
    bits: Tuple[int, ...],
    k: int,
    run_id: Optional[str],
    jobs: Optional[int],
    fingerprint: str,
) -> Dict[str, int]:
    total = count_structures(k)
    items = [
        (bits, k, start, min(start + SHARD_SIZE, total))
        for start in range(0, total, SHARD_SIZE)
    ]
    results = durable_map(
        _search_shard,
        items,
        run_id=run_id,
        sweep=f"optimal.k{k}",
        jobs=jobs,
        fingerprint=fingerprint,
    )
    # Lowest cost wins; ties break to the earliest enumeration index so
    # the witness is deterministic across shardings and backends.
    cost, index = min(results)
    return {"cost": int(cost), "index": int(index), "searched": total}


def optimal_predictors(
    bits: Sequence[int],
    kmax: Optional[int] = None,
    run_id: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Dict[int, OptimalResult]:
    """Exact optimal predictor bounds for every machine size 1..kmax.

    ``result[k].mispredicts`` is the minimum mispredict count any
    k-state Moore predictor can achieve on ``bits`` under the standard
    convention (the current state's output predicts the next bit; the
    machine then steps on the actual bit).  ``result[k].witness`` is a
    Hopcroft-canonical machine attaining the bound.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("trace bits must be 0/1")
    if kmax is None:
        kmax = DEFAULT_KMAX
    if not 1 <= kmax <= MAX_KMAX:
        raise ValueError(f"kmax must be in [1, {MAX_KMAX}], got {kmax}")
    trace_digest = digest_of(bits)
    results: Dict[int, OptimalResult] = {}
    best_cost: Optional[int] = None
    best_k = 0
    best_index = 0
    searched = 0
    with trace_span(
        "sim.optimal", kmax=kmax, bits=len(bits)
    ) as span:
        metrics().incr("optimal.searches")
        for k in range(1, kmax + 1):
            key = digest_of("optimal", OPTIMAL_VERSION, k, trace_digest)
            fingerprint = digest_of(
                "optimal-shards", OPTIMAL_VERSION, k, SHARD_SIZE, trace_digest
            )
            entry = cached(
                "optimal",
                key,
                lambda k=k, fp=fingerprint: _best_exactly_k(
                    bits, k, run_id, jobs, fp
                ),
                validate=_validate_entry,
            )
            searched += entry["searched"]
            if best_cost is None or entry["cost"] < best_cost:
                best_cost = entry["cost"]
                best_k, best_index = k, entry["index"]
            results[k] = OptimalResult(
                num_states=k,
                mispredicts=int(best_cost),
                lookups=len(bits),
                witness=_witness(bits, best_k, best_index),
                structures_searched=searched,
            )
        span.set(mispredicts=int(best_cost), searched=searched)
    return results


def optimal_mispredicts(bits: Sequence[int], k: int, **kwargs) -> int:
    """Convenience: the exact bound for machine size ``k`` alone."""
    return optimal_predictors(bits, kmax=k, **kwargs)[k].mispredicts


def _witness(bits: Tuple[int, ...], k: int, index: int) -> MooreMachine:
    """Materialize the winning structure as a canonical MooreMachine with
    majority outputs (ties predict 0, deterministically)."""
    structure = _nth_structure(k, index)
    counts = _visit_counts(bits, structure, k)
    outputs = tuple(
        1 if counts[2 * s + 1] > counts[2 * s] else 0 for s in range(k)
    )
    transitions = tuple(
        (structure[2 * s], structure[2 * s + 1]) for s in range(k)
    )
    machine = MooreMachine(
        alphabet=BINARY_ALPHABET,
        start=0,
        outputs=outputs,
        transitions=transitions,
    )
    # Hopcroft canonical minimal form: equivalent machines emit identical
    # prediction streams, so the bound is untouched; equal bounds found
    # through different structures present as the same witness.
    return hopcroft_minimize(machine)


# ----------------------------------------------------------------------
# Deployed-machine evaluation (the other side of the gap)
# ----------------------------------------------------------------------

def machine_mispredicts(machine: MooreMachine, bits: Sequence[int]) -> int:
    """Mispredicts of an existing machine on ``bits`` under the same
    convention the oracle uses (and
    :func:`repro.conformance.oracles.oracle_prediction_counts` checks):
    the current state's output predicts the incoming bit."""
    bits = [int(b) for b in bits]
    if not bits:
        return 0
    if len(bits) >= 4096:
        outs = np.asarray(machine.compile().run_bits(bits), dtype=np.int64)
        preds = np.empty(len(bits), dtype=np.int64)
        preds[0] = machine.outputs[machine.start]
        preds[1:] = outs[:-1]  # output after bit i predicts bit i+1
        return int((preds != np.asarray(bits, dtype=np.int64)).sum())
    state = machine.start
    misses = 0
    for b in bits:
        if machine.outputs[state] != b:
            misses += 1
        state = machine.transitions[state][b]
    return misses
