"""The size cutovers sit exactly on their thresholds and change nothing.

Each consumer below picks its array path from the input size alone: at
``threshold`` events it takes the fast path, one event shorter it keeps
its per-event loop.  The other parity suites compare the two paths well
above the cutover; this one runs both sizes at the boundary itself and
requires the size-selected result to equal the forced loop, with a spy
proving the selection landed on the side the threshold promises.
"""

from __future__ import annotations

import random

import pytest

import repro.core.markov
import repro.perf.batched
from repro.automata.moore import MooreMachine
from repro.core.markov import MarkovModel
from repro.harness.branch_training import fsm_correct_counts
from repro.predictors.base import simulate_predictor
from repro.predictors.gshare import GSharePredictor
from repro.search.ga import batch_fitness
from repro.search.genome import random_genome
from repro.valuepred.confidence import evaluate_fsm_confidence
from repro.workloads.trace import BranchTrace

MARKOV_ORDER = 5


def _machines(seed: int, sizes=(3, 5, 8)):
    rng = random.Random(seed)
    return [
        MooreMachine(
            alphabet=("0", "1"),
            start=rng.randrange(n),
            outputs=tuple(rng.randrange(2) for _ in range(n)),
            transitions=tuple(
                (rng.randrange(n), rng.randrange(n)) for _ in range(n)
            ),
        )
        for n in sizes
    ]


def _branch_trace(n: int, seed: int = 17) -> BranchTrace:
    rng = random.Random(seed)
    pcs = [0x4000 + 4 * rng.randrange(12) for _ in range(n)]
    outcomes = [1 if (pc >> 2) % 3 else rng.randrange(2) for pc in pcs]
    return BranchTrace(pcs=pcs, outcomes=outcomes)


def _gshare(n):
    predictor = GSharePredictor(8)
    stats = simulate_predictor(predictor, _branch_trace(n))
    counters = [c.value for c in predictor._counters]
    return stats.lookups, stats.hits, predictor._history, counters


def _fsm_confidence(n):
    rng = random.Random(23)
    indices = [rng.randrange(64) for _ in range(n)]
    bits = [rng.randrange(2) for _ in range(n)]
    stats = evaluate_fsm_confidence(indices, bits, _machines(5, (6,))[0])
    return (stats.total, stats.correct_total, stats.confident,
            stats.confident_correct)


def _ga_fitness(n):
    trace = _branch_trace(n, seed=29)
    rng = random.Random(31)
    genomes = [random_genome(k, rng) for k in (2, 4, 7)]
    return batch_fitness(genomes, trace.pcs, trace.outcomes, trace.pcs[0])


def _fsm_correct(n):
    trace = _branch_trace(n, seed=37)
    pcs = sorted(set(trace.pcs))[:3]
    return fsm_correct_counts(trace, dict(zip(pcs, _machines(41))))


def _markov(n):
    # ``n`` counts observations: the first MARKOV_ORDER bits only seed
    # the history window.
    rng = random.Random(43)
    trace = [rng.randrange(2) for _ in range(n + MARKOV_ORDER)]
    model = MarkovModel.from_trace(trace, MARKOV_ORDER)
    return model.totals, model.ones


#: (run(n), module holding the cutover, its name, owner of the fast-path
#: entry point, the entry point's name).
CASES = {
    "gshare": (_gshare, repro.perf.batched, "BATCH_THRESHOLD",
               GSharePredictor, "_batch_simulate"),
    "fsm_confidence": (_fsm_confidence, repro.perf.batched,
                       "BATCH_THRESHOLD", repro.perf.batched,
                       "banked_replay"),
    "ga_batch_fitness": (_ga_fitness, repro.perf.batched, "BATCH_THRESHOLD",
                         repro.perf.batched, "BatchedMoore"),
    "fsm_correct_counts": (_fsm_correct, repro.perf.batched,
                           "BATCH_THRESHOLD", repro.perf.batched,
                           "BatchedMoore"),
    "markov": (_markov, repro.core.markov, "_BATCH_THRESHOLD",
               MarkovModel, "_accumulate_keys"),
}


@pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_selected_path_matches_loop_at_threshold(monkeypatch, name, offset):
    run, cut_owner, cut_name, fast_owner, fast_name = CASES[name]
    n = getattr(cut_owner, cut_name) + offset
    with monkeypatch.context() as patch:
        patch.setattr(cut_owner, cut_name, 10**9)
        loop = run(n)
    calls = []
    fast = getattr(fast_owner, fast_name)

    def spy(*args, **kwargs):
        calls.append(1)
        return fast(*args, **kwargs)

    monkeypatch.setattr(fast_owner, fast_name, spy)
    assert run(n) == loop
    assert bool(calls) == (offset == 0), (
        f"{name}: n={n} took the {'fast' if calls else 'loop'} path"
    )


# ----------------------------------------------------------------------
# BatchedMoore's own cutovers: block width and walk, from (M, S, N)
# ----------------------------------------------------------------------


def _plan_cutovers(M: int, S: int, n_max: int):
    """Every N <= n_max at which ``_plan(M, S, N)`` differs from N - 1
    (the width never shrinks as N grows, so bisection finds each)."""
    plan = repro.perf.batched._plan
    cuts, n = [], 0
    while True:
        cur = plan(M, S, n)
        hi = n + 1
        while hi < n_max and plan(M, S, hi) == cur:
            hi = min(2 * hi, n_max)
        if plan(M, S, hi) == cur:
            return cuts
        lo = n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if plan(M, S, mid) == cur else (lo, mid)
        cuts.append(hi)
        n = hi


def _stack_matches_reference(machines, n: int, seed: int) -> None:
    from repro.conformance.oracles import oracle_moore_outputs

    rng = random.Random(seed)
    bits = [rng.randrange(2) for _ in range(n)]
    S = max(m.num_states for m in machines)
    stack = repro.perf.batched.BatchedMoore(machines)
    outs = stack.run_outputs(bits)
    counts = stack.visit_counts(bits)
    for m, machine in enumerate(machines):
        assert outs[m].tolist() == oracle_moore_outputs(machine, bits)
        want = [[0, 0] for _ in range(S)]
        state = machine.start
        for bit in bits:
            want[state][bit] += 1
            state = machine.transitions[state][bit]
        assert counts[m].tolist() == want


#: (machines, states, largest N): one machine on the chunked scan, a
#: small heterogeneous family, and a stack just past the direct-walk
#: cutover.  N stays small enough for the python reference.
PLAN_SHAPES = [(1, 4, 20000), (8, 24, 2500), (151, 4, 200)]
PLAN_CUTOVERS = [
    (M, S, n)
    for M, S, n_max in PLAN_SHAPES
    for n in _plan_cutovers(M, S, n_max)
]


@pytest.mark.parametrize(
    "M,S,n", PLAN_CUTOVERS, ids=[f"{M}x{S}-N{n}" for M, S, n in PLAN_CUTOVERS]
)
def test_block_width_cutovers_match_reference(M, S, n):
    plan = repro.perf.batched._plan
    assert plan(M, S, n - 1) != plan(M, S, n)
    sizes = [S] + [random.Random(M + i).randint(1, S) for i in range(M - 1)]
    machines = _machines(S + n, sizes)
    for length in (n - 1, n):
        _stack_matches_reference(machines, length, seed=length)


@pytest.mark.parametrize("offset", [0, 1], ids=["scan", "direct"])
def test_walk_cutover_matches_reference(offset):
    """``M*S`` at the cutover takes the chunked scan; one machine more
    takes the direct walk."""
    S = 4
    M = repro.perf.batched._CALL_COST // S + offset
    direct, _width = repro.perf.batched._plan(M, S, 300)
    assert direct == bool(offset)
    _stack_matches_reference(_machines(M, [S] * M), 300, seed=M)


def test_block_tables_stay_under_the_cap():
    cap = repro.perf.batched._MAX_TABLE
    for M, S in [(1, 4), (1, 5000), (1024, 5), (4096, 64), (1, 1 << 21)]:
        for n in (10, 10**5, 10**9, 10**12):
            _direct, width = repro.perf.batched._plan(M, S, n)
            assert width == 1 or (M * S) << width <= cap
