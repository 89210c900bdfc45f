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
