"""Warmup parity: serial loop vs ``_batch_simulate`` fast paths.

``simulate_predictor`` hands ``warmup`` through to each predictor's
``_batch_simulate``; nothing else pins that path against the serial
per-branch loop.  These tests assert bit-identical ``PredictionStats``
*and* bit-identical post-simulation predictor state for every predictor
that implements ``_batch_simulate``, across warmups including
``warmup >= len(trace)``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.batched
from repro.perf.batched import BATCH_THRESHOLD
from repro.predictors.gshare import GSharePredictor
from repro.predictors.local_global import LocalGlobalChooser
from repro.predictors.base import simulate_predictor
from repro.predictors.xscale import XScalePredictor
from repro.workloads.trace import BranchTrace

N = BATCH_THRESHOLD  # smallest trace the batched path accepts

PREDICTOR_FACTORIES = {
    "gshare": lambda: GSharePredictor(10),
    "lgc": lambda: LocalGlobalChooser(8),
    "xscale": lambda: XScalePredictor(num_entries=32),
}


def _make_trace(seed: int, length: int = N) -> BranchTrace:
    rng = random.Random(seed)
    pool = [rng.randrange(1 << 20) for _ in range(24)]
    pcs, outcomes = [], []
    bias = {pc: rng.random() for pc in pool}
    for _ in range(length):
        pc = rng.choice(pool)
        pcs.append(pc)
        outcomes.append(1 if rng.random() < bias[pc] else 0)
    return BranchTrace(pcs=pcs, outcomes=outcomes)


def _snapshot(obj, _depth=0):
    """Recursively freeze a predictor's mutable state for comparison."""
    assert _depth < 8, "unexpectedly deep predictor state"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_snapshot(item, _depth + 1) for item in obj]
    if isinstance(obj, dict):
        return {k: _snapshot(v, _depth + 1) for k, v in sorted(obj.items())}
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _snapshot(obj.tolist(), _depth + 1)
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _snapshot(vars(obj), _depth + 1))
    return repr(obj)


def _run_both(name, trace, warmup):
    """(serial stats, serial state), (batched stats, batched state)."""
    make = PREDICTOR_FACTORIES[name]
    with pytest.MonkeyPatch.context() as patch:
        # A cutover past any trace forces the per-branch loop.
        patch.setattr(repro.perf.batched, "BATCH_THRESHOLD", 10**9)
        serial = make()
        serial_stats = simulate_predictor(serial, trace, warmup=warmup)
    # The fast path must not silently decline, or the comparison below
    # would be loop vs loop.
    assert make()._batch_simulate(trace.pcs, trace.outcomes, warmup) is not None
    batched = make()
    batched_stats = simulate_predictor(batched, trace, warmup=warmup)
    return (serial_stats, _snapshot(serial)), (batched_stats, _snapshot(batched))


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@pytest.mark.parametrize("warmup", [1, 7, N // 2, N - 1, N, N + 13])
def test_warmup_parity_stats_and_state(name, warmup):
    trace = _make_trace(seed=0xC0FFEE ^ warmup)
    (s_stats, s_state), (b_stats, b_state) = _run_both(name, trace, warmup)
    assert (s_stats.lookups, s_stats.hits) == (b_stats.lookups, b_stats.hits)
    assert s_state == b_state
    if warmup >= len(trace.pcs):
        assert b_stats.lookups == 0  # fully warmed up: nothing counted


@pytest.mark.parametrize("name", sorted(PREDICTOR_FACTORIES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), warmup=st.integers(0, N + 64))
def test_warmup_parity_property(name, seed, warmup):
    trace = _make_trace(seed=seed)
    (s_stats, s_state), (b_stats, b_state) = _run_both(name, trace, warmup)
    assert (s_stats.lookups, s_stats.hits) == (b_stats.lookups, b_stats.hits)
    assert s_state == b_state
