"""Property tests: the machine-batched kernels are exact.

``BatchedMoore`` must agree with per-machine ``CompiledMoore``/
``MooreMachine.trace_outputs`` for arbitrary stacks (heterogeneous state
counts, ragged padding, empty traces, single-machine stacks), and
``banked_replay`` with its per-event reference loop
(:func:`repro.conformance.oracles.oracle_banked_replay`) for arbitrary
index streams, masks, and per-entry initial states.  The predictor
``_batch_simulate`` fast paths must be bit-identical to the serial
simulation loop, stats *and* post-simulation predictor state.
"""

from __future__ import annotations

import random

import numpy
import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.batched
from repro.automata.moore import MooreMachine
from repro.conformance.oracles import oracle_banked_replay
from repro.perf.batched import (
    BATCH_THRESHOLD,
    BatchedMoore,
    backend_info,
    banked_replay,
    simulate_predictors_batched,
)


def _random_machine(rng: random.Random, num_states: int) -> MooreMachine:
    return MooreMachine(
        alphabet=("0", "1"),
        start=rng.randrange(num_states),
        outputs=tuple(rng.randrange(2) for _ in range(num_states)),
        transitions=tuple(
            (rng.randrange(num_states), rng.randrange(num_states))
            for _ in range(num_states)
        ),
    )


def _reference_states(machine: MooreMachine, bits) -> list:
    state = machine.start
    out = []
    for bit in bits:
        state = machine.transitions[state][bit]
        out.append(state)
    return out


@st.composite
def machine_stacks(draw):
    """Stacks with heterogeneous state counts (ragged padding on purpose)
    and a shared bit stream, lengths straddling block boundaries."""
    sizes = draw(
        st.lists(
            st.sampled_from([1, 2, 3, 5, 8, 17, 40, 65, 70]),
            min_size=1,
            max_size=6,
        )
    )
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    machines = [_random_machine(rng, n) for n in sizes]
    length = draw(st.sampled_from([0, 1, 7, 9, 10, 11, 16, 33, 100, 1111]))
    bits = [rng.randrange(2) for _ in range(length)]
    return machines, bits


@settings(max_examples=60, deadline=None)
@given(machine_stacks())
def test_batched_moore_matches_per_machine(stack):
    machines, bits = stack
    batched = BatchedMoore(machines)
    states = batched.run_states(bits)
    pre = batched.pre_states(bits)
    outs = batched.run_outputs(bits)
    finals = batched.final_states(bits)
    for m, machine in enumerate(machines):
        expected = _reference_states(machine, bits)
        assert list(states[m]) == expected
        assert list(pre[m]) == (
            [machine.start] + expected[:-1] if expected else []
        )
        text = "".join(map(str, bits))
        assert list(outs[m]) == machine.trace_outputs(text)
        assert finals[m] == (expected[-1] if expected else machine.start)


def test_long_stream_chunked_scan_matches_compiled():
    """Streams long enough for the B=12 table and the chunked scan's
    multi-block chunks (K > 1), which hypothesis's short traces miss."""
    rng = random.Random(41)
    machines = [_random_machine(rng, n) for n in (3, 8, 24, 64, 70)]
    length = 12 * 4096 + 77  # trips the B=12 path, leaves a ragged tail
    bits = numpy.asarray([rng.randrange(2) for _ in range(length)])
    stack = BatchedMoore(machines)
    states = stack.run_states(bits)
    outs = stack.run_outputs(bits)
    for m, machine in enumerate(machines):
        compiled = machine.compile()
        assert numpy.array_equal(states[m], compiled.run_states(bits))
        assert numpy.array_equal(outs[m], compiled.run_bits(bits))


def test_single_machine_stack_equals_compiled():
    rng = random.Random(7)
    for num_states in (1, 2, 17, 70):
        machine = _random_machine(rng, num_states)
        bits = [rng.randrange(2) for _ in range(513)]
        stacked = BatchedMoore([machine]).run_states(bits)
        compiled = machine.compile().run_states(numpy.asarray(bits))
        assert list(stacked[0]) == list(compiled)


def test_empty_stack_rejected():
    with pytest.raises(ValueError):
        BatchedMoore([])


def test_non_binary_alphabet_rejected():
    machine = MooreMachine(
        alphabet=("a", "b"), start=0, outputs=(0,), transitions=((0, 0),)
    )
    with pytest.raises(ValueError):
        BatchedMoore([machine])


# ----------------------------------------------------------------------
# banked_replay vs the per-event reference loop
# ----------------------------------------------------------------------

@st.composite
def bank_cases(draw):
    num_states = draw(st.sampled_from([2, 3, 4, 8, 17, 41]))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    transitions = [
        (rng.randrange(num_states), rng.randrange(num_states))
        for _ in range(num_states)
    ]
    n = draw(st.sampled_from([0, 1, 5, 16, 17, 100, 1000]))
    num_entries = draw(st.sampled_from([1, 2, 7, 64, 1000]))
    indices = [rng.randrange(num_entries) for _ in range(n)]
    bits = [rng.randrange(2) for _ in range(n)]
    masked = draw(st.booleans())
    mask = [rng.randrange(2) for _ in range(n)] if masked else None
    custom_init = draw(st.booleans())
    start = rng.randrange(num_states)
    return transitions, start, indices, bits, mask, custom_init


@settings(max_examples=60, deadline=None)
@given(bank_cases())
def test_banked_replay_matches_reference(case):
    transitions, start, indices, bits, mask, custom_init = case
    num_states = len(transitions)
    if custom_init:
        def entry_initial(entries):
            return [(int(e) * 7 + 3) % num_states for e in entries]
    else:
        entry_initial = None
    got = banked_replay(
        transitions, start, indices, bits, update_mask=mask,
        entry_initial=entry_initial,
    )
    entries, pre_states, final_states = oracle_banked_replay(
        transitions, start, indices, bits, mask, entry_initial
    )
    assert list(got.entries) == entries
    assert list(got.pre_states) == pre_states
    assert list(got.final_states) == final_states


# ----------------------------------------------------------------------
# Predictor fast paths: stats and post-simulation state bit-identical
# ----------------------------------------------------------------------

def _synthetic_trace(n: int, seed: int = 5):
    class Trace:
        def __init__(self):
            rng = random.Random(seed)
            pcs = [0x1000 + 4 * rng.randrange(60) for _ in range(n)]
            self.pcs = pcs
            # Correlate outcomes with pc so predictors have signal.
            self.outcomes = [
                1 if (pc >> 2) % 3 != 0 else rng.randrange(2) for pc in pcs
            ]

        def __len__(self):
            return len(self.pcs)

        def __iter__(self):
            return iter(zip(self.pcs, self.outcomes))

    return Trace()


def _force_loop(monkeypatch):
    """Raise the size cutover past any trace: every consumer takes its
    per-event loop."""
    monkeypatch.setattr(repro.perf.batched, "BATCH_THRESHOLD", 10**9)


def _simulate_both(monkeypatch, make_predictor, trace, warmup=0):
    from repro.predictors.base import simulate_predictor

    with monkeypatch.context() as patch:
        _force_loop(patch)
        serial = make_predictor()
        serial_stats = simulate_predictor(serial, trace, warmup=warmup)
    batched = make_predictor()
    batched_stats = simulate_predictor(batched, trace, warmup=warmup)
    assert (serial_stats.lookups, serial_stats.hits) == (
        batched_stats.lookups,
        batched_stats.hits,
    )
    return serial, batched


@pytest.mark.parametrize("warmup", [0, 257])
def test_gshare_batch_matches_serial(monkeypatch, warmup):
    from repro.predictors.gshare import GSharePredictor

    trace = _synthetic_trace(BATCH_THRESHOLD + 321)
    # Guard against a silently-declining fast path (which would make the
    # equality below vacuous: serial vs serial).
    assert (
        GSharePredictor(8)._batch_simulate(trace.pcs, trace.outcomes, 0)
        is not None
    )
    serial, batched = _simulate_both(
        monkeypatch, lambda: GSharePredictor(8), trace, warmup=warmup
    )
    assert serial._history == batched._history
    assert [c.value for c in serial._counters] == [
        c.value for c in batched._counters
    ]


def test_lgc_batch_matches_serial(monkeypatch):
    from repro.predictors.local_global import LocalGlobalChooser

    trace = _synthetic_trace(BATCH_THRESHOLD + 100, seed=11)
    serial, batched = _simulate_both(
        monkeypatch, lambda: LocalGlobalChooser(6), trace
    )
    assert serial._global_history == batched._global_history
    assert serial._local_histories == batched._local_histories
    for bank in ("_local_counters", "_global_counters", "_chooser"):
        assert [c.value for c in getattr(serial, bank)] == [
            c.value for c in getattr(batched, bank)
        ]


def test_xscale_batch_matches_serial(monkeypatch):
    from repro.predictors.xscale import XScalePredictor

    trace = _synthetic_trace(BATCH_THRESHOLD + 50, seed=3)
    serial, batched = _simulate_both(
        monkeypatch, lambda: XScalePredictor(16), trace
    )
    for a, b in zip(serial._entries, batched._entries):
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert (a.tag, a.counter.value) == (b.tag, b.counter.value)


def test_simulate_predictors_batched_matches_loop(monkeypatch):
    from repro.predictors.base import simulate_predictor
    from repro.predictors.gshare import GSharePredictor

    trace = _synthetic_trace(BATCH_THRESHOLD + 10)
    assert (
        GSharePredictor(4)._batch_simulate(trace.pcs, trace.outcomes, 0)
        is not None
    )
    with monkeypatch.context() as patch:
        _force_loop(patch)
        want = [
            simulate_predictor(GSharePredictor(bits), trace)
            for bits in (4, 6, 8)
        ]
    got = simulate_predictors_batched(
        [GSharePredictor(bits) for bits in (4, 6, 8)], trace
    )
    assert [(s.lookups, s.hits) for s in got] == [
        (s.lookups, s.hits) for s in want
    ]


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------

def test_backend_info_names_numpy():
    info = backend_info()
    assert info["backend"].startswith("numpy-")


def test_design_flow_cache_salt_covers_batched_kernels():
    """Kernel-era designs must never be served from pre-batch cache
    entries: the salt was bumped when the batched kernels landed."""
    from repro.perf.cache import DESIGN_FLOW_VERSION, digest_of

    assert DESIGN_FLOW_VERSION >= 3
    old = digest_of("design-from-trace", b"x", (), DESIGN_FLOW_VERSION - 1)
    new = digest_of("design-from-trace", b"x", (), DESIGN_FLOW_VERSION)
    assert old != new
