"""Property tests: the compiled Moore fast paths are exact.

Every claim the perf layer makes rests on `CompiledMoore` computing the
same thing as the one-symbol-at-a-time interpreter, for any machine and
any input length (including the block-boundary edge cases the blocked
kernel is most likely to get wrong).
"""

import pickle
import random

import numpy
import pytest

from repro.automata.moore import MooreMachine
from repro.perf.compiled import CompiledMoore


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
    states = []
    for bit in bits:
        state = machine.transitions[state][bit]
        states.append(state)
    return states


# State counts straddle the block-size tiers (16/12/8 bits) and the
# scan-vs-scalar-walk split at 64 states; lengths straddle block
# boundaries for every tier.
SIZES = [1, 2, 3, 5, 12, 16, 17, 63, 64, 65, 70, 300]
LENGTHS = [0, 1, 7, 8, 11, 12, 15, 16, 17, 96, 97, 333, 4097]


@pytest.mark.parametrize("num_states", SIZES)
def test_run_bits_matches_interpreter(num_states):
    rng = random.Random(num_states)
    for trial in range(3):
        machine = _random_machine(rng, num_states)
        compiled = machine.compile()
        for length in LENGTHS:
            bits = [rng.randrange(2) for _ in range(length)]
            expected = machine.trace_outputs("".join(map(str, bits)))
            assert list(compiled.run_bits(bits)) == expected
            assert list(compiled.run_bits(numpy.asarray(bits))) == expected


@pytest.mark.parametrize("num_states", [1, 5, 17, 70])
def test_run_states_and_final_state_match_interpreter(num_states):
    rng = random.Random(100 + num_states)
    machine = _random_machine(rng, num_states)
    compiled = machine.compile()
    for length in LENGTHS:
        bits = [rng.randrange(2) for _ in range(length)]
        expected = _reference_states(machine, bits)
        assert list(compiled.run_states(bits)) == expected
        assert compiled.final_state(bits) == (
            expected[-1] if expected else machine.start
        )


def test_explicit_start_state():
    rng = random.Random(7)
    machine = _random_machine(rng, 9)
    compiled = machine.compile()
    bits = [rng.randrange(2) for _ in range(45)]
    for start in range(machine.num_states):
        rebased = machine.with_start(start)
        expected = _reference_states(rebased, bits)
        assert list(compiled.run_states(bits, start=start)) == expected


def test_compile_is_memoized_and_excluded_from_pickle():
    machine = _random_machine(random.Random(3), 6)
    compiled = machine.compile()
    assert machine.compile() is compiled

    clone = pickle.loads(pickle.dumps(machine))
    assert "_compiled" not in clone.__dict__
    assert clone == machine
    bits = [1, 0, 1, 1, 0, 0, 1] * 9
    assert list(clone.compile().run_bits(bits)) == list(compiled.run_bits(bits))


def test_rejects_non_binary_alphabet():
    machine = MooreMachine(
        alphabet=("a", "b", "c"),
        start=0,
        outputs=(0, 1),
        transitions=((0, 1, 0), (1, 0, 1)),
    )
    with pytest.raises(ValueError):
        CompiledMoore(machine)
