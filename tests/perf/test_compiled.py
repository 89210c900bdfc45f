"""Property tests: the one-machine stack ``BatchedMoore([machine])`` is exact.

Every designed machine is simulated as a one-machine stack, so the perf
layer's claims rest on it computing the same thing as the table-driven
reference :func:`repro.conformance.oracles.oracle_moore_outputs`, for any
machine and any input length (including the block-boundary edge cases a
blocked kernel is most likely to get wrong).
"""

import random

import numpy
import pytest

from repro.automata.moore import MooreMachine
from repro.conformance.oracles import oracle_moore_outputs
from repro.perf.batched import BatchedMoore


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


# State counts straddle the old block-size tiers (16/12/8 bits) and the
# 64-state split; lengths straddle block boundaries for every width.
SIZES = [1, 2, 3, 5, 12, 16, 17, 63, 64, 65, 70, 300]
LENGTHS = [0, 1, 7, 8, 11, 12, 15, 16, 17, 96, 97, 333, 4097]


@pytest.mark.parametrize("num_states", SIZES)
def test_run_bits_matches_interpreter(num_states):
    rng = random.Random(num_states)
    for trial in range(3):
        machine = _random_machine(rng, num_states)
        kernel = BatchedMoore([machine])
        for length in LENGTHS:
            bits = [rng.randrange(2) for _ in range(length)]
            expected = oracle_moore_outputs(machine, bits)
            assert list(kernel.run_outputs(bits)[0]) == expected
            assert list(kernel.run_outputs(numpy.asarray(bits))[0]) == expected


@pytest.mark.parametrize("num_states", [1, 5, 17, 70])
def test_run_states_and_final_state_match_interpreter(num_states):
    rng = random.Random(100 + num_states)
    machine = _random_machine(rng, num_states)
    kernel = BatchedMoore([machine])
    for length in LENGTHS:
        bits = [rng.randrange(2) for _ in range(length)]
        expected = _reference_states(machine, bits)
        assert list(kernel.run_states(bits)[0]) == expected
        assert kernel.final_states(bits)[0] == (
            expected[-1] if expected else machine.start
        )


def test_rejects_non_binary_alphabet():
    machine = MooreMachine(
        alphabet=("a", "b", "c"),
        start=0,
        outputs=(0, 1),
        transitions=((0, 1, 0), (1, 0, 1)),
    )
    with pytest.raises(ValueError):
        BatchedMoore([machine])
