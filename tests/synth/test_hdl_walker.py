"""Semantic conformance of the HDL emitters: walk the emitted case
statements in pure python and demand bit-exact agreement with the source
machine on random traces -- no external simulator involved."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.automata.moore import MooreMachine
from repro.conformance.oracles import oracle_moore_outputs
from repro.core.pipeline import design_predictor
from repro.synth.hdl_walker import (
    HDLWalkError,
    walk_verilog,
    walk_vhdl,
)
from repro.synth.verilog import generate_verilog
from repro.synth.vhdl import generate_vhdl


@st.composite
def machines(draw, max_states: int = 8):
    n = draw(st.integers(1, max_states))
    outputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    transitions = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n,
            max_size=n,
        )
    )
    start = draw(st.integers(0, n - 1))
    return MooreMachine(
        alphabet=("0", "1"),
        start=start,
        outputs=tuple(outputs),
        transitions=tuple(transitions),
    )


@st.composite
def bit_traces(draw, max_len: int = 64):
    return draw(st.lists(st.integers(0, 1), min_size=0, max_size=max_len))


@given(machines(), bit_traces())
def test_verilog_walker_bit_exact(machine, bits):
    walked = walk_verilog(generate_verilog(machine))
    assert walked.start == machine.start
    assert walked.run_bits(bits) == oracle_moore_outputs(machine, bits)


@given(machines(), bit_traces())
def test_vhdl_walker_bit_exact(machine, bits):
    walked = walk_vhdl(generate_vhdl(machine))
    assert walked.start == machine.start
    assert walked.run_bits(bits) == oracle_moore_outputs(machine, bits)


def test_walkers_agree_on_designed_predictor(paper_trace):
    """End to end: design a predictor, emit both HDLs, and check the two
    walkers and the machine agree on a long random trace."""
    machine = design_predictor(paper_trace * 4, order=2).machine
    verilog = walk_verilog(generate_verilog(machine))
    vhdl = walk_vhdl(generate_vhdl(machine))
    rng = random.Random(0xD1CE)
    bits = [rng.randint(0, 1) for _ in range(500)]
    expected = oracle_moore_outputs(machine, bits)
    assert verilog.run_bits(bits) == expected
    assert vhdl.run_bits(bits) == expected


def test_verilog_walker_catches_wrong_transition():
    machine = MooreMachine(
        alphabet=("0", "1"),
        start=0,
        outputs=(0, 1),
        transitions=((0, 1), (1, 0)),
    )
    text = generate_verilog(machine)
    # Swap one arm's targets: `outcome ? S1 : S0` -> `outcome ? S0 : S1`.
    broken = text.replace(
        "S0: next_state = outcome ? S1 : S0;",
        "S0: next_state = outcome ? S0 : S1;",
    )
    assert broken != text
    walked = walk_verilog(broken)
    bits = [1, 0, 0, 1]
    assert walked.run_bits(bits) != oracle_moore_outputs(machine, bits)


def test_vhdl_walker_rejects_truncated_case():
    machine = MooreMachine(
        alphabet=("0", "1"),
        start=0,
        outputs=(0, 1),
        transitions=((0, 1), (1, 0)),
    )
    text = generate_vhdl(machine)
    truncated = text.replace("prediction <= '1';", "")
    with pytest.raises(HDLWalkError):
        walk_vhdl(truncated)


def test_verilog_walker_rejects_missing_reset():
    machine = MooreMachine(
        alphabet=("0", "1"),
        start=0,
        outputs=(0,),
        transitions=((0, 0),),
    )
    text = generate_verilog(machine).replace("if (reset)", "if (rst)")
    with pytest.raises(HDLWalkError):
        walk_verilog(text)
