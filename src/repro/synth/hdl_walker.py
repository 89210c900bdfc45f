"""Pure-python semantic walker for the emitted HDL (no external simulator).

The Verilog/VHDL emitters are tested structurally elsewhere (balanced
blocks, one arm per state); this module closes the *semantic* gap: it
parses the emitted next-state and output case statements back into a
transition table and steps that table like the register-transfer hardware
would -- reset to the start state, then one ``outcome`` bit per clock,
reading ``prediction`` combinationally from the current state.  Agreement
with :func:`repro.conformance.oracles.oracle_moore_outputs` on arbitrary
traces is then asserted by the conformance tests, so a bug in either emitter shows up as a
bit-exact mismatch instead of passing the shape checks.

The walker is deliberately strict: it recognizes exactly the dialect the
emitters produce (one ``when``/case arm per state, ternary or
if/else next-state selection) and raises :class:`HDLWalkError` on
anything unexpected, so a drive-by edit to an emitter cannot silently
turn the semantic check into a no-op.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


class HDLWalkError(ValueError):
    """The HDL text does not match the emitted two-process structure."""


@dataclass(frozen=True)
class WalkedFSM:
    """A machine recovered from emitted HDL: start state, Moore outputs,
    and per-state (on-0, on-1) successors."""

    start: int
    outputs: Tuple[int, ...]
    transitions: Tuple[Tuple[int, int], ...]

    @property
    def num_states(self) -> int:
        return len(self.outputs)

    def step(self, state: int, bit: int) -> int:
        return self.transitions[state][1 if bit else 0]

    def run_bits(self, bits: Sequence[int]) -> List[int]:
        """Clock the walked register through ``bits`` after a reset,
        reading the prediction after every edge -- the same contract as
        :meth:`MooreMachine.trace_outputs` and
        :func:`repro.conformance.oracles.oracle_moore_outputs`."""
        state = self.start
        outputs: List[int] = []
        for bit in bits:
            state = self.step(state, bit)
            outputs.append(self.outputs[state])
        return outputs


def _validated(
    start: int,
    outputs: Dict[int, int],
    transitions: Dict[int, Tuple[int, int]],
    language: str,
) -> WalkedFSM:
    if not outputs or not transitions:
        raise HDLWalkError(f"{language}: found no case arms to walk")
    states = set(outputs)
    if set(transitions) != states:
        raise HDLWalkError(
            f"{language}: output arms cover states {sorted(states)} but "
            f"next-state arms cover {sorted(transitions)}"
        )
    if states != set(range(len(states))):
        raise HDLWalkError(f"{language}: state numbering has holes: {sorted(states)}")
    if start not in states:
        raise HDLWalkError(f"{language}: reset state s{start} has no case arm")
    for state, (on_zero, on_one) in transitions.items():
        for target in (on_zero, on_one):
            if target not in states:
                raise HDLWalkError(
                    f"{language}: state s{state} transitions to missing s{target}"
                )
    return WalkedFSM(
        start=start,
        outputs=tuple(outputs[s] for s in range(len(states))),
        transitions=tuple(transitions[s] for s in range(len(states))),
    )


_V_RESET = re.compile(r"if \(reset\)\s*\n\s*state <= S(\d+);")
_V_NEXT = re.compile(
    r"S(\d+):\s*next_state = outcome \? S(\d+) : S(\d+);"
)
_V_OUTPUT = re.compile(r"S(\d+):\s*prediction = 1'b([01]);")


def walk_verilog(text: str) -> WalkedFSM:
    """Recover the machine from a module emitted by ``generate_verilog``."""
    reset = _V_RESET.search(text)
    if reset is None:
        raise HDLWalkError("verilog: no synchronous reset assignment found")
    transitions: Dict[int, Tuple[int, int]] = {}
    for state, on_one, on_zero in _V_NEXT.findall(text):
        key = int(state)
        if key in transitions:
            raise HDLWalkError(f"verilog: duplicate next-state arm for S{key}")
        # The ternary reads `outcome ? S<on 1> : S<on 0>`.
        transitions[key] = (int(on_zero), int(on_one))
    outputs: Dict[int, int] = {}
    for state, value in _V_OUTPUT.findall(text):
        key = int(state)
        if key in outputs:
            raise HDLWalkError(f"verilog: duplicate output arm for S{key}")
        outputs[key] = int(value)
    return _validated(int(reset.group(1)), outputs, transitions, "verilog")


_VH_RESET = re.compile(r"if reset = '1' then\s*\n\s*state <= s(\d+);")
_VH_NEXT_ARM = re.compile(
    r"when s(\d+) =>\s*\n"
    r"\s*if outcome = '0' then\s*\n"
    r"\s*next_state <= s(\d+);\s*\n"
    r"\s*else\s*\n"
    r"\s*next_state <= s(\d+);\s*\n"
    r"\s*end if;"
)
_VH_OUTPUT_ARM = re.compile(
    r"when s(\d+) =>\s*\n\s*prediction <= '([01])';"
)


def walk_vhdl(text: str) -> WalkedFSM:
    """Recover the machine from an entity emitted by ``generate_vhdl``."""
    reset = _VH_RESET.search(text)
    if reset is None:
        raise HDLWalkError("vhdl: no synchronous reset assignment found")
    transitions: Dict[int, Tuple[int, int]] = {}
    for state, on_zero, on_one in _VH_NEXT_ARM.findall(text):
        key = int(state)
        if key in transitions:
            raise HDLWalkError(f"vhdl: duplicate next-state arm for s{key}")
        transitions[key] = (int(on_zero), int(on_one))
    outputs: Dict[int, int] = {}
    for state, value in _VH_OUTPUT_ARM.findall(text):
        key = int(state)
        if key in outputs:
            raise HDLWalkError(f"vhdl: duplicate output arm for s{key}")
        outputs[key] = int(value)
    return _validated(int(reset.group(1)), outputs, transitions, "vhdl")
