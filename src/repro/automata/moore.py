"""Moore machines: the predictor's final hardware-facing form.

"A Moore machine extends [a FSM] with an output on each state ... The output
at a given state is its prediction of the next input" (Section 1).  For
predictors the alphabet and the outputs are both ``{0, 1}``: the machine is
updated by traversing the edge labelled with the actual outcome, and the
output of the state it lands in is the next prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.automata.dfa import DFA

BINARY_ALPHABET: Tuple[str, str] = ("0", "1")


@dataclass(frozen=True)
class MooreMachine:
    """A complete Moore machine with dense integer states.

    ``transitions[state][symbol_index]`` is the successor state and
    ``outputs[state]`` the state's output (for predictors: 0 or 1).
    """

    alphabet: Tuple[str, ...]
    start: int
    outputs: Tuple[int, ...]
    transitions: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.transitions)
        if len(self.outputs) != n:
            raise ValueError(
                f"{len(self.outputs)} outputs for {n} states"
            )
        width = len(self.alphabet)
        for state, row in enumerate(self.transitions):
            if len(row) != width:
                raise ValueError(f"state {state} has {len(row)} transitions")
            for nxt in row:
                if not 0 <= nxt < n:
                    raise ValueError(f"state {state} -> {nxt} out of range")
        if not 0 <= self.start < n:
            raise ValueError(f"start state {self.start} out of range")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dfa(cls, dfa: DFA) -> "MooreMachine":
        """View a DFA as a Moore machine: accepting states output 1."""
        outputs = tuple(1 if s in dfa.accepts else 0 for s in range(dfa.num_states))
        return cls(
            alphabet=dfa.alphabet,
            start=dfa.start,
            outputs=outputs,
            transitions=dfa.transitions,
        )

    def to_dfa(self) -> DFA:
        """View as a DFA whose accepting states are those with output 1."""
        accepts = frozenset(s for s, out in enumerate(self.outputs) if out)
        return DFA(
            alphabet=self.alphabet,
            start=self.start,
            accepts=accepts,
            transitions=self.transitions,
        )

    # ------------------------------------------------------------------
    # Inspection / simulation
    # ------------------------------------------------------------------
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

    def step_bit(self, state: int, bit: int) -> int:
        """Fast path for the binary alphabet: 0/1 index directly."""
        return self.transitions[state][bit]

    def run(self, text: str, start: Optional[int] = None) -> int:
        """State reached after consuming ``text``."""
        state = self.start if start is None else start
        for symbol in text:
            state = self.step(state, symbol)
        return state

    def output_after(self, text: str, start: Optional[int] = None) -> int:
        """The output (prediction) of the state reached by ``text``."""
        return self.outputs[self.run(text, start=start)]

    def trace_outputs(self, text: str, start: Optional[int] = None) -> List[int]:
        """Outputs of every state visited while consuming ``text``
        (excluding the initial state's output)."""
        state = self.start if start is None else start
        outs: List[int] = []
        for symbol in text:
            state = self.step(state, symbol)
            outs.append(self.outputs[state])
        return outs

    def reachable_states(self, roots: Optional[Iterable[int]] = None) -> Set[int]:
        frontier: List[int] = list(roots) if roots is not None else [self.start]
        seen: Set[int] = set(frontier)
        while frontier:
            state = frontier.pop()
            for nxt in self.transitions[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def restrict_to(self, keep: Sequence[int], start: int) -> "MooreMachine":
        """Keep only the listed states (which must be transition-closed).

        States are renumbered in the order given; ``start`` is the old id
        of the new start state.
        """
        keep_list = list(keep)
        renumber: Dict[int, int] = {old: new for new, old in enumerate(keep_list)}
        if start not in renumber:
            raise ValueError(f"new start {start} not among kept states")
        rows: List[Tuple[int, ...]] = []
        for old in keep_list:
            row = []
            for nxt in self.transitions[old]:
                if nxt not in renumber:
                    raise ValueError(
                        f"kept state {old} transitions to dropped state {nxt}"
                    )
                row.append(renumber[nxt])
            rows.append(tuple(row))
        return MooreMachine(
            alphabet=self.alphabet,
            start=renumber[start],
            outputs=tuple(self.outputs[old] for old in keep_list),
            transitions=tuple(rows),
        )

    def with_start(self, start: int) -> "MooreMachine":
        return MooreMachine(
            alphabet=self.alphabet,
            start=start,
            outputs=self.outputs,
            transitions=self.transitions,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dot(self, name: str = "predictor") -> str:
        """GraphViz DOT rendering in the style of the paper's figures:
        each state labelled ``sN [output]``."""
        lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=circle];"]
        lines.append(f'  init [shape=point, label=""];')
        lines.append(f"  init -> s{self.start};")
        for state, out in enumerate(self.outputs):
            lines.append(f'  s{state} [label="s{state}\\n[{out}]"];')
        for state, row in enumerate(self.transitions):
            # Collapse parallel edges with identical endpoints.
            grouped: Dict[int, List[str]] = {}
            for symbol, nxt in zip(self.alphabet, row):
                grouped.setdefault(nxt, []).append(symbol)
            for nxt, symbols in sorted(grouped.items()):
                label = ",".join(symbols)
                lines.append(f'  s{state} -> s{nxt} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Compact human-readable table of the machine."""
        lines = [f"MooreMachine: {self.num_states} states, start=s{self.start}"]
        for state, (out, row) in enumerate(zip(self.outputs, self.transitions)):
            edges = ", ".join(
                f"{sym}->s{nxt}" for sym, nxt in zip(self.alphabet, row)
            )
            lines.append(f"  s{state} [{out}]: {edges}")
        return "\n".join(lines)
