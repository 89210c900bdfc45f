"""Slow, obviously-correct reference implementations of every pipeline stage.

Each function here re-derives one stage's artifact by the most direct
method available -- dictionary loops, exhaustive string enumeration,
pairwise state comparison -- deliberately sharing *no* code with the fast
implementations in :mod:`repro.core`, :mod:`repro.logic`,
:mod:`repro.automata`, and :mod:`repro.perf`.  The differential runner
(:mod:`repro.conformance.diff`) pits the real pipeline against these
oracles on arbitrary inputs; any disagreement is a bug in one of the two,
and the oracles are simple enough to audit by eye.

Inventory:

=============================  ============================================
``oracle_markov_counts``       naive sliding-window recount (vs the numpy
                               batch trainer in :mod:`repro.core.markov`)
``oracle_pattern_sets``        naive re-partition into predict-1/0/dc sets
``cover_violations``           brute-force SOP check over all 2^N minterms,
                               evaluating cubes by string comparison
``regex_language``             set-theoretic language enumeration up to
                               length L straight off the regex AST
``machine_language``           language of an automaton by running every
                               string up to length L
``oracle_moore_outputs``       table-driven Moore simulation (vs
                               ``perf.batched``'s ``BatchedMoore``)
``oracle_banked_replay``       dict-of-states replay of an indexed table
                               of machines (vs ``perf.batched``'s
                               ``banked_replay``)
``oracle_minimal_moore``       minimization by pairwise state equivalence
                               (vs Hopcroft's partition refinement)
``oracle_steady_states``       exhaustive start-state reachability: run
                               all 2^N length-N inputs, close the image
``oracle_prediction_counts``   prediction hit counting by stepping the
                               machine one bit at a time
=============================  ============================================
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.automata import regex as rx
from repro.automata.moore import MooreMachine
from repro.logic.cube import Cube

# ----------------------------------------------------------------------
# Stage 1: Markov profiling
# ----------------------------------------------------------------------


def oracle_markov_counts(
    trace: Sequence[int], order: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``(totals, ones)`` recounted with a plain window loop.

    Bit 0 of a history integer is the most recent outcome, matching
    :mod:`repro.core.markov`; the window is rebuilt from scratch for every
    position, so there is no shift-register state to get wrong.
    """
    totals: Dict[int, int] = {}
    ones: Dict[int, int] = {}
    for i in range(order, len(trace)):
        history = 0
        for j in range(order):
            # trace[i - 1 - j] is the outcome j steps back -> bit j.
            history |= (trace[i - 1 - j] & 1) << j
        totals[history] = totals.get(history, 0) + 1
        if trace[i] == 1:
            ones[history] = ones.get(history, 0) + 1
    return totals, ones


# ----------------------------------------------------------------------
# Stage 2: pattern definition
# ----------------------------------------------------------------------


def oracle_pattern_sets(
    totals: Dict[int, int],
    ones: Dict[int, int],
    bias_threshold: float,
    dont_care_fraction: float,
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(predict_one, predict_zero)`` re-partitioned naively.

    Same contract as :func:`repro.core.patterns.define_patterns`: drop the
    rarest histories (ties toward the lower history value) while the
    dropped observation share stays within ``dont_care_fraction``, then
    split the rest on ``P[1|h] >= bias_threshold``.
    """
    total_observations = sum(totals.values())
    budget = total_observations * dont_care_fraction
    dropped: Set[int] = set()
    spent = 0
    for history, count in sorted(totals.items(), key=lambda kv: (kv[1], kv[0])):
        if budget <= 0 or spent + count > budget:
            break
        dropped.add(history)
        spent += count
    predict_one: Set[int] = set()
    predict_zero: Set[int] = set()
    for history, count in totals.items():
        if history in dropped:
            continue
        if ones.get(history, 0) / count >= bias_threshold:
            predict_one.add(history)
        else:
            predict_zero.add(history)
    return frozenset(predict_one), frozenset(predict_zero)


# ----------------------------------------------------------------------
# Stage 3: two-level minimization (SOP cover)
# ----------------------------------------------------------------------


def _cube_matches_bits(cube: Cube, bits: str) -> bool:
    """Evaluate a cube on an MSB-first bit string by comparing characters
    against the cube's own string form (no integer mask arithmetic)."""
    pattern = str(cube)
    if len(pattern) != len(bits):
        return False
    return all(p in ("-", b) for p, b in zip(pattern, bits))


def cover_violations(
    cover: Sequence[Cube],
    order: int,
    on_set: FrozenSet[int],
    off_set: FrozenSet[int],
) -> List[str]:
    """Brute-force SOP cover check over every length-``order`` history.

    A valid cover contains every on-set minterm, no off-set minterm, and
    consists of width-``order`` cubes; don't-cares may land on either
    side.  Returns human-readable violations (empty = valid).
    """
    issues: List[str] = []
    for cube in cover:
        if cube.width != order:
            issues.append(f"cube {cube} has width {cube.width}, expected {order}")
    if issues:
        return issues
    for minterm in range(1 << order):
        bits = format(minterm, f"0{order}b")
        covered = any(_cube_matches_bits(cube, bits) for cube in cover)
        if minterm in on_set and not covered:
            issues.append(f"on-set history {bits} not covered")
        elif minterm in off_set and covered:
            issues.append(f"off-set history {bits} wrongly covered")
    return issues


# ----------------------------------------------------------------------
# Stages 4-6: regex -> NFA -> DFA, via language enumeration
# ----------------------------------------------------------------------


def all_strings(alphabet: Sequence[str], max_len: int) -> List[str]:
    """Every string over ``alphabet`` of length 0..``max_len``, sorted by
    (length, lexicographic)."""
    out: List[str] = []
    for length in range(max_len + 1):
        for combo in product(alphabet, repeat=length):
            out.append("".join(combo))
    return out


def regex_language(node: rx.Regex, max_len: int) -> FrozenSet[str]:
    """The language of ``node`` restricted to strings of length <=
    ``max_len``, computed set-theoretically from the AST.

    Each operator maps to its defining set operation -- union for
    alternation, pairwise concatenation for sequencing, iterated
    concatenation to a fixpoint for the star -- so this is the regex
    *semantics*, independent of any automaton construction.
    """

    def lang(n: rx.Regex) -> FrozenSet[str]:
        if isinstance(n, rx.EmptySet):
            return frozenset()
        if isinstance(n, rx.Epsilon):
            return frozenset({""})
        if isinstance(n, rx.Symbol):
            return frozenset({n.char}) if max_len >= 1 else frozenset()
        if isinstance(n, rx.Alternate):
            result: FrozenSet[str] = frozenset()
            for option in n.options:
                result |= lang(option)
            return result
        if isinstance(n, rx.Concat):
            result = frozenset({""})
            for part in n.parts:
                part_lang = lang(part)
                result = frozenset(
                    a + b
                    for a in result
                    for b in part_lang
                    if len(a) + len(b) <= max_len
                )
                if not result:
                    return result
            return result
        if isinstance(n, rx.Star):
            inner = lang(n.inner)
            result = frozenset({""})
            while True:
                grown = result | frozenset(
                    a + b
                    for a in result
                    for b in inner
                    if b and len(a) + len(b) <= max_len
                )
                if grown == result:
                    return result
                result = grown
        raise TypeError(f"unknown regex node {n!r}")

    return lang(node)


def expected_history_language(
    cover: Sequence[Cube], order: int, max_len: int
) -> FrozenSet[str]:
    """The language the pipeline's regex *should* denote: every string of
    length >= ``order`` whose last ``order`` bits match some cube.  This
    is Section 4.5's specification stated directly, bypassing the regex
    construction entirely."""
    return frozenset(
        s
        for s in all_strings(("0", "1"), max_len)
        if len(s) >= order
        and any(_cube_matches_bits(cube, s[-order:]) for cube in cover)
    )


def machine_language(machine, max_len: int) -> FrozenSet[str]:
    """Accepted strings of an NFA/DFA up to ``max_len``, one
    ``accepts_string`` run per string."""
    return frozenset(
        s
        for s in all_strings(tuple(machine.alphabet), max_len)
        if machine.accepts_string(s)
    )


def moore_language(machine: MooreMachine, max_len: int) -> FrozenSet[str]:
    """Strings driving the Moore machine to an output-1 state (the DFA
    view's language), computed by stepping states one symbol at a time."""
    accepted: Set[str] = set()
    for s in all_strings(tuple(machine.alphabet), max_len):
        state = machine.start
        for symbol in s:
            state = machine.transitions[state][machine.alphabet.index(symbol)]
        if machine.outputs[state] == 1:
            accepted.add(s)
    return frozenset(accepted)


# ----------------------------------------------------------------------
# Moore simulation (vs the BatchedMoore kernel)
# ----------------------------------------------------------------------


def oracle_moore_outputs(
    machine: MooreMachine, bits: Sequence[int], start: Optional[int] = None
) -> List[int]:
    """Outputs of the states visited while consuming ``bits``: the
    table-driven reference for ``MooreMachine.trace_outputs`` and
    ``BatchedMoore.run_outputs``."""
    state = machine.start if start is None else start
    outputs: List[int] = []
    for bit in bits:
        state = machine.transitions[state][bit]
        outputs.append(machine.outputs[state])
    return outputs


def oracle_prediction_counts(
    machine: MooreMachine, trace: Sequence[int]
) -> Tuple[int, int]:
    """``(hits, lookups)`` of the predictor on ``trace``: before each
    outcome the current state's output is the prediction, then the machine
    steps on the actual outcome."""
    state = machine.start
    hits = 0
    for bit in trace:
        if machine.outputs[state] == bit:
            hits += 1
        state = machine.transitions[state][bit]
    return hits, len(trace)


def oracle_banked_replay(
    transitions: Sequence[Sequence[int]],
    start: int,
    indices: Sequence[int],
    bits: Sequence[int],
    update_mask: Optional[Sequence[int]] = None,
    entry_initial=None,
) -> Tuple[List[int], List[int], List[int]]:
    """``(entries, pre_states, final_states)`` of a bank of identical
    machines, one per distinct index, replayed one event at a time: the
    per-event reference for :func:`repro.perf.batched.banked_replay`.

    Event ``i`` reads entry ``indices[i]`` (its state lands in
    ``pre_states``) and, unless ``update_mask[i]`` is 0, steps it along
    ``bits[i]``.  ``entry_initial(entries)`` gives per-entry initial
    states (default: every entry starts in ``start``).
    """
    states: Dict[int, int] = {}
    pre: List[int] = []
    for i, entry in enumerate(indices):
        state = states.get(entry)
        if state is None:
            if entry_initial is None:
                state = start
            else:
                state = int(entry_initial([entry])[0])
        pre.append(state)
        if update_mask is None or update_mask[i]:
            state = transitions[state][bits[i]]
        states[entry] = state
    entries = sorted(states)
    return entries, pre, [states[e] for e in entries]


# ----------------------------------------------------------------------
# Minimization (vs Hopcroft)
# ----------------------------------------------------------------------


def _states_equivalent(machine: MooreMachine, a: int, b: int) -> bool:
    """Moore equivalence of two states by explicit pair exploration."""
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if machine.outputs[x] != machine.outputs[y]:
            return False
        if (x, y) in seen:
            continue
        seen.add((x, y))
        for index in range(len(machine.alphabet)):
            stack.append(
                (machine.transitions[x][index], machine.transitions[y][index])
            )
    return True


def machines_agree_from(
    machine_a: MooreMachine, a: int, machine_b: MooreMachine, b: int
) -> bool:
    """Cross-machine Moore equivalence of state ``a`` of ``machine_a`` and
    state ``b`` of ``machine_b``, by explicit pair exploration."""
    seen: Set[Tuple[int, int]] = set()
    stack: List[Tuple[int, int]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if machine_a.outputs[x] != machine_b.outputs[y]:
            return False
        if (x, y) in seen:
            continue
        seen.add((x, y))
        for index in range(len(machine_a.alphabet)):
            stack.append(
                (
                    machine_a.transitions[x][index],
                    machine_b.transitions[y][index],
                )
            )
    return True


def oracle_minimal_moore(machine: MooreMachine) -> MooreMachine:
    """Minimal equivalent machine built the slow way: drop unreachable
    states, group the rest by pairwise :func:`_states_equivalent`, and
    renumber the classes breadth-first from the start class.

    The breadth-first renumbering matches :func:`hopcroft_minimize`'s
    canonical form, so a correct Hopcroft must return *exactly* this
    machine -- not merely an equivalent one.
    """
    reachable = sorted(machine.reachable_states())
    classes: List[List[int]] = []
    for state in reachable:
        for group in classes:
            if _states_equivalent(machine, group[0], state):
                group.append(state)
                break
        else:
            classes.append([state])
    class_of = {state: i for i, group in enumerate(classes) for state in group}

    # Breadth-first renumbering from the start state's class.
    order: List[int] = [class_of[machine.start]]
    seen: Set[int] = set(order)
    queue: List[int] = list(order)
    while queue:
        current = queue.pop(0)
        representative = classes[current][0]
        for nxt in machine.transitions[representative]:
            nxt_class = class_of[nxt]
            if nxt_class not in seen:
                seen.add(nxt_class)
                order.append(nxt_class)
                queue.append(nxt_class)
    renumber = {old: new for new, old in enumerate(order)}
    outputs: List[int] = []
    rows: List[Tuple[int, ...]] = []
    for old in order:
        representative = classes[old][0]
        outputs.append(machine.outputs[representative])
        rows.append(
            tuple(
                renumber[class_of[nxt]]
                for nxt in machine.transitions[representative]
            )
        )
    return MooreMachine(
        alphabet=machine.alphabet,
        start=0,
        outputs=tuple(outputs),
        transitions=tuple(rows),
    )


def is_minimal(machine: MooreMachine) -> bool:
    """True when every state is reachable and no two are equivalent."""
    if machine.reachable_states() != set(range(machine.num_states)):
        return False
    return not any(
        _states_equivalent(machine, a, b)
        for a in range(machine.num_states)
        for b in range(a + 1, machine.num_states)
    )


# ----------------------------------------------------------------------
# Start-state reduction (exhaustive reachability)
# ----------------------------------------------------------------------


def oracle_steady_states(machine: MooreMachine, horizon: int) -> Set[int]:
    """States occupied after any input of length >= ``horizon``, found
    exhaustively: run all ``2^horizon`` length-``horizon`` inputs from the
    start state, then close the image under transitions (a state occupied
    after exactly ``horizon`` inputs plus any continuation is occupied
    after >= ``horizon`` inputs, and nothing else is)."""
    image: Set[int] = set()
    for combo in product(machine.alphabet, repeat=horizon):
        state = machine.start
        for symbol in combo:
            state = machine.transitions[state][machine.alphabet.index(symbol)]
        image.add(state)
    frontier = list(image)
    closed = set(image)
    while frontier:
        state = frontier.pop()
        for nxt in machine.transitions[state]:
            if nxt not in closed:
                closed.add(nxt)
                frontier.append(nxt)
    return closed
