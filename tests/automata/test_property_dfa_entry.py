"""Property tests: entry-space subset construction is exact.

The numpy fast path in :func:`repro.automata.dfa.subset_construct` runs
the worklist over entry-set masks and materializes subsets afterwards;
these tests force it on for arbitrary NFAs (epsilon cycles, unreachable
states, empty-move dead states) and require the result to be
*bit-identical* to the bignum worklist -- state numbering, transitions,
and accept set, not merely language-equivalent.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import repro.automata.dfa as dfa_mod
from repro.automata.dfa import subset_construct
from repro.automata.nfa import EPSILON, NFA


@st.composite
def nfas(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    p_eps = draw(st.sampled_from([0.0, 0.05, 0.2]))
    p_sym = draw(st.sampled_from([0.03, 0.1, 0.3]))
    rng = random.Random(seed)
    transitions = {}
    for state in range(n):
        eps = frozenset(t for t in range(n) if rng.random() < p_eps)
        if eps:
            transitions[(state, EPSILON)] = eps
        for symbol in ("0", "1"):
            dsts = frozenset(t for t in range(n) if rng.random() < p_sym)
            if dsts:
                transitions[(state, symbol)] = dsts
    accepts = frozenset(t for t in range(n) if rng.random() < 0.25)
    return NFA(
        num_states=n,
        alphabet=("0", "1"),
        start=rng.randrange(n),
        accepts=accepts,
        transitions=transitions,
    )


@settings(max_examples=80, deadline=None)
@given(nfas())
def test_entry_space_construction_is_bit_identical(nfa):
    threshold = dfa_mod._ENTRY_THRESHOLD
    try:
        dfa_mod._ENTRY_THRESHOLD = 10**9  # force the bignum worklist
        reference = subset_construct(nfa)
        dfa_mod._ENTRY_THRESHOLD = 1  # force the entry-space path
        fast = subset_construct(nfa)
    finally:
        dfa_mod._ENTRY_THRESHOLD = threshold
    assert fast.start == reference.start
    assert fast.accepts == reference.accepts
    assert fast.transitions == reference.transitions
    assert fast.alphabet == reference.alphabet


def test_subset_dedup_on_large_nfa_with_duplicate_subsets():
    """n > 256 trips the batched subset materialization + dedup in the
    entry path; the epsilon 2-cycles below make distinct entry sets
    denote the *same* subset (closure(2k) == closure(2k+1)), so the
    dedup must actually collapse rows -- numbering and accepts still
    bit-identical to the bignum worklist."""
    n = 400
    rng = random.Random(9)
    transitions = {}
    for k in range(0, n - 1, 2):
        transitions[(k, EPSILON)] = frozenset({k + 1})
        transitions[(k + 1, EPSILON)] = frozenset({k})
    for state in range(n):
        transitions[(state, "0")] = frozenset(
            rng.randrange(n) for _ in range(2)
        )
        # "1" moves land on either half of an epsilon pair depending on
        # the source's parity: subsets reached from odd/even twins are
        # equal sets expressed as different entry rows.
        base = 2 * rng.randrange((n - 1) // 2)
        transitions[(state, "1")] = frozenset({base + (state & 1)})
    nfa = NFA(
        num_states=n,
        alphabet=("0", "1"),
        start=0,
        accepts=frozenset(t for t in range(n) if rng.random() < 0.1),
        transitions=transitions,
    )
    threshold = dfa_mod._ENTRY_THRESHOLD
    try:
        dfa_mod._ENTRY_THRESHOLD = 10**9
        reference = subset_construct(nfa)
        dfa_mod._ENTRY_THRESHOLD = 1
        fast = subset_construct(nfa)
    finally:
        dfa_mod._ENTRY_THRESHOLD = threshold
    assert fast.start == reference.start
    assert fast.accepts == reference.accepts
    assert fast.transitions == reference.transitions
