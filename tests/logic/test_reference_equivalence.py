"""The bitset minimizer against the list-and-set one it replaced.

``tests/logic/_reference.py`` holds the previous ``prime_implicants``,
``essential_primes``, ``greedy_cover`` and ``exact_cover`` verbatim.  The
new code must return identical prime lists and identical chosen-index
lists, in order, for every node budget: that pins the branch-and-bound's
depth-first order and what it returns when the budget runs out, which no
golden cover does on its own.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from hypothesis import given, strategies as st

from repro.logic.covering import (
    essential_primes,
    exact_cover,
    greedy_cover,
    select_cover,
)
from repro.logic.cube import Cube
from repro.logic.quine_mccluskey import prime_implicants
from repro.logic.truth_table import TruthTable
from repro.obs.metrics import metrics
from tests.logic import _reference as reference

NODE_LIMITS = (1, 2, 7, 50, 200_000)
BUDGET_COUNTER = "logic.cover.budget_exhausted"
EXHAUSTED_FIXTURE = Path(__file__).with_name("exhausted_cover.json")
# The classic cyclic core: no essentials, a small search that finishes
# within any budget above a few nodes.
CYCLIC_PRIMES = [
    Cube.from_string(t) for t in ("0-1", "01-", "-10", "1-0", "10-", "-01")
]
CYCLIC_MINTERMS = [0b001, 0b011, 0b010, 0b110, 0b100, 0b101]


@st.composite
def covering_problems(draw):
    """A random table of width 1-8 (each minterm on, off or dc with
    drawn weights), its on-set in a drawn order, and a node budget."""
    width = draw(st.integers(1, 8))
    weights = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(any))
    symbols = draw(
        st.lists(
            st.sampled_from("1" * weights[0] + "0" * weights[1] + "-" * weights[2]),
            min_size=1 << width,
            max_size=1 << width,
        )
    )
    table = TruthTable(
        width=width,
        on_set=frozenset(m for m, s in enumerate(symbols) if s == "1"),
        off_set=frozenset(m for m, s in enumerate(symbols) if s == "0"),
    )
    minterms = draw(st.permutations(sorted(table.on_set)))
    return table, list(minterms), draw(st.sampled_from(NODE_LIMITS))


@given(covering_problems())
def test_primes_essentials_and_covers_match_reference(problem):
    table, minterms, node_limit = problem
    primes = prime_implicants(table)
    assert primes == reference.prime_implicants(table)
    if not minterms:
        return
    ess, remaining = essential_primes(primes, minterms)
    assert (ess, remaining) == reference.essential_primes(primes, minterms)
    assert greedy_cover(primes, minterms) == reference.greedy_cover(
        primes, minterms
    )
    assert greedy_cover(primes, minterms, preselected=ess) == (
        reference.greedy_cover(primes, minterms, preselected=ess)
    )
    if len(primes) > 64:
        return  # select_cover never runs the exact search on these
    for pre in (None, ess):
        assert exact_cover(
            primes, minterms, preselected=pre, node_limit=node_limit
        ) == reference.exact_cover(
            primes, minterms, preselected=pre, node_limit=node_limit
        )


@given(covering_problems())
def test_one_node_budget_returns_the_greedy_cover(problem):
    table, minterms, _ = problem
    primes = prime_implicants(table)
    ess, _remaining = essential_primes(primes, minterms)
    assert exact_cover(primes, minterms, preselected=ess, node_limit=1) == (
        greedy_cover(primes, minterms, preselected=ess)
    )


def _exhausted_fixture():
    data = json.loads(EXHAUSTED_FIXTURE.read_text())
    primes = [Cube.from_string(text) for text in data["primes"]]
    return primes, data


def test_exhausted_cover_returns_the_pinned_cover_and_counts_once():
    primes, data = _exhausted_fixture()
    before = metrics().get(BUDGET_COUNTER)
    chosen = exact_cover(
        primes,
        data["minterms"],
        preselected=data["preselected"],
        node_limit=data["node_limit"],
    )
    assert chosen == data["cover"]
    assert metrics().get(BUDGET_COUNTER) - before == 1


def test_exhausted_cover_through_select_cover():
    primes, data = _exhausted_fixture()
    assert data["node_limit"] == 200_000  # select_cover's budget
    assert select_cover(primes, data["minterms"]) == sorted(
        primes[i] for i in data["cover"]
    )


def test_finished_cover_does_not_count():
    primes, minterms = CYCLIC_PRIMES, CYCLIC_MINTERMS
    before = metrics().get(BUDGET_COUNTER)
    assert len(exact_cover(primes, minterms)) == 3
    assert len(select_cover(primes, minterms)) == 3
    assert metrics().get(BUDGET_COUNTER) == before


def test_budget_counter_ticks_once_per_exhausted_search():
    primes, minterms = CYCLIC_PRIMES, CYCLIC_MINTERMS
    before = metrics().get(BUDGET_COUNTER)
    for node_limit in (0, 1, 2):
        assert exact_cover(primes, minterms, node_limit=node_limit) == (
            reference.exact_cover(primes, minterms, node_limit=node_limit)
        )
    assert metrics().get(BUDGET_COUNTER) - before == 3


def test_wide_tables_match_reference_at_small_budgets():
    # Hypothesis favours narrow tables; this fixed sweep makes every run
    # compare wide ones, where the search is deep and budgets bite.
    rng = random.Random(1606)
    compared = 0
    while compared < 20:
        width = rng.randint(6, 8)
        p_on, p_off = rng.random(), rng.random()
        on, off = set(), set()
        for m in range(1 << width):
            draw = rng.random()
            if draw < p_on / 2:
                on.add(m)
            elif draw < (p_on + p_off) / 2:
                off.add(m)
        table = TruthTable(width=width, on_set=frozenset(on), off_set=frozenset(off))
        primes = prime_implicants(table)
        assert primes == reference.prime_implicants(table)
        if not on:
            continue
        minterms = sorted(on)
        rng.shuffle(minterms)
        ess, _remaining = essential_primes(primes, minterms)
        assert greedy_cover(primes, minterms, preselected=ess) == (
            reference.greedy_cover(primes, minterms, preselected=ess)
        )
        if len(primes) > 64:
            continue
        for node_limit in (2, 50, 2000):
            assert exact_cover(
                primes, minterms, preselected=ess, node_limit=node_limit
            ) == reference.exact_cover(
                primes, minterms, preselected=ess, node_limit=node_limit
            )
        compared += 1
