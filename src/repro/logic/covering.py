"""Unate covering: choose a minimum-cost subset of primes.

Quine-McCluskey reduces minimization to set covering: every on-set minterm
must be contained in at least one chosen prime.  We implement the standard
pipeline -- essential primes, then a greedy cover, then a small exact
branch-and-bound that starts from the greedy cover as its incumbent.  No
row or column dominance is applied.  The cube cost is ``Cube.pattern_cost``
(literals plus an exponential penalty on how far back in history the cube
reaches) rather than Espresso's plain literal count: for predictor design the
automaton's state count is governed by the oldest care bit, so the covering
step prefers recent-history primes.

The covering matrix is held as int bitsets (:class:`_Rows`): the rows
(minterms) are ranked by the branch-and-bound's static pivot key
``(number of covering primes, minterm)``, bit ``r`` of a row set stands for
the row of rank ``r``, and each prime carries the mask of rows it covers.
Removing a prime's rows is then one ``&`` and the pivot is the lowest set
bit.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.obs.metrics import metrics

#: Branch-and-bound nodes an exact cover may visit before it settles for
#: the best cover found so far.
_NODE_LIMIT = 200_000


def _popcount(bits: int) -> int:
    return bin(bits).count("1")


def _bit_indices(bits: int) -> List[int]:
    """Positions of the set bits of ``bits``, ascending."""
    text = bin(bits)[:1:-1]
    out: List[int] = []
    pos = text.find("1")
    while pos >= 0:
        out.append(pos)
        pos = text.find("1", pos + 1)
    return out


class _Rows:
    """The covering matrix of ``primes`` over ``minterms``, as bitsets.

    ``minterms[r]`` is the row of rank ``r`` (ranked by
    ``(number of covering primes, minterm)``), ``cols[r]`` the int whose
    bit ``i`` is set when prime ``i`` covers it, ``masks[i]`` the int whose
    bit ``r`` is set when prime ``i`` covers row ``r``, and ``costs[i]``
    prime ``i``'s pattern cost.
    """

    __slots__ = ("minterms", "cols", "masks", "costs", "full")

    def __init__(self, primes: Sequence[Cube], minterms: Iterable[int]) -> None:
        # Primes sharing a care mask are told apart by one dict probe per
        # minterm: ``m & mask`` is the value of the one such prime that can
        # contain ``m``.
        by_mask: Dict[int, Dict[int, int]] = {}
        for idx, prime in enumerate(primes):
            values = by_mask.setdefault(prime.mask, {})
            values[prime.value] = values.get(prime.value, 0) | (1 << idx)
        col_of: Dict[int, int] = {}
        for m in minterms:
            if m in col_of:
                continue
            col = 0
            for mask, values in by_mask.items():
                col |= values.get(m & mask, 0)
            col_of[m] = col
        uncoverable = [m for m, col in col_of.items() if not col]
        if uncoverable:
            raise ValueError(f"minterms {sorted(uncoverable)} covered by no prime")
        ranked = sorted(col_of, key=lambda m: (_popcount(col_of[m]), m))
        masks = [0] * len(primes)
        for rank, m in enumerate(ranked):
            bit = 1 << rank
            for idx in _bit_indices(col_of[m]):
                masks[idx] |= bit
        self.minterms = ranked
        self.cols = [col_of[m] for m in ranked]
        self.masks = masks
        self.costs = [prime.pattern_cost for prime in primes]
        self.full = (1 << len(ranked)) - 1

    def uncovered_by(self, chosen: Iterable[int]) -> int:
        """The rows no prime in ``chosen`` covers."""
        covered = 0
        for idx in chosen:
            covered |= self.masks[idx]
        return self.full & ~covered

    def column_order(self, rank: int) -> List[int]:
        """The primes covering row ``rank``, cheapest first.

        Cost ties keep the iteration order of a frozenset built by adding
        the indices in ascending order.  That hash-table order is not
        always ascending, and it decides which of two equal-cost covers
        the search meets first; the reference-equivalence tests pin it.
        """
        cols = frozenset(set(_bit_indices(self.cols[rank])))
        return sorted(cols, key=self.costs.__getitem__)


def _essential(rows: _Rows) -> Tuple[List[int], Set[int]]:
    essential: Set[int] = set()
    for col in rows.cols:
        if not col & (col - 1):
            essential.add(col.bit_length() - 1)
    uncovered = rows.uncovered_by(essential)
    return sorted(essential), {rows.minterms[r] for r in _bit_indices(uncovered)}


def essential_primes(
    primes: Sequence[Cube], minterms: Iterable[int]
) -> Tuple[List[int], Set[int]]:
    """Indices of essential primes, plus the minterms they leave uncovered.

    A prime is essential when it is the only prime covering some required
    minterm; every minimum cover must include it.
    """
    return _essential(_Rows(primes, minterms))


def _greedy(rows: _Rows, preselected: Iterable[int]) -> List[int]:
    chosen: Set[int] = set(preselected)
    masks, costs = rows.masks, rows.costs
    uncovered = rows.uncovered_by(chosen)
    # Classic weighted set cover: the lowest pattern cost per newly-covered
    # minterm wins, ties toward bigger gain, then lower index.  Gains only
    # shrink, so every key only grows: a key in the heap is a lower bound
    # of the prime's current key, and the top is the minimum once its
    # gain is confirmed unchanged (lazy greedy).
    heap = []
    for idx, mask in enumerate(masks):
        gain = _popcount(mask & uncovered)
        if gain:
            heap.append((costs[idx] / gain, -gain, idx))
    heapq.heapify(heap)
    while uncovered:
        _ratio, neg_gain, idx = heap[0]
        gain = _popcount(masks[idx] & uncovered)
        if gain == -neg_gain:
            heapq.heappop(heap)
            chosen.add(idx)
            uncovered &= ~masks[idx]
        elif gain:
            heapq.heapreplace(heap, (costs[idx] / gain, -gain, idx))
        else:
            heapq.heappop(heap)
    return sorted(chosen)


def greedy_cover(
    primes: Sequence[Cube],
    minterms: Iterable[int],
    preselected: Optional[Iterable[int]] = None,
) -> List[int]:
    """Greedy covering: repeatedly take the prime with the lowest pattern
    cost per still-uncovered minterm it covers, breaking ties toward more
    newly-covered minterms, then toward lower index (for determinism).
    Returns sorted chosen indices, including any ``preselected`` ones.
    """
    return _greedy(_Rows(primes, minterms), preselected or ())


class _BudgetExhausted(Exception):
    pass


def _exact(rows: _Rows, preselected: Iterable[int], node_limit: int) -> List[int]:
    pre = set(preselected)
    masks, costs = rows.masks, rows.costs
    # A cover's cost is the pair (total pattern cost, cube count), ordered
    # lexicographically; ``cost * scale + count`` orders the same way
    # because no cover holds ``scale`` cubes.
    scale = len(costs) + 1
    steps = [cost * scale + 1 for cost in costs]
    keep = [rows.full ^ mask for mask in masks]
    orders: Dict[int, List[int]] = {}

    best_choice = _greedy(rows, pre)
    best_key = sum(costs[i] for i in best_choice) * scale + len(best_choice)
    chosen: List[int] = []
    nodes = 1  # the root

    # Depth-first: pivot on the uncovered row with the fewest covering
    # primes and try its primes cheapest first.  One node is counted per
    # visited child, pruned or not, and the search stops at the first node
    # past ``node_limit``.  A child is pruned when its cost is no better
    # than the incumbent's; a row's primes are tried cheapest first, so
    # every later sibling is pruned too and is only counted.
    def branch(uncovered: int, key: int) -> None:
        nonlocal best_choice, best_key, nodes
        rank = (uncovered & -uncovered).bit_length() - 1
        order = orders.get(rank)
        if order is None:
            order = orders[rank] = rows.column_order(rank)
        for pos, idx in enumerate(order):
            child_key = key + steps[idx]
            if child_key >= best_key:
                nodes += len(order) - pos
                if nodes > node_limit:
                    raise _BudgetExhausted
                return
            nodes += 1
            if nodes > node_limit:
                raise _BudgetExhausted
            rest = uncovered & keep[idx]
            chosen.append(idx)
            if rest:
                branch(rest, child_key)
            else:
                best_choice, best_key = sorted(pre.union(chosen)), child_key
            chosen.pop()

    # The root is pruned when greedy took nothing beyond ``pre``; otherwise
    # it has uncovered rows to branch on.
    root_key = sum(costs[i] for i in pre) * scale + len(pre)
    if node_limit < 1:
        metrics().incr("logic.cover.budget_exhausted")
    elif root_key < best_key:
        try:
            branch(rows.uncovered_by(pre), root_key)
        except _BudgetExhausted:
            metrics().incr("logic.cover.budget_exhausted")
    return best_choice


def exact_cover(
    primes: Sequence[Cube],
    minterms: Iterable[int],
    preselected: Optional[Iterable[int]] = None,
    node_limit: int = _NODE_LIMIT,
) -> List[int]:
    """Branch-and-bound minimum-cost cover (cost = total pattern cost,
    tie on cube count).  The greedy cover is the starting incumbent.  The
    search visits at most ``node_limit`` nodes; when the budget runs out
    it returns the best cover found so far (counted in the
    ``logic.cover.budget_exhausted`` metric), so worst-case behaviour is
    always bounded.
    """
    return _exact(_Rows(primes, minterms), preselected or (), node_limit)


def select_cover(
    primes: Sequence[Cube],
    on_set: Iterable[int],
    exact: bool = True,
) -> List[Cube]:
    """Full covering pipeline: essentials, then exact or greedy residual.

    Returns the selected cubes sorted for determinism.
    """
    on_list = list(on_set)
    if not on_list:
        return []
    rows = _Rows(primes, on_list)
    ess, remaining = _essential(rows)
    if not remaining:
        return sorted(primes[i] for i in ess)
    if exact and len(primes) <= 64:
        chosen = _exact(rows, ess, _NODE_LIMIT)
    else:
        chosen = _greedy(rows, ess)
    return sorted(primes[i] for i in chosen)
