"""Exact two-level minimization via Quine-McCluskey.

The paper runs Espresso over truth tables with 2^N rows, N <= 10; at that
size exact prime-implicant generation is cheap, so the exact method is our
default.  Don't-cares participate in prime generation (they let adjacent on
minterms merge) but impose no covering obligation, exactly as in Espresso.
"""

from __future__ import annotations

from typing import Dict, List

from repro.logic.covering import _bit_indices, select_cover
from repro.logic.cube import Cube
from repro.logic.truth_table import TruthTable


def prime_implicants(table: TruthTable) -> List[Cube]:
    """All prime implicants of ``table`` (on-set ∪ dc-set).

    Classic tabular method: start from the minterms of the on and dc sets,
    repeatedly merge cubes adjacent in one position, and keep every cube that
    never merged.  Returns primes sorted for determinism.

    The cubes sharing a care mask are held as one ``2**width``-bit int
    whose bit ``v`` is set when the cube with that mask and value ``v`` is
    present.  Two such cubes merge along care bit ``i`` exactly when their
    values differ only in that bit, so one shift, two ands and a mask of
    the values with bit ``i`` clear find every merging pair of the level at
    once, with no per-cube work on the hot path.
    """
    width = table.width
    size = 1 << width
    # clear[i]: the values (as bit positions) whose bit i is 0.
    clear: List[int] = []
    for i in range(width):
        run = 1 << i
        pattern, period = (1 << run) - 1, 2 * run
        while period < size:
            pattern |= pattern << period
            period *= 2
        clear.append(pattern)
    present = 0
    for m in table.on_set | table.dc_set:
        present |= 1 << m
    current: Dict[int, int] = {size - 1: present} if present else {}
    primes: List[Cube] = []
    while current:
        next_level: Dict[int, int] = {}
        for mask, values in current.items():
            merged = 0
            for i in range(width):
                bit = 1 << i
                if not mask & bit:
                    continue
                pairs = values & (values >> bit) & clear[i]
                if pairs:
                    merged |= pairs | (pairs << bit)
                    lower = mask & ~bit
                    next_level[lower] = next_level.get(lower, 0) | pairs
            primes.extend(
                Cube(width=width, value=value, mask=mask)
                for value in _bit_indices(values & ~merged)
            )
        current = next_level
    return sorted(primes)


def minimize_exact(table: TruthTable, max_branch_minterms: int = 4096) -> List[Cube]:
    """Minimum-cost prime cover of ``table`` (``Cube.pattern_cost``, then
    cube count).

    Degenerate cases (empty on-set, or no off-set at all) are handled without
    covering.  Otherwise we take essential primes first, then solve the
    residual covering problem by budgeted branch and bound when there are
    at most 64 primes and at most ``max_branch_minterms`` on-set minterms,
    and greedily otherwise, so callers can never trip an exponential
    blow-up by accident.
    """
    if not table.on_set:
        return []
    if not table.off_set:
        return [Cube.universe(table.width)]
    primes = prime_implicants(table)
    exact = len(table.on_set) <= max_branch_minterms
    return select_cover(primes, table.on_set, exact=exact)
