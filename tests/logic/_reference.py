"""The list-and-set covering and prime generation the bitset minimizer
replaced, kept verbatim as the oracle of ``test_reference_equivalence``.

Nothing outside the tests imports this module.  ``exact_cover`` here is the
original depth-first branch-and-bound with its original node accounting, so
comparing against it pins both the search order and the covers returned
when the node budget runs out.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.cube import Cube
from repro.logic.truth_table import TruthTable


def _build_rows(
    primes: Sequence[Cube], minterms: Iterable[int]
) -> Dict[int, FrozenSet[int]]:
    """Map each minterm to the set of prime indices covering it."""
    rows: Dict[int, Set[int]] = {m: set() for m in minterms}
    # Raw (value, mask) pairs: containment is two int ops per probe.
    pairs = [(prime.value, prime.mask) for prime in primes]
    for idx, (value, mask) in enumerate(pairs):
        for m in rows:
            if (m & mask) == value:
                rows[m].add(idx)
    uncoverable = [m for m, cols in rows.items() if not cols]
    if uncoverable:
        raise ValueError(f"minterms {sorted(uncoverable)} covered by no prime")
    return {m: frozenset(cols) for m, cols in rows.items()}


def essential_primes(
    primes: Sequence[Cube], minterms: Iterable[int]
) -> Tuple[List[int], Set[int]]:
    """Indices of essential primes, plus the minterms they leave uncovered.

    A prime is essential when it is the only prime covering some required
    minterm; every minimum cover must include it.
    """
    rows = _build_rows(primes, minterms)
    essential: Set[int] = set()
    for cols in rows.values():
        if len(cols) == 1:
            essential.add(next(iter(cols)))
    remaining = {
        m for m, cols in rows.items() if not (cols & essential)
    }
    return sorted(essential), remaining


def greedy_cover(
    primes: Sequence[Cube],
    minterms: Iterable[int],
    preselected: Optional[Iterable[int]] = None,
) -> List[int]:
    """Greedy covering: repeatedly take the prime covering the most
    still-uncovered minterms, breaking ties toward lower pattern cost,
    then toward lower index (for determinism).  Returns sorted chosen
    indices, including any ``preselected`` ones.
    """
    chosen: Set[int] = set(preselected or ())
    rows = _build_rows(primes, minterms)
    uncovered = {m for m, cols in rows.items() if not (cols & chosen)}
    while uncovered:
        gain: Dict[int, int] = {}
        for m in uncovered:
            for idx in rows[m]:
                gain[idx] = gain.get(idx, 0) + 1
        # Classic weighted set cover: cheapest cost per newly-covered
        # minterm wins (ties toward bigger gain, then lower index).
        best = min(
            gain,
            key=lambda idx: (
                primes[idx].pattern_cost / gain[idx],
                -gain[idx],
                idx,
            ),
        )
        chosen.add(best)
        uncovered = {m for m in uncovered if best not in rows[m]}
    return sorted(chosen)


def exact_cover(
    primes: Sequence[Cube],
    minterms: Iterable[int],
    preselected: Optional[Iterable[int]] = None,
    node_limit: int = 200_000,
) -> List[int]:
    """Branch-and-bound minimum-cost cover (cost = total pattern cost,
    tie on cube count).  Falls back to the greedy answer if the node
    budget is exhausted, so worst-case behaviour is always bounded.
    """
    pre = set(preselected or ())
    rows_all = _build_rows(primes, minterms)
    uncovered0 = frozenset(m for m, cols in rows_all.items() if not (cols & pre))

    best_choice = set(greedy_cover(primes, minterms, preselected=pre))
    best_cost = _cover_cost(primes, best_choice)
    nodes = [0]

    def branch(uncovered: FrozenSet[int], chosen: Set[int]) -> None:
        nonlocal best_choice, best_cost
        nodes[0] += 1
        if nodes[0] > node_limit:
            return
        cost = _cover_cost(primes, chosen)
        if cost >= best_cost:
            return
        if not uncovered:
            best_choice, best_cost = set(chosen), cost
            return
        # Branch on the hardest row (fewest covering columns).
        pivot = min(uncovered, key=lambda m: (len(rows_all[m]), m))
        for idx in sorted(rows_all[pivot], key=lambda i: primes[i].pattern_cost):
            if idx in chosen:
                continue
            chosen.add(idx)
            branch(
                frozenset(m for m in uncovered if idx not in rows_all[m]), chosen
            )
            chosen.discard(idx)

    branch(uncovered0, set(pre))
    return sorted(best_choice)


def _cover_cost(primes: Sequence[Cube], chosen: Iterable[int]) -> Tuple[int, int]:
    chosen = list(chosen)
    return (sum(primes[i].pattern_cost for i in chosen), len(chosen))


def prime_implicants(table: TruthTable) -> List[Cube]:
    """All prime implicants of ``table`` (on-set ∪ dc-set).

    Classic tabular method: start from the minterms of the on and dc sets,
    repeatedly merge cubes adjacent in one position, and keep every cube that
    never merged.  Returns primes sorted for determinism.

    Cubes are handled as raw ``(mask, value)`` integer pairs throughout the
    merge loop.  Two cubes with the same mask merge exactly when their
    values differ in one care bit, so instead of comparing cube pairs we
    probe, for every cube and every care position holding a 0, whether the
    value with that bit set to 1 is also present -- a set lookup instead of
    a quadratic pairing, and no :class:`Cube` objects on the hot path.
    """
    width = table.width
    full = (1 << width) - 1
    current: Dict[int, Set[int]] = {full: set(table.on_set | table.dc_set)}
    primes: Set[Tuple[int, int]] = set()
    while current:
        next_level: Dict[int, Set[int]] = {}
        for mask, values in current.items():
            care_bits = [1 << i for i in range(width) if mask & (1 << i)]
            merged_away: Set[int] = set()
            for value in values:
                for bit in care_bits:
                    if value & bit:
                        continue  # probe upward only: partner has the 1
                    partner = value | bit
                    if partner in values:
                        merged_away.add(value)
                        merged_away.add(partner)
                        next_level.setdefault(mask & ~bit, set()).add(value)
            for value in values - merged_away:
                primes.add((mask, value))
        current = next_level
    return sorted(
        Cube(width=width, value=value, mask=mask) for mask, value in primes
    )
