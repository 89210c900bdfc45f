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

    def test_numpy_and_python_kernels_agree(self, monkeypatch):
        """The kernel's visit counts, and so every structure's cost, equal
        the per-structure python reference on both block walks, at N = 0,
        N below the block width, N not a multiple of it, and across
        visit_counts chunks."""
        import itertools
        import random

        import repro.perf.batched as batched
        from repro.predictors.optimal import (
            _structure_cost,
            _structure_table,
            _visit_counts,
        )

        def check(bits, k):
            structures = _structure_table(k)
            counts = batched.BatchedMoore.from_tables(
                structures.reshape(-1, k, 2)
            ).visit_counts(bits)
            for t, got in zip(structures.tolist(), counts):
                want = _visit_counts(bits, tuple(t), k)
                assert got.reshape(-1).tolist() == want
                assert int(got.min(axis=1).sum()) == _structure_cost(want, k)

        rng = random.Random(31)
        width = 5
        for direct, k in itertools.product((False, True), (2, 3)):
            monkeypatch.setattr(
                batched, "_plan", lambda M, S, N: (direct, width)
            )
            for n in (0, width - 2, 7 * width + 3):
                check([rng.randrange(2) for _ in range(n)], k)
            # Chunks of two blocks: the stream crosses several chunk
            # boundaries, each carrying its end states into the next.
            structures = len(_structure_table(k))
            with monkeypatch.context() as patch:
                patch.setattr(batched, "_COUNT_CHUNK", structures * 2 * width)
                check([rng.randrange(2) for _ in range(9 * width + 1)], k)

    def test_each_size_is_enumerated_once(self, monkeypatch):
        """Shards slice one structure table per size: a cold search does
        not re-enumerate from structure 0 for every shard and witness."""
        import repro.predictors.optimal as optimal

        calls = []
        enumerate_structures = optimal.enumerate_structures

        def spy(k):
            calls.append(k)
            return enumerate_structures(k)

        monkeypatch.setattr(optimal, "enumerate_structures", spy)
        monkeypatch.setattr(optimal, "_STRUCTURE_TABLES", {}, raising=False)
        with _env(REPRO_CACHE="0"):
            optimal.optimal_predictors([0, 1, 1, 0, 1] * 40, kmax=4, jobs=1)
        assert calls.count(4) == 1

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
