"""Conformance check #11: the KMP closed forms hold, and the opt(k)
oracle is never beaten by a designed machine on analytic source traces."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.diff import run_stages
from repro.conformance.kmp_check import CASES, DESIGN_SLACK, check_kmp_corpus
from repro.predictors.optimal import (
    MAX_KMAX,
    machine_mispredicts,
    optimal_predictors,
)
from repro.workloads.sources import create_source


class TestPinnedCorpus:
    def test_every_case_honors_its_closed_form(self):
        assert check_kmp_corpus() == []

    def test_cases_fit_the_pure_python_oracle_budget(self):
        # Check #11 runs the exhaustive opt(k) oracle at each case's
        # k_needed; every pinned chain must stay inside its small-k budget.
        for case in CASES:
            _rate, k_needed = create_source(case.spec).closed_form()
            assert k_needed <= 3, case.name

    def test_case_names_and_specs_are_unique(self):
        names = [case.name for case in CASES]
        specs = [case.spec for case in CASES]
        assert len(set(names)) == len(names)
        assert len(set(specs)) == len(specs)

    def test_kmax_cap_skips_expensive_cases(self):
        # A cap of 0 skips every case (all chains need >= 1 state), so
        # the corpus trivially passes -- the skip path, not a failure.
        assert check_kmp_corpus(kmax=0) == []

    def test_slack_is_sane(self):
        assert 0 < DESIGN_SLACK < 0.1


kmp_specs = st.builds(
    lambda pattern, variant, q, seed: (
        f"kmp:pattern={pattern},q={q},text=iid,variant={variant}",
        seed,
    ),
    pattern=st.sampled_from(["b", "ab", "aab", "abb"]),
    variant=st.sampled_from(["mp", "kmp"]),
    q=st.sampled_from(["1/5", "3/10", "1/2", "7/10"]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestOracleIsNeverBeaten:
    @settings(max_examples=12)
    @given(case=kmp_specs, length=st.sampled_from([512, 1024, 2048]))
    def test_designed_machines_never_beat_opt_k(self, case, length):
        """opt(k) is exhaustive: any machine the design pipeline emits
        with S <= MAX_KMAX states must mispredict at least as often as
        opt(S) on the very trace both are scored on (traces <= 4096
        bits, per the conformance contract)."""
        spec, seed = case
        trace = create_source(spec).generate(length, seed)
        bits = trace.outcome_bits()
        art = run_stages(bits, order=2, bias_threshold=0.5)
        machine = art.final
        if machine.num_states > MAX_KMAX:
            return  # outside the oracle's exhaustive reach
        optima = optimal_predictors(bits, kmax=machine.num_states)
        best = optima[machine.num_states].mispredicts
        assert machine_mispredicts(machine, bits) >= best

    def test_closed_form_is_exact_not_floating(self):
        rate, _k = create_source(
            "kmp:pattern=ab,q=1/2,text=iid,variant=mp"
        ).closed_form()
        assert isinstance(rate, Fraction)
        assert rate == Fraction(2, 5)
