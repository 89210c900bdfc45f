"""Conformance check #11: KMP analytic sources vs their closed forms.

The KMP trace sources (:mod:`repro.workloads.kmp`) are the only
workloads in the repo whose *optimal* mispredict rate is an exact
rational number derived independently of any simulation -- a stationary
distribution over the matcher's comparison chain, or exactly zero on a
periodic text.  That makes them ground truth the pipeline cannot game:

* the exhaustive opt(k) oracle (:mod:`repro.predictors.optimal`), run at
  the chain's own state count, must land within sampling tolerance of
  the closed-form rate -- if it is *better*, the trace generator is
  broken (no predictor beats the information-theoretic floor); if it is
  *worse*, the oracle search is broken;
* the full design pipeline, given enough history, must get close to the
  same floor -- a regression anywhere in model -> cover -> minimize
  shows up as a rate gap on these traces before it shows up anywhere
  else.

Tolerances are sampling slack for the pinned (seed, length), generous
enough to be version-stable (string-seeded PRNGs are platform-stable,
so in practice the measured numbers are exact constants) but tight
enough that a real regression -- a off-by-one in simulation, a broken
transition -- blows straight through them.  Cases are restricted to
chains with at most 3 states so the check stays inside the exhaustive
oracle's small-k budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Designed machines may exceed the floor by this much on top of the
#: per-case sampling tolerance: the pipeline predicts from finite-order
#: history statistics, not the matcher chain, so a small model-mismatch
#: overhead is expected and correct.
DESIGN_SLACK = 0.03


@dataclass(frozen=True)
class KmpCase:
    """One pinned analytic configuration."""

    name: str
    spec: str
    length: int
    seed: int
    order: int  # design-pipeline history length
    tolerance: float  # |measured - closed| bound for the oracle


CASES = (
    # Single-char pattern over biased IID text: the stream is IID
    # Bernoulli, closed form min(q, 1-q) = 0.3, one chain state.
    KmpCase(
        name="iid_b_q03",
        spec="kmp:pattern=b,q=3/10,text=iid,variant=mp",
        length=4096,
        seed=11,
        order=2,
        tolerance=0.03,
    ),
    # The worked example: pattern "ab" over fair IID text; the 3-state
    # comparison chain yields exactly 2/5.
    KmpCase(
        name="iid_ab_q05",
        spec="kmp:pattern=ab,q=1/2,text=iid,variant=mp",
        length=4096,
        seed=12,
        order=4,
        tolerance=0.03,
    ),
    # Strong failure function on the same pattern (identical chain for
    # "ab" -- exercises the kmp-variant code path end to end).
    KmpCase(
        name="iid_ab_q05_kmp",
        spec="kmp:pattern=ab,q=1/2,text=iid,variant=kmp",
        length=4096,
        seed=13,
        order=4,
        tolerance=0.03,
    ),
    # Periodic text: the outcome stream is eventually periodic with
    # cycle length 2, so the floor is exactly 0 (startup mispredicts
    # only).
    KmpCase(
        name="periodic_b_ab",
        spec="kmp:pattern=b,text=periodic,variant=mp,word=ab",
        length=2048,
        seed=0,
        order=2,
        tolerance=0.01,
    ),
)


def check_kmp_corpus(kmax: Optional[int] = None) -> List[str]:
    """Run every pinned case; returns human-readable violations (empty
    means the measured optimum and the designed machine both honor the
    closed form).  ``kmax`` caps the oracle search (cases needing more
    states than the cap are skipped, so a constrained environment can
    still run the cheap ones)."""
    from repro.conformance.diff import run_stages
    from repro.predictors.optimal import (
        MAX_KMAX,
        machine_mispredicts,
        optimal_predictors,
    )
    from repro.workloads.sources import create_source

    cap = MAX_KMAX if kmax is None else min(kmax, MAX_KMAX)
    issues: List[str] = []
    for case in CASES:
        source = create_source(case.spec)
        closed_rate, k_needed = source.closed_form()
        if k_needed > cap:
            continue
        trace = source.generate(case.length, case.seed)
        bits = trace.outcome_bits()
        closed = float(closed_rate)

        optima = optimal_predictors(bits, kmax=k_needed)
        measured = optima[k_needed].miss_rate
        if abs(measured - closed) > case.tolerance:
            issues.append(
                f"{case.name}: opt({k_needed}) rate {measured:.4f} is "
                f"outside closed form {closed:.4f} "
                f"+/- {case.tolerance} ({case.spec})"
            )

        # The designed machine is allowed DESIGN_SLACK on both sides of
        # the sampling tolerance: above for model-mismatch overhead,
        # below because a machine fitted *on this sample* can beat the
        # asymptotic floor by its in-hindsight luck on 4096 bits.
        art = run_stages(bits, case.order, bias_threshold=0.5)
        designed = machine_mispredicts(art.final, bits) / len(bits)
        if designed < closed - case.tolerance - DESIGN_SLACK:
            issues.append(
                f"{case.name}: designed machine rate {designed:.4f} beats "
                f"the closed-form floor {closed:.4f} ({case.spec})"
            )
        elif designed > closed + case.tolerance + DESIGN_SLACK:
            issues.append(
                f"{case.name}: designed machine rate {designed:.4f} misses "
                f"the closed-form floor {closed:.4f} by more than "
                f"{case.tolerance + DESIGN_SLACK} ({case.spec})"
            )
    return issues
