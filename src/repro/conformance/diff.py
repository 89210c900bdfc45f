"""Stage-by-stage differential runner with counterexample minimization.

``check_conformance(trace, order, ...)`` re-runs the paper's design chain
one stage at a time -- the *same* stage functions :class:`FSMDesigner`
composes, but uncached, so nothing can mask a wrong artifact -- and
checks each artifact against its oracle from
:mod:`repro.conformance.oracles`.  The first disagreement is returned as
a :class:`Divergence` naming the stage; ``None`` means every stage
conforms.

``minimize_counterexample`` then delta-debugs the trace by bisection
(classic ddmin over complements): chunks of the trace are removed while
the *same stage* keeps diverging, converging to a 1-minimal trace that
still exhibits the bug.  Because every probe re-runs the whole chain,
deterministic fault plans (probability specs, see
:mod:`repro.reliability.faults`) minimize just as well as real bugs --
which is how the selfcheck battery proves this machinery can catch a
wrong-but-plausible Hopcroft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.automata.dfa import DFA, subset_construct
from repro.automata.hopcroft import hopcroft_minimize
from repro.automata.moore import BINARY_ALPHABET, MooreMachine
from repro.automata.nfa import NFA, thompson_construct
from repro.automata.startup import startup_state_count, steady_state_core, steady_state_reduce
from repro.conformance import oracles
from repro.core.markov import MarkovModel
from repro.core.patterns import PatternSets, define_patterns
from repro.core.regex_build import history_language_regex
from repro.logic.cube import Cube
from repro.logic.espresso import minimize as logic_minimize
from repro.obs.metrics import metrics
from repro.obs.tracing import trace_span

#: Stage names, in pipeline order, as reported in divergences.
STAGES = (
    "core.markov",
    "core.patterns",
    "logic.cover",
    "core.regex",
    "automata.nfa",
    "automata.dfa",
    "automata.hopcroft",
    "automata.startup",
    "sim.outputs",
    "sim.optimal",
)

#: Stage 10 searches every <=k-state machine; past this trace length the
#: exhaustive sweep is not worth paying per conformance probe.
OPTIMAL_CHECK_MAX_BITS = 4096


@dataclass
class Divergence:
    """One pipeline stage disagreeing with its oracle."""

    stage: str
    detail: str
    order: int
    bias_threshold: float
    dont_care_fraction: float
    trace: List[int]

    def describe(self) -> str:
        bits = "".join(str(b) for b in self.trace)
        return (
            f"stage {self.stage} diverged from its oracle\n"
            f"  detail : {self.detail}\n"
            f"  config : order={self.order} "
            f"bias_threshold={self.bias_threshold} "
            f"dont_care_fraction={self.dont_care_fraction}\n"
            f"  trace  : {bits} ({len(self.trace)} bits)"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "repro.counterexample/1",
            "stage": self.stage,
            "detail": self.detail,
            "order": self.order,
            "bias_threshold": self.bias_threshold,
            "dont_care_fraction": self.dont_care_fraction,
            "bits": "".join(str(b) for b in self.trace),
        }


@dataclass
class StageArtifacts:
    """Every intermediate artifact of one uncached stage-by-stage run."""

    model: MarkovModel
    patterns: PatternSets
    cover: List[Cube]
    regex: Any
    nfa: Optional[NFA]
    dfa: Optional[DFA]
    minimized: MooreMachine
    final: MooreMachine
    startup_removed: int


def run_stages(
    trace: Sequence[int],
    order: int,
    bias_threshold: float = 0.5,
    dont_care_fraction: float = 0.0,
) -> StageArtifacts:
    """The design chain, stage by stage, with no caching and no
    verification -- exactly the composition of
    :meth:`FSMDesigner.design_from_patterns`, exposed so the differential
    runner (and the golden-vector generator) can inspect every rung."""
    model = MarkovModel.from_trace(trace, order)
    patterns = define_patterns(
        model,
        bias_threshold=bias_threshold,
        dont_care_fraction=dont_care_fraction,
    )
    cover = logic_minimize(patterns.to_truth_table())
    regex = history_language_regex(cover)
    if not cover:
        # Mirrors FSMDesigner._compile's EmptySet special case.
        nfa = None
        dfa = None
        minimized = MooreMachine(
            alphabet=BINARY_ALPHABET,
            start=0,
            outputs=(0,),
            transitions=((0, 0),),
        )
    else:
        nfa = thompson_construct(regex, alphabet=BINARY_ALPHABET)
        dfa = subset_construct(nfa)
        minimized = hopcroft_minimize(MooreMachine.from_dfa(dfa))
    final = minimized
    removed = 0
    if minimized.num_states > 1:
        removed = startup_state_count(minimized, order)
        final = steady_state_reduce(minimized, order)
        if removed:
            final = hopcroft_minimize(final)
    return StageArtifacts(
        model=model,
        patterns=patterns,
        cover=cover,
        regex=regex,
        nfa=nfa,
        dfa=dfa,
        minimized=minimized,
        final=final,
        startup_removed=removed,
    )


def check_conformance(
    trace: Sequence[int],
    order: int,
    bias_threshold: float = 0.5,
    dont_care_fraction: float = 0.0,
    max_len: Optional[int] = None,
) -> Optional[Divergence]:
    """Run every stage against its oracle; return the first divergence.

    ``max_len`` bounds the language-enumeration oracles (default
    ``order + 2``: long enough to exercise the arbitrary-prefix closure
    and every length-``order`` suffix).
    """
    trace = [int(b) for b in trace]
    if max_len is None:
        max_len = order + 2

    def diverge(stage: str, detail: str) -> Divergence:
        metrics().incr("conformance.divergences")
        metrics().incr(f"conformance.divergences.{stage}")
        return Divergence(
            stage=stage,
            detail=detail,
            order=order,
            bias_threshold=bias_threshold,
            dont_care_fraction=dont_care_fraction,
            trace=list(trace),
        )

    with trace_span(
        "conformance.check", order=order, trace_len=len(trace)
    ) as span:
        metrics().incr("conformance.checks")
        art = run_stages(
            trace,
            order,
            bias_threshold=bias_threshold,
            dont_care_fraction=dont_care_fraction,
        )

        # Stage 1: Markov profiling vs the naive recount.
        totals, ones = oracles.oracle_markov_counts(trace, order)
        if dict(art.model.totals) != totals or dict(art.model.ones) != ones:
            return diverge(
                "core.markov",
                f"model counts totals={dict(art.model.totals)} "
                f"ones={dict(art.model.ones)} != oracle "
                f"totals={totals} ones={ones}",
            )

        # Stage 2: pattern partition vs the naive re-partition.
        want_one, want_zero = oracles.oracle_pattern_sets(
            totals, ones, bias_threshold, dont_care_fraction
        )
        if (
            art.patterns.predict_one != want_one
            or art.patterns.predict_zero != want_zero
        ):
            return diverge(
                "core.patterns",
                f"predict1={sorted(art.patterns.predict_one)} "
                f"predict0={sorted(art.patterns.predict_zero)} != oracle "
                f"predict1={sorted(want_one)} predict0={sorted(want_zero)}",
            )

        # Stage 3: minimized SOP cover, brute-forced over all minterms.
        issues = oracles.cover_violations(
            art.cover, order, art.patterns.predict_one, art.patterns.predict_zero
        )
        if issues:
            return diverge("logic.cover", "; ".join(issues))

        # Stage 4: the regex denotes exactly the suffix language of the
        # cover (checked by enumerating both languages up to max_len).
        want_lang = oracles.expected_history_language(art.cover, order, max_len)
        regex_lang = oracles.regex_language(art.regex, max_len)
        if regex_lang != want_lang:
            return diverge(
                "core.regex",
                _language_delta("regex", regex_lang, "specification", want_lang),
            )

        # Stages 5-6: NFA and DFA accept the same enumerated language.
        if art.nfa is not None:
            nfa_lang = oracles.machine_language(art.nfa, max_len)
            if nfa_lang != regex_lang:
                return diverge(
                    "automata.nfa",
                    _language_delta("nfa", nfa_lang, "regex", regex_lang),
                )
            dfa_lang = oracles.machine_language(art.dfa, max_len)
            if dfa_lang != nfa_lang:
                return diverge(
                    "automata.dfa",
                    _language_delta("dfa", dfa_lang, "nfa", nfa_lang),
                )

            # Stage 7: Hopcroft must return exactly the canonical minimal
            # machine the pairwise oracle builds.
            moore = MooreMachine.from_dfa(art.dfa)
            want_min = oracles.oracle_minimal_moore(moore)
            if art.minimized != want_min:
                if not oracles.machines_agree_from(
                    art.minimized, art.minimized.start, want_min, want_min.start
                ):
                    detail = (
                        f"minimized machine ({art.minimized.num_states} "
                        f"states) is not equivalent to the oracle minimal "
                        f"machine ({want_min.num_states} states)"
                    )
                elif not oracles.is_minimal(art.minimized):
                    detail = (
                        f"minimized machine has {art.minimized.num_states} "
                        f"states but is not minimal (oracle: "
                        f"{want_min.num_states})"
                    )
                else:
                    detail = "minimized machine is not in canonical form"
                return diverge("automata.hopcroft", detail)

        # Stage 8: start-state reduction vs exhaustive reachability.
        if art.minimized.num_states > 1:
            want_steady = oracles.oracle_steady_states(art.minimized, order)
            got_steady = steady_state_core(art.minimized, order)
            if got_steady != want_steady:
                return diverge(
                    "automata.startup",
                    f"steady-state core {sorted(got_steady)} != exhaustive "
                    f"reachability {sorted(want_steady)}",
                )
            # Semantic check: after any length-N history the reduced
            # machine must track the unreduced one forever.
            for history in range(1 << order):
                bits = format(history, f"0{order}b")
                a = _run_bits_state(art.final, bits)
                b = _run_bits_state(art.minimized, bits)
                if not oracles.machines_agree_from(
                    art.final, a, art.minimized, b
                ):
                    return diverge(
                        "automata.startup",
                        f"reduced machine disagrees with the unreduced one "
                        f"after history {bits}",
                    )
            if art.final.num_states > art.minimized.num_states:
                return diverge(
                    "automata.startup",
                    f"reduction grew the machine: {art.final.num_states} > "
                    f"{art.minimized.num_states} states",
                )

        # Stage 9: the compiled batch kernels and trace_outputs agree with
        # the table-driven simulation on the full trace.
        want_outputs = oracles.oracle_moore_outputs(art.final, trace)
        got_outputs = art.final.trace_outputs("".join(str(b) for b in trace))
        if got_outputs != want_outputs:
            return diverge(
                "sim.outputs",
                "trace_outputs disagrees with the table-driven simulation "
                f"at index {_first_mismatch(got_outputs, want_outputs)}",
            )
        compiled = [int(o) for o in art.final.compile().run_bits(trace)]
        if compiled != want_outputs:
            return diverge(
                "sim.outputs",
                "compiled run_bits disagrees with the table-driven "
                f"simulation at index {_first_mismatch(compiled, want_outputs)}",
            )

        # Stage 10: the designed machine can never beat the exact optimal
        # k-state predictor oracle at its own size.  A violation means
        # either the pipeline miscounted its machine's predictions or the
        # oracle's exhaustive search is wrong -- both are bugs worth a
        # divergence.  Skipped for machines larger than the oracle's
        # default size (the bound only applies at sizes the oracle
        # actually searched) and for very long traces.
        from repro.predictors.optimal import DEFAULT_KMAX, optimal_predictors

        num_states = art.final.num_states
        if (
            trace
            and num_states <= DEFAULT_KMAX
            and len(trace) <= OPTIMAL_CHECK_MAX_BITS
        ):
            hits, lookups = oracles.oracle_prediction_counts(art.final, trace)
            misses = lookups - hits
            bound = optimal_predictors(trace, kmax=num_states)[
                num_states
            ].mispredicts
            if misses < bound:
                return diverge(
                    "sim.optimal",
                    f"designed {num_states}-state machine mispredicts "
                    f"{misses} times, beating the exhaustive optimum "
                    f"{bound} for {num_states} states -- impossible unless "
                    "a simulation or search stage is wrong",
                )
        span.set(stages=len(STAGES), final_states=art.final.num_states)
    return None


def _run_bits_state(machine: MooreMachine, bits: str) -> int:
    state = machine.start
    for ch in bits:
        state = machine.transitions[state][int(ch)]
    return state


def _first_mismatch(got: Sequence[int], want: Sequence[int]) -> int:
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return i
    return min(len(got), len(want))


def _language_delta(
    got_name: str, got: frozenset, want_name: str, want: frozenset
) -> str:
    extra = sorted(got - want, key=lambda s: (len(s), s))[:5]
    missing = sorted(want - got, key=lambda s: (len(s), s))[:5]
    parts = [f"{got_name} language != {want_name} language"]
    if extra:
        parts.append(f"extra={extra}")
    if missing:
        parts.append(f"missing={missing}")
    return " ".join(parts)


# ----------------------------------------------------------------------
# Counterexample minimization (ddmin over the trace)
# ----------------------------------------------------------------------


def minimize_counterexample(divergence: Divergence) -> Divergence:
    """Delta-debug the divergence's trace by bisection.

    Classic ddmin: split the trace into ``n`` chunks and try dropping one
    chunk at a time, keeping any candidate on which the *same stage*
    still diverges; granularity doubles when no chunk can be dropped.
    The result is 1-minimal at chunk size 1: removing any single bit
    makes the divergence disappear (or move to a different stage).
    """

    def probe(candidate: List[int]) -> Optional[Divergence]:
        if len(candidate) <= divergence.order:
            return None  # too short to design from
        try:
            found = check_conformance(
                candidate,
                order=divergence.order,
                bias_threshold=divergence.bias_threshold,
                dont_care_fraction=divergence.dont_care_fraction,
            )
        except Exception:
            return None  # a crash is a different bug; don't chase it here
        if found is not None and found.stage == divergence.stage:
            return found
        return None

    current = list(divergence.trace)
    best = divergence
    n = 2
    with trace_span(
        "conformance.minimize",
        diverging_stage=divergence.stage,
        trace_len=len(current),
    ) as span:
        while len(current) >= 2:
            chunk = math.ceil(len(current) / n)
            reduced = False
            for i in range(n):
                candidate = current[: i * chunk] + current[(i + 1) * chunk :]
                if len(candidate) == len(current):
                    continue
                found = probe(candidate)
                if found is not None:
                    current = candidate
                    best = found
                    n = max(n - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if n >= len(current):
                    break
                n = min(len(current), 2 * n)
        span.set(minimized_len=len(current))
    metrics().incr("conformance.minimized")
    return best
