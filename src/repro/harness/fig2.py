"""Figure 2: value-prediction confidence, SUD counters vs. designed FSMs.

For each benchmark in the value suite the driver produces:

* the scatter of saturating up/down counter configurations (the paper's
  sweep of max value x wrong decrement x threshold);
* one accuracy/coverage *curve* per FSM history length (2, 4, 6, 8, 10),
  obtained by sweeping the bias threshold of the pattern-definition stage
  -- the knob that trades coverage for accuracy;
* everything **cross-trained**: the FSM for benchmark X is designed from
  the merged correctness traces of every benchmark *except* X
  (Section 6.3), so the predictors are general purpose, not specialized.

Each trace element is "was this load correctly value predicted by the
2K-entry two-delta stride predictor"; at runtime there is one confidence
unit (FSM state register) per value-table entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.markov import MarkovModel
from repro.core.pipeline import DesignConfig, FSMDesigner
from repro.harness.metrics import pareto_front
from repro.harness.reporting import format_table
from repro.perf.cache import digest_of
from repro.reliability.durability import durable_map
from repro.valuepred.confidence import (
    ConfidenceStats,
    correctness_trace,
    evaluate_counter_confidence,
    evaluate_fsm_confidence,
    sud_configurations,
)
from repro.workloads.values import VALUE_BENCHMARKS, load_trace

DEFAULT_HISTORY_LENGTHS: Tuple[int, ...] = (2, 4, 6, 8, 10)
DEFAULT_BIAS_THRESHOLDS: Tuple[float, ...] = (
    0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.995,
)


@dataclass
class ConfidencePoint:
    label: str
    accuracy: float
    coverage: float
    # Gap-to-optimal annotations (None when the oracle column is off):
    # the config's machine deployed as a plain next-bit predictor over
    # the benchmark's correctness stream, vs the exact optimal machine
    # of comparable size (repro.predictors.optimal).
    num_states: Optional[int] = None
    machine_miss_rate: Optional[float] = None
    gap_to_optimal: Optional[float] = None


@dataclass
class FigureTwoResult:
    """One panel of Figure 2."""

    benchmark: str
    sud_points: List[ConfidencePoint]
    fsm_curves: Dict[int, List[ConfidencePoint]]  # history length -> curve
    #: k -> exact optimal miss rate on this panel's correctness stream
    #: (empty when the gap column is disabled).
    optimal_rates: Dict[int, float] = field(default_factory=dict)

    def fsm_pareto(self, history: int) -> List[Tuple[float, float]]:
        return pareto_front(
            [(p.accuracy, p.coverage) for p in self.fsm_curves[history]]
        )

    def sud_pareto(self) -> List[Tuple[float, float]]:
        return pareto_front([(p.accuracy, p.coverage) for p in self.sud_points])

    def render(self) -> str:
        with_gap = bool(self.optimal_rates)

        def row(series: str, point: ConfidencePoint):
            base = (series, point.label, point.accuracy, point.coverage)
            if not with_gap:
                return base
            if point.gap_to_optimal is None:
                return base + ("", "")
            return base + (
                f"{point.machine_miss_rate:.4f}",
                f"{point.gap_to_optimal:+.4f}",
            )

        rows = [row("up/down", p) for p in self.sud_points]
        for history in sorted(self.fsm_curves):
            rows.extend(
                row(f"custom h={history}", p) for p in self.fsm_curves[history]
            )
        headers = ["series", "config", "accuracy", "coverage"]
        title = (
            f"Figure 2 ({self.benchmark}): value prediction confidence, "
            "accuracy vs coverage"
        )
        if with_gap:
            headers += ["pred miss", "gap to opt"]
            kmax = max(self.optimal_rates)
            opt = self.optimal_rates[kmax]
            title += (
                f"\n  optimal {kmax}-state predictor miss rate on this "
                f"stream: {opt:.4f} (gap = machine miss - optimal miss "
                "at min(states, kmax))"
            )
        return format_table(headers, rows, title=title)


def _correctness_shard(
    benchmark: str, variant: str, num_loads: int
) -> Tuple[List[int], List[int]]:
    return correctness_trace(load_trace(benchmark, variant, num_loads))


def _correctness_traces(
    benchmarks: Sequence[str],
    variant: str,
    num_loads: int,
    run_id: Optional[str] = None,
) -> Dict[str, Tuple[List[int], List[int]]]:
    names = list(benchmarks)
    shards = durable_map(
        partial(_correctness_shard, variant=variant, num_loads=num_loads),
        names,
        run_id=run_id,
        sweep=f"fig2.traces.{variant}",
        fingerprint=digest_of(variant, num_loads),
    )
    return dict(zip(names, shards))


def _cross_trained_model(
    traces: Dict[str, Tuple[List[int], List[int]]],
    held_out: str,
    order: int,
) -> MarkovModel:
    """Merge the correctness bits of every benchmark except ``held_out``
    into one Markov model (the aggregate general-purpose trace)."""
    model = MarkovModel(order=order)
    for benchmark, (_indices, bits) in traces.items():
        if benchmark == held_out:
            continue
        model.update_from_trace(bits)
    return model


def _resolve_gap_kmax(gap_kmax: Optional[int]) -> int:
    """``None`` -> the oracle's default size, ``0`` or negative ->
    disabled, otherwise clamped to the oracle's hard cap."""
    from repro.predictors.optimal import DEFAULT_KMAX, MAX_KMAX

    if gap_kmax is None:
        return DEFAULT_KMAX
    if gap_kmax <= 0:
        return 0
    return min(gap_kmax, MAX_KMAX)


def _fsm_curve(
    model: MarkovModel,
    history: int,
    indices: List[int],
    bits: List[int],
    bias_thresholds: Sequence[float],
    gap_kmax: int,
    optimal_rates: Dict[int, float],
) -> List[ConfidencePoint]:
    """One accuracy/coverage curve: sweep the bias threshold at a fixed
    history length, designing from ``model`` and evaluating on
    ``(indices, bits)``.  Shared by the benchmark and source drivers."""
    curve: List[ConfidencePoint] = []
    for threshold in bias_thresholds:
        config = DesignConfig(
            order=history,
            bias_threshold=threshold,
            dont_care_fraction=0.01,
        )
        result = FSMDesigner(config).design_from_model(model)
        label = f"h{history}-t{threshold:g}"
        stats = evaluate_fsm_confidence(
            indices, bits, result.machine, label=label
        )
        point = ConfidencePoint(
            label=label, accuracy=stats.accuracy, coverage=stats.coverage
        )
        if gap_kmax and bits:
            from repro.predictors.optimal import machine_mispredicts

            num_states = result.machine.num_states
            misses = machine_mispredicts(result.machine, bits)
            point.num_states = num_states
            point.machine_miss_rate = misses / len(bits)
            point.gap_to_optimal = (
                point.machine_miss_rate
                - optimal_rates[min(num_states, gap_kmax)]
            )
        curve.append(point)
    return curve


def run_fig2_benchmark(
    benchmark: str,
    traces: Optional[Dict[str, Tuple[List[int], List[int]]]] = None,
    num_loads: int = 80_000,
    history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
    bias_thresholds: Sequence[float] = DEFAULT_BIAS_THRESHOLDS,
    gap_kmax: Optional[int] = None,
    run_id: Optional[str] = None,
) -> FigureTwoResult:
    """One benchmark's panel.  Pass pre-computed ``traces`` when sweeping
    all benchmarks so the load streams are generated only once.

    ``gap_kmax`` controls the gap-to-optimal column: every designed FSM is
    also deployed as a plain next-bit predictor over the benchmark's own
    correctness stream and compared against the exhaustive optimal k-state
    predictor (k = min(machine states, gap_kmax)).  ``0`` disables the
    column; ``None`` uses the oracle's default size (4).
    """
    if traces is None:
        traces = _correctness_traces(VALUE_BENCHMARKS, "train", num_loads)
    indices, bits = traces[benchmark]

    gap_kmax = _resolve_gap_kmax(gap_kmax)
    optimal_rates: Dict[int, float] = {}
    if gap_kmax:
        from repro.predictors.optimal import optimal_predictors

        optima = optimal_predictors(bits, kmax=gap_kmax, run_id=run_id)
        optimal_rates = {k: r.miss_rate for k, r in optima.items()}

    sud_points: List[ConfidencePoint] = []
    for label, factory in sud_configurations():
        stats = evaluate_counter_confidence(indices, bits, factory, label=label)
        sud_points.append(
            ConfidencePoint(label=label, accuracy=stats.accuracy, coverage=stats.coverage)
        )

    fsm_curves: Dict[int, List[ConfidencePoint]] = {}
    max_order = max(history_lengths)
    full_model = _cross_trained_model(traces, benchmark, max_order)
    for history in history_lengths:
        fsm_curves[history] = _fsm_curve(
            full_model.truncated(history),
            history,
            indices,
            bits,
            bias_thresholds,
            gap_kmax,
            optimal_rates,
        )
    return FigureTwoResult(
        benchmark=benchmark,
        sud_points=sud_points,
        fsm_curves=fsm_curves,
        optimal_rates=optimal_rates,
    )


def _fig2_source_shard(
    history: int,
    model: MarkovModel,
    indices: List[int],
    bits: List[int],
    bias_thresholds: Sequence[float],
    gap_kmax: int,
    optimal_rates: Dict[int, float],
) -> List[ConfidencePoint]:
    """One durable shard of the source panel: the curve at one history
    length (module-level so the process pool can pickle it)."""
    return _fsm_curve(
        model.truncated(history),
        history,
        indices,
        bits,
        bias_thresholds,
        gap_kmax,
        optimal_rates,
    )


def run_fig2_source(
    spec: str,
    length: Optional[int] = None,
    seed: Optional[int] = None,
    history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
    bias_thresholds: Sequence[float] = DEFAULT_BIAS_THRESHOLDS,
    gap_kmax: Optional[int] = None,
    run_id: Optional[str] = None,
) -> FigureTwoResult:
    """The Figure 2 panel over an arbitrary registered trace source
    (``repro.workloads.sources``): the source's outcome stream stands in
    for the correctness trace, its PCs index the confidence table, and
    the FSMs are *self-trained* on the same stream -- the specialization
    limit case, which is exactly what a known-optimal source (e.g. a KMP
    family with a closed-form rate) wants measured.

    The durable sweep fingerprint folds the canonical spec string plus
    ``(length, seed)`` and the design knobs, so journals from different
    sources or configurations can never replay into each other.
    """
    from repro.workloads.sources import (
        DEFAULT_LENGTH,
        DEFAULT_SEED,
        create_source,
        source_trace,
    )

    source = create_source(spec)
    spec_string = source.spec_string()
    length = DEFAULT_LENGTH if length is None else int(length)
    seed = DEFAULT_SEED if seed is None else int(seed)
    trace = source_trace(spec_string, length, seed)
    indices = list(trace.pcs)
    bits = trace.outcome_bits()

    gap_kmax = _resolve_gap_kmax(gap_kmax)
    optimal_rates: Dict[int, float] = {}
    if gap_kmax:
        from repro.predictors.optimal import optimal_predictors

        optima = optimal_predictors(bits, kmax=gap_kmax, run_id=run_id)
        optimal_rates = {k: r.miss_rate for k, r in optima.items()}

    sud_points: List[ConfidencePoint] = []
    for label, factory in sud_configurations():
        stats = evaluate_counter_confidence(indices, bits, factory, label=label)
        sud_points.append(
            ConfidencePoint(
                label=label, accuracy=stats.accuracy, coverage=stats.coverage
            )
        )

    full_model = MarkovModel(order=max(history_lengths))
    full_model.update_from_trace(bits)
    histories = list(history_lengths)
    curves = durable_map(
        partial(
            _fig2_source_shard,
            model=full_model,
            indices=indices,
            bits=bits,
            bias_thresholds=tuple(bias_thresholds),
            gap_kmax=gap_kmax,
            optimal_rates=optimal_rates,
        ),
        histories,
        run_id=run_id,
        sweep="fig2.source",
        fingerprint=digest_of(
            spec_string,
            length,
            seed,
            tuple(histories),
            tuple(bias_thresholds),
            gap_kmax,
        ),
    )
    return FigureTwoResult(
        benchmark=f"source:{spec_string}",
        sud_points=sud_points,
        fsm_curves=dict(zip(histories, curves)),
        optimal_rates=optimal_rates,
    )


def run_fig2(
    benchmarks: Sequence[str] = VALUE_BENCHMARKS,
    num_loads: int = 80_000,
    history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
    bias_thresholds: Sequence[float] = DEFAULT_BIAS_THRESHOLDS,
    gap_kmax: Optional[int] = None,
    run_id: Optional[str] = None,
) -> Dict[str, FigureTwoResult]:
    """The full figure.  With ``run_id`` both sweeps (trace generation,
    per-benchmark panels) journal shard completions and resume after a
    kill; without it they run as plain parallel sweeps."""
    traces = _correctness_traces(
        VALUE_BENCHMARKS, "train", num_loads, run_id=run_id
    )
    names = list(benchmarks)
    # Resolve the gap column once so the sweep fingerprint is stable even
    # when the default comes from the environment.
    gap_kmax = _resolve_gap_kmax(gap_kmax)
    # One process-pool shard per benchmark; durable_map returns results in
    # input order, so the figure output is identical to a serial run.
    results = durable_map(
        partial(
            run_fig2_benchmark,
            traces=traces,
            history_lengths=tuple(history_lengths),
            bias_thresholds=tuple(bias_thresholds),
            gap_kmax=gap_kmax,
        ),
        names,
        run_id=run_id,
        sweep="fig2.panels",
        fingerprint=digest_of(
            num_loads, tuple(history_lengths), tuple(bias_thresholds), gap_kmax
        ),
    )
    return dict(zip(names, results))
