"""Figure 5: misprediction rate vs. estimated area, per benchmark.

For each of the six embedded benchmarks the driver produces the paper's
five series:

* ``xscale`` -- the 128-entry BTB-coupled baseline (one point);
* ``gshare`` -- a range of table sizes;
* ``lgc``    -- the local/global chooser over a range of sizes;
* ``custom-same`` -- the customized architecture trained on the *same*
  input used for measurement, sweeping the number of custom FSM entries
  (the limit case the paper uses to bound custom performance);
* ``custom-diff`` -- trained on a different input (the honest result).

Beyond the paper, two *modern-regime* series situate the 2001 frontier
against later predictor families (gate with ``modern=False``, or
``--no-modern`` on the CLI):

* ``tage``       -- a small TAGE over a range of table index widths;
* ``perceptron`` -- a hashed perceptron over a range of table sizes.

Custom-curve areas use the fitted linear states->area model, exactly as
the paper does ("we use this approximation to quantify area rather than
performing synthesis on each") -- the model is fitted on the machines
designed in this very run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.moore import MooreMachine
from repro.harness.area_model import LinearAreaModel, fit_area_model
from repro.harness.branch_training import (
    CUSTOM_HISTORY_LENGTH,
    collect_branch_models,
    design_branch_predictors,
    fsm_correct_counts,
    rank_branches_by_misses,
    rank_by_improvement,
)
from repro.harness.reporting import format_table
from repro.predictors.base import simulate_predictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.local_global import LocalGlobalChooser
from repro.predictors.xscale import TAG_BITS, TARGET_BITS, XScalePredictor
from repro.synth.area import cam_bits_area, estimate_area, table_bits_area
from repro.workloads.programs import BRANCH_BENCHMARKS, branch_trace
from repro.workloads.trace import BranchTrace

DEFAULT_GSHARE_BITS: Tuple[int, ...] = (8, 10, 12, 14, 16)
DEFAULT_LGC_BITS: Tuple[int, ...] = (6, 8, 10, 12, 14)
DEFAULT_CUSTOM_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20)
DEFAULT_TAGE_BITS: Tuple[int, ...] = (8, 10, 12)
DEFAULT_PERCEPTRON_ROWS: Tuple[int, ...] = (128, 256, 512)


# Every predictor needs a BTB for branch targets; the paper's Figure 5
# x-axis is "the total area of the predictor, including the BTB structure",
# so the direction-only predictors (gshare, LGC) are charged for one too.
BTB_STORAGE_AREA = table_bits_area((TAG_BITS + TARGET_BITS) * 128)


@dataclass(frozen=True)
class SeriesPoint:
    label: str
    area: float
    miss_rate: float


@dataclass
class Series:
    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def best_miss_rate(self) -> float:
        # Degenerate points (0 lookups) carry the NaN sentinel; they must
        # not poison the minimum.
        rates = [p.miss_rate for p in self.points if p.miss_rate == p.miss_rate]
        return min(rates) if rates else float("nan")

    def miss_rate_at_or_below_area(self, area: float) -> Optional[float]:
        eligible = [
            p.miss_rate
            for p in self.points
            if p.area <= area and p.miss_rate == p.miss_rate
        ]
        return min(eligible) if eligible else None


@dataclass
class FigureFiveResult:
    benchmark: str
    series: Dict[str, Series]

    def render(self) -> str:
        rows = []
        for name in sorted(self.series):
            for point in self.series[name].points:
                rows.append((name, point.label, point.area, point.miss_rate))
        return format_table(
            ["series", "config", "est_area", "miss_rate"],
            rows,
            title=f"Figure 5 ({self.benchmark}): misprediction rate vs estimated area",
        )


# ----------------------------------------------------------------------
# Custom-architecture evaluation
# ----------------------------------------------------------------------

def _xscale_misses_excluding(
    trace: BranchTrace, excluded: frozenset
) -> Tuple[int, int]:
    """Simulate the XScale baseline counting only branches outside
    ``excluded`` (which neither query nor train the baseline, since the
    custom table owns them).  Returns (counted branches, misses)."""
    predictor = XScalePredictor()
    counted = 0
    misses = 0
    for pc, outcome in zip(trace.pcs, trace.outcomes):
        if pc in excluded:
            continue
        taken = bool(outcome)
        if predictor.predict(pc) != taken:
            misses += 1
        counted += 1
        predictor.update(pc, taken)
    return counted, misses


def evaluate_custom_curve(
    eval_trace: BranchTrace,
    ordered_pcs: Sequence[int],
    machines: Dict[int, MooreMachine],
    counts: Sequence[int],
    area_model: LinearAreaModel,
    series_name: str,
) -> Series:
    """Sweep the number of custom FSM entries, worst branch first."""
    usable = [pc for pc in ordered_pcs if pc in machines]
    per_branch = fsm_correct_counts(
        eval_trace, {pc: machines[pc] for pc in usable}
    )
    total = len(eval_trace)
    baseline = XScalePredictor()
    series = Series(name=series_name)
    for k in counts:
        k = min(k, len(usable))
        if k == 0:
            continue
        chosen = usable[:k]
        _counted, base_misses = _xscale_misses_excluding(
            eval_trace, frozenset(chosen)
        )
        fsm_misses = sum(
            per_branch[pc][0] - per_branch[pc][1] for pc in chosen
        )
        area = baseline.area()
        for pc in chosen:
            area += cam_bits_area(TAG_BITS + TARGET_BITS)
            area += area_model.estimate(machines[pc].num_states)
        series.points.append(
            SeriesPoint(
                label=f"k={k}",
                area=area,
                miss_rate=(base_misses + fsm_misses) / total,
            )
        )
        if k == len(usable):
            break
    return series


# ----------------------------------------------------------------------
# Full driver
# ----------------------------------------------------------------------

def _panel_series(
    eval_trace: BranchTrace,
    diff_train_trace: BranchTrace,
    gshare_bits: Sequence[int],
    lgc_bits: Sequence[int],
    custom_counts: Sequence[int],
    history_length: int,
    modern: bool,
    tage_bits: Sequence[int],
    perceptron_rows: Sequence[int],
) -> Dict[str, Series]:
    """Every series of one panel, given the evaluation trace and the
    different-input training trace for ``custom-diff``.  Shared by the
    benchmark driver and the trace-source driver."""
    series: Dict[str, Series] = {}

    xscale = XScalePredictor()
    stats = simulate_predictor(xscale, eval_trace)
    series["xscale"] = Series(
        name="xscale",
        points=[SeriesPoint("btb128", xscale.area(), stats.miss_rate)],
    )

    gshare_series = Series(name="gshare")
    for bits in gshare_bits:
        predictor = GSharePredictor(bits)
        stats = simulate_predictor(predictor, eval_trace)
        gshare_series.points.append(
            SeriesPoint(
                predictor.name.replace("gshare-", "2^"),
                predictor.area() + BTB_STORAGE_AREA,
                stats.miss_rate,
            )
        )
    series["gshare"] = gshare_series

    lgc_series = Series(name="lgc")
    for bits in lgc_bits:
        predictor = LocalGlobalChooser(bits)
        stats = simulate_predictor(predictor, eval_trace)
        lgc_series.points.append(
            SeriesPoint(
                predictor.name.replace("lgc-", "2^"),
                predictor.area() + BTB_STORAGE_AREA,
                stats.miss_rate,
            )
        )
    series["lgc"] = lgc_series

    if modern:
        from repro.predictors.perceptron import PerceptronPredictor
        from repro.predictors.tage import TagePredictor

        tage_series = Series(name="tage")
        for bits in tage_bits:
            predictor = TagePredictor(index_bits=bits)
            stats = simulate_predictor(predictor, eval_trace)
            tage_series.points.append(
                SeriesPoint(
                    predictor.name.replace("tage-", ""),
                    predictor.area() + BTB_STORAGE_AREA,
                    stats.miss_rate,
                )
            )
        series["tage"] = tage_series

        perceptron_series = Series(name="perceptron")
        for rows in perceptron_rows:
            predictor = PerceptronPredictor(num_perceptrons=rows)
            stats = simulate_predictor(predictor, eval_trace)
            perceptron_series.points.append(
                SeriesPoint(
                    predictor.name.replace("perceptron-", ""),
                    predictor.area() + BTB_STORAGE_AREA,
                    stats.miss_rate,
                )
            )
        series["perceptron"] = perceptron_series

    max_count = max(custom_counts)
    for variant_name, train_trace in (
        ("custom-same", eval_trace),
        ("custom-diff", diff_train_trace),
    ):
        ranked = rank_branches_by_misses(train_trace)
        models = collect_branch_models(train_trace, order=history_length)
        candidate_pcs = [pc for pc, _misses in ranked[: 2 * max_count]]
        designs = design_branch_predictors(models, candidate_pcs)
        # Deploy in order of measured training-input improvement, skipping
        # branches where the FSM does not beat the baseline.
        top_pcs = rank_by_improvement(train_trace, designs, dict(ranked))[:max_count]
        machines = {pc: designs[pc].machine for pc in top_pcs}
        area_model = fit_area_model(
            [
                (m.num_states, estimate_area(m).area)
                for m in machines.values()
            ]
        )
        series[variant_name] = evaluate_custom_curve(
            eval_trace, top_pcs, machines, custom_counts, area_model, variant_name
        )
    return series


def run_fig5_benchmark(
    benchmark: str,
    max_branches: int = 120_000,
    gshare_bits: Sequence[int] = DEFAULT_GSHARE_BITS,
    lgc_bits: Sequence[int] = DEFAULT_LGC_BITS,
    custom_counts: Sequence[int] = DEFAULT_CUSTOM_COUNTS,
    history_length: int = CUSTOM_HISTORY_LENGTH,
    modern: bool = True,
    tage_bits: Sequence[int] = DEFAULT_TAGE_BITS,
    perceptron_rows: Sequence[int] = DEFAULT_PERCEPTRON_ROWS,
) -> FigureFiveResult:
    """All five paper series of one Figure 5 panel, plus the modern-regime
    ``tage``/``perceptron`` series unless disabled."""
    eval_trace = branch_trace(benchmark, "eval", max_branches)
    train_trace = branch_trace(benchmark, "train", max_branches)
    series = _panel_series(
        eval_trace,
        train_trace,
        gshare_bits,
        lgc_bits,
        custom_counts,
        history_length,
        modern,
        tage_bits,
        perceptron_rows,
    )
    return FigureFiveResult(benchmark=benchmark, series=series)


def run_fig5_source(
    spec: str,
    length: Optional[int] = None,
    seed: Optional[int] = None,
    gshare_bits: Sequence[int] = DEFAULT_GSHARE_BITS,
    lgc_bits: Sequence[int] = DEFAULT_LGC_BITS,
    custom_counts: Sequence[int] = DEFAULT_CUSTOM_COUNTS,
    history_length: int = CUSTOM_HISTORY_LENGTH,
    modern: bool = True,
    tage_bits: Sequence[int] = DEFAULT_TAGE_BITS,
    perceptron_rows: Sequence[int] = DEFAULT_PERCEPTRON_ROWS,
) -> FigureFiveResult:
    """One Figure 5 panel over a registered trace source.

    The ``custom-diff`` training trace comes from the source's
    :meth:`training_counterpart` -- a different input variant when the
    source has one (MiniVM train/eval), otherwise the same spec at
    ``seed + 1`` -- so the honest cross-input series keeps its meaning
    for purely seeded sources.
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
    eval_trace = source_trace(spec_string, length, seed)
    counterpart = source.training_counterpart()
    train_seed = seed
    if counterpart.spec_string() == spec_string:
        train_seed = seed + 1
    train_trace = source_trace(counterpart.spec_string(), length, train_seed)
    series = _panel_series(
        eval_trace,
        train_trace,
        gshare_bits,
        lgc_bits,
        custom_counts,
        history_length,
        modern,
        tage_bits,
        perceptron_rows,
    )
    return FigureFiveResult(benchmark=f"source:{spec_string}", series=series)


def run_fig5(
    benchmarks: Sequence[str] = BRANCH_BENCHMARKS,
    run_id: Optional[str] = None,
    **kwargs,
) -> Dict[str, FigureFiveResult]:
    from functools import partial

    from repro.perf.cache import digest_of
    from repro.reliability.durability import durable_map

    names = list(benchmarks)
    # Fingerprint the modern-series gate explicitly, so a default call
    # and an explicit ``modern=True`` share one journal.
    if kwargs.get("modern") is None:
        kwargs["modern"] = True
    # One shard per benchmark panel; ordering (and therefore output) is
    # identical to the serial comprehension this replaces.  With run_id
    # each completed panel is journaled, so a killed sweep resumes with
    # only the missing panels.
    results = durable_map(
        partial(run_fig5_benchmark, **kwargs),
        names,
        run_id=run_id,
        sweep="fig5.panels",
        fingerprint=digest_of(sorted(kwargs.items())),
    )
    return dict(zip(names, results))
