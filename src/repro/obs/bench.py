"""Benchmark-telemetry exporter: the ``BENCH_pipeline.json`` snapshot.

``python -m repro bench`` runs a reduced-scale pass over the repo's two
headline figure drivers (fig2 value confidence, fig5 branch
misprediction), the design-flow scaling sweep from ``benchmarks/``, and
the Moore-kernel micro benchmark, all with tracing armed -- and writes
one schema-versioned JSON snapshot:

* ``timings``   -- wall seconds per driver, plus the kernel speedup;
* ``stages``    -- per-pipeline-stage call counts and total seconds,
  aggregated from the span sink (the same data ``--profile`` prints);
* ``metrics``   -- the unified counter registry (cache hits/misses, pool
  tasks, ...) after the pass;
* ``backend``   -- the active simulation backend (numpy version) and
  batching parameters, so deltas across machines are interpretable.

CI regenerates the snapshot on every push, validates it against
:func:`validate_bench_snapshot`, and uploads it as an artifact, so the
perf trajectory accumulates instead of living in someone's terminal
scrollback.  Scale knobs keep the pass to tens of seconds; absolute
numbers are machine-relative, the point is the *shape* (stage mix, call
counts, speedup) and the trend on a fixed runner.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.obs import tracing
from repro.obs.metrics import metrics, reset_metrics

BENCH_SCHEMA = "repro.bench/1"

# Reduced-scale defaults: big enough that every pipeline stage runs on
# realistic inputs, small enough for a CI smoke job.
DEFAULT_SCALE: Dict[str, int] = {
    "fig2_loads": 20_000,
    "fig5_branches": 20_000,
    "design_orders_max": 8,
    "kernel_bits": 120_000,
    "optimal_bits": 4_096,
    "optimal_kmax": 4,
}


def _timed(name: str, fn, timings: List[Dict[str, Any]]) -> Any:
    start = time.perf_counter()
    value = fn()
    timings.append(
        {"name": name, "seconds": round(time.perf_counter() - start, 6)}
    )
    return value


def _kernel_speedup(bits: int) -> Optional[float]:
    """One-machine batch kernel vs the per-symbol loop; None when the
    batch run is too fast for the clock to resolve."""
    import random

    import numpy as np

    from repro.automata.moore import MooreMachine
    from repro.perf.batched import BatchedMoore

    rng = random.Random(2001)
    num_states = 12
    machine = MooreMachine(
        alphabet=("0", "1"),
        start=0,
        outputs=tuple(rng.randrange(2) for _ in range(num_states)),
        transitions=tuple(
            (rng.randrange(num_states), rng.randrange(num_states))
            for _ in range(num_states)
        ),
    )
    kernel = BatchedMoore([machine])
    stream = np.random.default_rng(7).integers(0, 2, size=bits)
    text = "".join("1" if b else "0" for b in stream.tolist())
    start = time.perf_counter()
    kernel.run_outputs(stream)
    batch = time.perf_counter() - start
    start = time.perf_counter()
    machine.trace_outputs(text)
    loop = time.perf_counter() - start
    return round(loop / batch, 3) if batch > 0 else None


def collect_bench_snapshot(
    scale: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Run the telemetry pass and return the snapshot dict."""
    from repro.core.pipeline import DesignConfig, FSMDesigner
    from repro.harness.fig2 import run_fig2_benchmark
    from repro.harness.fig5 import run_fig5_benchmark
    from repro.valuepred.confidence import correctness_trace
    from repro.workloads.values import load_trace

    knobs = dict(DEFAULT_SCALE)
    knobs.update(scale or {})

    timings: List[Dict[str, Any]] = []
    # Pin the pass to serial: spans recorded inside pool workers land in
    # the *worker's* in-memory sink, which would leave the 'stages'
    # section missing every stage the pool ran (counters would still
    # aggregate, but not durations).
    import os

    saved_jobs = os.environ.get("REPRO_JOBS")
    os.environ["REPRO_JOBS"] = "1"
    tracing.reset_tracing()
    tracing.set_tracing(True)
    reset_metrics()
    try:
        _timed(
            "fig2.gcc",
            lambda: run_fig2_benchmark("gcc", num_loads=knobs["fig2_loads"]),
            timings,
        )
        _timed(
            "fig5.gsm",
            lambda: run_fig5_benchmark(
                "gsm", max_branches=knobs["fig5_branches"]
            ),
            timings,
        )
        _indices, bits = correctness_trace(
            load_trace("gcc", "train", knobs["fig2_loads"])
        )
        for order in range(2, knobs["design_orders_max"] + 1, 2):
            designer = FSMDesigner(
                DesignConfig(order=order, dont_care_fraction=0.01)
            )
            _timed(
                f"design.order{order}",
                lambda d=designer: d.design_from_trace(bits),
                timings,
            )
        # Exhaustive-oracle runtime, with the content-addressed cache off
        # so the timing measures the search itself on every run (a warm
        # cache would report ~0 and hide regressions in the kernel).
        import random

        from repro.predictors.optimal import optimal_predictors

        oracle_trace = random.Random(2001).choices(
            (0, 1), k=knobs["optimal_bits"]
        )
        saved_cache = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = "0"
        try:
            _timed(
                f"optimal.k{knobs['optimal_kmax']}",
                lambda: optimal_predictors(
                    oracle_trace, kmax=knobs["optimal_kmax"]
                ),
                timings,
            )
        finally:
            if saved_cache is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = saved_cache
        speedup = _kernel_speedup(knobs["kernel_bits"])
        if speedup is not None:
            timings.append({"name": "kernel.speedup_x", "seconds": speedup})
        stages = [
            {
                "stage": stage,
                "calls": calls,
                "total_s": round(total, 6),
                "mean_ms": round(mean_ms, 6),
            }
            for stage, calls, total, mean_ms in tracing.profile_rows()
        ]
        counters = {name: value for name, value in metrics().rows()}
    finally:
        tracing.set_tracing(False)
        tracing.reset_tracing()
        if saved_jobs is None:
            os.environ.pop("REPRO_JOBS", None)
        else:
            os.environ["REPRO_JOBS"] = saved_jobs
    from repro.perf.batched import BATCH_THRESHOLD, backend_info

    backend = dict(backend_info())
    backend["batch_threshold"] = BATCH_THRESHOLD
    return {
        "schema": BENCH_SCHEMA,
        "generated_by": "python -m repro bench",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "backend": backend,
        "scale": knobs,
        "timings": timings,
        "stages": stages,
        "metrics": counters,
    }


def validate_bench_snapshot(snapshot: Any) -> None:
    """Raise ``ValueError`` unless ``snapshot`` is a valid bench document.

    This is the schema contract CI enforces before uploading the
    artifact; keep it in sync with ``BENCH_SCHEMA`` and DESIGN.md.
    """

    def fail(reason: str) -> None:
        raise ValueError(f"invalid BENCH snapshot: {reason}")

    if not isinstance(snapshot, dict):
        fail(f"expected an object, got {type(snapshot).__name__}")
    if snapshot.get("schema") != BENCH_SCHEMA:
        fail(f"schema must be {BENCH_SCHEMA!r}, got {snapshot.get('schema')!r}")
    for key in ("python", "platform", "generated_by"):
        if not isinstance(snapshot.get(key), str):
            fail(f"{key!r} must be a string")
    scale = snapshot.get("scale")
    if not isinstance(scale, dict) or not all(
        isinstance(v, int) and v > 0 for v in scale.values()
    ):
        fail("'scale' must map knob names to positive integers")
    timings = snapshot.get("timings")
    if not isinstance(timings, list) or not timings:
        fail("'timings' must be a non-empty list")
    for entry in timings:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            fail("each timing needs a string 'name'")
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or seconds < 0:
            fail(f"timing {entry.get('name')!r} needs seconds >= 0")
    stages = snapshot.get("stages")
    if not isinstance(stages, list) or not stages:
        fail("'stages' must be a non-empty list (was tracing armed?)")
    for entry in stages:
        if not isinstance(entry, dict) or not isinstance(
            entry.get("stage"), str
        ):
            fail("each stage row needs a string 'stage'")
        if not isinstance(entry.get("calls"), int) or entry["calls"] < 1:
            fail(f"stage {entry.get('stage')!r} needs calls >= 1")
        total = entry.get("total_s")
        if not isinstance(total, (int, float)) or total < 0:
            fail(f"stage {entry.get('stage')!r} needs total_s >= 0")
    counters = snapshot.get("metrics")
    if not isinstance(counters, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in counters.items()
    ):
        fail("'metrics' must map counter names to integers")
    # 'backend' is newer than the first repro.bench/1 snapshots; absent is
    # fine (old snapshots stay valid) but a present section must at least
    # name the simulation backend so cross-machine deltas are interpretable.
    backend = snapshot.get("backend")
    if backend is not None:
        if not isinstance(backend, dict) or not isinstance(
            backend.get("backend"), str
        ):
            fail("'backend', when present, needs a string 'backend' name")


def write_bench_snapshot(
    path: str, snapshot: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Collect (unless given), validate, and write the snapshot."""
    if snapshot is None:
        snapshot = collect_bench_snapshot()
    validate_bench_snapshot(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot
