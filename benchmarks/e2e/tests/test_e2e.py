"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.  The
smoke runs use ``--scale smoke --seconds 0``: one unit (two when traced)
of a tiny input set per workload.  They also catch a change to the
program that breaks the benchmark, such as a renamed wrapped function.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import analysis, compare, spans, speed
from benchmarks.e2e.runner import ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def metric_lines(stdout, workload):
    """``{metric: unit}`` from the ``workload metric value unit`` lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            float(parts[2])
            found[parts[1]] = parts[3]
    return found


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, traced, tmp_path):
    result = bench(
        "run", "--workload", workload, "--scale", "smoke", "--seconds", "0",
        "--trace", str(traced), "--expected-dir", str(tmp_path),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    assert metric_lines(result.stdout, workload) == want
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == want
    if not traced:
        assert all(v["value"] > 0 for v in final["metrics"].values())


def test_tampered_pin_fails_the_run(tmp_path):
    recorded = bench(
        "record-expected", "--workload", "design-sweep", "--seed", "0",
        "--scale", "smoke", "--expected-dir", str(tmp_path),
    )
    assert recorded.returncode == 0, recorded.stdout + recorded.stderr
    args = (
        "run", "--workload", "design-sweep", "--scale", "smoke", "--seconds", "0",
        "--expected-dir", str(tmp_path),
    )
    clean = bench(*args)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "pinned=yes" in clean.stdout

    # Another seed runs the same pinned input set in another order.
    reordered = bench(*args[:-2], "--seed", "7", *args[-2:])
    assert reordered.returncode == 0, reordered.stdout + reordered.stderr

    path = tmp_path / "design-sweep.json"
    pins = json.loads(path.read_text())
    outputs = pins["outputs"]
    first = sorted(outputs)[0]
    outputs[first] = "0" * 64
    path.write_text(json.dumps(pins))
    tampered = bench(*args)
    assert tampered.returncode != 0
    final = json.loads(tampered.stdout.strip().splitlines()[-1])
    assert not final["correct"] and final["failed"] / final["attempted"] > 0


def test_a_short_run_still_times_two_units_and_sets_up_three_times(tmp_path):
    result = bench(
        "run", "--workload", "design-sweep", "--scale", "smoke", "--seconds", "0.001",
        "--expected-dir", str(tmp_path),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "units=2 setup_only_units=1 " in result.stdout
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert final["attempted"] == 12  # the smoke corpus's six jobs, twice


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    result = bench(
        "run", "--workload", "fig2-confidence", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path, timeout=60,
    )
    assert result.returncode != 0
    assert not result.stdout.strip()


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def span(pid, i, parent, start, end, layer, name="f", key=None, **extra):
    record = {"p": pid, "pp": 1, "i": i, "u": parent, "s": start, "e": end,
              "l": layer, "n": name}
    if key is not None:
        record["k"] = key
    record.update(extra)
    return record


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans_ = [
        span(10, 1, None, 0, 100, "harness", name="op"),
        span(10, 2, 1, 10, 40, "logic.cover"),
        span(10, 3, 1, 30, 60, "automata.dfa"),  # overlaps the first child
        span(10, 4, 3, 35, 45, "automata.minimize"),
        span(10, 5, 1, 90, 120, "cache"),  # runs past the parent's end
    ]
    parents = analysis.link(spans_)
    assert analysis.self_times(spans_, parents) == [100 - 50 - 10, 30, 20, 10, 30]
    totals = analysis.unit_layer_totals(spans_, window=(0, 120), workers=1)
    assert totals["op_s"] == pytest.approx(100e-9)
    assert totals["op_unattributed_s"] == pytest.approx(40e-9)


def test_spans_outside_the_timed_phase_are_not_counted():
    spans_ = [
        span(10, 1, None, 0, 50, "synth.area", name="estimate_area"),  # set-up
        span(10, 2, None, 100, 200, "harness", name="op"),
        span(10, 3, 2, 120, 150, "synth.area", name="estimate_area"),
    ]
    totals = analysis.unit_layer_totals(spans_, window=(100, 200), workers=1)
    assert totals["area_calls"] == 1
    assert totals["self:synth.area"] == pytest.approx(30e-9)


def test_serving_spans_link_across_processes_by_key_and_port():
    router, replica_a, replica_b, worker_a, worker_b = 20, 30, 31, 40, 41
    spans_ = [
        span(10, 1, None, 0, 1000, "router", name="op", key="k"),
        # The router's primary call and, after 300, a hedge that loses.
        span(router, 1, None, 50, 900, "serve.replica", "request", "k", a={"port": 7001}),
        span(router, 2, None, 300, 900, "serve.replica", "request", "k",
             a={"port": 7002}, o="cancelled"),
        span(replica_a, 1, None, 100, 850, "serve.queue", "submit", "k"),
        span(replica_b, 1, None, 350, 950, "serve.queue", "submit", "k"),
        dict(span(worker_a, 1, None, 200, 800, "serve.worker", "execute_envelope", "k"),
             pp=replica_a),
        dict(span(worker_b, 1, None, 400, 940, "serve.worker", "execute_envelope", "k"),
             pp=replica_b),
    ]
    ports = {7001: replica_a, 7002: replica_b}
    parents = analysis.link(spans_, ports)
    assert [parents[n] for n in range(len(spans_))] == [None, 0, 0, 1, 2, 3, 4]
    selfs = analysis.self_times(spans_, parents)
    assert selfs[0] == 1000 - 850  # client span minus the union of both calls
    assert selfs[3] == 750 - 600  # queue wait: submit minus the worker's run
    totals = analysis.unit_layer_totals(
        spans_, window=(0, 1000), workers=2, port_pids=ports
    )
    assert totals["hedges"] == 1
    assert totals["worker_wasted_s"] == pytest.approx(540e-9)
    metrics = analysis.layer_metrics([totals], overhead_frac=0.01)
    assert metrics["router.hedge_wasted_frac"] == pytest.approx(540 / 1140)
    assert sum(metrics[f"{layer}.self_frac"] for layer in analysis.SELF_LAYERS) == (
        pytest.approx(1.0)
    )
    # Per hop, inside the client span; the losing hedge leg counts too.
    (hops,) = analysis.request_hops(spans_, ports)
    assert {k: round(v * 1e6) for k, v in hops.items()} == {
        "router": 150, "replica": 100 + 50, "queue": 150 + 60,
        "worker": 600 + 540, "latency": 1000,
    }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def test_speed_scales_an_interval_by_its_samples():
    ref = speed.REFERENCE_NS
    # The CPU at half speed: every loop takes twice the reference time.
    # The interval is 100 reference loops long, and its 20 samples took
    # 40 of them; the rest ran at half speed.
    length = 100 * ref
    samples = [(t, 2 * ref) for t in range(0, length, length // 20)]
    host = speed.Speed(samples)
    taken = 20 * 2 * ref
    assert host.seconds(0, length) == pytest.approx((length - taken) * 0.5 / 1e9)


def test_a_short_interval_borrows_the_nearest_samples():
    ref = speed.REFERENCE_NS
    slow = [(t, 4 * ref) for t in range(0, 16 * 1000, 1000)]
    fast = [(t, ref) for t in range(10**9, 10**9 + 16 * 1000, 1000)]
    host = speed.Speed(slow + fast)
    # An interval between the two groups, nearer the fast one.
    assert host.factor(10**9 - 10, 10**9 - 5) == pytest.approx(1.0)
    assert host.factor(20_000, 21_000) == pytest.approx(0.25)
    assert speed.Speed([]).seconds(0, 10) is None


def test_speed_samples_are_written_and_loaded(tmp_path):
    speed.start(str(tmp_path))
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    finally:
        speed.stop()
    with open(tmp_path / "speed-truncated.txt", "w") as handle:
        handle.write("12 34")  # a process killed mid-write
    host = speed.load(str(tmp_path))
    assert len(host.samples) >= 5
    assert all(duration > 0 for _, duration in host.samples)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrapped_originals():
    import importlib

    originals = {}
    for module_name, attr, _layer in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
            originals[(owner, attr)] = owner.__dict__[attr]
        else:
            originals[(owner, attr)] = getattr(owner, attr)
    return originals


def _repro_attributes():
    return {
        (module, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
        for attr, value in vars(module).items()
    }


def test_every_wrapped_function_exists():
    assert spans.unresolved() == []


def test_a_missing_wrap_target_is_skipped(tmp_path, monkeypatch):
    from repro.logic import espresso

    original = espresso.minimize
    monkeypatch.setattr(
        spans, "WRAPPED", spans.WRAPPED + (("repro.logic.espresso", "renamed", "logic.cover"),)
    )
    assert spans.unresolved() == ["repro.logic.espresso.renamed"]
    tracing = spans.install(str(tmp_path))
    try:
        assert espresso.minimize is not original
    finally:
        tracing.restore()
    assert espresso.minimize is original


def test_wrappers_are_restored_after_a_traced_run(tmp_path, monkeypatch):
    from repro.core.pipeline import design_predictor

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    originals = _wrapped_originals()
    functions = {id(v): v for v in originals.values() if callable(v)}
    tracing = spans.install(str(tmp_path / "spans"))
    try:
        from repro.core import pipeline
        from repro.logic import espresso

        assert pipeline.logic_minimize is not originals[(espresso, "minimize")]
        assert espresso.minimize is not originals[(espresso, "minimize")]
        with tracing.recorder.span("op", "harness"):
            design_predictor([0, 0, 0, 1, 0, 0, 1, 1] * 8, order=2)
    finally:
        tracing.restore()
    # Every wrapped function and method is the original object again ...
    assert all(
        owner.__dict__[attr] is value for (owner, attr), value in originals.items()
    )
    # ... and no loaded module (including ones imported while tracing)
    # still holds a wrapper.
    leftovers = [
        (module.__name__, attr)
        for (module, attr), value in _repro_attributes().items()
        if functions.get(id(getattr(value, "__wrapped__", None))) is not None
    ]
    assert leftovers == []
    assert pipeline.logic_minimize is originals[(espresso, "minimize")]
    recorded = spans.load_spans(str(tmp_path / "spans"))
    layers = {s["l"] for s in recorded}
    assert {"harness", "markov", "logic.cover", "automata.dfa"} <= layers
    minimize = [s for s in recorded if s["n"] == "minimize"]
    assert minimize and all(s["a"]["w"] == 2 for s in minimize)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "old, new, better, bound, expected",
    [
        # Every pair faster, by far more than the old quartile spread.
        ([10.0, 10.1, 10.2, 10.1], [8.0, 8.1, 8.0, 8.2], "lower", 0.1, "better"),
        ([10.0, 10.1, 10.2, 10.1], [12.0, 12.1, 12.0, 12.2], "lower", 0.1, "worse"),
        ([10.0, 10.1, 10.2, 10.1], [10.3, 10.2, 10.4, 10.3], "lower", 0.1, "within-bound"),
        # Old runs spread over more than the bound: noise, not a result.
        ([8.0, 12.0, 9.0, 11.0], [10.5, 9.5, 11.5, 10.0], "lower", 0.1, "unresolved"),
        # Higher is better: a throughput drop beyond the bound.
        ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "higher", 0.1, "worse"),
    ],
)
def test_compare_verdicts(old, new, better, bound, expected):
    assert compare.verdict(old, new, better, bound) == expected


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    def record(wall):
        runs = [
            {"metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"]}, "layers": {}}
            for _ in wall
        ]
        for run, value in zip(runs, wall):
            run["metrics"]["wall_s"] = value
        return {"workloads": {"fig2-confidence": {"runs": runs}}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record([4.0, 4.1, 4.0, 4.05])))
    new.write_text(json.dumps(record([6.0, 6.1, 6.0, 6.05])))
    result = bench("compare", str(old), str(new))
    assert result.returncode == 1
    assert any("wall_s" in line and line.endswith("worse") for line in result.stdout.splitlines())
    same = bench("compare", str(old), str(old))
    assert same.returncode == 0
