"""The runner: runs units of one workload as child processes and reports.

One run of a workload repeats its unit -- a fixed amount of work in a
fresh child process with a fresh program cache -- until the timed phases
add up to ``--seconds`` of host time, and at least twice.  Every time a unit reports is
scaled to the reference host with the speed samples its processes took
(:mod:`benchmarks.e2e.speed`).  End-to-end metrics come from untraced units:
``setup_s`` and ``wall_s`` are medians over units, the latency
percentiles pool every operation of every unit, and ``peak_rss_mb`` is
the largest unit peak.  A run whose units are too long to set up
``MIN_SETUPS`` times adds setup-only units, so ``setup_s`` is always a
median of several set-ups.  With ``--trace 1`` the units alternate
untraced and traced; the traced ones give the per-layer metrics, and the
two medians give ``trace.overhead_frac``.

Every unit runs hermetically: inherited ``REPRO_*`` variables are
scrubbed, the cache, run and results directories are fresh per unit
under ``.e2e-runs/`` (removed afterwards), and whatever a unit leaves
running in its process group is killed when it ends.  This process
itself uses one thread and opens no connection.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from benchmarks.e2e import analysis, speed
from benchmarks.e2e.spans import load_spans
from benchmarks.e2e.workloads import WORKLOADS

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
EXPECTED_DIR = PACKAGE_DIR / "expected"
RUNS_DIR = ROOT / ".e2e-runs"
RUN_SCHEMA = "repro.e2e-run/1"
PINS_SCHEMA = "repro.e2e-pins/1"
#: No new unit starts after this many seconds of a run, and every unit
#: must end by ``RUN_DEADLINE_S``, so one run exits well within 180 s.
RUN_CAP_S = 110.0
RUN_DEADLINE_S = 165.0
#: Set-ups measured per run, counting setup-only units.
MIN_SETUPS = 3
#: Timed units per run, so that no metric rests on a single unit.
MIN_UNITS = 2


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def program_missing() -> Optional[str]:
    """Why the program cannot be run from this checkout, if it cannot."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program source under {ROOT / 'src' / 'repro'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def child_env(unit_dir: Path) -> Dict[str, Dict[str, str]]:
    """The environment of a unit: inherited ``REPRO_*`` scrubbed, fresh
    program directories, fixed string hashing."""
    repro_env = {
        "REPRO_CACHE_DIR": str(unit_dir / "cache"),
        "REPRO_RUN_DIR": str(unit_dir / "runs"),
        "REPRO_RESULTS_DIR": str(unit_dir / "results"),
        "REPRO_JOBS": "1",
    }
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(repro_env)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(unit_dir / "tmp")
    return {"env": env, "repro": repro_env}


def _reap_group(pgid: int) -> None:
    """Stop whatever the unit left running in its process group."""
    for sig, grace in ((signal.SIGTERM, 3.0), (signal.SIGKILL, 0.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def scale_times(result: Dict[str, Any], spawn_ns: int, host: speed.Speed) -> bool:
    """Set the unit's ``setup_s``, ``wall_s`` and each operation's
    ``ms`` to reference-host times, next to the raw ``host_setup_s``,
    ``host_wall_s`` and the unit's mean ``speed`` factor.  False when
    some interval has no sample to scale it by."""
    ready = result["ready_ns"]
    start, end = result.get("window", (ready, ready))
    result["host_setup_s"] = (ready - spawn_ns) / 1e9
    result["setup_s"] = host.seconds(spawn_ns, ready)
    result["speed"] = host.factor(spawn_ns, end)
    scaled = [result["setup_s"], result["speed"]]
    if "window" in result:
        result["host_wall_s"] = (end - start) / 1e9
        result["wall_s"] = host.seconds(start, end)
        scaled.append(result["wall_s"])
        for op in result["ops"]:
            seconds = host.seconds(op["t0"], op["t1"])
            op["ms"] = None if seconds is None else seconds * 1e3
            scaled.append(op["ms"])
    return None not in scaled


def run_unit(
    name: str,
    seed: int,
    scale: str,
    traced: bool,
    first: bool,
    pinned: bool,
    unit_dir: Path,
    timeout_s: float,
    setup_only: bool = False,
) -> Dict[str, Any]:
    for sub in ("cache", "runs", "results", "tmp", "spans", "speed", "work"):
        (unit_dir / sub).mkdir(parents=True, exist_ok=True)
    config = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "first": first,
        "pinned": pinned,
        "setup_only": setup_only,
        "span_dir": str(unit_dir / "spans"),
        "speed_dir": str(unit_dir / "speed"),
        "work_dir": str(unit_dir / "work"),
        "result_path": str(unit_dir / "result.json"),
    }
    config_path = unit_dir / "unit.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    env = child_env(unit_dir)["env"]
    with open(unit_dir / "unit.log", "wb") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.unit", str(config_path)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, timeout_s))
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            _reap_group(proc.pid)
            proc.wait()
    result_path = unit_dir / "result.json"
    if timed_out or not result_path.is_file():
        tail = (unit_dir / "unit.log").read_text(errors="replace")[-2000:]
        reason = "timed out" if timed_out else f"exited {proc.returncode}"
        result = {"error": f"unit {reason}:\n{tail}"}
    else:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    if result.get("error") is None:
        host = speed.load(str(unit_dir / "speed"))
        if not scale_times(result, spawn_ns, host):
            result["error"] = "unit took no host-speed samples"
    result["traced"] = traced
    result["setup_only"] = setup_only
    if traced and result.get("error") is None:
        recorded = load_spans(str(unit_dir / "spans"))
        ports = {int(port): pid for port, pid in result["port_pids"].items()}
        result["layers"] = analysis.unit_layer_totals(
            recorded, tuple(result["window"]), result["workers"], ports
        )
        result["hops"] = analysis.request_hops(recorded, ports)
    return result


def pins_path(expected_dir: Path, name: str) -> Path:
    return expected_dir / f"{name}.json"


def load_pins(expected_dir: Path, name: str, scale: str) -> Optional[Dict[str, Any]]:
    path = pins_path(expected_dir, name)
    if not path.is_file():
        return None
    pins = json.loads(path.read_text(encoding="utf-8"))
    if pins.get("scale") != scale:
        return None
    return pins


def verify_units(
    units: List[Dict[str, Any]], pins: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Count attempted and failed operations.  An operation fails when it
    errored or when one of its outputs differs from the pin, or -- with
    no pin -- from the same output elsewhere in the run."""
    attempted = failed = 0
    failures: List[str] = []
    seen: Dict[str, str] = {}
    for unit in units:
        ops = unit.get("ops") or []
        if unit["setup_only"] and not unit.get("error"):
            continue
        if unit.get("error"):
            attempted += max(1, len(ops))
            failed += max(1, len(ops))
            failures.append(unit["error"].strip().splitlines()[-1])
            continue
        changed = pins is not None and unit["input_digest"] != pins["input"]
        if changed:
            failures.append("workload changed: the generated inputs differ from the pin")
        for op in ops:
            attempted += 1
            bad = changed or op["error"] is not None
            if op["error"] is not None:
                failures.append(f"{op['id']}: {op['error']}")
            for output, value in op["outputs"].items():
                want = seen.setdefault(output, value)
                if pins is not None:
                    want = pins["outputs"].get(output)
                if value != want:
                    bad = True
                    failures.append(f"{op['id']}: output {output} differs")
            failed += bad
    return {"attempted": attempted, "failed": failed, "failures": failures}


def end_to_end(units: List[Dict[str, Any]]) -> Dict[str, float]:
    good = [u for u in units if not u["traced"] and u.get("error") is None]
    plain = [u for u in good if not u["setup_only"]]
    if not plain:
        return {}
    latencies = [op["ms"] for unit in plain for op in unit["ops"]]
    return {
        "setup_s": median(u["setup_s"] for u in good),
        "wall_s": median(u["wall_s"] for u in plain),
        "latency_p50_ms": quantile(latencies, 0.50),
        "latency_p80_ms": quantile(latencies, 0.80),
        "peak_rss_mb": max(u["rss_mb"] for u in plain),
    }


def per_layer(units: List[Dict[str, Any]]) -> Dict[str, float]:
    # A run stops at its first failed unit, so only the last can lack data.
    units = [u for u in units if u.get("error") is None and not u["setup_only"]]
    traced = [u for u in units if u["traced"]]
    if not traced:
        return {}
    # Units alternate untraced, traced: compare each traced unit with the
    # untraced one just before it, so host drift cancels within a pair.
    pairs = [
        units[n]["wall_s"] / units[n - 1]["wall_s"] - 1.0
        for n in range(1, len(units))
        if units[n]["traced"]
    ]
    return analysis.layer_metrics([u["layers"] for u in traced], median(pairs))


def typical_request(hops: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean self time of each serving hop over the typical requests
    (latency between the 40th and 60th percentile), next to the mean
    latency the hops add up to."""
    latencies = [row["latency"] for row in hops]
    low, high = quantile(latencies, 0.4), quantile(latencies, 0.6)
    band = [row for row in hops if low <= row["latency"] <= high]
    typical = {hop: sum(row[hop] for row in band) / len(band) for hop in band[0]}
    typical["hops"] = sum(v for hop, v in typical.items() if hop != "latency")
    return {hop: round(value, 3) for hop, value in typical.items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: str = "full",
    expected_dir: Optional[Path] = EXPECTED_DIR,
    trace_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """One run of a workload; returns its record (see README).  With
    ``expected_dir=None`` the outputs are checked only against each
    other and the in-process references."""
    pins = None
    if expected_dir is not None:
        pins = load_pins(expected_dir, name, scale)
    run_dir = RUNS_DIR / f"{os.getpid()}-{name}-{time.monotonic_ns()}"
    units: List[Dict[str, Any]] = []
    started = time.monotonic()
    timed = 0.0
    try:
        # Timed units until their timed phases fill ``seconds``; then, on
        # an untraced run that has set up fewer than MIN_SETUPS times,
        # setup-only units.
        enough = False
        while True:
            index = len(units)
            unit_dir = run_dir / f"u{index:02d}"
            unit = run_unit(
                name,
                seed,
                scale,
                traced=traced and index % 2 == 1,
                first=index == 0,
                pinned=pins is not None,
                unit_dir=unit_dir,
                timeout_s=RUN_DEADLINE_S - (time.monotonic() - started),
                setup_only=enough,
            )
            units.append(unit)
            if unit["traced"] and trace_dir is not None:
                target = trace_dir / name / f"seed{seed}-u{index:02d}"
                shutil.copytree(unit_dir / "spans", target, dirs_exist_ok=True)
            if unit.get("error") or time.monotonic() - started > RUN_CAP_S:
                break
            if not enough:
                # ``seconds`` is host time, so a run's length does not
                # depend on how fast the host is.
                timed += unit["host_wall_s"]
                enough = timed + unit["host_wall_s"] / 2 >= seconds
                # At least MIN_UNITS timed units (traced: an untraced and
                # a traced one); a run of zero seconds is one unit.
                if traced or seconds > 0:
                    enough = enough and index + 1 >= MIN_UNITS
            if enough and (traced or seconds <= 0 or len(units) >= MIN_SETUPS):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    verdict = verify_units(units, pins)
    info: Dict[str, Any] = {}
    for unit in units:
        for key, value in (unit.get("info") or {}).items():
            info.setdefault(key, value)
    speeds = [u["speed"] for u in units if u.get("speed") is not None]
    if speeds:
        info["host_speed"] = round(median(speeds), 3)
    hops = [row for u in units for row in u.get("hops", [])]
    if hops:
        info["typical_request_ms"] = typical_request(hops)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "traced": traced,
        "pinned": pins is not None,
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failures": verdict["failures"][:20],
        "metrics": end_to_end(units),
        "layers": per_layer(units) if traced else {},
        "info": info,
        "env": {
            "scrubbed": sorted(k for k in os.environ if k.startswith("REPRO_")),
            "set": {
                k: os.path.relpath(v, run_dir) if os.path.isabs(v) else v
                for k, v in child_env(run_dir / "uNN")["repro"].items()
            },
        },
        "units": [
            {
                "traced": u["traced"],
                "setup_only": u["setup_only"],
                "error": u.get("error"),
                "setup_s": u.get("setup_s"),
                "wall_s": u.get("wall_s"),
                "host_setup_s": u.get("host_setup_s"),
                "host_wall_s": u.get("host_wall_s"),
                "speed": u.get("speed"),
                "ops": len(u.get("ops") or []),
                "latencies_ms": [op.get("ms") for op in u.get("ops") or []],
                "rss_mb": u.get("rss_mb"),
                "input_digest": u.get("input_digest"),
                "outputs": {
                    k: v for op in u.get("ops") or [] for k, v in op["outputs"].items()
                },
            }
            for u in units
        ],
    }


def record_pins(name: str, seeds: List[int], scale: str, expected_dir: Path) -> List[str]:
    """Run one unit per seed, check the outputs against the independent
    references and each other, and rewrite the workload's pins."""
    problems = []
    pins: Optional[Dict[str, Any]] = None
    for seed in seeds:
        # Zero seconds: one timed unit.
        record = run_workload(name, seed, 0.0, False, scale, expected_dir=None)
        if not record["correct"]:
            problems.extend(f"{name} seed {seed}: {f}" for f in record["failures"])
            continue
        unit = record["units"][0]
        seen = {
            "schema": PINS_SCHEMA,
            "workload": name,
            "scale": scale,
            "input": unit["input_digest"],
            "outputs": dict(sorted(unit["outputs"].items())),
        }
        if pins is not None and seen != pins:
            problems.append(f"{name} seed {seed}: outputs differ from seed {seeds[0]}'s")
        pins = pins or seen
    if pins is not None and not problems:
        expected_dir.mkdir(parents=True, exist_ok=True)
        pins_path(expected_dir, name).write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return problems
