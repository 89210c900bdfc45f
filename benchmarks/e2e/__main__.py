"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e run [--workload W] [--seed S] [--seconds N]
                                 [--trace 0|1] [--trace-dir DIR]
                                 [--repeats N] [--scale full|smoke]
                                 [--out FILE]
    python -m benchmarks.e2e compare OLD.json NEW.json
    python -m benchmarks.e2e record-expected [--workload W] [--seed S ...]

``run`` prints one ``workload metric value unit`` line per metric and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when an output is wrong and 2 when the program
source is missing from this checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List


def _declared(spec: Dict[str, Any], traced: bool) -> List[Dict[str, Any]]:
    return spec["per_layer"] if traced else spec["end_to_end"]


def _metrics_object(
    spec: Dict[str, Any], values: Dict[str, float], traced: bool
) -> Dict[str, Dict[str, Any]]:
    declared = _declared(spec, traced)
    names = [m["name"] for m in declared]
    if values and sorted(values) != sorted(names):
        raise RuntimeError(
            f"computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(names)}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }


def _print_run(spec: Dict[str, Any], record: Dict[str, Any]) -> None:
    name = record["workload"]
    units = record["units"]
    ops = sum(u["ops"] for u in units if not u["traced"])
    print(
        f"# {name} seed={record['seed']} scale={record['scale']} "
        f"units={sum(not u['setup_only'] for u in units)} "
        f"setup_only_units={sum(u['setup_only'] for u in units)} "
        f"traced_units={sum(u['traced'] for u in units)} ops={ops} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed'] / max(1, record['attempted']):.4f} "
        f"pinned={'yes' if record['pinned'] else 'no'}"
    )
    print(f"# {name} env set={record['env']['set']} scrubbed={record['env']['scrubbed']}")
    for key, value in record["info"].items():
        print(f"# {name} {key} {value!r}")
    for failure in record["failures"]:
        print(f"# {name} FAILED {failure}")
    values = record["layers"] if record["traced"] else record["metrics"]
    for metric in _declared(spec, record["traced"]):
        if metric["name"] in values:
            print(f"{name} {metric['name']} {values[metric['name']]!r} {metric['unit']}")


def _final_object(spec: Dict[str, Any], records: List[Dict[str, Any]], traced: bool):
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if len(records) == 1:
        values = records[0]["layers"] if traced else records[0]["metrics"]
        summary["metrics"] = _metrics_object(spec, values, traced)
        return summary
    merged: Dict[str, Dict[str, Any]] = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == name]
        for metric in _declared(spec, traced):
            series = [
                (r["layers"] if traced else r["metrics"]).get(metric["name"])
                for r in runs
            ]
            series = [v for v in series if v is not None]
            if series:
                merged[f"{name}.{metric['name']}"] = {
                    "value": median(series),
                    "unit": metric["unit"],
                }
    summary["metrics"] = merged
    return summary


def cmd_run(args, spec) -> int:
    from benchmarks.e2e.runner import EXPECTED_DIR, RUN_SCHEMA, run_workload

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    traced = args.trace == 1
    expected_dir = Path(args.expected_dir) if args.expected_dir else EXPECTED_DIR
    records = []
    for name in names:
        for _ in range(args.repeats):
            record = run_workload(
                name,
                args.seed,
                seconds,
                traced,
                scale=args.scale,
                expected_dir=expected_dir,
                trace_dir=Path(args.trace_dir) if args.trace_dir else None,
            )
            _print_run(spec, record)
            records.append(record)
    if args.out:
        document = {"schema": RUN_SCHEMA, "workloads": {}}
        for record in records:
            entry = document["workloads"].setdefault(record["workload"], {"runs": []})
            entry["runs"].append(record)
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    summary = _final_object(spec, records, traced)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def cmd_compare(args, spec) -> int:
    from benchmarks.e2e.compare import compare

    lines, regressed = compare(args.old, args.new, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


def cmd_record(args, spec) -> int:
    from benchmarks.e2e.runner import EXPECTED_DIR, record_pins

    expected_dir = Path(args.expected_dir) if args.expected_dir else EXPECTED_DIR
    problems = []
    seeds = args.seed or [0]
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        failed = record_pins(name, seeds, args.scale, expected_dir)
        problems.extend(failed)
        if not failed:
            print(f"pinned {name} (outputs of seeds {seeds})")
    for problem in problems:
        print(f"not pinned: {problem}")
    return 1 if problems else 0


def build_parser(workload_names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=workload_names)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: traced run, prints the per-layer metrics")
    run.add_argument("--trace-dir", default=None,
                     help="keep the traced units' span files under this directory")
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", default=None, help="write every run's record here")
    run.add_argument("--expected-dir", default=None, help=argparse.SUPPRESS)
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="compare two --out files")
    comp.add_argument("old")
    comp.add_argument("new")
    comp.set_defaults(func=cmd_compare)

    record = sub.add_parser("record-expected", help="rewrite the output pins")
    record.add_argument("--workload", action="append", choices=workload_names)
    record.add_argument("--seed", type=int, action="append", default=None,
                        help="seeds whose outputs must agree (default: 0)")
    record.add_argument("--scale", choices=("full", "smoke"), default="full")
    record.add_argument("--expected-dir", default=None, help=argparse.SUPPRESS)
    record.set_defaults(func=cmd_record)
    return parser


def _terminate(signum, frame):
    # Unwind, so the runner reaps the unit it is waiting for (units run
    # in their own session, out of reach of a signal sent to this group)
    # and removes its scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    from benchmarks.e2e.runner import load_spec, program_missing

    signal.signal(signal.SIGTERM, _terminate)
    missing = program_missing()
    if missing:
        print(f"benchmarks.e2e: {missing}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = build_parser([w["name"] for w in spec["workloads"]]).parse_args(argv)
    return args.func(args, spec)


if __name__ == "__main__":
    sys.exit(main())
