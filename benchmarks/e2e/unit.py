"""One unit of a workload, in a child process of the runner.

``python -m benchmarks.e2e.unit CONFIG`` reads the unit's configuration,
runs setup, the timed phase and the checks, and writes one JSON result
next to the configuration.  A setup-only unit stops after setup.  The
process samples its host speed from its first statement on (see
:mod:`benchmarks.e2e.speed`); the runner turns the ``time.monotonic_ns``
stamps of the result (``ready_ns``, ``window`` and each operation's
``t0``/``t1``) into reference-host times with the samples.
"""

import json
import os
import sys
import time
import traceback

from benchmarks.e2e import speed


def run_unit(config):
    from benchmarks.e2e import spans
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[config["workload"]](config["seed"], config["scale"])
    span_dir = config["span_dir"] if config["traced"] else None
    result = {"error": None, "workers": workload.workers}
    try:
        workload.setup(config["work_dir"], span_dir, config["speed_dir"])
        if config["setup_only"]:
            result["ready_ns"] = time.monotonic_ns()
            return result
        tracing = recorder = None
        if span_dir is not None:
            if workload.wraps_in_process:
                tracing = spans.install(span_dir, flush_on_root=False)
                recorder = tracing.recorder
            else:
                recorder = spans.Recorder(span_dir, flush_on_root=False)
        ready = time.monotonic_ns()
        try:
            ops = workload.run(recorder)
            end = time.monotonic_ns()
        finally:
            if tracing is not None:
                tracing.restore()
        if recorder is not None:
            recorder.flush()
        # Peak memory of setup and the timed phase, before the checks.
        rss_mb = workload.peak_rss_mb()
        input_digest = workload.check(ops, config["first"], config["pinned"])
        info = workload.info()
        if span_dir is not None:
            info["unwrapped"] = spans.unresolved()
        result.update(
            ready_ns=ready,
            window=[ready, end],
            rss_mb=rss_mb,
            ops=ops,
            input_digest=input_digest,
            info=info,
            port_pids={str(port): pid for port, pid in workload.port_pids().items()},
        )
    except Exception:  # noqa: BLE001 - reported to the runner, never lost
        result["error"] = traceback.format_exc()
    finally:
        workload.teardown()
    return result


def main(argv):
    with open(argv[0], encoding="utf-8") as handle:
        config = json.load(handle)
    # The unit and every process it starts share one CPU: the host's
    # CPUs slow down independently, and the time of work spread over
    # several depends on their imbalance, which no speed sample undoes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed.start(config["speed_dir"])
    try:
        result = run_unit(config)
    finally:
        speed.stop()
    with open(config["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
