"""parallel_map: same answer as the list comprehension, in the same order,
no matter how the pool behaves."""

import contextlib
import os

import pytest

from repro.obs.metrics import metrics, reset_metrics
from repro.perf import parallel as parallel_mod
from repro.perf.parallel import default_jobs, parallel_map
from repro.reliability import faults
from repro.reliability.errors import WorkerError
from repro.reliability.faults import inject_faults


def _square(x):
    return x * x


def _pid_of(_x):
    return os.getpid()


def _call(thunk):
    return thunk()


def _explode(x):
    raise ValueError(f"boom {x}")


def _interrupt(x):
    raise KeyboardInterrupt


def _fire_crash(x):
    """Hits the armed ``worker_crash`` point in the parent recompute too."""
    faults.fire("worker_crash")
    return x


def test_serial_matches_comprehension():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]


def test_parallel_preserves_input_order():
    items = list(range(37))
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_unpicklable_fn_falls_back_to_serial():
    offset = 3  # closure makes the lambda unpicklable for pool workers
    items = list(range(10))
    assert parallel_map(lambda x: x + offset, items, jobs=2) == [
        x + 3 for x in items
    ]


def test_unpicklable_items_are_computed_in_the_parent():
    items = [lambda: 1, lambda: 2]  # lambdas cannot be sent to a worker
    assert parallel_map(_call, items, jobs=2) == [1, 2]


def test_worker_exceptions_propagate():
    with pytest.raises(ValueError):
        parallel_map(_explode, [1, 2, 3], jobs=1)
    with pytest.raises(ValueError):
        parallel_map(_explode, [1, 2, 3], jobs=2)


def test_nested_calls_run_serially(monkeypatch):
    monkeypatch.setattr(parallel_mod, "_IN_WORKER", True)
    pids = parallel_map(_pid_of, [1, 2, 3, 4], jobs=4)
    assert set(pids) == {os.getpid()}


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    assert default_jobs() == 1


def test_empty_and_single_item():
    assert parallel_map(_square, [], jobs=8) == []
    assert parallel_map(_square, [5], jobs=8) == [25]


class TestKeyboardInterrupt:
    """An interrupt is a shutdown request, not an infrastructure failure:
    it must propagate immediately -- never retried, never converted into a
    WorkerError by the serial fallback, never swallowed."""

    def test_serial_interrupt_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt, [1, 2, 3], jobs=1)

    def test_pooled_interrupt_propagates_without_retries(self):
        reset_metrics()
        # Hermetic against an ambient REPRO_FAULTS plan (the CI chaos
        # job arms worker_crash, which would count real retries here).
        with faults.no_faults(), pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt, [1, 2, 3], jobs=2)
        assert metrics().get("parallel.interrupts") == 1
        assert metrics().get("parallel.retries") == 0
        assert metrics().get("parallel.serial_fallbacks") == 0

    @pytest.mark.parametrize(
        "fn, raises, plan",
        [
            (_square, None, ""),
            (_explode, ValueError, ""),
            (_fire_crash, WorkerError, "worker_crash:1.0"),
            (_interrupt, KeyboardInterrupt, ""),
        ],
        ids=["returns", "fn-raises", "worker-error", "interrupt"],
    )
    def test_pooled_interrupt_reaps_workers(self, fn, raises, plan):
        """Every way out of a pooled run stops the pool: normal return,
        the function's own exception, WorkerError, KeyboardInterrupt."""
        import multiprocessing
        import time

        with contextlib.ExitStack() as stack:
            if plan:
                stack.enter_context(inject_faults(plan, propagate_env=True))
            if raises is not None:
                stack.enter_context(pytest.raises(raises))
            parallel_map(fn, [1, 2, 3, 4], jobs=2)
        # The pool terminated its workers on the way out; give the OS a
        # beat to deliver the signals, then assert no worker survived.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not [p for p in multiprocessing.active_children() if p.is_alive()]:
                return
            time.sleep(0.05)
        raise AssertionError("pool workers still alive after interrupt")


class TestOnResult:
    def test_serial_on_result_once_per_item(self):
        seen = []
        parallel_map(_square, [3, 4, 5], jobs=1, on_result=lambda i, v: seen.append((i, v)))
        assert seen == [(0, 9), (1, 16), (2, 25)]

    def test_pooled_on_result_once_per_item(self):
        seen = {}
        parallel_map(
            _square, list(range(8)), jobs=2,
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert seen == {i: i * i for i in range(8)}

    def test_fallback_on_result_once_per_item(self):
        # Unpicklable fn -> serial path; the hook still fires exactly once.
        seen = []
        offset = 1
        parallel_map(
            lambda x: x + offset, [1, 2], jobs=2,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert seen == [(0, 2), (1, 3)]
