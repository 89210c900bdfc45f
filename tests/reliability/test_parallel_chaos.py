"""Hardened parallel_map under injected crashes, hangs, and reordering.

The contract: serial/parallel byte-identity survives every injected fault
that does not exhaust retries; exhausted retries raise a WorkerError
naming the item index; genuine exceptions from the shard function are
never retried and propagate unchanged.
"""

import pytest

from repro.perf.parallel import parallel_map, task_timeout
from repro.reliability import faults
from repro.reliability.errors import WorkerError
from repro.reliability.faults import inject_faults


def _square(x):
    return x * x


def _fire_crash(x):
    """A shard whose *serial* recompute also hits the armed fault point,
    forcing the retry ladder all the way to WorkerError."""
    faults.fire("worker_crash")
    return x


def _explode(x):
    raise KeyError(f"boom {x}")


ITEMS = list(range(8))
EXPECTED = [x * x for x in ITEMS]


class TestCrashIsolation:
    def test_injected_crashes_recovered_byte_identical(self):
        with inject_faults("worker_crash:2", seed=3, propagate_env=True):
            assert parallel_map(_square, ITEMS, jobs=2) == EXPECTED

    def test_probabilistic_crashes_recovered(self):
        with inject_faults("worker_crash:0.5", seed=11, propagate_env=True):
            assert parallel_map(_square, ITEMS, jobs=2) == EXPECTED

    def test_exhausted_retries_raise_worker_error_naming_item(self):
        with inject_faults("worker_crash:1.0", seed=5, propagate_env=True):
            with pytest.raises(WorkerError) as excinfo:
                parallel_map(_fire_crash, [10, 20], jobs=2)
        err = excinfo.value
        assert err.stage == "parallel_map"
        assert err.context["item_index"] in (0, 1)
        assert err.context["attempts"] == 2

    def test_genuine_exception_propagates_unretried(self):
        with inject_faults("worker_crash:0", seed=1, propagate_env=True):
            with pytest.raises(KeyError):
                parallel_map(_explode, ITEMS, jobs=2)


class TestHangIsolation:
    def test_hung_worker_times_out_and_item_is_recovered(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.4")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        with inject_faults("worker_hang:1", seed=3, propagate_env=True):
            assert parallel_map(_square, [1, 2, 3, 4], jobs=2) == [1, 4, 9, 16]


class TestReordering:
    def test_shuffled_submission_order_is_invisible(self):
        with inject_faults("worker_reorder:1", seed=17, propagate_env=True):
            assert parallel_map(_square, ITEMS, jobs=2) == EXPECTED


class TestEnvKnobs:
    def test_task_timeout_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
        assert task_timeout() is None
