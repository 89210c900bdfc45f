"""A SIGTERMed pool worker must die quietly, not poison the pool.

Regression for the worker signal fix: forked workers inherit the CLI
parent's ``SIGTERM -> raise KeyboardInterrupt`` handler, so a worker
receiving SIGTERM mid-task (systemd unit reload, container rescheduling,
an operator's stray ``kill``) used to raise KeyboardInterrupt *inside the
pool machinery* -- which parallel_map treats as operator shutdown: it
terminates every sibling worker and propagates, losing the whole batch.
With SIGTERM reset to the default action in
:func:`repro.serve.pool.worker_main` the victim simply dies, the parent
sees EOF on its pipe, and the pool re-dispatches the lost item.  A
SIGKILLed worker takes the same path.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.perf.parallel import parallel_map

_MARKER_ENV = "REPRO_TEST_SIGTERM_MARKER"


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _signal_self_once(x, signum):
    """Shard that sends ``signum`` to its own process the first time any
    worker runs it; the marker file makes the retry (and the serial
    oracle) clean."""
    marker = Path(os.environ[_MARKER_ENV])
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return x * x
    os.kill(os.getpid(), signum)
    # With SIG_DFL the line above never returns; if the inherited
    # KeyboardInterrupt handler were still installed we'd survive to
    # here -- sleep so the pending interrupt fires inside the task.
    time.sleep(5)
    return x * x


def _sigterm_self_once(x):
    return _signal_self_once(x, signal.SIGTERM)


def _sigkill_self_once(x):
    return _signal_self_once(x, signal.SIGKILL)


class TestWorkerSigterm:
    def test_sigterm_mid_task_does_not_poison_pool(self, monkeypatch, tmp_path):
        """Parent installs the CLI-style SIGTERM handler; one worker
        SIGTERMs itself mid-task; the batch still completes and matches
        the serial answer, and the parent handler never fires."""
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "fired"))
        items = [1, 2, 3, 4]
        expected = [x * x for x in items]
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
        try:
            result = parallel_map(_sigterm_self_once, items, jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result == expected
        assert (tmp_path / "fired").exists(), "the shard never self-SIGTERMed"

    def test_sigkill_mid_task_is_redispatched(self, monkeypatch, tmp_path):
        """Same batch, but the worker is SIGKILLed mid-task (the OOM
        killer's shape): its item is re-dispatched and the batch matches
        the serial answer."""
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "fired"))
        items = [1, 2, 3, 4]
        expected = [x * x for x in items]
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
        try:
            result = parallel_map(_sigkill_self_once, items, jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result == expected
        assert (tmp_path / "fired").exists(), "the shard never self-SIGKILLed"

    def test_serial_oracle_matches(self, monkeypatch, tmp_path):
        """Same shard, marker pre-claimed, serial path: the baseline the
        pooled run above must reproduce."""
        marker = tmp_path / "fired"
        marker.touch()
        monkeypatch.setenv(_MARKER_ENV, str(marker))
        assert parallel_map(_sigterm_self_once, [1, 2, 3, 4], jobs=1) == [
            1,
            4,
            9,
            16,
        ]
