"""Pool workers do not outlive a SIGKILLed parent.

A forked worker inherits every fd its parent holds, including the
parent-side end of its own pipe and of its older siblings' pipes.  While
any process holds that end, an idle worker's ``recv`` never sees EOF, so
a parent killed with SIGKILL (no cleanup, no ``atexit``) used to leave its
idle workers behind as orphans.  The pool now closes every parent-side end
in every worker it forks.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_PARENT = """
import asyncio

from repro.serve.pool import SupervisedPool


async def main():
    pool = SupervisedPool(2)
    await pool.start()
    print(*(w.process.pid for w in pool._workers.values()), flush=True)
    await asyncio.sleep(120)


asyncio.run(main())
"""


def _alive(pid: int) -> bool:
    """Running, and not a zombie waiting for a reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_idle_workers_exit_when_the_parent_is_sigkilled():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _PARENT],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2, "the pool did not start two workers"
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_alive, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
        assert not survivors, f"idle workers outlived their parent: {survivors}"
    finally:
        proc.stdout.close()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
