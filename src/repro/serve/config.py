"""Serving-layer configuration.

:class:`ServeConfig` holds every setting of one ``repro serve`` process.
The CLI's ``serve`` flags fill it; anything not given on the command
line keeps the field default below.  Fields without a flag are changed
by constructing the config directly (the tests and the selfcheck do).

=====================  ==========  =========================================
``host``               127.0.0.1   listen address (``--host``)
``port``               7477        listen port, 0 = ephemeral (``--port``)
``workers``            2           pool worker processes (``--workers``)
``queue_limit``        64          admission queue depth; beyond it
                                   requests are shed with a 503 (``--queue``)
``deadline_s``         30          default per-request deadline in seconds
                                   (``--deadline``)
``stall_s``            deadline    seconds a worker may sit on one job with
                                   no result before it is presumed hung and
                                   SIGKILLed
``breaker_threshold``  5           consecutive failures that trip a circuit
                                   breaker
``breaker_reset_s``    5           seconds an open breaker waits before
                                   half-opening
``drain_timeout_s``    30          graceful-drain budget (s) after SIGTERM
                                   before in-flight work is abandoned
=====================  ==========  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServeConfig:
    """One resolved serving configuration."""

    host: str = "127.0.0.1"
    port: int = 7477
    workers: int = 2
    queue_limit: int = 64
    deadline_s: float = 30.0
    stall_s: Optional[float] = None
    breaker_threshold: int = 5
    breaker_reset_s: float = 5.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", max(1, self.workers))
        object.__setattr__(self, "queue_limit", max(1, self.queue_limit))

    def effective_stall_s(self) -> float:
        return self.stall_s if self.stall_s is not None else self.deadline_s
