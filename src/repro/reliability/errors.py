"""Structured error hierarchy for the whole design flow.

Every failure a production run can hit maps to one :class:`ReproError`
subclass carrying *where* it happened (``stage``) and *what was being
processed* (``context``: config knobs, trace digests, item indices), so a
failed sweep names the culprit instead of dumping a bare ``ValueError``
from six frames deep.

Back-compat is deliberate: the subclasses also inherit the builtin
exception the code used to raise (``TraceError``/``DesignError`` are
``ValueError``s, ``WorkerError`` is a ``RuntimeError``), so callers and
tests that catch the old types keep working while new code can catch the
structured hierarchy.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base of every structured failure raised by the design flow.

    ``stage`` names the pipeline stage or subsystem that failed;
    ``context`` holds whatever identifies the failing work item.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        **context: Any,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.stage = stage
        self.context: Dict[str, Any] = dict(context)

    def __str__(self) -> str:
        parts = [self.message]
        if self.stage:
            parts.append(f"[stage={self.stage}]")
        if self.context:
            details = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            )
            parts.append(f"({details})")
        return " ".join(parts)

    def __reduce__(self):
        # Keep stage/context across the process-pool boundary: the default
        # BaseException reduction re-calls cls(*args) and would drop both.
        return (_rebuild, (type(self), self.message, self.stage, self.context))


def _rebuild(cls, message, stage, context):
    return cls(message, stage=stage, **context)


class TraceError(ReproError, ValueError):
    """A behaviour trace is unusable: empty, shorter than the history
    length, or containing non-0/1 symbols."""


class DesignError(ReproError, ValueError):
    """The design flow cannot produce (or verify) a machine: invalid
    config knobs, a stage failure, or a machine that fails the oracle
    equivalence check."""


class CacheError(ReproError, RuntimeError):
    """The on-disk cache subsystem failed in a way that cannot be healed
    by recompute-and-quarantine (e.g. an unwritable quarantine dir when a
    poisoned entry must be moved aside)."""


class WorkerError(ReproError, RuntimeError):
    """A parallel_map work item could not be completed even after a
    re-dispatch and a recompute in the parent; names the item index."""


class DeadlineError(ReproError, TimeoutError):
    """A cooperative deadline expired mid-flow.  Raised by the stage
    checkpoints in :mod:`repro.core.cancel` when the caller's deadline
    (propagated by the serving layer into each worker) has passed; the
    server maps it to a 504-style timeout response."""


class ServeError(ReproError, RuntimeError):
    """The serving layer itself failed: malformed wire requests, a pool
    that cannot be started, or a request that exhausted its re-dispatch
    budget."""
