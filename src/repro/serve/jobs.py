"""The serving job API: a picklable request and a pure executor.

``DesignRequest`` is the one unit of work the service knows: a trace (or
a pre-built Markov profile), the design knobs, and the artifacts to emit.
``execute_request`` turns it into a canonical response payload and is a
**pure function of the request** -- the server's pool workers, the parent
inline fallback, the batch ``python -m repro serve --oneshot`` path, and
the loadgen checker all call exactly this function, which is what makes
"served response byte-identical to the batch result" a provable property
instead of a hope.  Idempotency under re-dispatch comes for free: the
design flow is memoized in the content-addressed cache behind
single-flight locks, so running the same request twice (a crashed
worker's item re-dispatched to a sibling) does the work once and returns
identical bytes.

``execute_envelope`` wraps the executor with the failure taxonomy: client
errors (unusable trace/knobs) map to 400, deadline expiry to 504, and
everything else to 500 -- always an explicit envelope, never a raw
traceback across the wire.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core import cancel
from repro.reliability.errors import (
    DeadlineError,
    DesignError,
    ReproError,
    TraceError,
)

PAYLOAD_SCHEMA = "repro.design-response/1"

#: Artifacts a request may ask for (``area`` and the machine are always
#: included; these are the optional extras).
EMITTABLE = ("verilog", "vhdl", "dot")

#: Degradation flags the server may apply (breaker-open or deadline
#: pressure).  Neither changes the payload bytes.
DEGRADE_NO_CACHE = "no-cache"
DEGRADE_NO_VERIFY = "no-verify"


@dataclass(frozen=True)
class DesignRequest:
    """One design-as-a-service work item (picklable, hashable key)."""

    trace: Optional[str] = None
    profile: Optional[Tuple[Tuple[int, int, int], ...]] = None
    profile_order: int = 0
    order: int = 4
    bias_threshold: float = 0.5
    dont_care_fraction: float = 0.0
    verify: bool = False
    emit: Tuple[str, ...] = ("verilog",)
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DesignRequest":
        """Build and validate a request from a decoded wire object.
        Raises :class:`TraceError`/:class:`DesignError` (client errors)
        on unusable input."""
        trace = payload.get("trace")
        profile = payload.get("profile")
        if trace is None and profile is None:
            raise TraceError(
                "request needs a 'trace' (0/1 string) or a 'profile'",
                stage="serve.parse",
            )
        if trace is not None:
            if not isinstance(trace, str) or not trace:
                raise TraceError(
                    "'trace' must be a non-empty 0/1 string",
                    stage="serve.parse",
                )
            if set(trace) - {"0", "1"}:
                raise TraceError(
                    "'trace' contains non-0/1 symbols",
                    stage="serve.parse",
                    symbols="".join(sorted(set(trace) - {"0", "1"}))[:8],
                )
        profile_rows: Optional[Tuple[Tuple[int, int, int], ...]] = None
        profile_order = 0
        if profile is not None:
            try:
                profile_order = int(profile["order"])
                rows = []
                for hist, ones, total in profile["counts"]:
                    hist, ones, total = int(hist), int(ones), int(total)
                    if hist < 0 or not 0 <= ones <= total:
                        raise ValueError
                    rows.append((hist, ones, total))
                profile_rows = tuple(sorted(rows))
            except (KeyError, TypeError, ValueError):
                raise TraceError(
                    "'profile' must be {'order': k, 'counts': "
                    "[[history, ones, total], ...]} with 0 <= ones <= total",
                    stage="serve.parse",
                ) from None
            if profile_order < 1:
                raise TraceError(
                    "'profile.order' must be >= 1", stage="serve.parse"
                )
        emit = payload.get("emit", ["verilog"])
        if isinstance(emit, str):
            emit = [emit]
        if not isinstance(emit, (list, tuple)) or any(
            item not in EMITTABLE for item in emit
        ):
            raise DesignError(
                f"'emit' must be a subset of {list(EMITTABLE)}",
                stage="serve.parse",
                emit=emit,
            )
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise DesignError(
                    "'deadline_s' must be a number",
                    stage="serve.parse",
                ) from None
            if deadline_s <= 0:
                raise DesignError(
                    "'deadline_s' must be positive",
                    stage="serve.parse",
                    deadline_s=deadline_s,
                )
        request_id = payload.get("id")
        if request_id is not None:
            request_id = str(request_id)
        # A profile fixes the longest observable history: the design
        # order defaults to it and cannot exceed it (a model cannot be
        # extended, only truncated).
        default_order = profile_order if profile_rows is not None else 4
        try:
            order = int(payload.get("order", default_order))
            bias_threshold = float(payload.get("bias_threshold", 0.5))
            dont_care_fraction = float(payload.get("dont_care_fraction", 0.0))
        except (TypeError, ValueError):
            raise DesignError(
                "'order'/'bias_threshold'/'dont_care_fraction' must be numbers",
                stage="serve.parse",
            ) from None
        if profile_rows is not None and order > profile_order:
            raise DesignError(
                f"design order {order} exceeds the profile's order "
                f"{profile_order}; a Markov model cannot be extended",
                stage="serve.parse",
                order=order,
                profile_order=profile_order,
            )
        return cls(
            trace=trace,
            profile=profile_rows,
            profile_order=profile_order,
            order=order,
            bias_threshold=bias_threshold,
            dont_care_fraction=dont_care_fraction,
            verify=bool(payload.get("verify", False)),
            emit=tuple(emit),
            deadline_s=deadline_s,
            request_id=request_id,
        )

    def source_digest(self) -> str:
        """Short content digest of the trace/profile (payload echo)."""
        if self.trace is not None:
            blob = self.trace.encode("ascii")
        else:
            blob = repr((self.profile_order, self.profile)).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]


def execute_request(
    request: DesignRequest,
    *,
    use_cache: bool = True,
    verify: Optional[bool] = None,
) -> Dict[str, Any]:
    """Run the design flow for ``request`` and return the canonical
    response payload.  ``use_cache=False`` / ``verify`` are the server's
    degradation knobs; neither changes a single payload byte."""
    import os

    from repro.core.markov import MarkovModel
    from repro.core.pipeline import DesignConfig, FSMDesigner
    from repro.synth.area import estimate_area

    config = DesignConfig(
        order=request.order,
        bias_threshold=request.bias_threshold,
        dont_care_fraction=request.dont_care_fraction,
        verify=request.verify if verify is None else verify,
    )
    designer = FSMDesigner(config)

    saved_cache = os.environ.get("REPRO_CACHE")
    try:
        if not use_cache:
            # cache_enabled() re-reads the environment at call time, so
            # this scoped flip is honoured by every cached() call below.
            os.environ["REPRO_CACHE"] = "0"
        if request.trace is not None:
            result = designer.design_from_trace(
                [int(ch) for ch in request.trace]
            )
        else:
            model = MarkovModel(
                order=request.profile_order,
                ones={h: o for h, o, _t in request.profile or ()},
                totals={h: t for h, _o, t in request.profile or ()},
            )
            result = designer.design_from_model(model)
    finally:
        if not use_cache:
            if saved_cache is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = saved_cache

    machine = result.machine
    payload: Dict[str, Any] = {
        "schema": PAYLOAD_SCHEMA,
        "request": {
            "source": "trace" if request.trace is not None else "profile",
            "digest": request.source_digest(),
            "order": request.order,
            "bias_threshold": request.bias_threshold,
            "dont_care_fraction": request.dont_care_fraction,
        },
        "summary": result.summary(),
        "states": result.num_states,
        "state_counts": {
            "nfa": result.nfa_states,
            "dfa": result.dfa_states,
            "minimized": result.minimized_states,
            "startup_removed": result.startup_states_removed,
        },
        "cover": result.cover_strings(),
        "regex": str(result.regex),
        "machine": {
            "start": machine.start,
            "outputs": list(machine.outputs),
            "transitions": [list(row) for row in machine.transitions],
        },
    }
    report = estimate_area(machine)
    payload["area"] = {
        "area": report.area,
        "encoding": report.encoding_name,
        "flip_flops": report.flip_flops,
        "literals": report.literals,
        "terms": report.terms,
    }
    if "verilog" in request.emit:
        from repro.synth.verilog import generate_verilog

        payload["verilog"] = generate_verilog(machine)
    if "vhdl" in request.emit:
        from repro.synth.vhdl import generate_vhdl

        payload["vhdl"] = generate_vhdl(machine)
    if "dot" in request.emit:
        payload["dot"] = machine.to_dot()
    return payload


def classify_error(exc: BaseException) -> Tuple[int, str]:
    """Map an executor exception to (HTTP-ish code, kind)."""
    if isinstance(exc, DeadlineError):
        return 504, type(exc).__name__
    if isinstance(exc, (TraceError,)):
        return 400, type(exc).__name__
    if isinstance(exc, DesignError) and exc.stage in ("config", "serve.parse"):
        return 400, type(exc).__name__
    return 500, type(exc).__name__


def execute_envelope(
    request: DesignRequest,
    degrade: Iterable[str] = (),
    deadline_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute one request under a cooperative deadline and wrap the
    outcome -- success, structured failure, or timeout -- in a response
    envelope.  Shared by pool workers and the parent's inline fallback."""
    from repro.serve import protocol

    degrade = frozenset(degrade)
    try:
        with cancel.deadline_scope(deadline_s):
            payload = execute_request(
                request,
                use_cache=DEGRADE_NO_CACHE not in degrade,
                verify=False if DEGRADE_NO_VERIFY in degrade else None,
            )
        envelope = protocol.ok_response(
            payload, request.request_id, degraded=degrade
        )
    except DeadlineError as exc:
        envelope = protocol.timeout_response(
            str(exc), request.request_id, stage=exc.stage
        )
    except ReproError as exc:
        code, kind = classify_error(exc)
        envelope = protocol.error_response(
            code, str(exc), request.request_id, kind=kind, stage=exc.stage
        )
    except Exception as exc:  # noqa: BLE001 - must never leak a traceback
        envelope = protocol.error_response(
            500, f"{type(exc).__name__}: {exc}", request.request_id,
            kind=type(exc).__name__,
        )
    return envelope
