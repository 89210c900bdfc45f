"""Spans recorded from outside the program.

:func:`install` wraps each public function listed in :data:`WRAPPED` at
its defining module and at every loaded ``repro.*`` module attribute
that is the same object (most call sites use ``from ... import``), so no
file of the program changes.  :meth:`Tracing.restore` puts every
original back, including in modules imported while the wrappers were in
place.  An entry the program no longer has (renamed or removed) is
skipped and reported by :func:`unresolved`, so a traced run still
completes; its layer then reads low.

A span records its name, layer, ``time.monotonic_ns`` start and end (one
clock across processes), pid, parent pid, parent span and, on the
serving path, a request key derived from the request's content (the
router strips client ids, so content is what links a request across
processes).  Spans stay in memory; a process appends its buffered spans
to ``<span_dir>/spans-<pid>.jsonl`` whenever its outermost span closes,
because pool workers are killed without running exit handlers.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import dataclasses
import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, attribute, layer)`` for every wrapped public function.  A
#: dotted attribute is a method or classmethod of a class in the module.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.programs", "branch_trace", "trace"),
    ("repro.workloads.values", "load_trace", "trace"),
    ("repro.valuepred.confidence", "correctness_trace", "trace"),
    ("repro.workloads.sources", "source_trace", "trace"),
    ("repro.core.markov", "MarkovModel.from_trace", "markov"),
    ("repro.core.markov", "MarkovModel.update_from_trace", "markov"),
    ("repro.harness.branch_training", "collect_branch_models", "markov"),
    ("repro.core.patterns", "define_patterns", "patterns"),
    ("repro.core.regex_build", "history_language_regex", "patterns"),
    ("repro.logic.espresso", "minimize", "logic.cover"),
    ("repro.automata.nfa", "thompson_construct", "automata.nfa"),
    ("repro.automata.dfa", "subset_construct", "automata.dfa"),
    ("repro.automata.moore", "MooreMachine.from_dfa", "automata.minimize"),
    ("repro.automata.hopcroft", "hopcroft_minimize", "automata.minimize"),
    ("repro.automata.startup", "steady_state_reduce", "automata.startup"),
    ("repro.automata.startup", "startup_state_count", "automata.startup"),
    ("repro.synth.area", "estimate_area", "synth.area"),
    ("repro.synth.verilog", "generate_verilog", "synth.hdl"),
    ("repro.synth.vhdl", "generate_vhdl", "synth.hdl"),
    # Building a predictor allocates its tables in Python; it counts
    # with the simulation that uses them.
    ("repro.predictors.gshare", "GSharePredictor.__init__", "predictors.sim"),
    ("repro.predictors.local_global", "LocalGlobalChooser.__init__", "predictors.sim"),
    ("repro.predictors.tage", "TagePredictor.__init__", "predictors.sim"),
    ("repro.predictors.perceptron", "PerceptronPredictor.__init__", "predictors.sim"),
    ("repro.predictors.xscale", "XScalePredictor.__init__", "predictors.sim"),
    ("repro.predictors.base", "simulate_predictor", "predictors.sim"),
    ("repro.perf.batched", "simulate_predictors_batched", "predictors.sim"),
    ("repro.harness.branch_training", "fsm_correct_counts", "predictors.custom"),
    ("repro.harness.branch_training", "rank_branches_by_misses", "predictors.custom"),
    ("repro.harness.branch_training", "rank_by_improvement", "predictors.custom"),
    ("repro.harness.fig5", "evaluate_custom_curve", "predictors.custom"),
    ("repro.predictors.optimal", "optimal_predictors", "optimal"),
    ("repro.predictors.optimal", "machine_mispredicts", "optimal"),
    ("repro.valuepred.confidence", "evaluate_counter_confidence", "valuepred"),
    ("repro.valuepred.confidence", "evaluate_fsm_confidence", "valuepred"),
    ("repro.perf.cache", "cached", "cache"),
    ("repro.reliability.verify", "design_ok", "verify"),
    ("repro.reliability.verify", "verify_design", "verify"),
    ("repro.serve.cluster.client", "ResilientClient.request", "serve.replica"),
    ("repro.serve.pool", "SupervisedPool.submit", "serve.queue"),
    ("repro.serve.jobs", "execute_envelope", "serve.worker"),
)

#: The two-level minimizer serves both the design pipeline and gate
#: synthesis; calls made from the synthesis module get their own layer.
_CALLER_LAYER = {("repro.synth.logic_synthesis", "minimize"): "logic.synth"}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "benchmarks_e2e_span", default=None
)
_ACTIVE: Optional["Recorder"] = None
_FORK_HOOK_INSTALLED = False


def _resolve(module_name: str, attr: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a :data:`WRAPPED` entry; raises
    ``LookupError`` or ``ImportError`` when the program lacks it."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = getattr(owner, class_name, None)
        if owner is None or attr not in vars(owner):
            raise LookupError(f"{module_name}.{class_name}.{attr}")
    elif not callable(getattr(owner, attr, None)):
        raise LookupError(f"{module_name}.{attr}")
    return owner, attr


def unresolved() -> List[str]:
    """The :data:`WRAPPED` entries this program does not have."""
    missing = []
    for module_name, attr, _layer in WRAPPED:
        try:
            _resolve(module_name, attr)
        except (ImportError, LookupError):
            missing.append(f"{module_name}.{attr}")
    return missing


def request_key(request: Any) -> str:
    """Content key of a ``DesignRequest``; the client id is excluded."""
    blob = repr(dataclasses.replace(request, request_id=None)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def payload_key(payload: Dict[str, Any]) -> Optional[str]:
    """Content key of a wire ``design`` payload, or None for other ops."""
    if payload.get("op", "design") != "design":
        return None
    from repro.serve.jobs import DesignRequest

    try:
        return request_key(DesignRequest.from_payload(payload))
    except ValueError:
        return None


class Recorder:
    """The in-memory span buffer of one process."""

    def __init__(self, span_dir: str, flush_on_root: bool = True):
        self.span_dir = span_dir
        # A process that may be killed (a pool worker) writes its spans
        # whenever its outermost span closes; the benchmark's own unit
        # process flushes after its timed phase instead.
        self.flush_on_root = flush_on_root
        self._ids = itertools.count(1)
        self._done: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def open(
        self,
        name: str,
        layer: str,
        key: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        parent = _CURRENT.get()
        span: Dict[str, Any] = {
            "n": name,
            "l": layer,
            "i": next(self._ids),
            "u": parent[0] if parent else None,
            "s": time.monotonic_ns(),
        }
        if key is not None:
            span["k"] = key
        if attrs:
            span["a"] = attrs
        return span

    def close(self, span: Dict[str, Any], outcome: str = "ok") -> None:
        span["e"] = time.monotonic_ns()
        if outcome != "ok":
            span["o"] = outcome
        with self._lock:
            self._done.append(span)
        if span["u"] is None and self.flush_on_root:
            self.flush()

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, key: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """A span around the benchmark's own call into the program."""
        record = self.open(name, layer, key)
        token = _CURRENT.set((record["i"], layer))
        outcome = "ok"
        try:
            yield record
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            _CURRENT.reset(token)
            self.close(record, outcome)

    def flush(self) -> None:
        with self._lock:
            done, self._done = self._done, []
        if not done:
            return
        pid, ppid = os.getpid(), os.getppid()
        lines = "".join(
            json.dumps(dict(span, p=pid, pp=ppid), separators=(",", ":")) + "\n"
            for span in done
        )
        path = os.path.join(self.span_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines)

    def after_fork(self) -> None:
        self._done = []
        self._lock = threading.Lock()
        _CURRENT.set(None)


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork()


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _attrs_for(name: str) -> Optional[Callable[[tuple, dict], Dict[str, Any]]]:
    """Call attributes the per-layer metrics need (sizes, not values)."""
    if name == "minimize":
        return lambda args, kwargs: {"w": args[0].width}
    if name == "subset_construct":
        return lambda args, kwargs: {"q": args[0].num_states}
    if name == "simulate_predictor":
        return lambda args, kwargs: {"n": len(args[1])}
    if name == "simulate_predictors_batched":
        return lambda args, kwargs: {"n": len(args[0]) * len(args[1])}
    return None


def _sync_wrapper(rec: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    attrs_of = _attrs_for(name)
    key_of = None
    if name == "execute_envelope":
        key_of = lambda args, kwargs: request_key(args[0])  # noqa: E731

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(
            name,
            layer,
            key_of(args, kwargs) if key_of else None,
            attrs_of(args, kwargs) if attrs_of else None,
        )
        token = _CURRENT.set((span["i"], layer))
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            _CURRENT.reset(token)
            rec.close(span, type(exc).__name__)
            raise
        _CURRENT.reset(token)
        rec.close(span)
        return result

    return wrapper


def _cached_wrapper(rec: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    """``cached(category, key, compute, validate)``: the cache span's self
    time excludes the compute callback, whose own self time goes to the
    caller's layer (the validator is a wrapped function already)."""

    @functools.wraps(fn)
    def wrapper(category, key, compute, validate=None):
        parent = _CURRENT.get()
        caller_layer = parent[1] if parent else "harness"
        span = rec.open(name, layer, attrs={"hit": 1})
        token = _CURRENT.set((span["i"], layer))

        def traced_compute():
            span["a"]["hit"] = 0
            with rec.span("cache.compute", caller_layer):
                return compute()

        try:
            result = fn(category, key, traced_compute, validate)
        except BaseException as exc:
            _CURRENT.reset(token)
            rec.close(span, type(exc).__name__)
            raise
        _CURRENT.reset(token)
        rec.close(span)
        return result

    return wrapper


def _request_wrapper(rec: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    """``ResilientClient.request`` (async): traced for design requests
    only, so the router's healthz probes stay out of the trace."""

    @functools.wraps(fn)
    async def wrapper(self, obj, *args, **kwargs):
        try:
            payload = json.loads(obj) if isinstance(obj, bytes) else obj
            key = payload_key(payload) if isinstance(payload, dict) else None
        except ValueError:
            key = None
        if key is None:
            return await fn(self, obj, *args, **kwargs)
        span = rec.open(name, layer, key, {"port": self.port})
        token = _CURRENT.set((span["i"], layer))
        outcome = "ok"
        try:
            return await fn(self, obj, *args, **kwargs)
        except asyncio.CancelledError:
            outcome = "cancelled"
            raise
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            _CURRENT.reset(token)
            rec.close(span, outcome)

    return wrapper


def _submit_wrapper(rec: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    """``SupervisedPool.submit`` returns a future: the span runs from the
    call until the future resolves (queue wait plus worker execution)."""

    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        span = rec.open(name, layer, request_key(request))
        future = fn(self, request, *args, **kwargs)
        future.add_done_callback(lambda _future: rec.close(span))
        return future

    return wrapper


_FACTORIES = {
    "cached": _cached_wrapper,
    "request": _request_wrapper,
    "submit": _submit_wrapper,
}


class Tracing:
    """Installed wrappers plus everything needed to take them out."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._restores: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        factory = _FACTORIES.get(name, _sync_wrapper)
        wrapper = factory(self.recorder, fn, name, layer)
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _install(self) -> None:
        functions: Dict[int, Tuple[Callable, str, str]] = {}
        for module_name, attr, layer in WRAPPED:
            try:
                owner, name = _resolve(module_name, attr)
            except (ImportError, LookupError):
                continue
            if "." in attr:
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer))
                else:
                    wrapped = self._wrap(raw, name, layer)
                setattr(owner, name, wrapped)
                self._restores.append((owner, name, raw))
            else:
                fn = getattr(owner, name)
                functions[id(fn)] = (fn, name, layer)
        wrappers: Dict[Tuple[int, str], Callable] = {}
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                fn, name, layer = entry
                layer = _CALLER_LAYER.get((module_name, name), layer)
                wrapper = wrappers.get((id(fn), layer))
                if wrapper is None:
                    wrapper = wrappers[(id(fn), layer)] = self._wrap(fn, name, layer)
                setattr(module, attr, wrapper)
                self._restores.append((module, attr, value))

    def restore(self) -> None:
        """Put every original back and stop recording."""
        global _ACTIVE
        for owner, attr, original in reversed(self._restores):
            setattr(owner, attr, original)
        self._restores = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self.recorder.flush()
        if _ACTIVE is self.recorder:
            _ACTIVE = None


def install(span_dir: str, flush_on_root: bool = True) -> Tracing:
    """Wrap every function in :data:`WRAPPED`; spans go to ``span_dir``."""
    global _ACTIVE, _FORK_HOOK_INSTALLED
    os.makedirs(span_dir, exist_ok=True)
    recorder = Recorder(span_dir, flush_on_root)
    tracing = Tracing(recorder)
    tracing._install()
    _ACTIVE = recorder
    if not _FORK_HOOK_INSTALLED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOK_INSTALLED = True
    return tracing


def load_spans(span_dir: str) -> List[Dict[str, Any]]:
    """Every span written under ``span_dir`` (all processes)."""
    spans: List[Dict[str, Any]] = []
    if not os.path.isdir(span_dir):
        return spans
    for name in sorted(os.listdir(span_dir)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans
