"""Self time and per-layer metrics from the spans of traced units.

A span's self time is its duration minus the part of its interval that
its children cover (the union, so overlapping children count once).
Within a process, children are found through the recorded parent id.
Across processes, on the serving path, a span without a parent is
linked to the span one hop up that carries the same request key and
overlaps it most:

* a worker's ``execute_envelope`` -> its replica's ``SupervisedPool.submit``
  (the replica is the worker's parent process);
* a replica's ``submit`` -> the router's ``ResilientClient.request`` to
  that replica (matched through the replica's port);
* the router's upstream request -> the benchmark client's request span.

So the client span's self time is the router's own time, the upstream
request's self time is the replica front end plus transport, the
``submit`` span's self time is queue wait plus the worker pipe, and the
worker span's self time is whatever the design layers below it leave.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Layers whose self time is reported as ``<layer>.self_frac``.
SELF_LAYERS: Tuple[str, ...] = (
    "trace",
    "markov",
    "patterns",
    "logic.cover",
    "logic.synth",
    "automata.nfa",
    "automata.dfa",
    "automata.minimize",
    "automata.startup",
    "synth.area",
    "synth.hdl",
    "predictors.sim",
    "predictors.custom",
    "optimal",
    "valuepred",
    "cache",
    "verify",
    "router",
    "serve.replica",
    "serve.queue",
    "serve.worker",
)

#: Layer of the benchmark's own operation spans on the batch workloads;
#: their self time is the part of an operation no wrapped layer covers.
OP_LAYER = "harness"

#: The exact two-level minimizer handles truth tables up to this width.
EXACT_WIDTH_LIMIT = 12
#: NFAs above this many states take the entry-space subset construction.
ENTRY_NFA_STATES = 256


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0
    current_start: Optional[int] = None
    current_end = 0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def _best_parent(
    spans: List[Dict[str, Any]], n: int, candidates: Iterable[int]
) -> Optional[int]:
    """The candidate overlapping span ``n`` most (None if none does)."""
    best, best_overlap = None, 0
    for m in candidates:
        overlap = min(spans[n]["e"], spans[m]["e"]) - max(spans[n]["s"], spans[m]["s"])
        if overlap > best_overlap:
            best, best_overlap = m, overlap
    return best


def link(
    spans: List[Dict[str, Any]], port_pids: Optional[Dict[int, int]] = None
) -> Dict[int, Optional[int]]:
    """Parent of every span, as indices into ``spans`` (None for roots)."""
    index = {(span["p"], span["i"]): n for n, span in enumerate(spans)}
    by_layer_key: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for n, span in enumerate(spans):
        if "k" in span:
            by_layer_key[(span["l"], span["k"])].append(n)
    pid_of_port = port_pids or {}
    parents: Dict[int, Optional[int]] = {}
    for n, span in enumerate(spans):
        if span["u"] is not None:
            parents[n] = index.get((span["p"], span["u"]))
            continue
        key, layer = span.get("k"), span["l"]
        if layer == "serve.worker":
            candidates = [
                m for m in by_layer_key[("serve.queue", key)]
                if spans[m]["p"] == span["pp"]
            ]
        elif layer == "serve.queue":
            candidates = [
                m for m in by_layer_key[("serve.replica", key)]
                if pid_of_port.get(spans[m].get("a", {}).get("port")) == span["p"]
            ]
        elif layer == "serve.replica":
            candidates = by_layer_key[("router", key)]
        else:
            candidates = []
        parents[n] = _best_parent(spans, n, candidates)
    return parents


def children_of(parents: Dict[int, Optional[int]]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = defaultdict(list)
    for n, parent in parents.items():
        if parent is not None:
            children[parent].append(n)
    return children


def _clipped_self(
    spans: List[Dict[str, Any]],
    n: int,
    children: Dict[int, List[int]],
    window: Tuple[int, int],
) -> int:
    """Self time of span ``n`` inside ``window``."""
    start = max(spans[n]["s"], window[0])
    end = min(spans[n]["e"], window[1])
    if end <= start:
        return 0
    covered = union_length(
        (max(start, spans[c]["s"]), min(end, spans[c]["e"]))
        for c in children[n]
        if spans[c]["s"] < end and spans[c]["e"] > start
    )
    return end - start - covered


def self_times(
    spans: List[Dict[str, Any]],
    parents: Dict[int, Optional[int]],
    window: Optional[Tuple[int, int]] = None,
) -> List[int]:
    """Self time (ns) of every span, inside ``window`` when given."""
    children = children_of(parents)
    if window is None and spans:
        window = (min(s["s"] for s in spans), max(s["e"] for s in spans))
    return [_clipped_self(spans, n, children, window) for n in range(len(spans))]


#: Serving hops, by span layer; everything under a worker's
#: ``execute_envelope`` (the design layers) counts as the worker hop.
_HOPS = {"router": "router", "serve.replica": "replica", "serve.queue": "queue"}


def request_hops(
    spans: List[Dict[str, Any]], port_pids: Optional[Dict[int, int]] = None
) -> List[Dict[str, float]]:
    """Per served request: self time (ms) of each hop inside the client's
    own span, and the client-observed latency."""
    parents = link(spans, port_pids)
    children = children_of(parents)
    rows = []
    for root, span in enumerate(spans):
        if parents[root] is not None or span["n"] != "op" or span["l"] != "router":
            continue
        window = (span["s"], span["e"])
        row = {"router": 0.0, "replica": 0.0, "queue": 0.0, "worker": 0.0}
        stack = [root]
        while stack:
            n = stack.pop()
            hop = _HOPS.get(spans[n]["l"], "worker")
            row[hop] += _clipped_self(spans, n, children, window) / 1e6
            stack.extend(children[n])
        row["latency"] = (window[1] - window[0]) / 1e6
        rows.append(row)
    return rows


def unit_layer_totals(
    spans: List[Dict[str, Any]],
    window: Tuple[int, int],
    workers: int,
    port_pids: Optional[Dict[int, int]] = None,
) -> Dict[str, float]:
    """Additive per-layer quantities of one traced unit (seconds and
    counts) inside its timed phase ``window``, summed over units by
    :func:`layer_metrics`."""
    parents = link(spans, port_pids)
    selfs = self_times(spans, parents, window)
    totals: Dict[str, float] = defaultdict(float)
    upstream_calls: Dict[int, int] = defaultdict(int)
    wall_s = (window[1] - window[0]) / 1e9
    totals["units"] = 1
    totals["worker_capacity_s"] = wall_s * workers
    for n, span in enumerate(spans):
        if span["e"] <= window[0] or span["s"] >= window[1]:
            continue  # set-up (such as the deep probes) or the checks
        layer = span["l"]
        dur = max(0, min(span["e"], window[1]) - max(span["s"], window[0])) / 1e9
        attrs = span.get("a", {})
        totals[f"self:{layer}"] += selfs[n] / 1e9
        totals["self_all"] += selfs[n] / 1e9
        parent = parents[n]
        parent_layer = spans[parent]["l"] if parent is not None else None
        if parent is None and span["n"] == "op":
            totals["op_s"] += dur
            if layer == OP_LAYER:
                totals["op_unattributed_s"] += selfs[n] / 1e9
        if span["n"] == "minimize":
            side = "synth" if layer == "logic.synth" else "cover"
            totals[f"{side}_calls"] += 1
            if side == "cover" and attrs.get("w", 0) <= EXACT_WIDTH_LIMIT:
                totals["cover_exact"] += 1
        elif span["n"] == "estimate_area":
            totals["area_calls"] += 1
        elif span["n"] in ("optimal_predictors", "machine_mispredicts"):
            totals["optimal_calls"] += 1
        elif span["n"] == "subset_construct":
            totals["dfa_calls"] += 1
            if attrs.get("q", 0) > ENTRY_NFA_STATES:
                totals["dfa_entry"] += 1
        elif span["n"] == "cached":
            totals["cache_hits" if attrs.get("hit") else "cache_misses"] += 1
        elif (
            span["n"] in ("simulate_predictor", "simulate_predictors_batched")
            and parent_layer != "predictors.sim"
        ):
            totals["sim_predictions"] += attrs.get("n", 0)
            totals["sim_s"] += dur
        elif span["n"] == "execute_envelope":
            totals["worker_busy_s"] += dur
            if _upstream_cancelled(n, spans, parents):
                totals["worker_wasted_s"] += dur
        elif span["n"] == "request" and parent_layer == "router":
            upstream_calls[parent] += 1
    # A client request answered over more than one upstream call was
    # hedged (or retried) once per extra call.
    totals["hedges"] = sum(calls - 1 for calls in upstream_calls.values())
    return dict(totals)


def _upstream_cancelled(
    n: int, spans: List[Dict[str, Any]], parents: Dict[int, Optional[int]]
) -> bool:
    """Whether a worker span served an upstream call the router dropped
    (the losing leg of a hedge)."""
    current = parents.get(n)
    while current is not None:
        if spans[current]["l"] == "serve.replica":
            return spans[current].get("o") == "cancelled"
        current = parents.get(current)
    return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    unit_totals: List[Dict[str, float]], overhead_frac: float
) -> Dict[str, float]:
    """Per-layer metrics over the traced units of one run."""
    total: Dict[str, float] = defaultdict(float)
    for unit in unit_totals:
        for name, value in unit.items():
            total[name] += value
    units = max(1.0, total["units"])
    metrics = {
        f"{layer}.self_frac": _ratio(total[f"self:{layer}"], total["self_all"])
        for layer in SELF_LAYERS
    }
    metrics.update(
        {
            "logic.cover.calls": total["cover_calls"] / units,
            "logic.cover.exact_frac": _ratio(
                total["cover_exact"], total["cover_calls"]
            ),
            "logic.synth.calls": total["synth_calls"] / units,
            "synth.area.calls": total["area_calls"] / units,
            "automata.dfa.entry_frac": _ratio(
                total["dfa_entry"], total["dfa_calls"]
            ),
            "predictors.sim.mpred_per_s": _ratio(
                total["sim_predictions"], total["sim_s"]
            )
            / 1e6,
            "optimal.calls": total["optimal_calls"] / units,
            "cache.hit_frac": _ratio(
                total["cache_hits"], total["cache_hits"] + total["cache_misses"]
            ),
            "serve.worker.busy_frac": _ratio(
                total["worker_busy_s"], total["worker_capacity_s"]
            ),
            "router.hedges": total["hedges"] / units,
            "router.hedge_wasted_frac": _ratio(
                total["worker_wasted_s"], total["worker_busy_s"]
            ),
            "trace.coverage_frac": 1.0
            - _ratio(total["op_unattributed_s"], total["op_s"]),
            "trace.overhead_frac": overhead_frac,
        }
    )
    return metrics

