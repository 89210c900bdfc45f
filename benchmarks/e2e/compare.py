"""``compare OLD.json NEW.json``: two sets of runs, metric by metric.

For every workload and end-to-end metric both files hold, print each
side's median and quartiles over its runs, the change of the median,
and a verdict:

``better``        the new side wins at least nine tenths of the run
                  pairs (ties count for neither) and the medians differ
                  by more than the old side's quartile spread;
``worse``         the new median is worse than the old by more than the
                  metric's bound in ``BENCHMARK.json``;
``within-bound``  neither, with the old side's spread inside the bound;
``unresolved``    the old side's spread is wider than the bound, so the
                  runs cannot tell a change from noise, unless every new
                  run reads better (``better``) or worse (``worse``) than
                  every old run.

When both files are traced, per-layer medians and their changes follow.
The command exits 1 when any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import json
from statistics import quantiles
from typing import Any, Dict, List, Sequence, Tuple

WIN_SHARE = 0.9


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of the runs (one run: all three equal)."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    old: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive ``worse_by`` is a regression of the median, as a share.
    old_q1, old_med, old_q3 = spread(old)
    new_med = spread(new)[1]
    worse_by = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    noisy = bool(old_med) and (old_q3 - old_q1) / abs(old_med) > bound
    all_better = all(sign * (b - a) < 0 for a in old for b in new)
    all_worse = all(sign * (b - a) > 0 for a in old for b in new)
    if (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and abs(new_med - old_med) > old_q3 - old_q1
        and (not noisy or all_better)
    ):
        return "better"
    if noisy:
        return "worse" if all_worse and worse_by > bound else "unresolved"
    if worse_by > bound:
        return "worse"
    return "within-bound"


def _runs(record: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    return {name: entry["runs"] for name, entry in record["workloads"].items()}


def compare(old_path: str, new_path: str, spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines, and whether any end-to-end metric got worse."""
    with open(old_path, encoding="utf-8") as handle:
        old = _runs(json.load(handle))
    with open(new_path, encoding="utf-8") as handle:
        new = _runs(json.load(handle))
    lines = [
        f"{'workload':<16} {'metric':<28} {'old q1/med/q3':>30} "
        f"{'new q1/med/q3':>30} {'delta':>8}  verdict"
    ]
    regressed = False
    for name in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            a = [r["metrics"][metric["name"]] for r in old[name] if r["metrics"]]
            b = [r["metrics"][metric["name"]] for r in new[name] if r["metrics"]]
            if not a or not b:
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            regressed |= outcome == "worse"
            lines.append(_row(name, metric["name"], a, b) + f"  {outcome}")
        for metric in spec["per_layer"]:
            a = [r["layers"][metric["name"]] for r in old[name] if r.get("layers")]
            b = [r["layers"][metric["name"]] for r in new[name] if r.get("layers")]
            if a and b:
                lines.append(_row(name, metric["name"], a, b))
    return lines, regressed


def _row(name: str, metric: str, a: Sequence[float], b: Sequence[float]) -> str:
    old_q, new_q = spread(a), spread(b)
    delta = (new_q[1] - old_q[1]) / abs(old_q[1]) if old_q[1] else 0.0
    old_text, new_text = ("/".join(f"{v:.4g}" for v in q) for q in (old_q, new_q))
    return f"{name:<16} {metric:<28} {old_text:>30} {new_text:>30} {delta:>+8.1%}"
