"""Schema-versioned golden conformance vectors.

A golden vector freezes what the pipeline produces for one (trace,
config): the canonical minimized machine (start state, per-state outputs
and transitions -- Hopcroft's breadth-first renumbering makes this form
unique), the stage state counts, and the predictor's hit count on its own
training trace.  The vectors live in ``tests/golden/*.json`` (schema
``repro.golden/1``) and are regenerated with
``python -m repro conformance regen`` (or ``--regen``); regeneration on an
unchanged tree is byte-identical, so any diff under ``tests/golden/`` is a
behaviour change that must be reviewed, never noise.

The corpus reuses the deterministic fuzz trace families with pinned seeds
plus the paper's worked trace and the degenerate constant trace, and every
corpus case doubles as a differential-runner input for
``python -m repro conformance run``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.conformance import fuzz as fuzz_mod
from repro.conformance.diff import run_stages
from repro.conformance.oracles import oracle_prediction_counts

GOLDEN_SCHEMA = "repro.golden/1"
GOLDEN_SOURCES_SCHEMA = "repro.golden-sources/1"

#: The paper's worked trace (Section 4.2).
PAPER_TRACE_BITS = "000010001011110111101111"


@dataclass(frozen=True)
class GoldenCase:
    """One named corpus entry: a deterministic trace plus design knobs."""

    name: str
    group: str
    bits: str
    order: int
    bias_threshold: float = 0.5
    dont_care_fraction: float = 0.0

    @property
    def trace(self) -> List[int]:
        return [int(ch) for ch in self.bits]


def _family_bits(family: str, seed: str, length: int) -> str:
    import random

    generator = fuzz_mod._GENERATORS[family]
    bits = generator(random.Random(f"repro-golden:{seed}"), length)
    return "".join(str(b) for b in bits)


def golden_corpus() -> List[GoldenCase]:
    """The fixed conformance corpus: every trace family, several orders,
    thresholds above 1/2, a don't-care budget, and the degenerate
    constant trace.  Deterministic by construction -- no ambient state."""
    cases: List[GoldenCase] = []
    for order in (1, 2, 3, 4):
        cases.append(
            GoldenCase(
                name=f"paper_order{order}",
                group="paper",
                bits=PAPER_TRACE_BITS * 4,
                order=order,
            )
        )
    cases.append(
        GoldenCase(
            name="paper_order2_dc",
            group="paper",
            bits=PAPER_TRACE_BITS * 4,
            order=2,
            dont_care_fraction=0.05,
        )
    )
    for family, order, threshold, dc in (
        ("uniform", 3, 0.5, 0.0),
        ("uniform", 4, 0.75, 0.01),
        ("periodic", 3, 0.5, 0.0),
        ("periodic", 5, 0.5, 0.0),
        ("bursty", 4, 0.5, 0.01),
        ("bursty", 2, 0.9, 0.0),
        ("markov", 3, 0.6, 0.0),
        ("markov", 4, 0.5, 0.05),
        ("adversarial", 2, 0.5, 0.0),
        ("adversarial", 3, 0.5, 0.0),
    ):
        name = f"{family}_order{order}_t{threshold}_dc{dc}"
        cases.append(
            GoldenCase(
                name=name.replace(".", ""),
                group=family,
                bits=_family_bits(family, name, 160),
                order=order,
                bias_threshold=threshold,
                dont_care_fraction=dc,
            )
        )
    cases.append(
        GoldenCase(name="constant_ones", group="degenerate", bits="1" * 40, order=2)
    )
    cases.append(
        GoldenCase(name="constant_zeros", group="degenerate", bits="0" * 40, order=3)
    )
    return cases


def golden_dir() -> Path:
    """Where the vectors live: ``REPRO_GOLDEN_DIR`` when set, else
    ``tests/golden/`` next to this source tree."""
    override = os.environ.get("REPRO_GOLDEN_DIR", "").strip()
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def compute_vector(case: GoldenCase) -> Dict[str, Any]:
    """Run the (uncached) stage chain for ``case`` and freeze the result."""
    art = run_stages(
        case.trace,
        case.order,
        bias_threshold=case.bias_threshold,
        dont_care_fraction=case.dont_care_fraction,
    )
    hits, lookups = oracle_prediction_counts(art.final, case.trace)
    return {
        "name": case.name,
        "order": case.order,
        "bias_threshold": case.bias_threshold,
        "dont_care_fraction": case.dont_care_fraction,
        "bits": case.bits,
        "cover": [str(cube).replace("-", "x") for cube in art.cover],
        "states": {
            "nfa": art.nfa.num_states if art.nfa is not None else 0,
            "dfa": art.dfa.num_states if art.dfa is not None else 1,
            "minimized": art.minimized.num_states,
            "startup_removed": art.startup_removed,
            "final": art.final.num_states,
        },
        "machine": {
            "start": art.final.start,
            "outputs": list(art.final.outputs),
            "transitions": [list(row) for row in art.final.transitions],
        },
        "accuracy": {"hits": hits, "lookups": lookups},
    }


def _group_files(cases: List[GoldenCase]) -> Dict[str, List[GoldenCase]]:
    groups: Dict[str, List[GoldenCase]] = {}
    for case in cases:
        groups.setdefault(case.group, []).append(case)
    return groups


def _render(group: str, vectors: List[Dict[str, Any]]) -> str:
    document = {"schema": GOLDEN_SCHEMA, "group": group, "vectors": vectors}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_golden_vectors(directory: Optional[Path] = None) -> List[Path]:
    """Regenerate every golden file; returns the written paths."""
    directory = golden_dir() if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for group, cases in sorted(_group_files(golden_corpus()).items()):
        vectors = [compute_vector(case) for case in cases]
        path = directory / f"golden_{group}.json"
        path.write_text(_render(group, vectors))
        written.append(path)
    written.append(write_golden_sources(directory))
    return written


# ----------------------------------------------------------------------
# Source golden vectors (repro.golden-sources/1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceGoldenCase:
    """One pinned (source spec, length, seed, design order) tuple."""

    name: str
    spec: str
    length: int
    seed: int
    order: int


def sources_corpus() -> List[SourceGoldenCase]:
    """Every registered source family, pinned: trace digests freeze the
    generators byte-for-byte, designed state counts freeze what the
    pipeline builds from them, and the KMP entries also pin their
    closed-form rates as exact fractions."""
    return [
        SourceGoldenCase("minivm_gsm", "minivm:benchmark=gsm,variant=eval", 2000, 0, 4),
        SourceGoldenCase("minivm_vortex", "minivm:benchmark=vortex,variant=train", 2000, 0, 3),
        SourceGoldenCase("pybc_sort", "pybytecode:program=sort", 1500, 7, 4),
        SourceGoldenCase("pybc_dictprobe", "pybytecode:program=dictprobe", 1500, 7, 3),
        SourceGoldenCase("pybc_tokenize", "pybytecode:program=tokenize", 1500, 7, 4),
        SourceGoldenCase("kmp_ab_iid", "kmp:pattern=ab,q=1/2,text=iid,variant=mp", 1024, 5, 4),
        SourceGoldenCase("kmp_aab_kmp", "kmp:pattern=aab,q=3/10,text=iid,variant=kmp", 1024, 5, 4),
        SourceGoldenCase("kmp_periodic", "kmp:pattern=b,text=periodic,variant=mp,word=ab", 512, 0, 2),
    ]


def _trace_digest(trace: Any) -> str:
    import hashlib

    body = ",".join(
        f"{pc}:{bit}" for pc, bit in zip(trace.pcs, trace.outcomes)
    )
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def compute_source_vector(case: SourceGoldenCase) -> Dict[str, Any]:
    """Generate the case's trace (uncached) and freeze its identity plus
    what the design pipeline builds from it."""
    from repro.workloads.sources import KMPSource, create_source

    source = create_source(case.spec)
    trace = source.generate(case.length, case.seed)
    bits = trace.outcome_bits()
    art = run_stages(bits, case.order, bias_threshold=0.5)
    vector: Dict[str, Any] = {
        "name": case.name,
        "spec": source.spec_string(),
        "length": case.length,
        "seed": case.seed,
        "order": case.order,
        "trace_sha256": _trace_digest(trace),
        "taken": sum(trace.outcomes),
        "static_pcs": len(set(trace.pcs)),
        "states": {
            "minimized": art.minimized.num_states,
            "final": art.final.num_states,
        },
    }
    if source.spec.name == "pybytecode":
        from repro.workloads.pybc import python_tag

        # Bytecode offsets are a property of the CPython version; the
        # tag lets the checker skip (not fail) on other interpreters.
        vector["python"] = python_tag()
    if isinstance(source, KMPSource):
        rate, k_needed = source.closed_form()
        vector["closed_form"] = str(rate)
        vector["k_needed"] = k_needed
    return vector


def _render_sources(vectors: List[Dict[str, Any]]) -> str:
    document = {"schema": GOLDEN_SOURCES_SCHEMA, "vectors": vectors}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_golden_sources(directory: Optional[Path] = None) -> Path:
    directory = golden_dir() if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vectors = [compute_source_vector(case) for case in sources_corpus()]
    path = directory / "golden_sources.json"
    path.write_text(_render_sources(vectors))
    return path


def check_golden_sources(directory: Optional[Path] = None) -> List[str]:
    """Recompute every source vector and diff against the stored file.

    Vectors carrying a ``python`` tag for a different interpreter are
    skipped, not failed -- bytecode offsets legitimately differ across
    CPython versions -- and the byte-level drift check only runs when
    nothing was skipped (a partial regeneration cannot be byte-compared).
    """
    from repro.workloads.pybc import python_tag

    directory = golden_dir() if directory is None else Path(directory)
    path = directory / "golden_sources.json"
    issues: List[str] = []
    if not path.exists():
        return [f"missing golden file {path} (run: conformance regen)"]
    try:
        stored = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name}: unparseable ({exc})"]
    if stored.get("schema") != GOLDEN_SOURCES_SCHEMA:
        return [
            f"{path.name}: schema {stored.get('schema')!r} != "
            f"{GOLDEN_SOURCES_SCHEMA!r}"
        ]
    by_name = {v.get("name"): v for v in stored.get("vectors", [])}
    skipped = 0
    for case in sources_corpus():
        got = by_name.pop(case.name, None)
        if got is None:
            issues.append(f"{path.name}: vector {case.name!r} missing")
            continue
        tagged = got.get("python")
        if tagged is not None and tagged != python_tag():
            skipped += 1
            continue
        want = compute_source_vector(case)
        if got != want:
            keys = [k for k in want if got.get(k) != want[k]]
            issues.append(
                f"{path.name}: vector {case.name!r} differs in {keys}"
            )
    for stale in by_name:
        issues.append(f"{path.name}: stale vector {stale!r}")
    if not issues and not skipped:
        fresh = _render_sources(
            [compute_source_vector(case) for case in sources_corpus()]
        )
        if fresh != path.read_text():
            issues.append(f"{path.name}: byte-level drift (re-run regen)")
    return issues


def check_oracle_corpus(kmax: Optional[int] = None) -> List[str]:
    """Cross-check every corpus design against the exact optimal k-state
    predictor oracle (:mod:`repro.predictors.optimal`).

    Two obligations:

    * every designed machine whose size the oracle can search must
      mispredict at least ``opt(num_states)`` times on its own trace;
    * order-1 cases with at most two states must attain the bound
      *exactly* -- an order-1 design is the last-outcome partition, which
      is optimal at that size on every corpus trace, so any slack is a
      design-pipeline regression.

    Returns human-readable violations; empty means the corpus conforms.
    """
    from repro.predictors.optimal import DEFAULT_KMAX, optimal_predictors

    if kmax is None:
        kmax = DEFAULT_KMAX
    issues: List[str] = []
    for case in golden_corpus():
        art = run_stages(
            case.trace,
            case.order,
            bias_threshold=case.bias_threshold,
            dont_care_fraction=case.dont_care_fraction,
        )
        num_states = art.final.num_states
        if num_states > kmax:
            continue
        hits, lookups = oracle_prediction_counts(art.final, case.trace)
        misses = lookups - hits
        bound = optimal_predictors(case.trace, kmax=num_states)[
            num_states
        ].mispredicts
        if misses < bound:
            issues.append(
                f"{case.name}: designed {num_states}-state machine beats "
                f"the exhaustive optimum ({misses} < {bound} mispredicts)"
            )
        elif case.order == 1 and num_states <= 2 and misses != bound:
            issues.append(
                f"{case.name}: order-1 design must attain the optimal "
                f"{num_states}-state bound exactly ({misses} != {bound})"
            )
    return issues


def check_golden_vectors(directory: Optional[Path] = None) -> List[str]:
    """Recompute every vector and diff against the stored files.  Returns
    human-readable mismatches; empty means the tree still reproduces its
    golden behaviour byte for byte."""
    directory = golden_dir() if directory is None else Path(directory)
    issues: List[str] = []
    for group, cases in sorted(_group_files(golden_corpus()).items()):
        path = directory / f"golden_{group}.json"
        if not path.exists():
            issues.append(f"missing golden file {path} (run: conformance regen)")
            continue
        try:
            stored = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            issues.append(f"{path.name}: unparseable ({exc})")
            continue
        if stored.get("schema") != GOLDEN_SCHEMA:
            issues.append(
                f"{path.name}: schema {stored.get('schema')!r} != {GOLDEN_SCHEMA!r}"
            )
            continue
        by_name = {v.get("name"): v for v in stored.get("vectors", [])}
        for case in cases:
            want = compute_vector(case)
            got = by_name.pop(case.name, None)
            if got is None:
                issues.append(f"{path.name}: vector {case.name!r} missing")
            elif got != want:
                keys = [k for k in want if got.get(k) != want[k]]
                issues.append(
                    f"{path.name}: vector {case.name!r} differs in {keys}"
                )
        for stale in by_name:
            issues.append(f"{path.name}: stale vector {stale!r}")
        # Byte-level check: regeneration must reproduce the file exactly.
        if not issues:
            fresh = _render(group, [compute_vector(case) for case in cases])
            if fresh != path.read_text():
                issues.append(f"{path.name}: byte-level drift (re-run regen)")
    return issues
