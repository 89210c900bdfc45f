"""The ``TraceSource`` registry: named, seeded, cacheable trace producers.

Every experiment upstream of this module consumes one thing -- a
PC-attributed 0/1 branch-event stream -- but until now the only producer
was the MiniVM benchmark suite.  A :class:`TraceSource` abstracts the
producer behind a *spec string* (``name`` or ``name:key=value,...``)
that is

* **deterministic**: the same ``(spec, seed)`` always yields the same
  bytes, on every platform (string-seeded PRNGs only);
* **cache-addressed**: :func:`source_trace` keys the content-addressed
  cache by the canonical spec digest, so distinct specs can never
  collide and a re-run never regenerates;
* **registrable**: new sources plug in via :func:`register_source`;
  duplicate or unknown names raise the structured-error taxonomy
  (:class:`TraceError`), which the CLI maps to exit code 2.

Three sources ship in-tree:

``minivm``      -- adapter over the six embedded MiniVM benchmarks
                   (``benchmark=``, ``variant=``);
``pybytecode``  -- real Python functions executed on a restricted
                   CPython-bytecode interpreter (``program=``), PCs are
                   bytecode offsets (:mod:`repro.workloads.pybc`);
``kmp``         -- Morris-Pratt/KMP comparison branches with *known
                   closed-form* optimal mispredict rates
                   (``pattern=``, ``text=``, ``q=``, ``word=``,
                   ``variant=``; :mod:`repro.workloads.kmp`).

Spec strings are canonicalized (sorted keys, defaults materialized)
before hashing, so ``kmp:text=iid,pattern=ab`` and
``kmp:pattern=ab,text=iid`` are the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.reliability.errors import TraceError
from repro.workloads.trace import BranchTrace

_STAGE = "workloads.sources"

#: Salt folded into every source-trace cache key; bump on any change to
#: how registered sources turn a spec into bytes.
SOURCES_VERSION = 1

DEFAULT_SEED = 0
DEFAULT_LENGTH = 20_000


# ----------------------------------------------------------------------
# Spec strings
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """A parsed source spec: registry name plus sorted key=value params."""

    name: str
    params: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        body = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{body}"

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.params:
            if k == key:
                return v
        return default


def parse_source_spec(raw: Union[str, SourceSpec]) -> SourceSpec:
    """Parse ``name`` or ``name:key=value,key=value`` into a
    :class:`SourceSpec`; malformed specs raise :class:`TraceError`."""
    if isinstance(raw, SourceSpec):
        return raw
    text = raw.strip()
    if not text:
        raise TraceError("empty source spec", stage=_STAGE)
    name, _, body = text.partition(":")
    name = name.strip()
    if not name:
        raise TraceError("source spec has no name", stage=_STAGE, spec=raw)
    params: Dict[str, str] = {}
    if body.strip():
        for item in body.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq or not key or not value:
                raise TraceError(
                    f"malformed source parameter {item!r} "
                    "(expected key=value)",
                    stage=_STAGE,
                    spec=raw,
                )
            if key in params:
                raise TraceError(
                    f"duplicate source parameter {key!r}",
                    stage=_STAGE,
                    spec=raw,
                )
            params[key] = value
    return SourceSpec(name=name, params=tuple(sorted(params.items())))


def _check_params(spec: SourceSpec, allowed: Dict[str, bool]) -> None:
    """``allowed``: param name -> required?  Unknown/missing -> error."""
    for key, _ in spec.params:
        if key not in allowed:
            raise TraceError(
                f"unknown parameter {key!r} for source {spec.name!r}",
                stage=_STAGE,
                spec=str(spec),
                allowed=sorted(allowed),
            )
    for key, required in allowed.items():
        if required and spec.get(key) is None:
            raise TraceError(
                f"source {spec.name!r} requires parameter {key!r}",
                stage=_STAGE,
                spec=str(spec),
            )


# ----------------------------------------------------------------------
# The TraceSource interface
# ----------------------------------------------------------------------


class TraceSource:
    """A named producer of deterministic PC-attributed branch streams.

    ``generate(length, seed)`` must return a :class:`BranchTrace` of
    exactly ``length`` events and be a pure function of
    ``(spec, length, seed)``.  ``spec`` is the *canonical* spec (all
    defaults materialized), so its string form is a stable cache
    identity.
    """

    def __init__(self, spec: SourceSpec) -> None:
        self.spec = spec

    def spec_string(self) -> str:
        return str(self.spec)

    def generate(self, length: int, seed: int) -> BranchTrace:
        raise NotImplementedError

    def pc_range(self) -> Tuple[int, int]:
        """Inclusive bounds every emitted PC must respect."""
        raise NotImplementedError

    def training_counterpart(self) -> "TraceSource":
        """A different-but-related source for train/eval splits (fig5's
        ``custom-diff`` series).  Default: the same spec -- callers then
        vary the seed; sources with a natural split override this."""
        return self


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[SourceSpec], TraceSource]] = {}


def register_source(
    name: str, factory: Callable[[SourceSpec], TraceSource]
) -> None:
    """Register a source factory; duplicate names are a hard error (two
    owners for one cache namespace would silently cross traces)."""
    if name in _REGISTRY:
        raise TraceError(
            f"source {name!r} is already registered",
            stage=_STAGE,
            known=sorted(_REGISTRY),
        )
    _REGISTRY[name] = factory


def list_sources() -> List[str]:
    return sorted(_REGISTRY)


def create_source(spec: Union[str, SourceSpec]) -> TraceSource:
    """Instantiate the source a spec names; unknown names raise the
    structured :class:`TraceError` (CLI exit 2, never a traceback)."""
    parsed = parse_source_spec(spec)
    factory = _REGISTRY.get(parsed.name)
    if factory is None:
        raise TraceError(
            f"unknown source {parsed.name!r}",
            stage=_STAGE,
            known=list_sources(),
        )
    return factory(parsed)


# ----------------------------------------------------------------------
# Concrete sources
# ----------------------------------------------------------------------


class MiniVMSource(TraceSource):
    """Adapter over the six embedded MiniVM branch benchmarks.  The
    benchmark inputs are already deterministic per (benchmark, variant);
    the seed selects nothing but still participates in the cache key."""

    def __init__(self, spec: SourceSpec) -> None:
        from repro.workloads.programs import BRANCH_BENCHMARKS

        _check_params(spec, {"benchmark": True, "variant": False})
        benchmark = spec.get("benchmark", "")
        variant = spec.get("variant", "eval") or "eval"
        if benchmark not in BRANCH_BENCHMARKS:
            raise TraceError(
                f"unknown minivm benchmark {benchmark!r}",
                stage=_STAGE,
                known=list(BRANCH_BENCHMARKS),
            )
        if variant not in ("train", "eval"):
            raise TraceError(
                "minivm variant must be 'train' or 'eval'",
                stage=_STAGE,
                value=variant,
            )
        canonical = SourceSpec(
            "minivm",
            (("benchmark", benchmark), ("variant", variant)),
        )
        super().__init__(canonical)
        self.benchmark = benchmark
        self.variant = variant

    def generate(self, length: int, seed: int) -> BranchTrace:
        from repro.workloads.programs import branch_trace

        return branch_trace(self.benchmark, self.variant, length)

    def pc_range(self) -> Tuple[int, int]:
        from repro.workloads.programs import build_program
        from repro.workloads.vm import CODE_BASE

        program, _memory = build_program(self.benchmark, self.variant, 8)
        top = CODE_BASE + 4 * (len(program.instructions) - 1)
        return (CODE_BASE, top)

    def training_counterpart(self) -> "TraceSource":
        other = "train" if self.variant == "eval" else "eval"
        return MiniVMSource(
            SourceSpec(
                "minivm",
                (("benchmark", self.benchmark), ("variant", other)),
            )
        )


class PyBytecodeSource(TraceSource):
    """Conditional-jump outcomes of real Python functions executed on the
    restricted bytecode interpreter; PCs are bytecode offsets."""

    def __init__(self, spec: SourceSpec) -> None:
        from repro.workloads.pybc import PROGRAMS

        _check_params(spec, {"program": True})
        program = spec.get("program", "")
        if program not in PROGRAMS:
            raise TraceError(
                f"unknown pybytecode program {program!r}",
                stage=_STAGE,
                known=sorted(PROGRAMS),
            )
        super().__init__(SourceSpec("pybytecode", (("program", program),)))
        self.program = program

    def generate(self, length: int, seed: int) -> BranchTrace:
        from repro.workloads.pybc import program_trace

        return program_trace(self.program, length, seed)

    def pc_range(self) -> Tuple[int, int]:
        from repro.workloads.pybc import program_pc_range

        return program_pc_range(self.program)


class KMPSource(TraceSource):
    """Comparison branches of MP/KMP search, with closed-form optimal
    rates (:func:`repro.workloads.kmp.closed_form_rate`).  PCs are
    pattern positions."""

    def __init__(self, spec: SourceSpec) -> None:
        from repro.workloads import kmp as kmp_mod

        _check_params(
            spec,
            {
                "pattern": True,
                "text": False,
                "q": False,
                "word": False,
                "variant": False,
            },
        )
        pattern = kmp_mod._check_word(spec.get("pattern", ""), "pattern")
        text = spec.get("text", "iid") or "iid"
        variant = spec.get("variant", "mp") or "mp"
        if variant not in ("mp", "kmp"):
            raise TraceError(
                "kmp variant must be 'mp' or 'kmp'",
                stage=_STAGE,
                value=variant,
            )
        params = [("pattern", pattern), ("text", text), ("variant", variant)]
        if text == "iid":
            if spec.get("word") is not None:
                raise TraceError(
                    "parameter 'word' only applies to periodic texts",
                    stage=_STAGE,
                    spec=str(spec),
                )
            q = kmp_mod.parse_q(spec.get("q", "1/2") or "1/2")
            params.append(("q", str(q)))
            self.q: Optional[Fraction] = q
            self.word: Optional[str] = None
        elif text == "periodic":
            if spec.get("q") is not None:
                raise TraceError(
                    "parameter 'q' only applies to iid texts",
                    stage=_STAGE,
                    spec=str(spec),
                )
            word = kmp_mod._check_word(spec.get("word", "ab") or "ab", "word")
            params.append(("word", word))
            self.q = None
            self.word = word
        else:
            raise TraceError(
                "kmp text family must be 'iid' or 'periodic'",
                stage=_STAGE,
                value=text,
            )
        super().__init__(SourceSpec("kmp", tuple(sorted(params))))
        self.pattern = pattern
        self.text = text
        self.variant = variant

    def generate(self, length: int, seed: int) -> BranchTrace:
        from itertools import islice

        from repro.workloads import kmp as kmp_mod

        if self.text == "iid":
            chars = kmp_mod.iid_chars(self.q, seed)
        else:
            chars = kmp_mod.periodic_chars(self.word)
        trace = BranchTrace()
        events = islice(
            kmp_mod.comparison_events(self.pattern, chars, self.variant),
            length,
        )
        for position, outcome in events:
            trace.append(position, bool(outcome))
        return trace

    def pc_range(self) -> Tuple[int, int]:
        return (0, len(self.pattern) - 1)

    def closed_form(self) -> Tuple[Fraction, int]:
        """``(optimal mispredict rate, states needed)`` -- exact."""
        from repro.workloads import kmp as kmp_mod

        return kmp_mod.closed_form_rate(
            self.pattern,
            self.text,
            variant=self.variant,
            q=self.q if self.q is not None else Fraction(1, 2),
            word=self.word if self.word is not None else "ab",
        )


register_source("minivm", MiniVMSource)
register_source("pybytecode", PyBytecodeSource)
register_source("kmp", KMPSource)


# ----------------------------------------------------------------------
# Cached generation
# ----------------------------------------------------------------------


def source_trace(
    spec: Union[str, SourceSpec],
    length: Optional[int] = None,
    seed: Optional[int] = None,
) -> BranchTrace:
    """Generate (or fetch from the content-addressed cache) the trace a
    spec names.  The cache key is the *canonical* spec digest plus
    ``(length, seed)`` and the trace/source version salts."""
    from repro.obs.tracing import trace_span
    from repro.perf.cache import TRACE_VERSION, cached, digest_of

    source = create_source(spec)
    length = DEFAULT_LENGTH if length is None else int(length)
    seed = DEFAULT_SEED if seed is None else int(seed)
    if length <= 0:
        raise TraceError(
            "source trace length must be positive",
            stage=_STAGE,
            length=length,
        )
    canonical = source.spec_string()
    key = digest_of(
        "source-trace", canonical, length, seed, TRACE_VERSION, SOURCES_VERSION
    )

    def compute() -> BranchTrace:
        with trace_span(
            "trace.generate",
            kind="source",
            source=canonical,
            length=length,
            seed=seed,
        ):
            trace = source.generate(length, seed)
        if len(trace) != length:
            raise TraceError(
                f"source {canonical!r} produced {len(trace)} events, "
                f"declared {length}",
                stage=_STAGE,
                source=canonical,
            )
        return trace

    return cached("traces", key, compute)


def example_specs() -> List[str]:
    """One canonical spec per registered source (plus variants), used by
    the invariant tests, the fuzzer corpus, and CI smoke runs."""
    return [
        "minivm:benchmark=gsm,variant=eval",
        "minivm:benchmark=vortex,variant=train",
        "pybytecode:program=sort",
        "pybytecode:program=dictprobe",
        "pybytecode:program=tokenize",
        "kmp:pattern=ab,q=1/2,text=iid,variant=mp",
        "kmp:pattern=aab,q=3/10,text=iid,variant=kmp",
        "kmp:pattern=b,text=periodic,variant=mp,word=ab",
    ]
