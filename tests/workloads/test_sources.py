"""The TraceSource registry invariant suite.

Every registered source (via its canonical example specs) must honor the
same contract: identical bytes for identical ``(spec, seed)``, PCs
inside the declared range, the declared length exactly, and structured
:class:`TraceError` failures (never tracebacks) for every way a spec can
be wrong.  New sources added to the registry get this suite for free by
appearing in :func:`example_specs`.
"""

from __future__ import annotations

import pytest

from repro.reliability.errors import TraceError
from repro.workloads.sources import (
    SourceSpec,
    create_source,
    example_specs,
    list_sources,
    parse_source_spec,
    register_source,
    source_trace,
)

LENGTH = 512

#: Sources whose bytes genuinely depend on the seed (minivm inputs are
#: fixed per variant; periodic KMP texts have no randomness).
SEEDED_PREFIXES = ("pybytecode:", "kmp:pattern=ab", "kmp:pattern=aab")


@pytest.fixture(scope="module")
def generated():
    """One (source, trace) per example spec, generated once."""
    out = {}
    for spec in example_specs():
        source = create_source(spec)
        out[spec] = (source, source.generate(LENGTH, 3))
    return out


class TestEverySourceHonorsTheContract:
    @pytest.mark.parametrize("spec", example_specs())
    def test_example_specs_are_canonical(self, spec):
        assert create_source(spec).spec_string() == spec

    @pytest.mark.parametrize("spec", example_specs())
    def test_same_spec_same_seed_same_bytes(self, spec, generated):
        source, trace = generated[spec]
        again = create_source(spec).generate(LENGTH, 3)
        assert trace.pcs == again.pcs
        assert trace.outcomes == again.outcomes

    @pytest.mark.parametrize("spec", example_specs())
    def test_declared_length_honored(self, spec, generated):
        _source, trace = generated[spec]
        assert len(trace) == LENGTH

    @pytest.mark.parametrize("spec", example_specs())
    def test_pcs_inside_declared_range(self, spec, generated):
        source, trace = generated[spec]
        low, high = source.pc_range()
        assert low <= high
        assert all(low <= pc <= high for pc in trace.pcs)

    @pytest.mark.parametrize("spec", example_specs())
    def test_outcomes_are_bits(self, spec, generated):
        _source, trace = generated[spec]
        assert set(trace.outcomes) <= {0, 1}

    @pytest.mark.parametrize(
        "spec",
        [s for s in example_specs() if s.startswith(SEEDED_PREFIXES)],
    )
    def test_seeded_sources_respond_to_the_seed(self, spec, generated):
        source, trace = generated[spec]
        other = source.generate(LENGTH, 4)
        assert trace.outcomes != other.outcomes

    @pytest.mark.parametrize("spec", example_specs())
    def test_spec_round_trips_through_the_parser(self, spec):
        parsed = parse_source_spec(spec)
        assert str(parsed) == spec
        assert parse_source_spec(parsed) is parsed


class TestRegistry:
    def test_three_sources_ship_in_tree(self):
        assert list_sources() == ["kmp", "minivm", "pybytecode"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TraceError) as exc:
            register_source("kmp", lambda spec: None)
        assert "already registered" in str(exc.value)

    def test_unknown_source_names_the_known_ones(self):
        with pytest.raises(TraceError) as exc:
            create_source("bogus")
        assert "unknown source" in str(exc.value)
        assert exc.value.context["known"] == list_sources()


class TestSpecParsing:
    @pytest.mark.parametrize(
        "raw",
        ["", "   ", ":x=1", "kmp:pattern", "kmp:=ab", "kmp:pattern=ab,pattern=b"],
    )
    def test_malformed_specs_raise_structured_errors(self, raw):
        with pytest.raises(TraceError) as exc:
            parse_source_spec(raw)
        assert exc.value.stage == "workloads.sources"

    def test_parameter_order_is_canonicalized(self):
        a = parse_source_spec("kmp:text=iid,pattern=ab")
        b = parse_source_spec("kmp:pattern=ab,text=iid")
        assert a == b

    def test_defaults_are_materialized(self):
        assert (
            create_source("kmp:pattern=ab").spec_string()
            == "kmp:pattern=ab,q=1/2,text=iid,variant=mp"
        )
        assert (
            create_source("minivm:benchmark=gsm").spec_string()
            == "minivm:benchmark=gsm,variant=eval"
        )


class TestSourceValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            "minivm",  # missing required benchmark
            "minivm:benchmark=nope",
            "minivm:benchmark=gsm,variant=debug",
            "minivm:benchmark=gsm,color=red",  # unknown parameter
            "pybytecode",
            "pybytecode:program=nope",
            "kmp",
            "kmp:pattern=xyz",
            "kmp:pattern=ab,q=2",  # q outside (0,1)
            "kmp:pattern=ab,text=gaussian",
            "kmp:pattern=ab,variant=boyer",
            "kmp:pattern=ab,word=ab",  # word on an iid text
            "kmp:pattern=ab,text=periodic,q=1/2",  # q on a periodic text
        ],
    )
    def test_invalid_configurations_raise(self, spec):
        with pytest.raises(TraceError):
            create_source(spec)


class TestTrainingCounterparts:
    def test_minivm_swaps_the_input_variant(self):
        source = create_source("minivm:benchmark=gsm,variant=eval")
        other = source.training_counterpart()
        assert other.spec_string() == "minivm:benchmark=gsm,variant=train"

    def test_default_counterpart_is_the_same_spec(self):
        source = create_source("kmp:pattern=ab")
        assert source.training_counterpart().spec_string() == source.spec_string()


class TestCachedGeneration:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_cache_round_trip_is_byte_identical(self):
        spec = "kmp:pattern=ab,q=1/2,text=iid,variant=mp"
        first = source_trace(spec, 256, 9)  # computes, writes the cache
        second = source_trace(spec, 256, 9)  # must come back from disk
        assert first.pcs == second.pcs
        assert first.outcomes == second.outcomes

    def test_equivalent_specs_share_a_cache_identity(self):
        a = source_trace("kmp:pattern=ab", 128, 1)
        b = source_trace("kmp:text=iid,pattern=ab", 128, 1)
        assert a.outcomes == b.outcomes

    @pytest.mark.parametrize("length", [0, -5])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(TraceError):
            source_trace("kmp:pattern=ab", length, 0)


class TestSourceSpecValue:
    def test_get_falls_back_to_default(self):
        spec = SourceSpec("kmp", (("pattern", "ab"),))
        assert spec.get("pattern") == "ab"
        assert spec.get("missing", "x") == "x"
        assert str(SourceSpec("minivm")) == "minivm"
