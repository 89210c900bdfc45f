"""Request validation + the pure executor's byte-identity contract."""

from __future__ import annotations

import asyncio

import pytest

from repro.reliability.errors import DesignError, TraceError
from repro.serve.jobs import (
    DesignRequest,
    classify_error,
    execute_envelope,
    execute_request,
)
from repro.serve.protocol import canonical_json

PAPER = "000010001011110111101111"


class TestFromPayload:
    def test_trace_request(self):
        req = DesignRequest.from_payload(
            {"trace": PAPER, "order": 2, "verify": True, "id": 9}
        )
        assert req.trace == PAPER
        assert req.order == 2
        assert req.verify is True
        assert req.request_id == "9"

    def test_profile_request_defaults_order_to_profile(self):
        req = DesignRequest.from_payload(
            {"profile": {"order": 3, "counts": [[0, 1, 4], [7, 4, 4]]}}
        )
        assert req.order == 3
        assert req.profile == ((0, 1, 4), (7, 4, 4))

    def test_missing_source_rejected(self):
        with pytest.raises(TraceError):
            DesignRequest.from_payload({"order": 2})

    def test_non_binary_trace_rejected(self):
        with pytest.raises(TraceError, match="non-0/1"):
            DesignRequest.from_payload({"trace": "01x1"})

    def test_bad_profile_rejected(self):
        with pytest.raises(TraceError):
            DesignRequest.from_payload({"profile": {"order": 2}})
        with pytest.raises(TraceError):
            DesignRequest.from_payload(
                {"profile": {"order": 2, "counts": [[0, 5, 4]]}}  # ones>total
            )

    def test_order_beyond_profile_rejected(self):
        with pytest.raises(DesignError, match="cannot be extended"):
            DesignRequest.from_payload(
                {
                    "profile": {"order": 2, "counts": [[0, 1, 4]]},
                    "order": 5,
                }
            )

    def test_unknown_emit_rejected(self):
        with pytest.raises(DesignError, match="emit"):
            DesignRequest.from_payload({"trace": PAPER, "emit": ["edif"]})

    def test_bad_deadline_rejected(self):
        with pytest.raises(DesignError):
            DesignRequest.from_payload({"trace": PAPER, "deadline_s": -1})
        with pytest.raises(DesignError):
            DesignRequest.from_payload({"trace": PAPER, "deadline_s": "soon"})

    def test_client_errors_classify_as_400(self):
        for payload in ({"order": 2}, {"trace": "01x"}, {"trace": PAPER, "emit": ["x"]}):
            with pytest.raises((TraceError, DesignError)) as excinfo:
                DesignRequest.from_payload(payload)
            code, _kind = classify_error(excinfo.value)
            assert code == 400


class TestExecuteRequest:
    def test_payload_shape(self):
        req = DesignRequest.from_payload({"trace": PAPER * 4, "order": 2})
        payload = execute_request(req)
        assert payload["schema"] == "repro.design-response/1"
        assert payload["states"] == len(payload["machine"]["outputs"])
        assert payload["machine"]["transitions"]
        assert payload["area"]["area"] > 0
        assert "module fsm_predictor" in payload["verilog"]
        assert payload["request"]["source"] == "trace"

    def test_emit_controls_artifacts(self):
        base = {"trace": PAPER * 4, "order": 2}
        bare = execute_request(
            DesignRequest.from_payload({**base, "emit": []})
        )
        assert "verilog" not in bare and "vhdl" not in bare
        full = execute_request(
            DesignRequest.from_payload(
                {**base, "emit": ["verilog", "vhdl", "dot"]}
            )
        )
        assert "entity fsm_predictor" in full["vhdl"]
        assert full["dot"].startswith("digraph")

    def test_cache_and_verify_never_change_payload_bytes(self):
        """The degradation contract: no-cache / no-verify responses are
        byte-identical to the full-fat answer."""
        req = DesignRequest.from_payload(
            {"trace": PAPER * 4, "order": 3, "verify": True}
        )
        reference = canonical_json(execute_request(req))
        for kwargs in (
            {"use_cache": False},
            {"verify": False},
            {"use_cache": False, "verify": False},
        ):
            assert canonical_json(execute_request(req, **kwargs)) == reference

    def test_profile_equals_trace_derived_model(self):
        """Designing from a shipped Markov profile matches designing from
        the trace the profile was measured on."""
        from repro.core.markov import MarkovModel

        trace = [int(ch) for ch in PAPER * 4]
        model = MarkovModel.from_trace(trace, 2)
        profile_payload = {
            "profile": {
                "order": 2,
                "counts": [
                    [h, model.ones.get(h, 0), t]
                    for h, t in sorted(model.totals.items())
                ],
            },
        }
        via_profile = execute_request(
            DesignRequest.from_payload({**profile_payload, "emit": []})
        )
        via_trace = execute_request(
            DesignRequest.from_payload(
                {"trace": PAPER * 4, "order": 2, "emit": []}
            )
        )
        assert via_profile["machine"] == via_trace["machine"]
        assert via_profile["area"] == via_trace["area"]


class TestExecuteEnvelope:
    def test_ok_envelope(self):
        req = DesignRequest.from_payload(
            {"trace": PAPER * 2, "order": 2, "id": "a"}
        )
        env = execute_envelope(req)
        assert (env["status"], env["code"], env["id"]) == ("ok", 200, "a")

    def test_pooled_job_counters_reach_the_parent_registry(self):
        """The worker's cache traffic is merged into the parent's
        registry: a cold request misses and writes in the worker, the
        same request again hits there."""
        from repro.obs.metrics import reset_metrics
        from repro.perf.cache import cache_stats
        from repro.serve.pool import SupervisedPool

        req = DesignRequest.from_payload({"trace": PAPER * 3, "order": 2})

        async def scenario():
            pool = SupervisedPool(1)
            await pool.start()
            try:
                first = await pool.submit(req)
                cold = cache_stats()
                second = await pool.submit(req)
            finally:
                await pool.stop()
            return first, cold, second, cache_stats()

        reset_metrics()
        first, cold, second, warm = asyncio.run(scenario())
        assert first["status"] == second["status"] == "ok"
        assert first["payload"] == second["payload"]
        assert cold.misses > 0 and cold.writes > 0 and cold.hits == 0
        assert warm.hits > 0
        assert (warm.misses, warm.writes) == (cold.misses, cold.writes)

    def test_deadline_maps_to_504(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")  # force a cold compute
        req = DesignRequest.from_payload({"trace": PAPER * 2, "order": 2})
        env = execute_envelope(req, deadline_s=1e-9)
        assert (env["status"], env["code"]) == ("timeout", 504)

    def test_design_config_error_maps_to_400(self):
        req = DesignRequest.from_payload(
            {"trace": PAPER * 2, "bias_threshold": 7.0}
        )
        env = execute_envelope(req)
        assert (env["status"], env["code"]) == ("error", 400)

    def test_too_short_trace_maps_to_400(self):
        req = DesignRequest.from_payload({"trace": "01", "order": 5})
        env = execute_envelope(req)
        assert (env["status"], env["code"]) == ("error", 400)
        assert env["kind"] == "TraceError"
