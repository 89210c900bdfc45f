"""Fixtures for the serving-layer suite.

Every test here boots real worker processes (fork) and asserts exact
envelope contents, so each test starts from a disarmed fault plan and a
scratch cache directory -- the CI chaos job runs this suite with ambient
``REPRO_FAULTS`` armed, and worker processes inherit the (cleaned) test
environment at fork time.
"""

from __future__ import annotations

import pytest

from repro.reliability import faults as faults_mod


@pytest.fixture(autouse=True)
def serve_scratch_env(monkeypatch, tmp_path):
    """Disarmed faults + scratch cache."""
    monkeypatch.setattr(faults_mod, "_plan", None)
    monkeypatch.setattr(faults_mod, "_override", False)
    monkeypatch.setattr(faults_mod, "_env_sig", None)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path
