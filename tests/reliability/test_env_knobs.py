"""Every ``REPRO_*`` knob must be read at *call* time, not import time.

The bug class this guards against: PR 7 found that the fault-injection
plan was parsed once at module import, so ``REPRO_FAULTS`` armed *after*
``import repro...`` (by a test, a CI driver, or a server supervisor
configuring freshly spawned workers) was silently ignored.  The fix made
every knob accessor re-read the environment; this suite pins that
contract for the whole knob surface so the next knob added the lazy way
fails here immediately.

Each case flips one variable *after* the owning module is imported and
asserts the accessor observes both the flipped value and the restored
default.  (``monkeypatch`` guarantees restoration, so the ambient CI
environment -- chaos jobs arm some of these -- is never disturbed.)
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

# Import the owning modules up front: the whole point is that the
# accessors below are called long after import.
from repro.conformance import fuzz as fuzz_mod
from repro.conformance import golden as golden_mod
from repro.harness import reporting as reporting_mod
from repro.obs import tracing as tracing_mod
from repro.perf import cache as cache_mod
from repro.perf import parallel as parallel_mod
from repro.reliability import durability as durability_mod
from repro.reliability import faults as faults_mod

#: (env var, flipped value, accessor, expectation on the flipped value).
#: Each accessor is a zero-arg callable evaluated after the flip.
KNOB_CASES = [
    (
        "REPRO_CACHE",
        "0",
        cache_mod.cache_enabled,
        lambda value: value is False,
    ),
    (
        "REPRO_CACHE_DIR",
        "{tmp}/knob-cache",
        cache_mod.cache_dir,
        lambda value: str(value).endswith("knob-cache"),
    ),
    (
        "REPRO_CACHE_MAX_MB",
        "7",
        cache_mod._max_cache_bytes,
        lambda value: value == 7 * 1024 * 1024,
    ),
    (
        "REPRO_LOCK_TIMEOUT",
        "3.5",
        cache_mod.lock_timeout,
        lambda value: value == pytest.approx(3.5),
    ),
    (
        "REPRO_JOBS",
        "6",
        parallel_mod.default_jobs,
        lambda value: value == 6,
    ),
    (
        "REPRO_TASK_TIMEOUT",
        "2.5",
        parallel_mod.task_timeout,
        lambda value: value == pytest.approx(2.5),
    ),
    (
        "REPRO_FAULT_HANG_SECONDS",
        "1.5",
        faults_mod.hang_seconds,
        lambda value: value == pytest.approx(1.5),
    ),
    (
        "REPRO_TRACE_FILE",
        "{tmp}/spans.jsonl",
        tracing_mod.trace_file,
        lambda value: str(value).endswith("spans.jsonl"),
    ),
    (
        "REPRO_RESULTS_DIR",
        "{tmp}/knob-results",
        reporting_mod.results_dir,
        lambda value: str(value).endswith("knob-results"),
    ),
    (
        "REPRO_DURABLE",
        "0",
        durability_mod.durability_enabled,
        lambda value: value is False,
    ),
    (
        "REPRO_RUN_DIR",
        "{tmp}/knob-runs",
        durability_mod.runs_root,
        lambda value: str(value).endswith("knob-runs"),
    ),
    (
        "REPRO_JOURNAL_FSYNC",
        "0",
        durability_mod.fsync_enabled,
        lambda value: value is False,
    ),
    (
        "REPRO_FUZZ_SEED",
        "99",
        fuzz_mod.fuzz_seed,
        lambda value: value == 99,
    ),
    (
        "REPRO_FUZZ_BUDGET",
        "17",
        fuzz_mod.fuzz_budget,
        lambda value: value == 17,
    ),
    (
        "REPRO_GOLDEN_DIR",
        "{tmp}/knob-golden",
        golden_mod.golden_dir,
        lambda value: str(value).endswith("knob-golden"),
    ),
    (
        "REPRO_TRACE",
        "1",
        tracing_mod.tracing_armed,
        lambda value: value is True,
    ),
]


@pytest.mark.parametrize(
    "name,flipped,accessor,expect",
    KNOB_CASES,
    ids=[case[0] for case in KNOB_CASES],
)
def test_knob_flipped_after_import_is_honored(
    monkeypatch, tmp_path, name, flipped, accessor, expect
):
    # Start from the unset state: CI legs run this suite with some of
    # these armed ambiently (REPRO_TRACE_FILE, REPRO_CACHE, REPRO_JOBS);
    # monkeypatch restores the ambient value afterwards.
    monkeypatch.delenv(name, raising=False)
    default = accessor()
    monkeypatch.setenv(name, flipped.format(tmp=tmp_path))
    after = accessor()
    assert expect(after), f"{name} flip ignored: accessor returned {after!r}"
    monkeypatch.delenv(name)
    # Clearing the variable must restore the default behaviour.
    assert accessor() == default


REPO_ROOT = Path(__file__).resolve().parents[2]
KNOB_NAME = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def _knobs_read_under_src():
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        names.update(KNOB_NAME.findall(path.read_text(encoding="utf-8")))
    return names


class TestKnobInventory:
    """Every ``REPRO_*`` name the package mentions is pinned by a call-time
    case above (``REPRO_FAULTS``/``REPRO_FAULTS_SEED`` by
    :class:`TestFaultPlanCallTime`) and documented in the README knob
    table, so a new knob cannot slip in unpinned or undocumented."""

    def test_src_knobs_match_the_call_time_cases(self):
        covered = {case[0] for case in KNOB_CASES}
        covered |= {"REPRO_FAULTS", "REPRO_FAULTS_SEED"}
        assert _knobs_read_under_src() == covered

    def test_every_knob_has_a_readme_row(self):
        rows = set()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for line in readme.splitlines():
            if line.startswith("| `REPRO_"):
                rows.update(KNOB_NAME.findall(line.split("|")[1]))
        assert sorted(_knobs_read_under_src() - rows) == []


class TestFaultPlanCallTime:
    """The original offender, pinned explicitly: ``REPRO_FAULTS`` armed
    or re-armed *after* import must be honoured -- and the parsed plan's
    PRNG/count state must survive across queries while the spec text is
    unchanged (re-parsing per call would reset ``@k``/count budgets)."""

    def test_arm_after_import(self, monkeypatch):
        assert faults_mod.active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "cache_read:2")
        plan = faults_mod.active_plan()
        assert plan is not None
        assert faults_mod.faults_enabled()

    def test_rearm_with_different_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_read:1")
        assert faults_mod.should_fire("cache_read")
        monkeypatch.setenv("REPRO_FAULTS", "cache_write:1")
        assert not faults_mod.should_fire("cache_read")
        assert faults_mod.should_fire("cache_write")

    def test_plan_state_survives_between_queries(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_read:2")
        assert faults_mod.should_fire("cache_read")
        assert faults_mod.should_fire("cache_read")
        # Count budget exhausted -- proof the plan was parsed once, not
        # re-parsed (and thereby reset) on every query.
        assert not faults_mod.should_fire("cache_read")

    def test_disarm_after_import(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache_read:1")
        assert faults_mod.faults_enabled()
        monkeypatch.delenv("REPRO_FAULTS")
        assert not faults_mod.faults_enabled()
        assert faults_mod.active_plan() is None

    def test_seed_change_reparses(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker_reorder:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "1")
        rng_one = faults_mod.plan_rng()
        assert rng_one is not None
        draws_one = [rng_one.random() for _ in range(3)]
        monkeypatch.setenv("REPRO_FAULTS_SEED", "2")
        rng_two = faults_mod.plan_rng()
        draws_two = [rng_two.random() for _ in range(3)]
        assert draws_one != draws_two
