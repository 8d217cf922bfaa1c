"""Integration tests: exploration-session determinism and resume.

The acceptance contract of :mod:`repro.explore`:

* the same ``(space, strategy, seed)`` yields a byte-identical point
  sequence and frontier report, across strategies and across ``--jobs``
  execution modes;
* an exploration killed mid-session (a deterministic ``explore_point``
  fault) resumed from its journal converges to the identical frontier
  while **re-executing zero** already-cached fingerprints — asserted on
  the telemetry ``cache_event`` records;
* the journal + v9 manifest records account for every evaluated point.

Runs use a micro scale and a tiny config so tier-1 stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import (
    RunScale,
    clear_sim_cache,
    use_disk_cache,
    use_telemetry,
)
from repro.explore import (
    Axis,
    ExploreSession,
    ExploreSettings,
    SearchSpace,
    frontier_report,
)
from repro.obs import Telemetry
from repro.sim.simcache import SimCache
from repro.testing.faults import FaultSpec, clear_faults, install_faults

from ..conftest import count_trace_generations, make_tiny_config

#: Micro scale: real simulations, fast enough for tier-1.
MICRO = RunScale("micro", 40, 8_000, ("mix_1",))

BASE = make_tiny_config()


def small_space() -> SearchSpace:
    return SearchSpace(name="itest", axes=(
        Axis("dimm_tokens", values=(490.0, 560.0)),
        Axis("gcp_efficiency", values=(0.5, 0.85)),
        Axis("mr_splits", values=(1, 2)),
    ))


def settings(**overrides) -> ExploreSettings:
    fields = dict(space=small_space(), strategy="grid", budget_points=8,
                  seed=3, workload="mix_1", scheme="fpb", scale=MICRO)
    fields.update(overrides)
    return ExploreSettings(**fields)


def run_session(sets: ExploreSettings, tmp_path, name: str,
                resume: bool = False, telemetry=None):
    session = ExploreSession(sets, BASE, journal_dir=tmp_path / name,
                             telemetry=telemetry)
    return session, session.run(resume=resume)


def frontier_bytes(report) -> bytes:
    return json.dumps(frontier_report(report), sort_keys=True).encode()


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["grid", "random", "adaptive"])
    def test_same_settings_byte_identical_points_and_frontier(
            self, strategy, tmp_path, tmp_sim_cache):
        sets = settings(strategy=strategy)
        _, first = run_session(sets, tmp_path, "a")
        clear_sim_cache()  # force the disk/compute path the second time
        _, second = run_session(sets, tmp_path, "b")
        assert ([p["point"] for p in first["points"]]
                == [p["point"] for p in second["points"]])
        assert ([p["fingerprint"] for p in first["points"]]
                == [p["fingerprint"] for p in second["points"]])
        assert frontier_bytes(first) == frontier_bytes(second)

    def test_session_id_is_deterministic_and_sensitive(self, tmp_path):
        a = ExploreSession(settings(), BASE, journal_dir=tmp_path / "x")
        b = ExploreSession(settings(), BASE, journal_dir=tmp_path / "y")
        c = ExploreSession(settings(seed=4), BASE,
                           journal_dir=tmp_path / "z")
        assert a.session_id == b.session_id
        assert a.session_id != c.session_id

    def test_jobs_equivalent_to_serial(self, tmp_path, tmp_sim_cache):
        serial = run_session(settings(), tmp_path, "serial")[1]
        clear_sim_cache()
        use_disk_cache(SimCache(tmp_path / "parallel-cache"))
        parallel = run_session(settings(jobs=2), tmp_path,
                               "parallel")[1]
        assert frontier_bytes(serial) == frontier_bytes(parallel)
        # Both sessions ran cold, and each says so.
        assert serial["counts"] == parallel["counts"]
        assert parallel["counts"]["computed"] == 8


class TestWorkers:
    def test_one_pool_serves_every_generation(self, tmp_path,
                                              monkeypatch):
        """An adaptive session over one trace structure at ``jobs=2``:
        every generation runs on the same two workers, which generate
        the trace at most once each, and the frontier is the serial
        one."""
        log = tmp_path / "traces.log"
        count_trace_generations(monkeypatch, log)
        pooled = run_session(settings(strategy="adaptive", jobs=2),
                             tmp_path, "pooled")[1]
        assert pooled["generations"] >= 2
        assert len(log.read_text().splitlines()) <= 2

        clear_sim_cache()
        use_disk_cache(None)
        serial = run_session(settings(strategy="adaptive"), tmp_path,
                             "serial")[1]
        assert frontier_bytes(pooled) == frontier_bytes(serial)


class TestResume:
    def kill_after(self, n: int):
        """Arm a fault that kills the session on evaluated point n+1."""
        install_faults([FaultSpec(point="explore_point", mode="error",
                                  nth=n + 1, error="RuntimeError")])

    def test_kill_then_resume(self, tmp_path, tmp_sim_cache):
        sets = settings()
        reference = run_session(sets, tmp_path, "ref")[1]

        clear_sim_cache()
        self.kill_after(5)
        with pytest.raises(RuntimeError):
            run_session(sets, tmp_path, "killed")
        clear_faults()

        # The journal holds the 5 points evaluated before the kill.
        clear_sim_cache()
        telemetry = Telemetry()
        use_telemetry(telemetry)  # capture cache_event records from fetch
        try:
            session, resumed = run_session(sets, tmp_path, "killed",
                                           resume=True,
                                           telemetry=telemetry)
        finally:
            use_telemetry(None)
        assert frontier_bytes(resumed) == frontier_bytes(reference)
        assert resumed["counts"]["restored"] == 5
        assert resumed["counts"]["evaluated"] == 8

        # Zero re-executed fingerprints: every cache_event for a
        # restored fingerprint must be absent entirely (journal restore
        # bypasses fetch), and no event at all may say "computed" for
        # a fingerprint the first attempt already cached on disk.
        restored = {p["fingerprint"] for p in resumed["points"]
                    if p["source"] == "journal"}
        events = telemetry.sim_requests
        assert all(e["fingerprint"] not in restored for e in events)
        computed = {e["fingerprint"] for e in events
                    if e["source"] == "computed"}
        cached_before = {p["fingerprint"] for p in resumed["points"]
                         if p["source"] == "disk"}
        assert not computed & cached_before

    def test_resume_without_journal_is_a_fresh_run(self, tmp_path,
                                                   tmp_sim_cache):
        sets = settings()
        _, report = run_session(sets, tmp_path, "fresh", resume=True)
        assert report["counts"]["restored"] == 0
        assert report["counts"]["evaluated"] == 8

    def test_fresh_run_discards_stale_journal(self, tmp_path,
                                              tmp_sim_cache):
        sets = settings()
        run_session(sets, tmp_path, "same")
        _, again = run_session(sets, tmp_path, "same", resume=False)
        assert again["counts"]["restored"] == 0

    def test_journal_tolerates_torn_tail(self, tmp_path, tmp_sim_cache):
        sets = settings()
        session, _ = run_session(sets, tmp_path, "torn")
        path = session.journal_path
        path.write_bytes(path.read_bytes() + b'{"type": "explore_po')
        resumed = ExploreSession(sets, BASE,
                                 journal_dir=tmp_path / "torn")
        report = resumed.run(resume=True)
        assert report["counts"]["restored"] == 8


class TestTelemetry:
    def test_v9_records_emitted(self, tmp_path, tmp_sim_cache):
        telemetry = Telemetry()
        _, report = run_session(settings(), tmp_path, "tele",
                                telemetry=telemetry)
        kinds = [r["type"] for r in telemetry.resilience_events]
        assert kinds.count("explore_point") == 8
        assert kinds.count("explore_frontier") == report["generations"]
        point = next(r for r in telemetry.resilience_events
                     if r["type"] == "explore_point")
        # /watch routing key is the session id.
        assert point["fingerprint"] == point["session"]
        assert point["run_fingerprint"] != point["session"]

    def test_manifest_roundtrip(self, tmp_path, tmp_sim_cache):
        from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, read_manifest

        assert MANIFEST_SCHEMA_VERSION == 12
        telemetry = Telemetry()
        run_session(settings(), tmp_path, "man", telemetry=telemetry)
        path = tmp_path / "manifest.jsonl"
        telemetry.write_manifest(path, BASE, seed=3, scale="micro")
        records = read_manifest(path)
        types = {r["type"] for r in records}
        assert {"explore_point", "explore_frontier"} <= types
