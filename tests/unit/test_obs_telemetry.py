"""Telemetry: trace export, sampling, and consistency with SimStats."""

import json

import pytest

from repro.obs import Telemetry, cycles_to_us, read_manifest
from repro.obs.perfetto import TID_BURST, TraceBuilder
from repro.sim.runner import run_simulation

from ..conftest import make_tiny_config


@pytest.fixture(scope="module")
def observed_run():
    """One small instrumented simulation, shared by the assertions."""
    telemetry = Telemetry(sample_interval=1_000)
    config = make_tiny_config()
    result = run_simulation(
        config, "mcf_m", "fpb",
        n_pcm_writes=40, max_refs_per_core=8_000,
        telemetry=telemetry,
    )
    return telemetry, result


class TestTraceBuilder:
    def test_complete_and_instant_events(self):
        tb = TraceBuilder()
        tb.process(0, "run")
        tb.thread(0, 1, "bank1")
        tb.complete(0, 1, "write_round", 100, 600, args={"cells": 3})
        tb.instant(0, 1, "stall", 300)
        doc = tb.to_dict(freq_ghz=4.0)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        x = next(e for e in events if e["ph"] == "X")
        assert x["ts"] == cycles_to_us(100, 4.0)
        assert x["dur"] == cycles_to_us(500, 4.0)

    def test_cycles_to_us(self):
        assert cycles_to_us(4000, 4.0) == 1.0

    def test_json_round_trip(self, tmp_path):
        tb = TraceBuilder()
        tb.counter(0, "wrq", 50, {"wrq": 3.0})
        path = tmp_path / "t.json"
        tb.write(path, freq_ghz=2.0)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "wrq"


class TestTraceBuilderEdgeCases:
    def test_empty_trace_exports_valid_schema(self):
        doc = TraceBuilder().to_dict()
        assert doc["traceEvents"] == []
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"] == {}
        assert "wall_epoch_us" not in doc["otherData"]
        json.loads(json.dumps(doc))  # serialisable as-is

    def test_interleaved_counters_keep_emission_order(self):
        """Counter samples from two series interleave by emission, and
        export never reorders them — Perfetto sorts by ts itself, but
        equal-ts samples must stay stable for deterministic output."""
        tb = TraceBuilder()
        tb.counter(0, "wrq", 100, {"wrq": 1.0})
        tb.counter(0, "tokens", 100, {"tokens": 9.0})
        tb.counter(0, "wrq", 200, {"wrq": 2.0})
        tb.counter(0, "tokens", 200, {"tokens": 8.0})
        events = tb.to_dict(freq_ghz=4.0)["traceEvents"]
        assert [(e["name"], e["ts"]) for e in events] == [
            ("wrq", cycles_to_us(100, 4.0)),
            ("tokens", cycles_to_us(100, 4.0)),
            ("wrq", cycles_to_us(200, 4.0)),
            ("tokens", cycles_to_us(200, 4.0)),
        ]

    def test_duplicate_process_and_thread_naming_last_wins(self):
        tb = TraceBuilder()
        tb.process(7, "first name")
        tb.thread(7, 1, "bank")
        tb.process(7, "renamed")          # re-registration
        tb.thread(7, 1, "bank renamed")
        tb.thread(7, 2, "other tid")      # distinct key survives
        meta = [e for e in tb.to_dict()["traceEvents"] if e["ph"] == "M"]
        names = {(m["name"], m["pid"], m["tid"]): m["args"]["name"]
                 for m in meta}
        assert len(meta) == 3  # duplicates collapsed
        assert names[("process_name", 7, 0)] == "renamed"
        assert names[("thread_name", 7, 1)] == "bank renamed"
        assert names[("thread_name", 7, 2)] == "other tid"

    def test_merged_multi_pid_trace_round_trips(self, tmp_path):
        """A worker's to_state() merged under a pid remap survives
        JSON round-trip with the Perfetto schema fields intact and the
        wall/sim timestamp domains both exported."""
        worker = TraceBuilder()
        worker.process(0, "worker run")
        worker.thread(0, TID_BURST, "bursts")
        worker.complete(0, TID_BURST, "write_round", 100, 600)
        worker.complete_wall(0, 1, "worker.run", 1_700_000_000_000_000,
                             2_500, args={"trace_id": "t" * 32})
        state = json.loads(json.dumps(worker.to_state()))

        parent = TraceBuilder()
        parent.complete_wall(9, 1, "plan.execute",
                             1_700_000_000_000_000 - 1_000, 5_000)
        parent.merge(state, pid_map={0: 3})
        parent.process(3, "worker run [merged]")

        path = tmp_path / "merged.json"
        parent.write(path, freq_ghz=4.0)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        for event in events:
            assert {"ph", "pid", "tid", "name"} <= set(event)
            assert "wall" not in event  # internal flag never exported
        assert {e["pid"] for e in events} == {3, 9}
        sim = next(e for e in events if e["name"] == "write_round")
        assert sim["pid"] == 3 and sim["ts"] == cycles_to_us(100, 4.0)
        walls = {e["name"]: e for e in events if e.get("cat") == "trace"}
        # Wall events normalise against the earliest wall ts (parent's).
        assert walls["plan.execute"]["ts"] == 0.0
        assert walls["worker.run"]["ts"] == 1_000.0
        assert walls["worker.run"]["args"]["trace_id"] == "t" * 32
        assert doc["otherData"]["wall_epoch_us"] == (
            1_700_000_000_000_000 - 1_000)
        [proc_meta] = [e for e in events if e["ph"] == "M"
                       and e["name"] == "process_name" and e["pid"] == 3]
        assert proc_meta["args"]["name"] == "worker run [merged]"

    def test_merge_accepts_builder_and_unmapped_pids_pass_through(self):
        source = TraceBuilder()
        source.complete(5, 0, "kept", 10, 20)
        target = TraceBuilder()
        target.merge(source, pid_map={99: 1})
        [event] = target.to_dict()["traceEvents"]
        assert event["pid"] == 5

    def test_from_state_reconstructs_builder(self):
        original = TraceBuilder()
        original.process(1, "p")
        original.instant(1, 0, "mark", 42)
        rebuilt = TraceBuilder()
        rebuilt.merge(json.loads(json.dumps(original.to_state())))
        assert rebuilt.to_dict(freq_ghz=2.0) == original.to_dict(
            freq_ghz=2.0)


class TestTelemetryRun:
    def test_round_scopes_match_stats(self, observed_run):
        telemetry, result = observed_run
        rounds = telemetry.trace.events_named("write_round")
        assert len(rounds) == result.stats.write_rounds_done
        assert telemetry.registry.get("write_rounds_done").value == \
            result.stats.write_rounds_done
        assert telemetry.registry.get("writes_done").value == \
            result.stats.writes_done

    def test_burst_scopes_match_stats(self, observed_run):
        telemetry, result = observed_run
        bursts = telemetry.trace.events_named("write_burst")
        assert len(bursts) == result.stats.burst_entries
        assert all(e["tid"] == TID_BURST for e in bursts)
        # Scope durations integrate to the stats' burst residency.
        total = sum(e["dur"] for e in bursts)
        assert total == result.stats.burst_cycles

    def test_latency_histogram_matches_stats(self, observed_run):
        telemetry, result = observed_run
        h = telemetry.registry.get("write_latency_cycles")
        assert h.count == result.stats.writes_done
        assert h.sum == result.stats.write_latency_sum

    def test_series_sampled(self, observed_run):
        telemetry, result = observed_run
        record = telemetry.runs[0]
        series = record["series"]
        assert series["dimm_tokens_allocated"]["samples"] > 10
        assert series["wrq_depth"]["samples"] > 10
        # Sampling piggybacks on events: last sample <= final cycle.
        assert series["dimm_tokens_allocated"]["last"] is not None

    def test_trace_is_perfetto_loadable_json(self, observed_run, tmp_path):
        telemetry, _ = observed_run
        path = tmp_path / "trace.json"
        telemetry.write_trace(path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "empty trace"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "C" in phases and "M" in phases
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "process_name" in names

    def test_manifest_contents(self, observed_run, tmp_path):
        telemetry, result = observed_run
        path = tmp_path / "run.jsonl"
        telemetry.write_manifest(path, result.config, seed=1, scale="test")
        records = read_manifest(path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "run_header"
        assert "sim_run" in kinds
        assert kinds[-1] == "metrics_snapshot"
        header = records[0]
        assert header["seed"] == 1
        assert header["config"]["power"]["dimm_tokens"] == 560.0
        run = next(r for r in records if r["type"] == "sim_run")
        assert run["cycles"] == result.cycles
        assert run["stats"]["writes_done"] == result.stats.writes_done
        snap = records[-1]["metrics"]
        assert "write_latency_cycles" in snap["histograms"]

    def test_nested_attach_rejected(self, observed_run):
        telemetry, _ = observed_run
        telemetry._run = object()  # simulate mid-run state
        with pytest.raises(RuntimeError):
            telemetry.attach(make_tiny_config(), "s", "w", None, None, None)
        telemetry._run = None

    def test_bad_sample_interval(self):
        with pytest.raises(ValueError):
            Telemetry(sample_interval=0)


class TestMultiRun:
    def test_each_run_gets_own_process(self):
        telemetry = Telemetry(sample_interval=2_000)
        config = make_tiny_config()
        for scheme in ("dimm+chip", "fpb"):
            run_simulation(config, "mcf_m", scheme,
                           n_pcm_writes=20, max_refs_per_core=4_000,
                           telemetry=telemetry)
        assert len(telemetry.runs) == 2
        pids = {r["pid"] for r in telemetry.runs}
        assert pids == {0, 1}
        doc = telemetry.trace.to_dict()
        process_names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert process_names == {"mcf_m/DIMM+chip", "mcf_m/FPB"} or \
            len(process_names) == 2
