"""End-to-end tracing plane: cross-process spans, merged Perfetto
traces, Prometheus exposition and live ``/watch`` streaming.

The acceptance criteria for the tracing tentpole, exercised at micro
scale so tier-1 stays fast:

* a ``--jobs 2`` plan produces **one merged Perfetto trace** with spans
  from the parent and both worker processes, correlated by trace_id to
  the schema-v5 manifest records;
* the gateway's ``/metrics`` serves valid Prometheus text format 0.0.4
  under content negotiation (JSON stays the default);
* ``/watch`` streams at least queued → running → done lifecycle events
  for an in-flight run.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments.base import RunScale, clear_sim_cache, use_telemetry
from repro.experiments.engine import execute_plan
from repro.experiments.fig17_mr_split import Fig17MRSplit
from repro.obs import Telemetry, read_manifest
from repro.obs.tracing import SPAN_PID_OFFSET, trace_id_for
from repro.service.schemas import SimRequest
from repro.service.testing import GatewayHarness

from ..conftest import make_tiny_config

MICRO = RunScale("micro", 30, 8_000, ("tig_m",))

#: Wire-level micro fields for gateway runs (same shape as the soak).
MICRO_FIELDS = {"scale": "quick", "n_pcm_writes": 40,
                "max_refs_per_core": 10_000}


@pytest.fixture(autouse=True)
def isolated(isolated_run_state):
    yield


def test_jobs2_plan_yields_one_merged_correlated_trace(tmp_path):
    """The headline acceptance: parent + both workers in one trace,
    correlated to the manifest by fingerprint-derived trace ids."""
    telemetry = Telemetry(sample_interval=1_000)
    use_telemetry(telemetry)
    config = make_tiny_config()
    requests = Fig17MRSplit().plan(config, MICRO)
    assert len(requests) == 4
    summary = execute_plan(requests, jobs=2)
    assert summary["computed"] == 4

    # Every run was computed in a worker yet arrived instrumented, with
    # its worker's pid and a fingerprint-derived trace id.
    assert len(telemetry.runs) == 4
    assert all(run.get("instrumented") for run in telemetry.runs)
    worker_pids = {run["worker"] for run in telemetry.runs}
    assert len(worker_pids) == 2, (
        f"expected runs from both workers, got {worker_pids}")
    for run in telemetry.runs:
        assert run["trace_id"] == trace_id_for(run["fingerprint"])

    # One merged Perfetto export: parent span process + a process per
    # worker pid + a logical process per merged run.
    trace_path = tmp_path / "trace.json"
    telemetry.write_trace(trace_path)
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"
             and isinstance(e.get("args"), dict)
             and "trace_id" in e["args"]]
    plan_spans = [e for e in spans if e["name"] == "plan.execute"]
    worker_spans = [e for e in spans if e["name"] == "worker.run"]
    assert len(plan_spans) == 1
    assert len(worker_spans) == 4
    assert {e["pid"] - SPAN_PID_OFFSET for e in worker_spans} == worker_pids
    # Simulated-time events from the workers merged in too, on their
    # re-assigned logical pids.
    sim_pids = {e["pid"] for e in events if e.get("cat") == "sim"}
    assert {run["pid"] for run in telemetry.runs} <= sim_pids

    # Manifest: schema v5, span records and worker-stamped sim_run
    # records, every worker run correlated by trace id to at least one
    # span record.
    manifest_path = tmp_path / "runs.jsonl"
    telemetry.write_manifest(manifest_path, config, scale=MICRO.name)
    records = read_manifest(manifest_path)
    assert records[0]["schema_version"] >= 5
    span_tids = {r["trace_id"] for r in records if r["type"] == "span"}
    worker_records = [r for r in records
                      if r["type"] == "sim_run" and r.get("worker")]
    assert len(worker_records) == 4
    for run in (r for r in records if r["type"] == "sim_run"):
        assert run["trace_id"] in span_tids, (
            f"run {run['fingerprint']} has no span with its trace id")


def test_jobs2_results_identical_to_uninstrumented(tmp_path):
    """Worker-side capture must never change simulation results."""
    config = make_tiny_config()
    exp = Fig17MRSplit()
    execute_plan(exp.plan(config, MICRO), jobs=2)
    bare = exp.run(config, MICRO)

    clear_sim_cache()
    use_telemetry(Telemetry(sample_interval=1_000))
    execute_plan(exp.plan(config, MICRO), jobs=2)
    observed = exp.run(config, MICRO)

    assert observed.rows == bare.rows  # exact, including every float


class TestGatewayMetricsText:
    def test_metrics_negotiates_prometheus_text(self):
        with GatewayHarness(jobs=1, queue_limit=8) as harness:
            client = harness.client()
            client.run(**MICRO_FIELDS, workload="tig_m", scheme="fpb")

            # Default stays JSON.
            snapshot = client.metrics()["metrics"]
            assert snapshot["counters"]["service_requests_total"] >= 1

            content_type, body = client.metrics_text()
            assert content_type.startswith("text/plain")
            assert "version=0.0.4" in content_type
            assert "# TYPE service_requests_total counter" in body
            assert "# TYPE service_runs_served_computed counter" in body
            assert "# TYPE service_request_wall_ms_run histogram" in body
            assert 'service_request_wall_ms_run_bucket{le="+Inf"}' in body
            # The latency histogram satellite: the run was timed.
            count_lines = [l for l in body.splitlines()
                           if l.startswith("service_request_wall_ms_run_count")]
            assert count_lines and int(count_lines[0].split()[1]) >= 1


class TestWatchStream:
    def test_watch_streams_lifecycle_of_inflight_run(self):
        """Open the watcher first, then fire the run: the stream must
        carry at least queued, running and done, in order."""
        fields = {**MICRO_FIELDS, "workload": "mcf_m", "scheme": "ideal"}
        fingerprint = SimRequest.from_wire(fields).to_run_request().fingerprint
        with GatewayHarness(jobs=1, queue_limit=8) as harness:
            client = harness.client(timeout_s=120)
            events = []
            done = threading.Event()

            def consume():
                try:
                    for event in client.watch(fingerprint):
                        events.append(event)
                finally:
                    done.set()

            watcher = threading.Thread(target=consume, daemon=True)
            watcher.start()
            # Only fire once the subscription is live, so "queued" is
            # published after the watcher is listening.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if harness.gateway.snapshot()["watchers"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("watcher never registered")
            response = client.run(**fields)
            assert response["source"] == "computed"
            assert done.wait(timeout=60), f"watch never ended: {events}"
            watcher.join(timeout=10)

        kinds = [e["event"] for e in events]
        assert kinds[0] == "state"
        assert events[0]["status"] == "unknown"
        for expected in ("queued", "running", "done"):
            assert expected in kinds, f"missing {expected!r} in {kinds}"
        assert (kinds.index("queued") < kinds.index("running")
                < kinds.index("done"))
        assert all(e["fingerprint"] == fingerprint for e in events)
        done_event = events[kinds.index("done")]
        assert done_event["source"] == "computed"

    def test_watch_of_completed_run_reports_done_immediately(self):
        fields = {**MICRO_FIELDS, "workload": "tig_m", "scheme": "dimm+chip"}
        fingerprint = SimRequest.from_wire(fields).to_run_request().fingerprint
        with GatewayHarness(jobs=1, queue_limit=8) as harness:
            client = harness.client(timeout_s=120)
            client.run(**fields)
            events = list(client.watch(fingerprint))
        kinds = [e["event"] for e in events]
        assert kinds == ["state", "done"]
        assert events[0]["status"] == "done"
        assert events[1]["source"] == "memory"

    def test_watch_without_fingerprint_is_invalid(self):
        from repro.service.schemas import InvalidRequestError
        with GatewayHarness(jobs=1, queue_limit=8) as harness:
            client = harness.client()
            with pytest.raises(InvalidRequestError):
                list(client.watch(""))
