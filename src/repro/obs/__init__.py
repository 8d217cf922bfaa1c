"""Telemetry and observability for the simulator.

Every part of the subsystem is optional — a simulation run with no
telemetry attached pays only a handful of ``is not None`` checks. Its
modules:

* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  log-scale histograms components register against.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` façade: attaches
  to a run, collects scope events (write rounds, bursts, GCP borrow
  windows, Multi-RESET splits) and periodic pool/queue samples, and
  sends every record through one sink that appends it as it happens.
* :mod:`repro.obs.perfetto` — export the simulated-time events and
  spans as Chrome/Perfetto ``trace_event`` JSON, loadable at
  https://ui.perfetto.dev.
* :mod:`repro.obs.manifest` — machine-readable run manifests
  (JSON-lines), streamed record by record: a header with config, seed
  and scale, the records in event order, a closing record and the
  metrics snapshot.
* :mod:`repro.obs.tracing` — wall-clock spans with deterministic,
  fingerprint-derived trace ids, propagated across threads and worker
  processes so one request yields one connected trace.
* :mod:`repro.obs.prometheus` — text exposition (format 0.0.4) of any
  metrics registry, for scrapers and the gateway's ``/metrics``.
* :mod:`repro.obs.sampler` — token-flow and queue-depth time series,
  sampled at existing event timestamps so results stay bit-identical.
* :mod:`repro.obs.logging` — the harness's loggers, with context
  fields (fingerprint, worker pid, ...) and the active trace id on
  every line.

Quickstart::

    from repro import baseline_config, run_simulation
    from repro.obs import Telemetry

    telemetry = Telemetry(manifest="run.jsonl",  # JSON-lines manifest
                          trace="run.json")      # open in Perfetto
    result = run_simulation(baseline_config(), "mcf_m", "fpb",
                            telemetry=telemetry)
    telemetry.close()  # metrics snapshot, then the trace file

See docs/observability.md for the metrics catalog and schemas.
"""

from .logging import get_logger, log_context, setup_logging
from .manifest import ManifestWriter, config_to_dict, read_manifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perfetto import TraceBuilder, cycles_to_us
from .prometheus import render_registry, render_snapshot
from .sampler import TimeSeries
from .telemetry import Telemetry
from .tracing import SpanContext, Tracer, span_id_for, trace_id_for

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ManifestWriter",
    "MetricsRegistry",
    "SpanContext",
    "Telemetry",
    "TimeSeries",
    "TraceBuilder",
    "Tracer",
    "config_to_dict",
    "cycles_to_us",
    "get_logger",
    "log_context",
    "read_manifest",
    "render_registry",
    "render_snapshot",
    "setup_logging",
    "span_id_for",
    "trace_id_for",
]
