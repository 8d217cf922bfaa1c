"""Span tracing: deterministic ids, nesting, propagation, rendering."""

import pytest

from repro.obs.perfetto import TraceBuilder
from repro.obs.tracing import (
    SPAN_PID_OFFSET,
    SpanContext,
    Tracer,
    activate,
    current_context,
    current_trace_id,
    render_span,
    span_id_for,
    trace_id_for,
)

FP = "a" * 64  # a stand-in canonical run fingerprint


def recording_tracer():
    """A tracer whose sink collects its finished span records."""
    spans = []
    return Tracer(spans.append), spans


class TestDeterministicIds:
    def test_trace_id_is_stable_and_fingerprint_derived(self):
        assert trace_id_for(FP) == trace_id_for(FP)
        assert trace_id_for(FP) != trace_id_for("b" * 64)
        assert len(trace_id_for(FP)) == 32
        assert int(trace_id_for(FP), 16) >= 0  # hex

    def test_span_id_varies_by_name_and_occurrence(self):
        tid = trace_id_for(FP)
        assert span_id_for(tid, "run", 0) == span_id_for(tid, "run", 0)
        assert span_id_for(tid, "run", 0) != span_id_for(tid, "run", 1)
        assert span_id_for(tid, "run", 0) != span_id_for(tid, "plan", 0)
        assert len(span_id_for(tid, "run", 0)) == 16

    def test_two_tracers_assign_identical_ids(self):
        """Parent and worker derive the same ids independently — no id
        needs to cross the wire besides the parent span."""
        ids = []
        for _ in range(2):
            tracer, spans = recording_tracer()
            with tracer.span("worker.run", fingerprint=FP):
                pass
            ids.append((spans[0]["trace_id"], spans[0]["span_id"]))
        assert ids[0] == ids[1]

    def test_orphan_span_still_gets_a_trace_id(self):
        tracer, spans = recording_tracer()
        with tracer.span("lonely"):
            pass
        assert spans[0]["trace_id"] == trace_id_for("orphan:lonely")


class TestSpanNesting:
    def test_child_parents_to_enclosing_span(self):
        tracer, spans = recording_tracer()
        with tracer.span("outer", fingerprint=FP):
            with tracer.span("inner"):
                pass
        inner, outer = spans  # completion order: inner first
        assert inner["name"] == "inner"
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"] == trace_id_for(FP)

    def test_context_restored_after_span(self):
        tracer = Tracer()
        assert current_context() is None
        with tracer.span("s", fingerprint=FP):
            assert current_trace_id() == trace_id_for(FP)
        assert current_context() is None

    def test_exception_stamps_error_and_propagates(self):
        tracer, spans = recording_tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing", fingerprint=FP):
                raise ValueError("boom")
        [span] = spans
        assert span["error"] == "ValueError"
        assert span["dur_us"] >= 0

    def test_repeated_names_get_sequential_occurrences(self):
        tracer, spans = recording_tracer()
        for _ in range(3):
            with tracer.span("poll", fingerprint=FP):
                pass
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == 3
        tid = trace_id_for(FP)
        assert ids == [span_id_for(tid, "poll", i) for i in range(3)]


class TestActivate:
    def test_adopted_context_becomes_parent(self):
        """A worker adopts the engine's (trace_id, parent span) and its
        spans slot under the parent's — the cross-process contract."""
        tid = trace_id_for(FP)
        tracer, spans = recording_tracer()
        with activate(SpanContext(tid, "feedfeedfeedfeed")):
            with tracer.span("worker.run"):
                pass
        [span] = spans
        assert span["trace_id"] == tid
        assert span["parent_id"] == "feedfeedfeedfeed"

    def test_empty_span_id_means_no_parent(self):
        tracer, spans = recording_tracer()
        with activate(SpanContext(trace_id_for(FP), "")):
            with tracer.span("worker.run"):
                pass
        assert spans[0]["parent_id"] is None

    def test_none_is_a_no_op(self):
        with activate(None):
            assert current_context() is None


class TestInstant:
    def test_instant_records_zero_duration_marker(self):
        tracer, spans = recording_tracer()
        with tracer.span("request", fingerprint=FP):
            tracer.instant("queued", attrs={"queue_depth": 3})
        instant = next(s for s in spans if s["kind"] == "instant")
        assert instant["dur_us"] == 0
        assert instant["attrs"] == {"queue_depth": 3}
        assert instant["trace_id"] == trace_id_for(FP)  # from context


class TestSinkAndRender:
    def test_tracer_without_a_sink_keeps_nothing(self):
        """Spans still carry context to nested spans, but a tracer with
        nowhere to write holds no record of them."""
        tracer = Tracer()
        with tracer.span("request", fingerprint=FP):
            assert current_trace_id() == trace_id_for(FP)
            with tracer.span("inner"):
                tracer.instant("queued")
        assert not any(isinstance(value, list)
                       for value in vars(tracer).values())

    def test_render_offsets_pids_and_carries_correlation_args(self):
        tracer, spans = recording_tracer()
        with tracer.span("request", fingerprint=FP,
                         attrs={"path": "/run"}):
            pass
        builder = TraceBuilder()
        render_span(builder, spans[0])
        doc = builder.to_dict()
        [event] = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["pid"] >= SPAN_PID_OFFSET
        assert event["args"]["trace_id"] == trace_id_for(FP)
        assert event["args"]["fingerprint"] == FP
        assert event["args"]["path"] == "/run"
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"]
        assert any(name.startswith("tracing pid") for name in names)
