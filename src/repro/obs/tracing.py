"""Span tracing with cross-process context propagation.

The simulator's existing Perfetto events live in *simulated* time
(cycles); spans answer the complementary question of where the
*wall-clock* time of a request went as it crosses layers and
processes: service HTTP handler → admission table → dispatcher
batch → ``execute_plan`` supervision → worker process → ``SimEngine``.

Identifiers are **deterministic**: a run's ``trace_id`` derives from
its canonical run fingerprint (:func:`trace_id_for`), so the service
handler, the engine and a worker process all compute the *same*
trace id for the same run without shipping it over the wire, and two
invocations of the same run produce comparable traces. Span ids derive
from ``(trace_id, name, occurrence)`` so a deterministic call sequence
yields deterministic ids.

Propagation is a :mod:`contextvars` context: :meth:`Tracer.span` sets
the current :class:`SpanContext` for its body (async-safe — each
asyncio task and each ``asyncio.to_thread`` hop carries its own copy),
and :func:`activate` adopts a context that crossed a process boundary
(the engine hands workers their parent span id; the worker re-derives
the trace id from the fingerprint).

Span records are plain dicts, ready to be written as manifest ``span``
records (schema v5) or exported into a
:class:`~repro.obs.perfetto.TraceBuilder` as wall-clock events
(:meth:`Tracer.export_to`). Timestamps are integer microseconds since
the epoch; the Perfetto export normalizes them per trace.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

#: Perfetto pids for span processes are ``SPAN_PID_OFFSET + os.getpid()``
#: so they can never collide with the small logical pids Telemetry
#: assigns to simulation runs (one per run, counting from 0).
SPAN_PID_OFFSET = 1_000_000

#: Hex digits in a trace id / span id.
TRACE_ID_BITS = 128
SPAN_ID_BITS = 64


def trace_id_for(fingerprint: str) -> str:
    """The deterministic trace id of one canonical run fingerprint."""
    digest = hashlib.sha256(f"repro.trace:{fingerprint}".encode())
    return digest.hexdigest()[: TRACE_ID_BITS // 4]


def span_id_for(trace_id: str, name: str, occurrence: int) -> str:
    """Deterministic span id: the ``occurrence``-th span named ``name``
    within ``trace_id`` (per :class:`Tracer`)."""
    digest = hashlib.sha256(
        f"repro.span:{trace_id}:{name}:{occurrence}".encode())
    return digest.hexdigest()[: SPAN_ID_BITS // 4]


@dataclass(frozen=True)
class SpanContext:
    """The ambient (trace_id, span_id) pair child spans parent to."""

    trace_id: str
    span_id: str


_CONTEXT: "contextvars.ContextVar[Optional[SpanContext]]" = \
    contextvars.ContextVar("repro_trace_context", default=None)


def current_context() -> Optional[SpanContext]:
    """The active span context, if any (contextvar-backed)."""
    return _CONTEXT.get()


def current_trace_id() -> Optional[str]:
    context = _CONTEXT.get()
    return context.trace_id if context is not None else None


@contextlib.contextmanager
def activate(context: Optional[SpanContext]):
    """Adopt a span context that crossed a process/wire boundary, so
    spans opened inside parent to it. ``None`` is a no-op (keeps call
    sites unconditional)."""
    if context is None:
        yield None
        return
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


class Tracer:
    """Accumulates span records; one per :class:`~repro.obs.Telemetry`.

    Spans nest via the contextvar: a span opened while another is
    active records that span's id as ``parent_id`` — including across
    ``await`` and ``asyncio.to_thread`` boundaries, which copy the
    context. Failures are captured, never swallowed: an exception
    raised inside ``span(...)`` stamps the span's ``error`` field and
    propagates.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        #: (trace_id, name) -> occurrences so far (deterministic ids).
        self._seq: Dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def _next_span_id(self, trace_id: str, name: str) -> str:
        key = (trace_id, name)
        occurrence = self._seq.get(key, 0)
        self._seq[key] = occurrence + 1
        return span_id_for(trace_id, name, occurrence)

    def _resolve_trace_id(self, name: str, trace_id: Optional[str],
                          fingerprint: Optional[str]) -> str:
        if trace_id is not None:
            return trace_id
        if fingerprint is not None:
            return trace_id_for(fingerprint)
        parent = _CONTEXT.get()
        if parent is not None:
            return parent.trace_id
        return trace_id_for(f"orphan:{name}")

    @contextlib.contextmanager
    def span(self, name: str, *, fingerprint: Optional[str] = None,
             trace_id: Optional[str] = None,
             attrs: Optional[Dict[str, object]] = None):
        """A wall-clock ``complete`` span around the with-body."""
        parent = _CONTEXT.get()
        tid = self._resolve_trace_id(name, trace_id, fingerprint)
        sid = self._next_span_id(tid, name)
        record: Dict[str, object] = {
            "type": "span",
            "name": name,
            "trace_id": tid,
            "span_id": sid,
            "parent_id": parent.span_id if (parent is not None
                                            and parent.span_id) else None,
            "pid": os.getpid(),
            "kind": "complete",
            "start_us": int(time.time() * 1e6),
        }
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        if attrs:
            record["attrs"] = dict(attrs)
        token = _CONTEXT.set(SpanContext(tid, sid))
        start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            _CONTEXT.reset(token)
            record["dur_us"] = int((time.perf_counter() - start) * 1e6)
            self.spans.append(record)

    def instant(self, name: str, *, fingerprint: Optional[str] = None,
                trace_id: Optional[str] = None,
                attrs: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """A zero-duration marker under the current context."""
        parent = _CONTEXT.get()
        tid = self._resolve_trace_id(name, trace_id, fingerprint)
        record: Dict[str, object] = {
            "type": "span",
            "name": name,
            "trace_id": tid,
            "span_id": self._next_span_id(tid, name),
            "parent_id": parent.span_id if (parent is not None
                                            and parent.span_id) else None,
            "pid": os.getpid(),
            "kind": "instant",
            "start_us": int(time.time() * 1e6),
            "dur_us": 0,
        }
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        if attrs:
            record["attrs"] = dict(attrs)
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    # Merge & export
    # ------------------------------------------------------------------
    def absorb(self, records: Iterable[Dict[str, object]]) -> None:
        """Adopt span records produced by another tracer (a worker's
        snapshot); anything that is not a span record is skipped.
        Records keep their original pids and ids — the merge is pure
        concatenation, correlation lives in the trace ids."""
        for record in records:
            if not isinstance(record, dict) or "span_id" not in record:
                continue
            merged = dict(record)
            merged["type"] = "span"
            self.spans.append(merged)

    def to_records(self) -> List[Dict[str, object]]:
        """Manifest-ready ``span`` records, in completion order."""
        return [dict(span) for span in self.spans]

    def export_to(self, builder, *, role: str = "tracing") -> None:
        """Render every span into ``builder`` as wall-clock Perfetto
        events, one process per originating OS pid (offset by
        :data:`SPAN_PID_OFFSET` to stay clear of the logical run pids).
        """
        named = set()
        for span in self.spans:
            os_pid = int(span.get("pid") or 0)
            pid = SPAN_PID_OFFSET + os_pid
            if pid not in named:
                builder.process(pid, f"{role} pid {os_pid}")
                builder.thread(pid, 1, "spans")
                named.add(pid)
            args = {
                "trace_id": span.get("trace_id"),
                "span_id": span.get("span_id"),
            }
            if span.get("parent_id"):
                args["parent_id"] = span["parent_id"]
            if span.get("fingerprint"):
                args["fingerprint"] = span["fingerprint"]
            if span.get("error"):
                args["error"] = span["error"]
            args.update(span.get("attrs") or {})
            start = int(span.get("start_us") or 0)
            if span.get("kind") == "instant":
                builder.instant_wall(pid, 1, str(span["name"]), start,
                                     args=args)
            else:
                builder.complete_wall(pid, 1, str(span["name"]), start,
                                      int(span.get("dur_us") or 0),
                                      args=args)

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans)} spans)"
