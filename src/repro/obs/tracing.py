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

Span records are plain dicts, handed as each span ends to the
tracer's sink: a :class:`~repro.obs.Telemetry` writes them as manifest
``span`` records (schema v5) and, when it writes a Perfetto trace,
renders them there as wall-clock events. A tracer without a sink keeps
nothing; its spans only carry context to the spans nested in them.
Timestamps are integer microseconds since the epoch; the Perfetto
export normalizes them per trace.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

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
    """Opens spans and hands each finished span record to ``sink``.

    Spans nest via the contextvar: a span opened while another is
    active records that span's id as ``parent_id`` — including across
    ``await`` and ``asyncio.to_thread`` boundaries, which copy the
    context. Failures are captured, never swallowed: an exception
    raised inside ``span(...)`` stamps the span's ``error`` field and
    propagates. Without a ``sink`` the records are dropped.
    """

    def __init__(self,
                 sink: Optional[Callable[[Dict[str, object]], None]] = None
                 ) -> None:
        self.sink = sink
        #: (trace_id, name) -> occurrences so far (deterministic ids).
        self._seq: Dict[tuple, int] = {}

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

    def _open(self, name: str, kind: str, fingerprint: Optional[str],
              trace_id: Optional[str],
              attrs: Optional[Dict[str, object]]) -> Dict[str, object]:
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
            "kind": kind,
            "start_us": int(time.time() * 1e6),
        }
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        if attrs:
            record["attrs"] = dict(attrs)
        return record

    def _emit(self, record: Dict[str, object]) -> None:
        if self.sink is not None:
            self.sink(record)

    @contextlib.contextmanager
    def span(self, name: str, *, fingerprint: Optional[str] = None,
             trace_id: Optional[str] = None,
             attrs: Optional[Dict[str, object]] = None):
        """A wall-clock ``complete`` span around the with-body."""
        record = self._open(name, "complete", fingerprint, trace_id, attrs)
        token = _CONTEXT.set(SpanContext(record["trace_id"],
                                         record["span_id"]))
        start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            _CONTEXT.reset(token)
            record["dur_us"] = int((time.perf_counter() - start) * 1e6)
            self._emit(record)

    def instant(self, name: str, *, fingerprint: Optional[str] = None,
                trace_id: Optional[str] = None,
                attrs: Optional[Dict[str, object]] = None
                ) -> Dict[str, object]:
        """A zero-duration marker under the current context."""
        record = self._open(name, "instant", fingerprint, trace_id, attrs)
        record["dur_us"] = 0
        self._emit(record)
        return record


def render_span(builder, span: Dict[str, object]) -> None:
    """Render one span record into ``builder`` as a wall-clock Perfetto
    event on the span process of its OS pid (offset by
    :data:`SPAN_PID_OFFSET` to stay clear of the logical run pids).
    Process names are registered with every span; the export keeps one
    per pid."""
    pid = SPAN_PID_OFFSET + span["pid"]
    builder.process(pid, f"tracing pid {span['pid']}")
    builder.thread(pid, 1, "spans")
    args = {"trace_id": span["trace_id"], "span_id": span["span_id"]}
    for key in ("parent_id", "fingerprint", "error"):
        if span.get(key):
            args[key] = span[key]
    args.update(span.get("attrs") or {})
    if span["kind"] == "instant":
        builder.instant_wall(pid, 1, span["name"], span["start_us"],
                             args=args)
    else:
        builder.complete_wall(pid, 1, span["name"], span["start_us"],
                              span["dur_us"], args=args)
