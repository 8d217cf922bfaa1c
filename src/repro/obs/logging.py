"""Logging setup for the experiment harness.

The library itself never prints: harness chatter (progress, reports,
warnings) goes through loggers under the ``repro`` namespace so
applications embedding the library can silence or redirect it with the
standard :mod:`logging` machinery.

:func:`setup_logging` is the CLI's one-stop configuration honoring
``--verbose`` / ``--quiet``. It installs a bare ``message``-only
formatter on stderr-bound handlers for WARNING+ and stdout for INFO and
below, so report text looks exactly like the old ``print`` output while
remaining filterable.

Run/trace correlation: :func:`log_context` binds fields
(``fingerprint``, ``worker_pid``, ...) to the current execution context
(contextvar-backed, so async tasks and worker processes each carry
their own), and the active trace id from :mod:`repro.obs.tracing` is
picked up automatically. The handlers installed by
:func:`setup_logging` carry a :class:`ContextFilter` that renders the
bound fields as a ``[key=value ...]`` suffix, making engine/service
logs greppable per request.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import sys
from typing import Dict, Optional

from . import tracing

#: Root of the library's logger namespace.
ROOT_LOGGER = "repro"

#: Verbosity argument -> logging level. ``0`` is the CLI default.
_LEVELS = {
    -1: logging.WARNING,   # --quiet: reports suppressed, problems shown
    0: logging.INFO,       # default: reports shown
    1: logging.DEBUG,      # --verbose: per-run diagnostics
}


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    if name.startswith(ROOT_LOGGER):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


class _MaxLevelFilter(logging.Filter):
    def __init__(self, max_level: int):
        super().__init__()
        self.max_level = max_level

    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno <= self.max_level


_LOG_CONTEXT: "contextvars.ContextVar[Optional[Dict[str, object]]]" = \
    contextvars.ContextVar("repro_log_context", default=None)


@contextlib.contextmanager
def log_context(**fields):
    """Bind correlation fields to log records emitted in this context.

    Nested bindings merge (inner wins on key clash); the binding
    follows asyncio tasks and ``to_thread`` hops like any contextvar.
    """
    merged = dict(_LOG_CONTEXT.get() or {})
    merged.update(fields)
    token = _LOG_CONTEXT.set(merged)
    try:
        yield merged
    finally:
        _LOG_CONTEXT.reset(token)


def current_log_context() -> Dict[str, object]:
    """The bound fields plus the active trace id, if any."""
    fields = dict(_LOG_CONTEXT.get() or {})
    trace_id = tracing.current_trace_id()
    if trace_id is not None and "trace_id" not in fields:
        fields["trace_id"] = trace_id
    return fields


class ContextFilter(logging.Filter):
    """Stamps records with the bound correlation fields.

    Sets ``record.repro_context`` (the dict, for structured handlers)
    and ``record.context_suffix`` (a ``" [k=v ...]"`` string the
    default formatters append; empty when nothing is bound).
    """

    def filter(self, record: logging.LogRecord) -> bool:
        fields = current_log_context()
        record.repro_context = fields
        if fields:
            rendered = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
            record.context_suffix = f" [{rendered}]"
        else:
            record.context_suffix = ""
        return True


def setup_logging(verbosity: int = 0,
                  stream=None) -> logging.Logger:
    """Configure the ``repro`` logger tree for CLI use.

    ``verbosity``: -1 (quiet) / 0 (normal) / 1+ (verbose). Idempotent —
    calling again replaces the handlers, so tests can reconfigure.
    ``stream`` overrides both output streams (for capture in tests).
    """
    level = _LEVELS.get(max(-1, min(1, verbosity)), logging.INFO)
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)

    context = ContextFilter()

    out = logging.StreamHandler(stream if stream is not None else sys.stdout)
    out.setFormatter(logging.Formatter("%(message)s%(context_suffix)s"))
    out.addFilter(_MaxLevelFilter(logging.INFO))
    out.addFilter(context)
    logger.addHandler(out)

    err = logging.StreamHandler(stream if stream is not None else sys.stderr)
    err.setFormatter(
        logging.Formatter("%(levelname)s: %(message)s%(context_suffix)s"))
    err.setLevel(logging.WARNING)
    err.addFilter(context)
    logger.addHandler(err)

    logger.propagate = False
    return logger


def reset_logging() -> None:
    """Remove handlers installed by :func:`setup_logging` (tests)."""
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    logger.propagate = True
    logger.setLevel(logging.NOTSET)
