"""A small synchronous client for the simulation gateway.

Stdlib-only (``http.client``), one connection per call — matching the
server's ``Connection: close`` model. Error responses come back as the
same typed :class:`ServiceError` hierarchy the server raises, so
callers (and tests) branch on exception class, not status-code
arithmetic::

    client = GatewayClient("127.0.0.1", 8023)
    try:
        row = client.run(workload="mcf_m", scheme="fpb", scale="quick")
    except BusyError as exc:
        time.sleep(exc.retry_after_s)
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Iterator, Optional, Tuple

from .schemas import (
    BusyError,
    DrainingError,
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
    RunExecutionError,
    ServiceError,
)

_ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (InvalidRequestError, NotFoundError, MethodNotAllowedError,
                DrainingError, RunExecutionError)
}


def error_from_wire(status: int, payload: object) -> ServiceError:
    """Rebuild the typed error a non-2xx response body describes."""
    error = payload.get("error", {}) if isinstance(payload, dict) else {}
    code = error.get("code", "internal")
    message = error.get("message", f"HTTP {status}")
    detail = {k: v for k, v in error.items()
              if k not in ("code", "message", "retryable")}
    if code == "busy":
        return BusyError(message,
                         retry_after_s=int(detail.pop("retry_after_s", 1)),
                         **detail)
    cls = _ERRORS_BY_CODE.get(code, ServiceError)
    exc = cls(message, **detail)
    exc.status = status
    return exc


class GatewayClient:
    """Blocking JSON client for one gateway endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8023, *,
                 timeout_s: float = 300.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def request(self, method: str, path: str,
                body: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """One HTTP exchange; 2xx payloads return, errors raise typed."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise ServiceError(
                    f"gateway returned undecodable body (HTTP "
                    f"{response.status})") from None
            if 200 <= response.status < 300:
                return decoded
            raise error_from_wire(response.status, decoded)
        finally:
            conn.close()

    # Convenience wrappers ------------------------------------------------
    def run(self, **fields) -> Dict[str, object]:
        """``POST /run`` with the given wire fields (workload, scheme,
        scale, seed, kernel, n_pcm_writes, max_refs_per_core)."""
        return self.request("POST", "/run", fields)

    def experiment(self, exp_id: str, **fields) -> Dict[str, object]:
        """``POST /experiment`` for ``exp_id``."""
        return self.request("POST", "/experiment",
                            {"experiment": exp_id, **fields})

    def healthz(self) -> Dict[str, object]:
        return self.request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        return self.request("GET", "/metrics")

    def metrics_text(self) -> Tuple[str, str]:
        """``GET /metrics`` negotiated as Prometheus text exposition.

        Returns ``(content_type, body)``; the content type carries the
        exposition format version (``text/plain; version=0.0.4; ...``).
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            conn.request("GET", "/metrics",
                         headers={"Accept": "text/plain"})
            response = conn.getresponse()
            raw = response.read()
            if not 200 <= response.status < 300:
                try:
                    decoded = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {}
                raise error_from_wire(response.status, decoded)
            content_type = response.getheader("Content-Type", "")
            return content_type, raw.decode("utf-8")
        finally:
            conn.close()

    def experiments(self) -> Dict[str, object]:
        return self.request("GET", "/experiments")

    def watch(self, fingerprint: str, *,
              max_events: Optional[int] = None) -> Iterator[Dict[str, object]]:
        """``GET /watch`` — yield lifecycle events for one fingerprint.

        Streams the gateway's chunked NDJSON feed (``http.client``
        de-chunks transparently) and yields each event dict as it
        arrives. The iterator ends when the stream reports a terminal
        event (``done``, ``failed`` or ``drain``), when ``max_events``
        have been yielded, or when the server closes the connection.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            conn.request("GET", f"/watch?fingerprint={fingerprint}")
            response = conn.getresponse()
            if not 200 <= response.status < 300:
                raw = response.read()
                try:
                    decoded = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    decoded = {}
                raise error_from_wire(response.status, decoded)
            yielded = 0
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
                yield event
                yielded += 1
                if max_events is not None and yielded >= max_events:
                    return
                if event.get("event") in ("done", "failed", "drain"):
                    return
        finally:
            conn.close()
