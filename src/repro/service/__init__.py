"""Simulation-as-a-service gateway.

A long-lived asyncio daemon (``python -m repro.experiments serve``)
that accepts simulation and experiment requests over local HTTP+JSON,
normalizes them to canonical cache fingerprints, coalesces concurrent
requests for the same run, and dispatches cold work behind a bounded
admission queue to the fault-tolerant engine, whose long-lived worker
pool supervises every run the gateway computes.

See docs/service.md for the API and operational semantics.
"""

from .admission import AdmissionQueue
from .app import Gateway
from .client import GatewayClient
from .coalescer import Coalescer, Lease
from .schemas import (
    BusyError,
    DrainingError,
    ExperimentRequest,
    InvalidRequestError,
    RunExecutionError,
    ServiceError,
    SimRequest,
    SimResponse,
)

__all__ = [
    "AdmissionQueue",
    "BusyError",
    "Coalescer",
    "DrainingError",
    "ExperimentRequest",
    "Gateway",
    "GatewayClient",
    "InvalidRequestError",
    "Lease",
    "RunExecutionError",
    "ServiceError",
    "SimRequest",
    "SimResponse",
]
