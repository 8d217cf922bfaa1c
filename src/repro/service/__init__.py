"""Simulation-as-a-service gateway.

A long-lived asyncio daemon (``python -m repro.experiments serve``)
that accepts simulation and experiment requests over local HTTP+JSON,
normalizes them to canonical cache fingerprints, and admits each cold
run in one step through an admission table that coalesces concurrent
requests for the same run and bounds the runs waiting for dispatch.
The fault-tolerant engine's long-lived worker pool supervises every
run the gateway computes.

See docs/service.md for the API and operational semantics.
"""

from .admission import AdmissionTable
from .app import Gateway
from .client import GatewayClient
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
    "AdmissionTable",
    "BusyError",
    "DrainingError",
    "ExperimentRequest",
    "Gateway",
    "GatewayClient",
    "InvalidRequestError",
    "RunExecutionError",
    "ServiceError",
    "SimRequest",
    "SimResponse",
]
