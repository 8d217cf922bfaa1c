"""Trace substrate: records, synthetic workloads, generation."""

from .generator import clear_trace_cache, generate_trace
from .records import PCMAccess, READ, Trace, TraceStats, WRITE
from .workloads import (
    ALL_WORKLOADS,
    QUICK_WORKLOADS,
    WorkloadSpec,
    available_workloads,
    get_workload,
)

__all__ = [
    "ALL_WORKLOADS",
    "PCMAccess",
    "QUICK_WORKLOADS",
    "READ",
    "Trace",
    "TraceStats",
    "WRITE",
    "WorkloadSpec",
    "available_workloads",
    "clear_trace_cache",
    "generate_trace",
    "get_workload",
]
