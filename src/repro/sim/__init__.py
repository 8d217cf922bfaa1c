"""Event-driven timing simulation of the MLC PCM memory subsystem."""

from .cpu import Core
from .events import SimEngine
from .memory_system import MemorySystem, ReadRequest, WriteJob
from .runner import SimResult, run_schemes, run_simulation
from .simcache import SIM_SCHEMA_VERSION, SimCache, run_fingerprint
from .stats import SimStats

__all__ = [
    "Core",
    "MemorySystem",
    "ReadRequest",
    "SIM_SCHEMA_VERSION",
    "SimCache",
    "SimEngine",
    "SimResult",
    "SimStats",
    "run_fingerprint",
    "WriteJob",
    "run_schemes",
    "run_simulation",
]
