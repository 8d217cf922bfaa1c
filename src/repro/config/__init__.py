"""Configuration dataclasses and Table 1 presets."""

from .presets import (
    BASELINE_DIMM_TOKENS,
    LINE_SIZE_SWEEP,
    LLC_SWEEP_BYTES,
    POWER_TOKEN_SWEEP,
    WRITE_QUEUE_SWEEP,
    baseline_config,
    rdopt_config,
    slc_config,
)
from .system import (
    config_fingerprint,
    CacheConfig,
    CacheLevelConfig,
    CPUConfig,
    MemoryConfig,
    PCMConfig,
    PowerConfig,
    SchedulerConfig,
    SystemConfig,
    WriteLevelModel,
)

__all__ = [
    "BASELINE_DIMM_TOKENS",
    "LINE_SIZE_SWEEP",
    "LLC_SWEEP_BYTES",
    "POWER_TOKEN_SWEEP",
    "WRITE_QUEUE_SWEEP",
    "CacheConfig",
    "CacheLevelConfig",
    "CPUConfig",
    "MemoryConfig",
    "PCMConfig",
    "PowerConfig",
    "SchedulerConfig",
    "SystemConfig",
    "WriteLevelModel",
    "baseline_config",
    "config_fingerprint",
    "rdopt_config",
    "slc_config",
]
