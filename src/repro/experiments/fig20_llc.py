"""Figure 20: FPB speedup for different last-level cache capacities.

Per-core LLC of 8/16/32/128 MB; each column normalized to DIMM+chip
with the same LLC. The paper: 39.9% (8M), 62.1% (16M), 75.6% (32M) and
a reduced 23.4% at 128M (off-chip traffic largely disappears).
"""

from __future__ import annotations

from ..config.presets import LLC_SWEEP_BYTES
from ..config.system import SystemConfig
from .base import ConfigSweep


class Fig20LLC(ConfigSweep):
    exp_id = "fig20"
    title = "FPB speedup for 8/16/32/128 MB per-core LLCs"
    paper_claim = (
        "FPB gains 39.9% / 62.1% / 75.6% for 8/16/32 MB LLCs; the gain "
        "drops to 23.4% at 128 MB (Figure 20)."
    )
    values = LLC_SWEEP_BYTES
    notes = "each column normalized to DIMM+chip at the same LLC size."

    def configure(self, config: SystemConfig, size: int) -> SystemConfig:
        return config.with_llc_size(size)

    def label(self, size: int) -> str:
        return f"{size // (1024 * 1024)}M"
