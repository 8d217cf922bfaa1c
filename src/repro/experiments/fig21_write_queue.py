"""Figure 21: FPB speedup for different write-queue depths.

24/48/96-entry write queues, each normalized to DIMM+chip with the same
depth. The paper: 75.6% / 85.2% / 88.1% — gains grow 24 -> 48 and
saturate at 96 (burstier flushes request more tokens at once).
"""

from __future__ import annotations

from ..config.presets import WRITE_QUEUE_SWEEP
from ..config.system import SystemConfig
from .base import ConfigSweep


class Fig21WriteQueue(ConfigSweep):
    exp_id = "fig21"
    title = "FPB speedup for 24/48/96-entry write queues"
    paper_claim = (
        "FPB gains 75.6% / 85.2% / 88.1% for 24/48/96 WRQ entries; "
        "saturates at 48 (Figure 21)."
    )
    values = WRITE_QUEUE_SWEEP
    notes = "each column normalized to DIMM+chip with the same WRQ depth."

    def configure(self, config: SystemConfig, entries: int) -> SystemConfig:
        return config.with_write_queue(entries)
