"""Figure 22: FPB speedup under different DIMM power-token budgets.

466 / 532 / 598 tokens (one LCP's worth less or more than baseline),
each normalized to DIMM+chip with the same budget. The paper: FPB does
*better* with a tighter budget — careful budgeting matters most when
power is scarce.
"""

from __future__ import annotations

from ..config.presets import POWER_TOKEN_SWEEP
from ..config.system import SystemConfig
from .base import ConfigSweep


class Fig22Tokens(ConfigSweep):
    exp_id = "fig22"
    title = "FPB speedup for 466/532/598 DIMM power tokens"
    paper_claim = (
        "FPB helps more when the power budget is tighter (Figure 22)."
    )
    values = POWER_TOKEN_SWEEP
    notes = "each column normalized to DIMM+chip with the same budget."

    def configure(self, config: SystemConfig, tokens: float) -> SystemConfig:
        return config.with_dimm_tokens(tokens)

    def label(self, tokens: float) -> str:
        return str(int(tokens))
