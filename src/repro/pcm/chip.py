"""A single PCM chip and its local charge pump state.

The DIMM has 8 chips; every logical bank is interleaved across all of
them (Figure 1), so each chip serves a *segment* of every line. The chip
owns a local power-token account: tokens allocated to in-flight write
segments may never exceed the chip's LCP budget. GCP borrowing
(Eqs. 5–6) is accounted by :class:`~repro.power.gcp.GlobalChargePump`,
not here.
"""

from __future__ import annotations

from ..errors import TokenError

#: Tolerance for floating-point token arithmetic.
TOKEN_EPS = 1e-9


class PCMChip:
    """Power-token accounting for one chip's local charge pump."""

    def __init__(self, chip_id: int, lcp_tokens: float):
        if lcp_tokens <= 0:
            raise TokenError(f"chip {chip_id}: LCP budget must be positive")
        self.chip_id = chip_id
        self.budget = float(lcp_tokens)
        self.allocated = 0.0

    @property
    def free(self) -> float:
        """Tokens available for local allocation."""
        return self.budget - self.allocated

    def can_allocate(self, tokens: float) -> bool:
        return tokens <= self.free + TOKEN_EPS

    def allocate(self, tokens: float) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"chip {self.chip_id}: negative allocation {tokens}")
        if not self.can_allocate(tokens):
            raise TokenError(
                f"chip {self.chip_id}: allocation {tokens:.3f} exceeds free "
                f"{self.free:.3f}"
            )
        self.allocated += max(0.0, tokens)

    def release(self, tokens: float) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"chip {self.chip_id}: negative release {tokens}")
        if tokens > self.allocated + TOKEN_EPS:
            raise TokenError(
                f"chip {self.chip_id}: releasing {tokens:.3f} of only "
                f"{self.allocated:.3f} allocated"
            )
        self.allocated = max(0.0, self.allocated - tokens)

    def __repr__(self) -> str:
        return (
            f"PCMChip(id={self.chip_id}, budget={self.budget:.1f}, "
            f"allocated={self.allocated:.1f})"
        )
