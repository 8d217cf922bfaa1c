"""Global charge pump (FPB-GCP) runtime model.

The GCP sits on the DIMM's bridge chip (Figure 7) and supplies write
power to chip segments whose local charge pump is exhausted. Two
constraints govern it:

* **Pump capacity** — its area caps the output it can deliver at once;
  by default the size of one LCP (Section 4.1).
* **DIMM input power (Eqs. 5-6)** — the GCP never creates power: every
  output token draws ``1/E_GCP`` of the DIMM's input-power budget, just
  as an LCP token draws ``1/E_LCP``. This is the paper's "borrowing":
  power a chip is not drawing is available at the DIMM input, and the
  GCP converts it at its (lower) efficiency. At ``E_GCP = E_LCP``
  borrowing is free (GCP-NE-0.95 matches DIMM-only, Section 6.1.1); at
  50% efficiency each GCP token costs two LCP tokens' worth of input
  and the GCP "cannot help at all".

The input-power side is charged by the power manager against the DIMM
pool; this class enforces the pump-capacity side and records the usage
statistics behind Figures 13/14 and Table 3.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import TokenError
from ..pcm.chip import TOKEN_EPS


class GCPGrant:
    """One live supply obligation of the GCP."""

    __slots__ = ("grant_id", "output_tokens")

    def __init__(self, grant_id: int, output_tokens: float):
        self.grant_id = grant_id
        self.output_tokens = output_tokens


class GlobalChargePump:
    """Pump-capacity accounting for the on-DIMM global charge pump."""

    def __init__(
        self,
        lcp_efficiency: float,
        gcp_efficiency: float,
        max_output_tokens: float,
    ):
        if not 0.0 < gcp_efficiency <= 1.0:
            raise TokenError(f"bad GCP efficiency {gcp_efficiency}")
        if not 0.0 < lcp_efficiency <= 1.0:
            raise TokenError(f"bad LCP efficiency {lcp_efficiency}")
        if max_output_tokens < 0:
            raise TokenError("GCP max output must be non-negative")
        self.lcp_efficiency = lcp_efficiency
        self.gcp_efficiency = gcp_efficiency
        self.max_output_tokens = max_output_tokens
        self.output_in_use = 0.0
        self._grants: Dict[int, GCPGrant] = {}
        self._next_grant = 0
        # Statistics for Figures 13/14 and Table 3.
        self.peak_output = 0.0
        self.total_acquired = 0.0
        self.acquire_count = 0

    # ------------------------------------------------------------------
    # Power conversion
    # ------------------------------------------------------------------
    def input_power(self, output_tokens: float) -> float:
        """DIMM input tokens consumed to deliver ``output_tokens``."""
        return output_tokens / self.gcp_efficiency

    def lcp_equivalent_cost(self, output_tokens: float) -> float:
        """How many LCP-delivered tokens the same input power would buy —
        the "borrowed" tokens of Eq. 5 read in reverse."""
        return self.input_power(output_tokens) * self.lcp_efficiency

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def can_supply(self, output_tokens: float) -> bool:
        if output_tokens <= TOKEN_EPS:
            return True
        return (
            self.output_in_use + output_tokens
            <= self.max_output_tokens + TOKEN_EPS
        )

    def acquire(self, output_tokens: float) -> GCPGrant:
        if output_tokens < -TOKEN_EPS:
            raise TokenError(f"negative GCP request: {output_tokens}")
        output_tokens = max(0.0, output_tokens)
        if not self.can_supply(output_tokens):
            raise TokenError(
                f"GCP cannot supply {output_tokens:.3f} tokens "
                f"(in use {self.output_in_use:.3f}/{self.max_output_tokens:.3f})"
            )
        grant = GCPGrant(self._next_grant, output_tokens)
        self._next_grant += 1
        self._grants[grant.grant_id] = grant
        self.output_in_use += output_tokens
        self.peak_output = max(self.peak_output, self.output_in_use)
        self.total_acquired += output_tokens
        self.acquire_count += 1
        return grant

    def acquire_many(
        self, chip_ids: List[int], amounts: List[float]
    ) -> Dict[int, GCPGrant]:
        """Acquire one grant per chip, in chip order.

        The batched power manager plans all GCP-routed segments of an
        iteration at once and commits them here; grant ids, usage
        statistics and ``output_in_use`` evolve exactly as the same
        sequence of :meth:`acquire` calls would.
        """
        return {
            chip_id: self.acquire(amount)
            for chip_id, amount in zip(chip_ids, amounts)
        }

    def shrink(self, grant: GCPGrant, new_output_tokens: float) -> None:
        """Reduce a grant's output (FPB-IPM reclaim at iteration ends)."""
        if grant.grant_id not in self._grants:
            raise TokenError(f"unknown GCP grant {grant.grant_id}")
        if new_output_tokens > grant.output_tokens + TOKEN_EPS:
            raise TokenError(
                f"shrink cannot grow a grant "
                f"({new_output_tokens:.3f} > {grant.output_tokens:.3f})"
            )
        new_output_tokens = max(0.0, new_output_tokens)
        self.output_in_use = max(
            0.0, self.output_in_use - (grant.output_tokens - new_output_tokens)
        )
        grant.output_tokens = new_output_tokens

    def release(self, grant: GCPGrant) -> None:
        if grant.grant_id not in self._grants:
            raise TokenError(f"unknown GCP grant {grant.grant_id}")
        self.output_in_use = max(0.0, self.output_in_use - grant.output_tokens)
        del self._grants[grant.grant_id]

    def __repr__(self) -> str:
        return (
            f"GlobalChargePump(E={self.gcp_efficiency:.2f}, "
            f"in_use={self.output_in_use:.1f}/{self.max_output_tokens:.1f}, "
            f"grants={len(self._grants)})"
        )
