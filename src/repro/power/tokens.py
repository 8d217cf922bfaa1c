"""DIMM-level power-token pool.

One token is the power to RESET one MLC cell (Section 3, Figure 5). The
pool tracks Available Power Tokens (APT): allocations by in-flight write
iterations may never exceed the DIMM budget. The pool also records APT
statistics used by the experiments.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..errors import BudgetExceededError, TokenError

TOKEN_EPS = 1e-9


class TokenPool:
    """A conserved pool of power tokens with floor/ceiling invariants."""

    def __init__(self, budget: float, name: str = "dimm"):
        if budget <= 0:
            raise TokenError(f"{name}: budget must be positive, got {budget}")
        self.name = name
        self.budget = float(budget)
        self.allocated = 0.0
        # Statistics.
        self.min_available = float(budget)
        self._weighted_alloc = 0.0
        self._last_time = 0
        self.peak_allocated = 0.0

    @property
    def available(self) -> float:
        """The paper's APT counter."""
        return self.budget - self.allocated

    def can_allocate(self, tokens: float) -> bool:
        return tokens <= self.available + TOKEN_EPS

    def allocate(self, tokens: float, now: int = 0) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"{self.name}: negative allocation {tokens}")
        if not self.can_allocate(tokens):
            raise BudgetExceededError(
                f"{self.name}: allocating {tokens:.3f} with only "
                f"{self.available:.3f} available"
            )
        self._advance(now)
        self.allocated = min(self.budget, self.allocated + max(0.0, tokens))
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        self.min_available = min(self.min_available, self.available)

    def release(self, tokens: float, now: int = 0) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"{self.name}: negative release {tokens}")
        if tokens > self.allocated + TOKEN_EPS:
            raise TokenError(
                f"{self.name}: releasing {tokens:.3f} of only "
                f"{self.allocated:.3f} allocated"
            )
        self._advance(now)
        self.allocated = max(0.0, self.allocated - tokens)

    def _advance(self, now: int) -> None:
        if now > self._last_time:
            self._weighted_alloc += self.allocated * (now - self._last_time)
            self._last_time = now

    @property
    def occupancy(self) -> float:
        """Allocated fraction of the budget, in [0, 1] (telemetry)."""
        return self.allocated / self.budget

    def mean_allocated(self, now: int) -> float:
        """Time-weighted mean allocation over [0, now]."""
        self._advance(now)
        if now <= 0:
            return self.allocated
        return self._weighted_alloc / now

    def __repr__(self) -> str:
        return (
            f"TokenPool({self.name}, budget={self.budget:.1f}, "
            f"available={self.available:.1f})"
        )


class ChipTokenLedger:
    """Array-based LCP token accounting for all chips of a DIMM at once.

    The vectorized kernel's power manager replaces per-chip
    :class:`~repro.pcm.chip.PCMChip` bookkeeping with one float64 vector
    per quantity, so an iteration's feasibility check and commit touch
    every chip in a handful of array ops. Each elementwise update uses
    exactly the arithmetic ``PCMChip.allocate`` / ``release`` performs
    on scalars (``+= max(0, t)`` and ``= max(0, a - t)``), keeping the
    balances bit-identical to the reference path's.
    """

    def __init__(self, budgets: Union[Sequence[float], np.ndarray]):
        self.budget = np.array(budgets, dtype=np.float64)
        if self.budget.size == 0 or self.budget.min() <= 0:
            raise TokenError("chip ledger budgets must be positive")
        self.allocated = np.zeros_like(self.budget)

    @property
    def n_chips(self) -> int:
        return int(self.budget.size)

    @property
    def free(self) -> np.ndarray:
        return self.budget - self.allocated

    def fits(self, tokens: np.ndarray) -> np.ndarray:
        """Per-chip ``can_allocate`` as a boolean vector."""
        return tokens <= self.budget - self.allocated + TOKEN_EPS

    def allocate(self, tokens: np.ndarray, mask: np.ndarray) -> None:
        """Allocate ``tokens[c]`` on every chip selected by ``mask``.

        Feasibility is the caller's responsibility (the power manager
        checks :meth:`fits` before committing anything).
        """
        self.allocated[mask] += np.maximum(0.0, tokens[mask])

    def allocate_all(self, tokens: np.ndarray) -> None:
        """Whole-vector allocate for non-negative demands.

        Adding 0.0 on idle chips leaves their balance bit-identical, so
        this equals the masked form without building a mask.
        """
        np.add(self.allocated, tokens, out=self.allocated)

    def release(self, tokens: np.ndarray, mask: np.ndarray) -> None:
        self.allocated[mask] = np.maximum(
            0.0, self.allocated[mask] - tokens[mask]
        )

    def release_held(self, tokens: np.ndarray) -> None:
        """Whole-vector release of a holding (in place, no temporaries).

        ``max(0, allocated - held)`` elementwise; subtracting 0.0 on
        idle chips is exact, and ``x - x`` is ``+0.0`` in IEEE-754, so
        no ``-0.0`` can appear that the scalar path would not produce.
        """
        np.subtract(self.allocated, tokens, out=self.allocated)
        np.maximum(self.allocated, 0.0, out=self.allocated)
