"""Kernel interface shared by the reference and vectorized paths."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..config.system import WriteLevelModel


class Kernel:
    """One implementation of the write-pipeline hot loops.

    A kernel owns the three operations the simulator performs for every
    line write:

    * :meth:`sample_iterations` — draw per-cell total iteration counts
      for the changed cells (RESET + SET+verify, Section 2.1.1);
    * :meth:`plan` — turn those counts into the per-iteration
      active-cell vector and per-chip active-cell matrix that power
      budgeting consumes (Fig. 5);
    * :attr:`vectorized` — whether :class:`~repro.core.policies.base.
      PowerManager` should run its array-ledger token-accounting path.

    Implementations must consume the supplied RNG streams identically
    and produce identical arrays; only the execution strategy differs.
    """

    #: Registry name (the value stored in ``SystemConfig.kernel``).
    name: str = ""
    #: True when the PowerManager should use batched token accounting.
    vectorized: bool = False

    def sample_iterations(
        self,
        models: Sequence[WriteLevelModel],
        target_levels: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-cell total iteration counts (>=1) as ``uint8``."""
        raise NotImplementedError

    def plan(
        self,
        chip_of_cell: np.ndarray,
        iteration_counts: np.ndarray,
        n_chips: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(active, chip_active)`` for one write.

        ``active[k]`` is the number of cells still being programmed in
        iteration ``k+1``; ``chip_active[c, k]`` restricts that count to
        chip ``c``. Both are ``int64`` with ``last = max(counts)``
        columns, and ``chip_active.sum(axis=0) == active``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
