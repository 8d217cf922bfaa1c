"""Non-deterministic MLC program-and-verify write model.

An MLC line write starts with one RESET iteration on every changed cell
and is followed by SET(+verify) iterations; each cell finishes after a
cell- and instance-specific number of iterations (Section 2.1.1). We
use the paper's two-phase model (Table 1): a ``fast_fraction`` of cells
finishes within ``fast_max_iterations`` total iterations; the remainder
form a slow geometric tail tuned so the unclipped mean matches
``mean_iterations``.

Iteration counts returned here are *total* iterations including the
RESET, so a count of 1 means "RESET only" (target level '00').

The sampling strategy itself lives in :mod:`repro.kernel`: the
reference kernel draws per cell with scalar RNG calls, the vectorized
kernel draws one batch per level. Both consume the RNG stream
identically, so the choice never changes the sampled counts. The
module-level :func:`active_cells_per_iteration` and
:func:`active_cells_per_chip_iteration` helpers are re-exported from
the vectorized kernel for historical callers.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..config.system import PCMConfig, WriteLevelModel
from ..kernel import Kernel, get_kernel
from ..kernel.vectorized import (  # noqa: F401  (re-exported API)
    active_cells_per_iteration,
    active_cells_per_chip_iteration,
)


class IterationSampler:
    """Samples per-cell iteration counts for the changed cells of a write.

    ``kernel`` selects the sampling implementation (a name from
    :func:`repro.kernel.available_kernels`, a :class:`~repro.kernel.
    Kernel` instance, or ``None`` for the default kernel); the drawn
    counts are identical either way.
    """

    def __init__(
        self, pcm: PCMConfig, kernel: Union[str, Kernel, None] = None
    ):
        self._models: Tuple[WriteLevelModel, ...] = pcm.level_models
        self._max_iterations = pcm.max_iterations
        self._kernel = get_kernel(kernel)

    @property
    def max_iterations(self) -> int:
        return self._max_iterations

    @property
    def kernel(self) -> Kernel:
        return self._kernel

    def sample(
        self, target_levels: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Iteration counts (>=1) for cells being programmed to
        ``target_levels``."""
        return self._kernel.sample_iterations(self._models, target_levels, rng)
