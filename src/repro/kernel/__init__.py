"""Simulation-kernel selection (``SystemConfig.kernel``).

The write pipeline — SET-iteration sampling, per-iteration active-cell
planning, and token-ledger arbitration — exists in two interchangeable
implementations:

* **reference** — per-cell scalar Python loops. This is the executable
  specification: each loop mirrors the paper's prose one cell, one chip,
  one iteration at a time, and it is the oracle the tests hold the
  vectorized kernel to.
* **vectorized** — batched NumPy. One RNG draw matrix per write, fused
  histogram planning, and array-ledger token accounting. Every run uses
  it unless its config names the reference kernel
  (:data:`~repro.config.system.DEFAULT_KERNEL`).

Both kernels are *byte-identical* by construction: they consume the same
RNG streams in the same order (NumPy ``Generator`` scalar draws consume
the bitstream exactly like array draws of the same distribution) and
restrict themselves to transforms that are exact in IEEE-754 (integer
arithmetic, comparisons, elementwise division by the same operands, and
sequential accumulation in a fixed order). The differential-equivalence
suite (``tests/integration/test_kernel_equivalence.py``) and the
Hypothesis properties (``tests/property/test_prop_kernel.py``) enforce
this; ``docs/performance.md`` documents the discipline.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..config.system import DEFAULT_KERNEL
from ..errors import ConfigError
from .base import Kernel
from .reference import ReferenceKernel
from .vectorized import VectorizedKernel

_KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (ReferenceKernel(), VectorizedKernel())
}


def available_kernels() -> Tuple[str, ...]:
    return tuple(sorted(_KERNELS))


def get_kernel(name: Union[str, Kernel, None]) -> Kernel:
    """Resolve a kernel by name (``Kernel`` instances pass through;
    ``None`` means :data:`~repro.config.system.DEFAULT_KERNEL`)."""
    if isinstance(name, Kernel):
        return name
    if name is None:
        name = DEFAULT_KERNEL
    try:
        return _KERNELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown kernel {name!r}; choose from {available_kernels()}"
        ) from None


__all__ = [
    "Kernel",
    "ReferenceKernel",
    "VectorizedKernel",
    "available_kernels",
    "get_kernel",
]
