"""DIMM assembly: chips, banks, mapping and timing in one place."""

from __future__ import annotations

from typing import List

import numpy as np

from ..config.system import SystemConfig
from .bank import PCMBank
from .chip import PCMChip
from .mapping import CellMapping, make_mapping
from .timing import PCMTiming


class DIMM:
    """One MLC PCM DIMM: 8 chips serving 8 interleaved banks (Figure 1)."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.n_chips = config.memory.n_chips
        self.n_banks = config.memory.n_banks
        self.line_size = config.memory.line_size
        self.cells_per_line = config.cells_per_line
        self.timing = PCMTiming.from_config(config.pcm, config.cpu.freq_ghz)
        self.mapping: CellMapping = make_mapping(
            config.cell_mapping, self.cells_per_line, self.n_chips
        )
        lcp = config.power.lcp_tokens(self.n_chips)
        self.chips: List[PCMChip] = [
            PCMChip(i, lcp) for i in range(self.n_chips)
        ]
        self.banks: List[PCMBank] = [PCMBank(i) for i in range(self.n_banks)]

    def bank_of(self, line_addr: int) -> int:
        """Bank interleaving: consecutive lines map to consecutive banks."""
        return (line_addr // self.line_size) % self.n_banks

    def chip_counts(self, cell_indices: np.ndarray, offset: int = 0) -> np.ndarray:
        """Per-chip count of the given line-local cells."""
        return self.mapping.counts_by_chip(cell_indices, offset)

    def __repr__(self) -> str:
        return (
            f"DIMM(chips={self.n_chips}, banks={self.n_banks}, "
            f"line={self.line_size}B, mapping={self.mapping.name})"
        )
