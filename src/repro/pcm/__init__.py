"""MLC PCM device models: cells, write model, mapping, chips, banks."""

from .bank import PCMBank
from .endurance import DEFAULT_MLC_ENDURANCE, WearTracker
from .flipnwrite import FlipNWrite, FlipResult, flip_savings_sample
from .cells import (
    MLC_LEVEL_NAMES,
    bytes_to_levels,
    changed_cell_targets,
    changed_cells,
    levels_to_bytes,
)
from .chip import PCMChip, TOKEN_EPS
from .contents import LineStore
from .dimm import DIMM
from .mapping import (
    BIMMapping,
    CellMapping,
    CELLS_PER_WORD,
    NaiveMapping,
    VIMMapping,
    available_mappings,
    make_mapping,
)
from .timing import PCMTiming
from .write_model import (
    IterationSampler,
    active_cells_per_chip_iteration,
    active_cells_per_iteration,
)

__all__ = [
    "BIMMapping",
    "DEFAULT_MLC_ENDURANCE",
    "FlipNWrite",
    "FlipResult",
    "WearTracker",
    "flip_savings_sample",
    "CELLS_PER_WORD",
    "CellMapping",
    "DIMM",
    "IterationSampler",
    "LineStore",
    "MLC_LEVEL_NAMES",
    "NaiveMapping",
    "PCMBank",
    "PCMChip",
    "PCMTiming",
    "TOKEN_EPS",
    "VIMMapping",
    "active_cells_per_chip_iteration",
    "active_cells_per_iteration",
    "available_mappings",
    "bytes_to_levels",
    "changed_cell_targets",
    "changed_cells",
    "levels_to_bytes",
    "make_mapping",
]
