"""Named configuration presets.

:func:`baseline_config` reproduces Table 1 exactly. The helpers derive
the sweep configurations used by Figures 19-22 and the SLC comparison
configuration used by Figure 2.
"""

from __future__ import annotations

from dataclasses import replace

from .system import (
    PCMConfig,
    SchedulerConfig,
    SystemConfig,
    WriteLevelModel,
)

#: DIMM power budget used throughout the paper (from Hay et al. [8]).
BASELINE_DIMM_TOKENS = 560.0

#: Figure 22's power-token sweep: 1/8 fewer, baseline*0.95, 1/8 more.
POWER_TOKEN_SWEEP = (466.0, 532.0, 598.0)

#: Figure 19's memory line sizes.
LINE_SIZE_SWEEP = (64, 128, 256)

#: Figure 20's per-core LLC capacities.
LLC_SWEEP_BYTES = tuple(m * 1024 * 1024 for m in (8, 16, 32, 128))

#: Figure 21's write-queue depths.
WRITE_QUEUE_SWEEP = (24, 48, 96)


def baseline_config(seed: int = 1) -> SystemConfig:
    """The Table 1 baseline: 8-core 4 GHz CMP, 32 MB/core DRAM L3 with
    256 B lines, 4 GB MLC PCM DIMM with 8 banks over 8 chips, 24-entry
    read/write queues, 560-token DIMM budget."""
    return SystemConfig(seed=seed)


def slc_config(seed: int = 1) -> SystemConfig:
    """An SLC PCM variant used for the Figure 2 cell-change comparison.

    SLC stores one bit per cell and programs it in a single iteration.
    """
    slc_levels = (
        WriteLevelModel(mean_iterations=1.0, max_iterations=1),
        WriteLevelModel(mean_iterations=1.0, max_iterations=1),
    )
    base = baseline_config(seed)
    return replace(base, pcm=PCMConfig(bits_per_cell=1, level_models=slc_levels))


def rdopt_config(
    seed: int = 1,
    *,
    write_cancellation: bool = True,
    write_pausing: bool = True,
    write_truncation: bool = True,
) -> SystemConfig:
    """Baseline extended with WC/WP/WT and the larger queues of Sec 6.4.5.

    The paper increases the read and write queues to 320 entries
    (40 per bank, 8 banks) when write cancellation is enabled.
    """
    base = baseline_config(seed)
    scheduler = SchedulerConfig(
        read_queue_entries=320,
        write_queue_entries=320,
        resp_queue_entries=320,
        write_cancellation=write_cancellation,
        write_pausing=write_pausing and write_cancellation,
        write_truncation=write_truncation,
    )
    return replace(base, scheduler=scheduler)
