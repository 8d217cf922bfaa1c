"""Unit helpers: time, frequency, power and token conversions.

The simulator works internally in CPU *cycles* (Table 1 baseline: 4 GHz)
and in *power tokens*. One power token is the power needed to RESET one
MLC PCM cell (480 uW in Table 1); a SET consumes ``1/C`` token where
``C = reset_power / set_power``.
"""

from __future__ import annotations

from .errors import ConfigError

#: Number of bits stored per 2-bit MLC cell.
MLC_BITS_PER_CELL = 2

#: Number of bits stored per SLC cell.
SLC_BITS_PER_CELL = 1


def ns_to_cycles(ns: float, freq_ghz: float) -> int:
    """Convert a duration in nanoseconds to an integer cycle count.

    The result is rounded to the nearest cycle; Table 1 values are exact
    (e.g. 250 ns at 4 GHz -> 1000 cycles).
    """
    if ns < 0:
        raise ConfigError(f"negative duration: {ns} ns")
    if freq_ghz <= 0:
        raise ConfigError(f"non-positive frequency: {freq_ghz} GHz")
    return int(round(ns * freq_ghz))


def reset_set_ratio(reset_power_uw: float, set_power_uw: float) -> float:
    """The paper's ``C`` parameter: RESET power divided by SET power.

    FPB-IPM reclaims ``(C-1)/C`` of a write's RESET allocation once the
    RESET iteration completes. Table 1 gives C = 480/90 = 5.33; the
    worked examples in Figures 5 and 6 use an illustrative C = 2.
    """
    if set_power_uw <= 0:
        raise ConfigError(f"non-positive SET power: {set_power_uw} uW")
    if reset_power_uw < set_power_uw:
        raise ConfigError(
            "RESET power must be at least SET power "
            f"({reset_power_uw} < {set_power_uw})"
        )
    return reset_power_uw / set_power_uw


def bytes_to_cells(n_bytes: int, bits_per_cell: int) -> int:
    """Number of PCM cells needed to store ``n_bytes`` of data."""
    if n_bytes < 0:
        raise ConfigError(f"negative byte count: {n_bytes}")
    if bits_per_cell not in (SLC_BITS_PER_CELL, MLC_BITS_PER_CELL):
        raise ConfigError(f"unsupported bits per cell: {bits_per_cell}")
    total_bits = n_bytes * 8
    if total_bits % bits_per_cell:
        raise ConfigError(
            f"{n_bytes} bytes is not a whole number of {bits_per_cell}-bit cells"
        )
    return total_bits // bits_per_cell
