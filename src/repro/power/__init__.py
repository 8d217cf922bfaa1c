"""Power budgeting substrate: token pools and charge pumps."""

from .charge_pump import (
    ChargePumpDesign,
    area_overhead_fraction,
    pump_input_tokens,
)
from .gcp import GCPGrant, GlobalChargePump
from .tokens import TokenPool

__all__ = [
    "ChargePumpDesign",
    "GCPGrant",
    "GlobalChargePump",
    "TokenPool",
    "area_overhead_fraction",
    "pump_input_tokens",
]
