"""Result analysis: metrics and plain-text report rendering."""

from .confidence import (
    Estimate,
    confidence_table,
    metric_confidence,
    speedup_confidence,
)
from .metrics import gmean, normalize, percent_change, speedup
from .report import (
    format_value,
    render_bars,
    render_table,
)

__all__ = [
    "Estimate",
    "confidence_table",
    "format_value",
    "gmean",
    "normalize",
    "percent_change",
    "render_bars",
    "metric_confidence",
    "render_table",
    "speedup_confidence",
    "speedup",
]
