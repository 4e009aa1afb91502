"""Data hiding schemes: VT-HI (the paper's contribution) and PT-HI (baseline)."""

from .capacity import (
    CapacityPlan,
    expected_charged_fraction,
    naturally_charged_count,
    plan_capacity,
    shannon_parity_fraction,
)
from .config import ENHANCED_CONFIG, STANDARD_CONFIG, HidingConfig
from .payload import PayloadCodec, PayloadError
from .pthi import PtHi, PtHiConfig
from .interval import IntervalHider, IntervalHidingConfig
from .selection import SelectionError, select_cells
from .vthi import EmbedStats, VtHi

__all__ = [
    "CapacityPlan",
    "ENHANCED_CONFIG",
    "EmbedStats",
    "HidingConfig",
    "IntervalHider",
    "IntervalHidingConfig",
    "PayloadCodec",
    "PayloadError",
    "PtHi",
    "PtHiConfig",
    "STANDARD_CONFIG",
    "SelectionError",
    "VtHi",
    "expected_charged_fraction",
    "naturally_charged_count",
    "plan_capacity",
    "select_cells",
    "shannon_parity_fraction",
]
