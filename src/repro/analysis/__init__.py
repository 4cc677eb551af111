"""Metrics and reporting helpers for the paper's figures and tables."""

from repro.stats import (
    geometric_mean,
    mean_deviation,
    per_tile_imbalance,
    per_tile_imbalance_distribution,
    percent_decrease,
    violin_summary,
)
from repro.analysis.tables import format_table
from repro.analysis.reuse import ReuseProfile, per_core_reuse_profiles, reuse_profile
from repro.analysis.conflicts import MissDecomposition, decompose_misses
from repro.analysis.overdraw import (
    OverdrawStats,
    overdraw_stats,
    shaded_pixel_map,
)

__all__ = [
    "ReuseProfile", "reuse_profile", "per_core_reuse_profiles",
    "MissDecomposition", "decompose_misses",
    "OverdrawStats", "overdraw_stats", "shaded_pixel_map",
    "mean_deviation",
    "per_tile_imbalance",
    "per_tile_imbalance_distribution",
    "violin_summary",
    "geometric_mean",
    "percent_decrease",
    "format_table",
]
