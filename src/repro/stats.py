"""The paper's metrics: pure statistics shared across layers.

The imbalance metric used throughout (Figures 1, 12, 14, 15) is the
*normalized mean deviation*: the mean absolute deviation of the per-SC
values for one tile, divided by their mean.  Per-frame numbers average
that over all tiles that had any work.

These helpers are pure math over sequences, so they live at the bottom
of the layer stack (beside :mod:`repro.errors`) where both the
simulator (``sim.experiment`` averages suite ratios, ``sim.sweep``
scores rows) and the reporting layer may import them; ``sim`` importing
``repro.analysis`` is a forbidden edge under ``archcontract.toml``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.errors import AnalysisError


def mean_deviation(values: Sequence[float]) -> float:
    """Normalized mean deviation: mean(|v - mean|) / mean.

    Returns 0.0 when the values are empty or their mean is zero (an
    idle tile has no imbalance).
    """
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0.0:
        return 0.0
    return sum(abs(v - mean) for v in values) / len(values) / mean


def per_tile_imbalance(per_tile_values: Iterable[Sequence[float]]) -> float:
    """Frame-level imbalance: mean of per-tile normalized mean deviations.

    ``per_tile_values`` yields, for each tile, the per-SC values (quad
    counts for Figs 1/12/15, execution cycles for Fig 14).  Tiles with no
    work are skipped, as an idle tile says nothing about balance.
    """
    deviations = [
        mean_deviation(values)
        for values in per_tile_values
        if any(values)
    ]
    if not deviations:
        return 0.0
    return sum(deviations) / len(deviations)


def per_tile_imbalance_distribution(
    per_tile_values: Iterable[Sequence[float]],
) -> List[float]:
    """Per-tile normalized mean deviations, in percent (Fig 14/15 violins)."""
    return [
        mean_deviation(values) * 100.0
        for values in per_tile_values
        if any(values)
    ]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used to average ratios across the suite)."""
    if not values:
        raise AnalysisError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise AnalysisError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percent_decrease(baseline: float, value: float) -> float:
    """Percent decrease of ``value`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return (baseline - value) / baseline * 100.0


def violin_summary(samples: Sequence[float]) -> dict:
    """Min / max / mean / median summary of a distribution (violin plots)."""
    if not samples:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "median": 0.0, "n": 0}
    ordered = sorted(samples)
    n = len(ordered)
    median = (
        ordered[n // 2]
        if n % 2
        else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    )
    return {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / n,
        "median": median,
        "n": n,
    }
