"""Time-stamped scalar feature series and their correlation.

A :class:`FeatureSeries` is the common currency of the musically informed
metrics: samples at strictly increasing times, extracted from one
performance and held as two float arrays. Two series are compared by
holding both onto a grid over their shared extent and correlating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "FeatureSeries",
    "GridConfig",
    "shared_extent",
    "resample_to_grid",
    "pearson",
    "correlate_series",
]

_GRID_EPS = 1e-9  # guards float error when counting grid points


@dataclass(frozen=True, eq=False)
class FeatureSeries:
    """Immutable samples: read-only float64 ``times`` (strictly increasing)
    and ``values`` (finite) of equal length."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError(f"times {times.shape} and values {values.shape} must be 1-D, equal length")
        previous = np.concatenate(([-math.inf], times[:-1]))
        bad = np.flatnonzero(times <= previous)
        if bad.size:
            raise ValueError(f"sample times must be strictly increasing (at t={times[bad[0]]})")
        nonfinite = np.flatnonzero(~np.isfinite(values))
        if nonfinite.size:
            i = nonfinite[0]
            raise ValueError(f"non-finite sample value {values[i]} at t={times[i]}")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GridConfig:
    """Common-grid alignment parameters for correlating two series."""

    step: float = 0.1
    min_samples: int = 8

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")


def grid_times(t0: float, t1: float, step: float) -> np.ndarray:
    """Grid points t0, t0+step, ... up to and including t1."""
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 < t0:
        return np.empty(0)
    count = int(math.floor((t1 - t0) / step + _GRID_EPS)) + 1
    return t0 + np.arange(count) * step


def shared_extent(a: FeatureSeries, b: FeatureSeries) -> Optional[tuple[float, float]]:
    """Latest first time and earliest last time of two series; None if empty or disjoint."""
    if len(a) == 0 or len(b) == 0:
        return None
    t0 = float(max(a.times[0], b.times[0]))
    t1 = float(min(a.times[-1], b.times[-1]))
    return (t0, t1) if t0 <= t1 else None


def resample_to_grid(series: FeatureSeries, t0: float, t1: float, step: float) -> np.ndarray:
    """Previous-value-hold resampling onto the grid t0, t0+step, ..., <= t1.

    Each grid point takes the value of the latest sample at or before it,
    as a float64 array. The grid must not start before the first sample.
    """
    if t1 < t0:
        raise ValueError("t0 must not exceed t1")
    if not len(series) or t0 < series.times[0]:
        raise ValueError(f"grid start {t0} precedes the series' first sample")
    return series.values[np.searchsorted(series.times, grid_times(t0, t1, step), side="right") - 1]


def pearson(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Sample Pearson correlation; None when either side has zero variance."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 samples")
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.dot(dx, dy)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def correlate_series(
    ref: FeatureSeries, est: FeatureSeries, grid: GridConfig
) -> Optional[float]:
    """Correlate two series on the common grid over their shared extent.

    The grid spans the intersection of the two time extents, where both
    series are defined, and both are previous-value-held onto it. Returns
    None when the grid has fewer than ``grid.min_samples`` points or either
    side is constant.
    """
    extent = shared_extent(ref, est)
    if extent is None:
        return None
    a = resample_to_grid(ref, *extent, grid.step)
    b = resample_to_grid(est, *extent, grid.step)
    if len(a) < grid.min_samples:
        return None
    return pearson(a, b)
