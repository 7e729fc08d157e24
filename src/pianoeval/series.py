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

from .config import RunConfig

__all__ = [
    "CONSTANT_SPREAD",
    "TIME_SLACK",
    "FeatureSeries",
    "grid_positions",
    "grid_times",
    "common_grid",
    "resample_to_grid",
    "pearson",
    "correlate_series",
]

CONSTANT_SPREAD = 1e-9  # max - min at or below this is constant: above tick-time noise, far below 1 ms
TIME_SLACK = 1e-9  # s: a time this near a grid point, window edge or tolerance is at it; under a tick (1 us)


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


def grid_positions(times, t0: float, step: float, side: str) -> np.ndarray:
    """The int64 count of grid points t0 + k*step (k >= 0) at or before t + ``TIME_SLACK`` for ``"right"``,
    before t - ``TIME_SLACK`` for ``"left"``: ``np.searchsorted`` of each time so shifted, with no grid."""
    if step <= 0:
        raise ValueError("step must be positive")
    slack, before = {"right": (TIME_SLACK, np.less_equal), "left": (-TIME_SLACK, np.less)}[side]
    shifted = np.asarray(times, dtype=np.float64) + slack
    # points below the nearest lie over half a step before the time, points above it over half a step
    # after: only the nearest point's own value t0 + k*step can round either way
    nearest = np.floor((shifted - (t0 - step / 2)) / step)
    return np.maximum(nearest + before(t0 + nearest * step, shifted), 0).astype(np.int64)


def grid_times(t0: float, t1: float, step: float) -> np.ndarray:
    """Grid points t0, t0+step, ... up to and including t1 + ``TIME_SLACK``."""
    return t0 + np.arange(grid_positions(t1, t0, step, "right")) * step


def common_grid(a: FeatureSeries, b: FeatureSeries, step: float) -> np.ndarray:
    """``grid_times`` from the later first time to the earlier last time of
    two series; empty if either is empty or the two are disjoint."""
    if len(a) == 0 or len(b) == 0:
        return np.empty(0)
    return grid_times(max(a.times[0], b.times[0]), min(a.times[-1], b.times[-1]), step)


def resample_to_grid(series: FeatureSeries, grid: np.ndarray) -> np.ndarray:
    """Previous-value-hold resampling onto ``grid`` (non-decreasing times).

    Each grid point takes the value of the latest sample at or before it, as
    a float64 array; a sample at most ``TIME_SLACK`` after a point counts as
    at it, since a tick or lattice time and a grid point that are one instant
    can differ in the last ulp. An empty grid gives an empty array. A
    non-empty grid must not start before the series' first sample.
    """
    if len(grid) and not len(series):
        raise ValueError(f"the series is empty, so grid start {grid[0]} has no sample to hold")
    if len(grid) and grid[0] + TIME_SLACK < series.times[0]:
        raise ValueError(f"grid start {grid[0]} precedes the series' first sample {series.times[0]}")
    return series.values[np.searchsorted(series.times, grid + TIME_SLACK, side="right") - 1]


def pearson(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Sample Pearson correlation; None when either side is constant, its
    max - min at or below ``CONSTANT_SPREAD``. A non-finite value raises ValueError."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 samples")
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    for side in (x, y):
        if not np.isfinite(side).all():
            raise ValueError(f"non-finite sample value {side[~np.isfinite(side)][0]}")
    if np.ptp(x) <= CONSTANT_SPREAD or np.ptp(y) <= CONSTANT_SPREAD:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    return min(1.0, max(-1.0, r))


def correlate_series(
    ref: FeatureSeries, est: FeatureSeries, config: RunConfig = RunConfig()
) -> Optional[float]:
    """Correlate two series on their ``common_grid``.

    The grid spans the intersection of the two time extents, where both
    series are defined, and both are previous-value-held onto it. Returns
    None when the grid has fewer than ``config.min_samples`` points or either
    side is constant.
    """
    grid = common_grid(ref, est, config.grid_step)
    if len(grid) < config.min_samples:
        return None
    return pearson(resample_to_grid(ref, grid), resample_to_grid(est, grid))
