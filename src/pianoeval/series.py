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
    "common_grid",
    "hold_indices",
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


def common_grid(a: FeatureSeries, b: FeatureSeries, step: float) -> tuple[float, int]:
    """The start t0 and count n of the grid points t0 + k*step from the later first time of two series to
    their earlier last time + ``TIME_SLACK``; no points if either is empty or the two are disjoint."""
    if len(a) == 0 or len(b) == 0:
        return 0.0, 0
    t0 = max(a.times[0], b.times[0])
    return t0, int(grid_positions(min(a.times[-1], b.times[-1]), t0, step, "right"))


def hold_indices(times, t0: float, step: float, n: int) -> np.ndarray:
    """For each of the ``n`` grid points t0 + k*step, the index of the last of the non-decreasing ``times``
    at or before it, or -1: ``grid_positions`` "left" places each time, to within ``TIME_SLACK``."""
    # times past the grid share bin n, so a sample far past it cannot size the counts
    return np.cumsum(np.bincount(np.minimum(grid_positions(times, t0, step, "left"), n), minlength=n + 1)[:n]) - 1


def resample_to_grid(series: FeatureSeries, t0: float, step: float, n: int) -> np.ndarray:
    """Previous-value-hold resampling onto the ``n`` grid points t0 + k*step: each point takes, as
    float64, the value of the sample ``hold_indices`` gives it, and must have one (ValueError)."""
    last = hold_indices(series.times, t0, step, n)
    if n and last[0] < 0:
        raise ValueError(f"grid start {t0} has no sample of the series at or before it")
    return series.values[last]


def pearson(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Sample Pearson correlation; None when either side is constant, its
    max - min at or below ``CONSTANT_SPREAD``. A non-finite value raises ValueError."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 samples")
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    bounds = [(v.min(), v.max()) for v in (x, y)]  # a NaN or an infinity reaches a bound
    for side, (lo, hi) in zip((x, y), bounds):
        if not np.isfinite((lo, hi)).all():
            raise ValueError(f"non-finite sample value {side[~np.isfinite(side)][0]}")
    if min(hi - lo for lo, hi in bounds) <= CONSTANT_SPREAD:
        return None
    # each side over a power of two above its largest magnitude: exact, and no product overflows
    dx, dy = (np.ldexp(v, -np.frexp(max(-lo, hi))[1]) for v, (lo, hi) in zip((x, y), bounds))
    dx -= dx.mean()
    dy -= dy.mean()
    r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    return min(1.0, max(-1.0, r))


def correlate_series(
    ref: FeatureSeries, est: FeatureSeries, config: RunConfig = RunConfig()
) -> Optional[float]:
    """Pearson correlation of two series held onto their ``common_grid``, over the intersection of their
    time extents; None when it has fewer than ``config.min_samples`` points or either side is constant."""
    t0, n = common_grid(ref, est, config.grid_step)
    if n < config.min_samples:
        return None
    return pearson(resample_to_grid(ref, t0, config.grid_step, n), resample_to_grid(est, t0, config.grid_step, n))
