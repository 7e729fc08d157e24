"""Harmonic tension on the spiral-array pitch geometry.

Pitch classes live on a helix that advances a quarter turn per perfect
fifth, so Euclidean distance encodes tonal proximity (C-G close, C-F#
far). Two windowed tension features are derived from it: cloud diameter
(the spread of the pitch classes sounding in a window) and cloud momentum
(movement of the duration-weighted centroid between consecutive windows).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig
from .midi import Performance, expand_in_passes
from .series import FeatureSeries, grid_positions

__all__ = [
    "SpiralPoint",
    "pitch_to_spiral",
    "cloud_diameter",
    "cloud_diameter_series",
    "cloud_momentum",
]

# quarter-turn trig values by fifths-index mod 4, exact by construction
_SIN = (0.0, 1.0, 0.0, -1.0)
_COS = (1.0, 0.0, -1.0, 0.0)


@dataclass(frozen=True)
class SpiralPoint:
    x: float
    y: float
    z: float

    def distance(self, other: "SpiralPoint") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


def pitch_to_spiral(pitch: int, config: RunConfig = RunConfig()) -> SpiralPoint:
    """Map a MIDI pitch to its pitch-class point on the helix.

    The fifths-index k = (7 * pc) mod 12 places each pitch class a quarter
    turn and one rise step above the previous fifth: (r sin(k pi/2),
    r cos(k pi/2), k h). Enharmonic spelling is ignored (MIDI has none), so
    k always falls in [0, 11].
    """
    if not 0 <= pitch <= 127:
        raise ValueError(f"pitch out of range: {pitch}")
    k = (7 * (pitch % 12)) % 12
    r = config.spiral_radius
    return SpiralPoint(r * _SIN[k % 4], r * _COS[k % 4], k * config.spiral_rise)


def _spiral_points(config: RunConfig) -> np.ndarray:
    """The 12 pitch-class points as a 12 x 3 array, row = pitch class."""
    return np.array([(p.x, p.y, p.z) for p in (pitch_to_spiral(pc, config) for pc in range(12))])


def _windows(perf: Performance, config: RunConfig) -> tuple[int, np.ndarray, np.ndarray]:
    """The count of windows [k*hop, k*hop + window_length) starting before the data ends, and each note's
    [first, stop): the windows ending over ``TIME_SLACK`` past its onset and starting over it before its offset."""
    count = int(grid_positions(perf.end_time, 0.0, config.hop, "left"))
    first = grid_positions(perf.onsets - config.window_length, 0.0, config.hop, "right")
    return count, first, grid_positions(perf.offsets, 0.0, config.hop, "left")


def _pc_weights(perf: Performance, config: RunConfig) -> np.ndarray:
    """Sounding time of each pitch class in the ``_windows``: count x 12, each cell summed in pair order."""
    onsets, offsets, pcs = perf.onsets, perf.offsets, perf.pitches % 12
    count, first, stop = _windows(perf, config)
    weights = np.zeros(12 * count)
    for note, window in expand_in_passes(first, stop):  # in place: a fresh pair-length array costs more than a sum
        starts = window * config.hop
        overlap = starts + config.window_length
        np.minimum(offsets[note], overlap, out=overlap)
        overlap -= np.maximum(onsets[note], starts, out=starts)
        window *= 12
        window += pcs[note]
        np.add.at(weights, window, overlap)
    return weights.reshape(-1, 12)


@functools.lru_cache
def _diameter_table(spiral_radius: float, spiral_rise: float) -> np.ndarray:
    """Read-only diameters of all 4096 pitch-class masks (bit pc: pc present), built pairwise, not 4096 x 144."""
    points = _spiral_points(RunConfig(spiral_radius=spiral_radius, spiral_rise=spiral_rise))
    distances = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    masks, table = np.arange(4096), np.zeros(4096)
    for a, b in zip(*np.triu_indices(12, 1)):
        np.maximum(table, np.where(masks >> a & masks >> b & 1, distances[a, b], 0.0), out=table)
    table.flags.writeable = False
    return table


def _diameters(present: np.ndarray, config: RunConfig) -> np.ndarray:
    """Cloud diameter of each row of a W x 12 pitch-class presence mask."""
    return _diameter_table(config.spiral_radius, config.spiral_rise)[present @ (1 << np.arange(12))]


def cloud_diameter(perf: Performance, config: RunConfig = RunConfig()) -> Optional[float]:
    """Maximum pairwise helix distance over the distinct pitch classes.

    Octave-invariant by construction; 0 for a single distinct pitch class;
    None for an empty note set.
    """
    if not len(perf):
        return None
    return float(_diameters(np.isin(np.arange(12), perf.pitches % 12)[None], config)[0])


def cloud_diameter_series(perf: Performance, config: RunConfig = RunConfig()) -> FeatureSeries:
    """Per-window cloud diameter, timestamped at the window start.

    It reads only which pitch classes sound in each window, counted from note events (+1 at a note's first
    window, -1 at its stop); the momentum reads their durations. Silent windows produce no sample.
    """
    count, first, stop = _windows(perf, config)
    cells, ones = perf.pitches % 12, np.ones(len(perf), np.int32)  # an int32 array keeps ufunc.at fast
    table = np.zeros((count + 1, 12), np.int32)
    np.add.at(table.ravel(), first * 12 + cells, ones)  # first <= stop: an empty range adds and takes at one cell
    np.subtract.at(table.ravel(), stop * 12 + cells, ones)
    present = np.cumsum(table, axis=0, dtype=np.int32, out=table)[:count] > 0
    sounding = np.flatnonzero(present.any(axis=1))
    return FeatureSeries(sounding * config.hop, _diameters(present[sounding], config))


def cloud_momentum(perf: Performance, config: RunConfig = RunConfig()) -> FeatureSeries:
    """Distance between consecutive windows' duration-weighted centers of effect.

    The sample at window i (timestamped i*hop) is the distance between the
    centers of windows i-1 and i; an empty window yields no center and
    breaks the chain, so no distance is taken across the gap.
    """
    weights = _pc_weights(perf, config)
    total = weights.sum(axis=1)
    defined = np.flatnonzero(total > 0)
    centers = weights[defined] @ _spiral_points(config) / total[defined, None]
    chained = defined[1:] == defined[:-1] + 1
    steps = np.sqrt(((centers[1:] - centers[:-1]) ** 2).sum(axis=1))
    return FeatureSeries(defined[1:][chained] * config.hop, steps[chained])
