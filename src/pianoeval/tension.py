"""Harmonic tension on the spiral-array pitch geometry.

Pitch classes live on a helix that advances a quarter turn per perfect
fifth, so Euclidean distance encodes tonal proximity (C-G close, C-F#
far). Two windowed tension features are derived from it: cloud diameter
(harmonic dispersion inside a window) and cloud momentum (movement of the
duration-weighted centroid between consecutive windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .midi import Performance, expand_ranges
from .series import FeatureSeries

__all__ = [
    "SpiralParams",
    "SpiralPoint",
    "WindowConfig",
    "pitch_to_spiral",
    "cloud_diameter",
    "cloud_diameter_series",
    "cloud_momentum",
]

# quarter-turn trig values by fifths-index mod 4, exact by construction
_SIN = (0.0, 1.0, 0.0, -1.0)
_COS = (1.0, 0.0, -1.0, 0.0)


@dataclass(frozen=True)
class SpiralParams:
    """Helix geometry: radius and rise per fifth step.

    The default rise sqrt(2/15) makes the distance between a major-third
    pair equal that of a perfect-fifth pair, the published calibration of
    the model.
    """

    radius: float = 1.0
    rise: float = math.sqrt(2.0 / 15.0)

    def __post_init__(self):
        if not (0 < self.radius < math.inf and 0 < self.rise < math.inf):
            raise ValueError("radius and rise must be positive and finite")


@dataclass(frozen=True)
class SpiralPoint:
    x: float
    y: float
    z: float

    def distance(self, other: "SpiralPoint") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


@dataclass(frozen=True)
class WindowConfig:
    """Overlapping analysis windows: [i*hop, i*hop + window_length)."""

    window_length: float = 1.0
    hop: float = 0.5

    def __post_init__(self):
        if not 0 < self.window_length < math.inf:
            raise ValueError("window_length must be positive and finite")
        if not 0 < self.hop <= self.window_length:
            raise ValueError("hop must be in (0, window_length]")


DEFAULT_PARAMS = SpiralParams()


def _fifths_index(pitch: int) -> int:
    # pitch class -> position along the line of fifths, C=0 ... F=11
    return (7 * (pitch % 12)) % 12


def pitch_to_spiral(pitch: int, params: SpiralParams = DEFAULT_PARAMS) -> SpiralPoint:
    """Map a MIDI pitch to its pitch-class point on the helix.

    The fifths-index k = (7 * pc) mod 12 places each pitch class a quarter
    turn and one rise step above the previous fifth: (r sin(k pi/2),
    r cos(k pi/2), k h). Enharmonic spelling is ignored (MIDI has none), so
    k always falls in [0, 11].
    """
    if not 0 <= pitch <= 127:
        raise ValueError(f"pitch out of range: {pitch}")
    k = _fifths_index(pitch)
    return SpiralPoint(params.radius * _SIN[k % 4], params.radius * _COS[k % 4], k * params.rise)


def _spiral_points(params: SpiralParams) -> np.ndarray:
    """The 12 pitch-class points as a 12 x 3 array, row = pitch class."""
    return np.array([(p.x, p.y, p.z) for p in (pitch_to_spiral(pc, params) for pc in range(12))])


def _pc_weights(perf: Performance, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Sounding time of each pitch class in each window [starts[w], ends[w]).

    Returns a W x 12 matrix. A note overlaps the windows from the first
    whose end is past its onset up to the last whose start is before its
    offset; ``starts`` and ``ends`` must be non-decreasing.
    """
    onsets, offsets, pitches = perf.onsets, perf.offsets, perf.pitches
    note, window = expand_ranges(
        np.searchsorted(ends, onsets, "right"), np.searchsorted(starts, offsets, "left")
    )
    overlap = np.minimum(offsets[note], ends[window]) - np.maximum(onsets[note], starts[window])
    cells = window * 12 + pitches[note] % 12
    return np.bincount(cells, overlap, minlength=12 * len(starts)).reshape(-1, 12)


def _window_weights(perf: Performance, cfg: WindowConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start times i*hop of every window overlapping the data, and the
    windows' pitch-class weights."""
    starts = np.arange(math.ceil(max(perf.end_time, 0.0) / cfg.hop) + 1) * cfg.hop
    starts = starts[starts < perf.end_time - 1e-12]
    return starts, _pc_weights(perf, starts, starts + cfg.window_length)


def _diameters(present: np.ndarray, params: SpiralParams) -> np.ndarray:
    """Cloud diameter of each row of a W x 12 pitch-class presence mask."""
    points = _spiral_points(params)
    table = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    pairs = present[:, :, None] & present[:, None, :]
    return np.where(pairs, table, 0.0).max(axis=(1, 2), initial=0.0)


def cloud_diameter(perf: Performance, params: SpiralParams = DEFAULT_PARAMS) -> Optional[float]:
    """Maximum pairwise helix distance over the distinct pitch classes.

    Octave-invariant by construction; 0 for a single distinct pitch class;
    None for an empty note set.
    """
    if not len(perf):
        return None
    present = _pc_weights(perf, np.array([-math.inf]), np.array([math.inf])) > 0
    return float(_diameters(present, params)[0])


def cloud_diameter_series(
    perf: Performance,
    cfg: WindowConfig = WindowConfig(),
    params: SpiralParams = DEFAULT_PARAMS,
) -> FeatureSeries:
    """Per-window cloud diameter, timestamped at the window start.

    Windows with no sounding notes produce no sample.
    """
    starts, weights = _window_weights(perf, cfg)
    present = weights > 0
    sounding = present.any(axis=1)
    return FeatureSeries(starts[sounding], _diameters(present[sounding], params))


def cloud_momentum(
    perf: Performance,
    cfg: WindowConfig = WindowConfig(),
    params: SpiralParams = DEFAULT_PARAMS,
) -> FeatureSeries:
    """Distance between consecutive windows' centers of effect.

    The sample at window i (timestamped i*hop) is the distance between the
    centers of windows i-1 and i; an empty window yields no center and
    breaks the chain, so no distance is taken across the gap.
    """
    starts, weights = _window_weights(perf, cfg)
    total = weights.sum(axis=1)
    defined = np.flatnonzero(total > 0)
    centers = weights[defined] @ _spiral_points(params) / total[defined, None]
    chained = defined[1:] == defined[:-1] + 1
    steps = np.sqrt(((centers[1:] - centers[:-1]) ** 2).sum(axis=1))
    return FeatureSeries(starts[defined[1:][chained]], steps[chained])
