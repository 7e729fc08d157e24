"""Harmonic tension on the spiral-array pitch geometry.

Pitch classes live on a helix that advances a quarter turn per perfect
fifth, so Euclidean distance encodes tonal proximity (C-G close, C-F#
far). Two windowed tension features are derived from it: cloud diameter
(harmonic dispersion inside a window) and cloud momentum (movement of the
duration-weighted centroid between consecutive windows).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .midi import Note, Performance
from .series import FeatureSeries

__all__ = [
    "SpiralParams",
    "SpiralPoint",
    "WindowConfig",
    "pitch_to_spiral",
    "center_of_effect",
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
        if self.radius <= 0 or self.rise <= 0:
            raise ValueError("radius and rise must be positive")


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
        if self.window_length <= 0:
            raise ValueError("window_length must be positive")
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


def _pc_weights(notes: Iterable[Note], start: float, end: float) -> list[float]:
    weights = [0.0] * 12
    for note in notes:
        overlap = min(note.offset, end) - max(note.onset, start)
        if overlap > 0:
            weights[note.pitch % 12] += overlap
    return weights


def center_of_effect(
    notes: Iterable[Note],
    start: float,
    end: float,
    params: SpiralParams = DEFAULT_PARAMS,
) -> Optional[SpiralPoint]:
    """Duration-weighted centroid of the notes sounding in [start, end).

    Weight is each note's sounding time inside the window. Returns None
    when nothing sounds in the window.
    """
    weights = _pc_weights(notes, start, end)
    total = sum(weights)
    if total <= 0:
        return None
    x = y = z = 0.0
    for pc, w in enumerate(weights):
        if w > 0:
            p = pitch_to_spiral(pc, params)
            x += w * p.x
            y += w * p.y
            z += w * p.z
    return SpiralPoint(x / total, y / total, z / total)


def cloud_diameter(
    notes: Iterable[Note], params: SpiralParams = DEFAULT_PARAMS
) -> Optional[float]:
    """Maximum pairwise helix distance over the distinct pitch classes.

    Octave-invariant by construction; 0 for a single distinct pitch class;
    None for an empty note set.
    """
    pcs = sorted({n.pitch % 12 for n in notes})
    if not pcs:
        return None
    if len(pcs) == 1:
        return 0.0
    points = [pitch_to_spiral(pc, params) for pc in pcs]
    return max(
        points[i].distance(points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def _iter_windows(perf: Performance, cfg: WindowConfig):
    """Yield (index, start, notes) for every window overlapping the data.

    Notes are swept once: a min-heap on offset holds every note whose onset
    precedes the window end, and notes whose offset has passed the window
    start are discarded for good (windows only move right).
    """
    end_time = max((n.offset for n in perf.notes), default=0.0)
    if end_time <= 0:
        return
    notes = perf.notes
    n = len(notes)
    pointer = 0
    active: list[tuple[float, int]] = []  # (offset, note index)
    index = 0
    while index * cfg.hop < end_time - 1e-12:
        start = index * cfg.hop
        end = start + cfg.window_length
        while pointer < n and notes[pointer].onset < end:
            heapq.heappush(active, (notes[pointer].offset, pointer))
            pointer += 1
        while active and active[0][0] <= start:
            heapq.heappop(active)
        yield index, start, [notes[i] for _, i in active]
        index += 1


def cloud_diameter_series(
    perf: Performance,
    cfg: WindowConfig = WindowConfig(),
    params: SpiralParams = DEFAULT_PARAMS,
) -> FeatureSeries:
    """Per-window cloud diameter, timestamped at the window start.

    Windows with no sounding notes produce no sample.
    """
    times, values = [], []
    for _, start, notes in _iter_windows(perf, cfg):
        value = cloud_diameter(notes, params)
        if value is not None:
            times.append(start)
            values.append(value)
    return FeatureSeries(times, values)


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
    times, values = [], []
    previous_index = None
    previous_ce = None
    for index, start, notes in _iter_windows(perf, cfg):
        ce = center_of_effect(notes, start, start + cfg.window_length, params)
        if ce is not None and previous_ce is not None and index == previous_index + 1:
            times.append(start)
            values.append(ce.distance(previous_ce))
        previous_index, previous_ce = index, ce
    return FeatureSeries(times, values)
