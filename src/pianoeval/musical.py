"""Musically informed transcription metrics.

Eight correlations between feature series extracted independently from the
ground truth and the estimate: inter-onset intervals of melody and
accompaniment (timing), key-overlap ratios of melody and bass plus their
ratio (articulation), cloud diameter and momentum (harmony), and the
melody/bass log loudness ratio (dynamics). Each series pair is held onto a
common grid and compared with Pearson correlation; a metric that cannot be
computed (too few shared points, constant series) is undefined rather than
zero.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .midi import Note, Performance
from .series import FeatureSeries, GridConfig, correlate_series, grid_times, resample_to_grid, shared_extent
from .streams import CHORD_EPSILON, split_streams
from .tension import DEFAULT_PARAMS, SpiralParams, WindowConfig, cloud_diameter_series, cloud_momentum

__all__ = [
    "MIN_IOI",
    "DYNAMICS_HOLD",
    "MusicalMetrics",
    "METRIC_NAMES",
    "ioi_series",
    "kor_series",
    "dynamics_series",
    "ratio_kor_series",
    "compute_musical_metrics",
]

MIN_IOI = 0.001  # seconds; KOR is unstable below this inter-onset interval
DYNAMICS_HOLD = 2.0  # seconds a stream's last velocity stays valid after its offset
RATIO_KOR_GUARD = 1e-6  # |bass KOR| below this drops the ratio sample


@dataclass(frozen=True)
class MusicalMetrics:
    """The eight correlations; None marks an undefined metric."""

    melody_ioi: Optional[float] = None
    accompaniment_ioi: Optional[float] = None
    melody_kor: Optional[float] = None
    bass_kor: Optional[float] = None
    ratio_kor: Optional[float] = None
    cloud_diameter: Optional[float] = None
    cloud_momentum: Optional[float] = None
    dynamics: Optional[float] = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not -1.0 <= v <= 1.0:
                raise ValueError(f"{f.name} out of [-1, 1]: {v}")

    def as_dict(self) -> dict[str, Optional[float]]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


METRIC_NAMES = tuple(f.name for f in fields(MusicalMetrics))


def ioi_series(stream: Sequence[Note], chord_eps: float = CHORD_EPSILON) -> FeatureSeries:
    """Inter-onset intervals of consecutive notes in one stream.

    The sample for the pair (i, i+1) is onset(i+1) - onset(i), timestamped
    at onset(i+1); intervals below ``chord_eps`` count as chords and are
    clamped to 0. When several pairs land on one timestamp (chord tones),
    the last pair's value — the chord's 0 — wins, keeping times strictly
    increasing.
    """
    samples: dict[float, float] = {}
    for a, b in zip(stream, stream[1:]):
        ioi = b.onset - a.onset
        samples[b.onset] = 0.0 if ioi < chord_eps else ioi
    times = sorted(samples)
    return FeatureSeries(times, [samples[t] for t in times])


def kor_series(stream: Sequence[Note], min_ioi: float = MIN_IOI) -> FeatureSeries:
    """Key-overlap ratio of a monophonic stream.

    KOR_i = (offset(i) - onset(i+1)) / (onset(i+1) - onset(i)): positive
    when the notes overlap (legato), negative when a gap separates them
    (staccato), 0 at perfect legato. Pairs closer than ``min_ioi`` are
    skipped. Timestamps are at the second note's onset.
    """
    times, values = [], []
    for a, b in zip(stream, stream[1:]):
        ioi = b.onset - a.onset
        if ioi < min_ioi:
            continue
        times.append(b.onset)
        values.append((a.offset - b.onset) / ioi)
    return FeatureSeries(times, values)


class _VelocityTracker:
    """Velocity of the note sounding at t, with a hold after it ends.

    Queries must come in non-decreasing time order. The latest-onset note
    still sounding wins; once nothing sounds, the most recently ended
    note's velocity holds for ``DYNAMICS_HOLD`` seconds, after which the
    stream is silent (None).
    """

    def __init__(self, stream: Sequence[Note], hold: float = DYNAMICS_HOLD):
        self._notes = sorted(stream, key=lambda n: n.onset)
        self._hold = hold
        self._next = 0
        self._sounding: list[tuple[float, float, int]] = []  # (-onset, offset, velocity)
        self._last_ended: Optional[tuple[float, float, int]] = None  # (offset, onset, velocity)

    def velocity_at(self, t: float) -> Optional[int]:
        while self._next < len(self._notes) and self._notes[self._next].onset <= t:
            n = self._notes[self._next]
            heapq.heappush(self._sounding, (-n.onset, n.offset, n.velocity))
            self._next += 1
        while self._sounding and self._sounding[0][1] <= t:
            neg_onset, offset, velocity = heapq.heappop(self._sounding)
            ended = (offset, -neg_onset, velocity)
            if self._last_ended is None or ended > self._last_ended:
                self._last_ended = ended
        if self._sounding:
            return self._sounding[0][2]
        if self._last_ended is not None and t - self._last_ended[0] <= self._hold:
            return self._last_ended[2]
        return None


def dynamics_series(
    melody: Sequence[Note], bass: Sequence[Note], grid: GridConfig = GridConfig()
) -> FeatureSeries:
    """Log loudness ratio R(t) = ln(vel_melody(t) / vel_bass(t)) on the grid.

    Velocity stands in for loudness; any affine velocity-to-loudness
    calibration shifts R by a constant and washes out under correlation.
    Grid points where either stream is silent beyond its hold horizon are
    dropped.
    """
    if not melody or not bass:
        return FeatureSeries([], [])
    end = max(n.offset for n in list(melody) + list(bass))
    mel = _VelocityTracker(melody)
    bas = _VelocityTracker(bass)
    times, values = [], []
    for t in grid_times(0.0, end, grid.step).tolist():
        vm = mel.velocity_at(t)
        vb = bas.velocity_at(t)
        if vm is not None and vb is not None:
            times.append(t)
            values.append(math.log(vm / vb))
    return FeatureSeries(times, values)


def ratio_kor_series(
    melody_kor: FeatureSeries, bass_kor: FeatureSeries, grid: GridConfig = GridConfig()
) -> FeatureSeries:
    """Melody KOR divided by bass KOR on their shared grid.

    Values above 1 mean the melody is played more legato than the bass.
    The grid spans the two series' shared extent; samples where the bass
    KOR is within ``RATIO_KOR_GUARD`` of zero are dropped.
    """
    extent = shared_extent(melody_kor, bass_kor)
    if extent is None:
        return FeatureSeries([], [])
    mel = np.array(resample_to_grid(melody_kor, *extent, grid.step))
    bas = np.array(resample_to_grid(bass_kor, *extent, grid.step))
    keep = np.abs(bas) >= RATIO_KOR_GUARD
    return FeatureSeries(grid_times(*extent, grid.step)[keep], mel[keep] / bas[keep])


def compute_musical_metrics(
    ref: Performance,
    est: Performance,
    chord_epsilon: float = CHORD_EPSILON,
    grid: GridConfig = GridConfig(),
    window: WindowConfig = WindowConfig(),
    spiral: SpiralParams = DEFAULT_PARAMS,
) -> MusicalMetrics:
    """All eight correlations between a ground truth and an estimate.

    Every feature series is built independently on each side, then the two
    sides are held onto a common grid over the intersection of their time
    extents and Pearson-correlated; fewer than ``grid.min_samples`` shared
    points or a constant series make that metric undefined (None).
    """
    ref_melody, ref_bass, ref_accomp = split_streams(ref, chord_epsilon)
    est_melody, est_bass, est_accomp = split_streams(est, chord_epsilon)

    ref_melody_kor = kor_series(ref_melody)
    ref_bass_kor = kor_series(ref_bass)
    est_melody_kor = kor_series(est_melody)
    est_bass_kor = kor_series(est_bass)

    def corr(a: FeatureSeries, b: FeatureSeries) -> Optional[float]:
        return correlate_series(a, b, grid)

    return MusicalMetrics(
        melody_ioi=corr(ioi_series(ref_melody, chord_epsilon), ioi_series(est_melody, chord_epsilon)),
        accompaniment_ioi=corr(
            ioi_series(ref_accomp, chord_epsilon), ioi_series(est_accomp, chord_epsilon)
        ),
        melody_kor=corr(ref_melody_kor, est_melody_kor),
        bass_kor=corr(ref_bass_kor, est_bass_kor),
        ratio_kor=corr(
            ratio_kor_series(ref_melody_kor, ref_bass_kor, grid),
            ratio_kor_series(est_melody_kor, est_bass_kor, grid),
        ),
        cloud_diameter=corr(
            cloud_diameter_series(ref, window, spiral), cloud_diameter_series(est, window, spiral)
        ),
        cloud_momentum=corr(
            cloud_momentum(ref, window, spiral), cloud_momentum(est, window, spiral)
        ),
        dynamics=corr(
            dynamics_series(ref_melody, ref_bass, grid), dynamics_series(est_melody, est_bass, grid)
        ),
    )
