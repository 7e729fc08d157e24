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

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .config import RunConfig, checked_duration
from .midi import Performance, expand_in_passes
from .series import TIME_SLACK, FeatureSeries, common_grid, correlate_series, grid_positions
from .series import hold_indices, resample_to_grid
from .streams import split_streams
from .tension import cloud_diameter_series, cloud_momentum

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

# ln(m / b) per velocity pair; math.log, not np.log: the two differ in the last ulp for some ratios
_LOG_RATIO = np.array([[math.log(m / b) if m and b else 0.0 for b in range(128)] for m in range(128)])
_LOG_RATIO.flags.writeable = False


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


def ioi_series(stream: Performance, chord_eps: float = RunConfig.chord_epsilon) -> FeatureSeries:
    """Inter-onset intervals of consecutive notes in one stream.

    The sample for the pair (i, i+1) is onset(i+1) - onset(i), timestamped
    at onset(i+1); intervals more than ``TIME_SLACK`` below ``chord_eps``
    count as chords and are clamped to 0. When several pairs land on one
    timestamp (chord tones), the last pair's value — the chord's 0 — wins,
    keeping times strictly increasing.
    """
    onsets = stream.onsets
    ioi = np.diff(onsets)
    # unique over the reversed timestamps finds each timestamp's last pair
    times, last = np.unique(onsets[:0:-1], return_index=True)
    return FeatureSeries(times, np.where(ioi < chord_eps - TIME_SLACK, 0.0, ioi)[::-1][last])


def kor_series(stream: Performance) -> FeatureSeries:
    """Key-overlap ratio of a monophonic stream.

    KOR_i = (offset(i) - onset(i+1)) / (onset(i+1) - onset(i)): positive
    when the notes overlap (legato), negative when a gap separates them
    (staccato), 0 at perfect legato. Pairs more than ``TIME_SLACK`` closer
    than ``MIN_IOI`` are skipped. Timestamps are at the second note's onset.
    """
    onsets, offsets = stream.onsets, stream.offsets
    ioi = np.diff(onsets)
    keep = np.flatnonzero(ioi >= MIN_IOI - TIME_SLACK)
    return FeatureSeries(onsets[keep + 1], (offsets[keep] - onsets[keep + 1]) / ioi[keep])


def _lexsort_ties(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """``np.lexsort(keys)`` (last key primary) for keys without NaN: a stable
    argsort on the primary key, then a lexsort over only the rows it ties,
    which orders each tied run in the positions the run already holds."""
    order = np.argsort(keys[-1], kind="stable")
    primary = keys[-1][order]
    same = primary[1:] == primary[:-1]
    if same.any():
        tied = np.append(same, False)
        tied[1:] |= same
        rows = order[tied]
        order[tied] = rows[np.lexsort(tuple(key[rows] for key in keys))]
    return order


def _velocity_on_grid(stream: Performance, n: int, step: float) -> np.ndarray:
    """Velocity of the stream at each of the ``n`` grid points k*step, with a hold after it ends.

    The latest-onset sounding note wins (then the earlier offset, then the
    lower velocity). Once nothing sounds, the last note to end (then the
    later onset, then the higher velocity) holds for ``DYNAMICS_HOLD``
    seconds, after which the stream is silent (0). ``grid_positions`` places
    every time on the grid, which must reach the stream's last offset.
    """
    onsets, offsets, velocities = stream.onsets, stream.offsets, stream.velocities
    # notes paint their [onset, offset) grid spans in this order; the last to paint a point wins
    order = _lexsort_ties((-velocities, -offsets, onsets))
    lo, hi = (grid_positions(t[order], 0.0, step, "left") for t in (onsets, offsets))
    # a note is hidden from where the next one starts if that one lasts as long (a later rank wins)
    hi[:-1] = np.where(hi[1:] >= hi[:-1], np.minimum(hi[:-1], lo[1:]), hi[:-1])
    painter = np.full(n, -1)
    for rank, point in expand_in_passes(lo, hi):  # a maximum ignores the passes' order
        np.maximum.at(painter, point, rank)
    ended = _lexsort_ties((velocities, onsets, offsets))  # orders the offsets too, so each point holds the last
    last = hold_indices(offsets[ended], 0.0, step, n)
    horizon = grid_positions(offsets[ended] + DYNAMICS_HOLD, 0.0, step, "right")  # the points each end holds
    held = (last >= 0) & (np.arange(n) < horizon[last])
    silent = np.where(held, velocities[ended[last]], 0)
    return np.where(painter >= 0, velocities[order[painter]], silent)


def dynamics_series(melody: Performance, bass: Performance, config: RunConfig = RunConfig()) -> FeatureSeries:
    """Log loudness ratio R(t) = ln(vel_melody(t) / vel_bass(t)) on the grid.

    Velocity stands in for loudness; any affine velocity-to-loudness
    calibration shifts R by a constant and washes out under correlation.
    Grid points where either stream is silent beyond its hold horizon are
    dropped.
    """
    if not len(melody) or not len(bass):
        return FeatureSeries([], [])
    n = int(grid_positions(max(melody.end_time, bass.end_time), 0.0, config.grid_step, "right"))
    mel, bas = (_velocity_on_grid(stream, n, config.grid_step) for stream in (melody, bass))
    keep = (mel > 0) & (bas > 0)
    return FeatureSeries(np.flatnonzero(keep) * config.grid_step, _LOG_RATIO[mel[keep], bas[keep]])


def ratio_kor_series(
    melody_kor: FeatureSeries, bass_kor: FeatureSeries, config: RunConfig = RunConfig()
) -> FeatureSeries:
    """Melody KOR divided by bass KOR on their shared grid.

    Values above 1 mean the melody is played more legato than the bass.
    The grid is their ``common_grid``; samples where the bass
    KOR is within ``RATIO_KOR_GUARD`` of zero are dropped.
    """
    t0, n = common_grid(melody_kor, bass_kor, config.grid_step)
    mel = resample_to_grid(melody_kor, t0, config.grid_step, n)
    bas = resample_to_grid(bass_kor, t0, config.grid_step, n)
    keep = np.abs(bas) >= RATIO_KOR_GUARD
    return FeatureSeries(t0 + np.flatnonzero(keep) * config.grid_step, mel[keep] / bas[keep])


def compute_musical_metrics(
    ref: Performance, est: Performance, config: RunConfig = RunConfig()
) -> MusicalMetrics:
    """All eight correlations between a ground truth and an estimate.

    Every feature series is built independently on each side, then the two
    sides are held onto a common grid over the intersection of their time
    extents and Pearson-correlated; fewer than ``config.min_samples`` shared
    points or a constant series make that metric undefined (None).

    Each side must end within ``MAX_DURATION`` and keep its rows in onset order (as parsed input
    does); a side that does not raises ValueError naming the side (and the row).
    """
    for side, perf in (("ref", ref), ("est", est)):
        checked_duration(perf, side)
        early = np.flatnonzero(perf.onsets[1:] < perf.onsets[:-1]) + 1
        if early.size:
            row = int(early[0])
            raise ValueError(f"{side} row {row}: onset {perf.onsets[row]:g} s is before the previous row's")

    # nested, not hoisted: it must see the globals perfbench's test_wrapped_away_function_reads_missing swaps in
    def features(perf: Performance) -> dict[str, FeatureSeries]:
        """One side's eight series, keyed by ``MusicalMetrics`` field."""
        melody, bass, accompaniment = split_streams(perf, config.chord_epsilon)
        melody_kor, bass_kor = kor_series(melody), kor_series(bass)
        return {
            "melody_ioi": ioi_series(melody, config.chord_epsilon),
            "accompaniment_ioi": ioi_series(accompaniment, config.chord_epsilon),
            "melody_kor": melody_kor,
            "bass_kor": bass_kor,
            "ratio_kor": ratio_kor_series(melody_kor, bass_kor, config),
            "cloud_diameter": cloud_diameter_series(perf, config),
            "cloud_momentum": cloud_momentum(perf, config),
            "dynamics": dynamics_series(melody, bass, config),
        }

    a, b = features(ref), features(est)
    return MusicalMetrics(**{name: correlate_series(a[name], b[name], config) for name in METRIC_NAMES})
