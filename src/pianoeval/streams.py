"""Splitting a performance into melody, bass and accompaniment streams.

Notes are first grouped into onset clusters (near-simultaneous onsets that
function as one chord), then a skyline rule picks the melody note from each
cluster and its mirror picks the bass note. Everything else is
accompaniment. Offsets are never truncated: articulation metrics downstream
need the raw overlap between consecutive notes.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .midi import Performance
from .series import TIME_SLACK

__all__ = [
    "cluster_onsets",
    "split_streams",
]


def cluster_onsets(perf: Performance, eps: float = RunConfig.chord_epsilon) -> np.ndarray:
    """Index of the first note of every onset cluster, from a greedy sweep
    over the rows in their given order.

    Row 0 starts the first cluster and its onset is the anchor. A later row
    joins the current cluster iff its onset is at most ``eps`` +
    ``TIME_SLACK`` past the anchor (an earlier onset always joins);
    otherwise it starts a new cluster and becomes the anchor. Anchoring at
    the first onset keeps a slow arpeggio from chaining into one giant
    cluster. A cluster runs from its first row up to the next cluster's
    first row. ``eps`` must be non-negative (``inf`` makes one cluster); NaN
    raises ValueError.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    onsets, limit = perf.onsets, eps + TIME_SLACK
    # row 0, if any, and every row more than limit past all earlier onsets start a cluster
    # whatever the anchor; a run up to the next such row with no onset over limit past its
    # first is one cluster
    starts = np.flatnonzero(np.r_[len(onsets) > 0, onsets[1:] - np.maximum.accumulate(onsets)[:-1] > limit])
    wide = np.flatnonzero(np.maximum.reduceat(onsets, starts) - onsets[starts] > limit)
    if not len(wide):
        return starts
    ends = np.append(starts[1:], len(onsets))
    inner = []
    for first, end in zip(starts[wide].tolist(), ends[wide].tolist()):
        run = onsets[first:end].tolist()
        anchor = run[0]
        for index, onset in enumerate(run, first):
            if onset - anchor > limit:
                inner.append(index)
                anchor = onset
    return np.sort(np.append(starts, np.array(inner, dtype=np.int64)))


def split_streams(
    perf: Performance, chord_epsilon: float = RunConfig.chord_epsilon
) -> tuple[Performance, Performance, Performance]:
    """(melody, bass, accompaniment) in one clustering pass.

    The melody is the highest-pitch note of every onset cluster and the
    bass the lowest, ties going to the longer note, then to the first in
    note order; the accompaniment is every note but the melody notes (bass
    notes included), in original order. Notes keep their offsets and
    velocities as played; on rows in onset order, melody and bass onsets
    are strictly increasing (one note per cluster).
    """
    firsts = cluster_onsets(perf, chord_epsilon)
    rows = np.arange(len(perf))
    cluster = np.repeat(np.arange(len(firsts)), np.diff(firsts, append=len(perf)))
    duration = perf.offsets - perf.onsets
    picks = []
    for extreme in (np.maximum, np.minimum):
        pitched = perf.pitches == extreme.reduceat(perf.pitches, firsts)[cluster]
        held = np.where(pitched, duration, -np.inf)
        longest = held == np.maximum.reduceat(held, firsts)[cluster]
        picks.append(np.minimum.reduceat(np.where(longest, rows, len(perf)), firsts))
    top, bottom = picks
    return perf.take(top), perf.take(bottom), perf.take(np.delete(rows, top))
