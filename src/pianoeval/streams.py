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

__all__ = [
    "cluster_onsets",
    "split_streams",
]


def cluster_onsets(perf: Performance, eps: float = RunConfig.chord_epsilon) -> np.ndarray:
    """Index of the first note of every onset cluster, from a greedy
    left-to-right sweep.

    Walking the notes in onset order, a note joins the current cluster iff
    its onset is within ``eps`` of the cluster's *first* onset (the anchor);
    otherwise it starts a new cluster. Anchoring at the first onset keeps a
    slow arpeggio from chaining into one giant cluster. A cluster runs from
    its first note up to the next cluster's first note.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    firsts = []
    anchor = None
    for index, onset in enumerate(perf.onsets.tolist()):
        if anchor is None or onset - anchor > eps:
            firsts.append(index)
            anchor = onset
    return np.array(firsts, dtype=np.int64)


def split_streams(
    perf: Performance, chord_epsilon: float = RunConfig.chord_epsilon
) -> tuple[Performance, Performance, Performance]:
    """(melody, bass, accompaniment) in one clustering pass.

    The melody is the highest-pitch note of every onset cluster and the
    bass the lowest, ties going to the longer note, then to the first in
    note order; the accompaniment is every note but the melody notes (bass
    notes included), in original order. Notes keep their offsets and
    velocities as played, and melody and bass onsets are strictly
    increasing (one note per cluster).
    """
    firsts = cluster_onsets(perf, chord_epsilon)
    cluster = np.repeat(np.arange(len(firsts)), np.diff(firsts, append=len(perf)))
    duration = perf.offsets - perf.onsets
    # lexsort is stable and cluster c keeps positions firsts[c]..., so each
    # cluster's pick lands on its first position
    top = np.lexsort((-duration, -perf.pitches, cluster))[firsts]
    bottom = np.lexsort((-duration, perf.pitches, cluster))[firsts]
    return perf.take(top), perf.take(bottom), perf.take(np.delete(np.arange(len(perf)), top))
