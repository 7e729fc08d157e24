"""Splitting a performance into melody, bass and accompaniment streams.

Notes are first grouped into onset clusters (near-simultaneous onsets that
function as one chord), then a skyline rule picks the melody note from each
cluster and its mirror picks the bass note. Everything else is
accompaniment. Offsets are never truncated: articulation metrics downstream
need the raw overlap between consecutive notes.
"""

from __future__ import annotations

from .midi import Note, Performance

__all__ = [
    "CHORD_EPSILON",
    "cluster_onsets",
    "split_streams",
]

CHORD_EPSILON = 0.030  # seconds; onsets this close to the cluster anchor merge


def cluster_onsets(perf: Performance, eps: float = CHORD_EPSILON) -> list[list[Note]]:
    """Group notes into onset clusters by a greedy left-to-right sweep.

    Walking the notes in onset order, a note joins the current cluster iff
    its onset is within ``eps`` of the cluster's *first* onset (the anchor);
    otherwise it starts a new cluster. Anchoring at the first onset keeps a
    slow arpeggio from chaining into one giant cluster.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    clusters: list[list[Note]] = []
    anchor = None
    for note in perf.notes:
        if anchor is not None and note.onset - anchor <= eps:
            clusters[-1].append(note)
        else:
            clusters.append([note])
            anchor = note.onset
    return clusters


def _top_and_bottom(cluster: list[Note]) -> tuple[Note, Note]:
    # highest and lowest pitch; ties broken by longer duration, then first in sort order
    top = bottom = cluster[0]
    for note in cluster[1:]:
        if note.pitch > top.pitch or (note.pitch == top.pitch and note.duration > top.duration):
            top = note
        if note.pitch < bottom.pitch or (
            note.pitch == bottom.pitch and note.duration > bottom.duration
        ):
            bottom = note
    return top, bottom


def split_streams(
    perf: Performance, chord_epsilon: float = CHORD_EPSILON
) -> tuple[list[Note], list[Note], list[Note]]:
    """(melody, bass, accompaniment) in one clustering pass.

    The melody is the highest-pitch note of every onset cluster and the
    bass the lowest; the accompaniment is every note but the melody notes
    (bass notes included), in original order. Notes keep their offsets and velocities as played,
    and melody and bass onsets are strictly increasing (one note per
    cluster).
    """
    melody, bass, rest = [], [], []
    for cluster in cluster_onsets(perf, chord_epsilon):
        top, bottom = _top_and_bottom(cluster)
        melody.append(top)
        bass.append(bottom)
        rest.extend(n for n in cluster if n is not top)
    return melody, bass, rest
