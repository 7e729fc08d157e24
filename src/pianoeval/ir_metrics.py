"""Frame-level and note-level precision/recall/F1.

Frame metrics compare binary piano rolls cell by cell at 10 ms resolution.
Note metrics match reference and estimated notes one-to-one under pitch,
onset, offset and velocity tolerances, using a maximum-cardinality
bipartite matching so no valid pairing is left on the table.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .midi import Note, Performance

__all__ = [
    "PRF",
    "PianoRoll",
    "NoteMatching",
    "MATCH_MODES",
    "build_piano_roll",
    "frame_metrics",
    "match_notes",
    "note_metrics",
]

FRAME_LENGTH = 0.010  # seconds
ONSET_TOLERANCE = 0.050  # seconds
OFFSET_TOLERANCE = 0.050  # seconds, lower bound of the offset window
OFFSET_RATIO = 0.2  # fraction of reference duration for the offset window
VELOCITY_TOLERANCE = 0.1  # in normalized velocity units

MATCH_MODES = ("onset", "onset_offset", "onset_offset_velocity")

N_PITCHES = 128


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        for name in ("precision", "recall", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(precision, recall, f1)


@dataclass(frozen=True)
class PianoRoll:
    """Binary pitch x frame activity matrix."""

    active: np.ndarray  # bool, shape (128, T)
    frame_length: float = FRAME_LENGTH

    def __post_init__(self):
        if self.active.ndim != 2 or self.active.shape[0] != N_PITCHES:
            raise ValueError(f"roll must have shape (128, T), got {self.active.shape}")
        if self.active.dtype != np.bool_:
            raise ValueError("roll entries must be boolean")
        if self.frame_length <= 0:
            raise ValueError("frame_length must be positive")

    @property
    def n_frames(self) -> int:
        return self.active.shape[1]


def build_piano_roll(perf: Performance, frame_length: float = FRAME_LENGTH) -> PianoRoll:
    """Rasterize a performance to frames of ``frame_length`` seconds.

    A note occupies frames floor(onset/h) through
    max(floor(onset/h), ceil(offset/h) - 1), so every note covers at least
    one frame; same-pitch overlaps simply OR together.
    """
    if frame_length <= 0:
        raise ValueError("frame_length must be positive")
    n_frames = int(math.ceil(perf.end_time / frame_length))
    roll = np.zeros((N_PITCHES, n_frames), dtype=np.bool_)
    for note in perf.notes:
        first = int(math.floor(note.onset / frame_length))
        last = max(first, int(math.ceil(note.offset / frame_length)) - 1)
        roll[note.pitch, first : min(last, n_frames - 1) + 1] = True
    return PianoRoll(roll, frame_length)


def frame_metrics(ref: PianoRoll, est: PianoRoll) -> PRF:
    """Cellwise precision/recall/F1; frames past the shorter roll are inactive."""
    if ref.frame_length != est.frame_length:
        raise ValueError(
            f"frame_length mismatch: {ref.frame_length} vs {est.frame_length}"
        )
    t = min(ref.n_frames, est.n_frames)
    tp = int(np.count_nonzero(ref.active[:, :t] & est.active[:, :t]))
    fp = int(np.count_nonzero(est.active)) - tp
    fn = int(np.count_nonzero(ref.active)) - tp
    return PRF.from_counts(tp, fp, fn)


@dataclass(frozen=True)
class NoteMatching:
    """One-to-one pairing of reference and estimate note indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_ref: tuple[int, ...] = field(default=())
    unmatched_est: tuple[int, ...] = field(default=())


def offset_window(ref_note: Note) -> float:
    return max(OFFSET_TOLERANCE, OFFSET_RATIO * ref_note.duration)


def _candidate_edges(
    ref: Sequence[Note], est: Sequence[Note], mode: str
) -> list[list[int]]:
    """Adjacency ref index -> est indices passing the onset/offset rules."""
    by_pitch: dict[int, list[tuple[float, int]]] = {}
    for j, note in enumerate(est):
        by_pitch.setdefault(note.pitch, []).append((note.onset, j))
    for entries in by_pitch.values():
        entries.sort()

    adjacency: list[list[int]] = [[] for _ in ref]
    check_offset = mode in ("onset_offset", "onset_offset_velocity")
    for i, r in enumerate(ref):
        entries = by_pitch.get(r.pitch)
        if not entries:
            continue
        onsets = [t for t, _ in entries]
        lo = bisect_left(onsets, r.onset - ONSET_TOLERANCE - 1e-9)
        hi = bisect_right(onsets, r.onset + ONSET_TOLERANCE + 1e-9)
        window = offset_window(r)
        for onset, j in entries[lo:hi]:
            if abs(onset - r.onset) > ONSET_TOLERANCE:
                continue
            if check_offset and abs(est[j].offset - r.offset) > window:
                continue
            adjacency[i].append(j)
    return adjacency


def _scaled_ref_velocities(ref: Sequence[Note]) -> list[float]:
    # min-max scale to [0, 1]; a degenerate range maps everything to 0
    velocities = [n.velocity for n in ref]
    lo, hi = min(velocities), max(velocities)
    if hi == lo:
        return [0.0] * len(ref)
    return [(v - lo) / (hi - lo) for v in velocities]


def _filter_velocity(
    ref: Sequence[Note], est: Sequence[Note], adjacency: list[list[int]]
) -> list[list[int]]:
    """Keep edges whose velocity agrees after a global affine alignment.

    MIDI velocity scales are arbitrary per transcriber, so the estimate's
    velocities are mapped onto the min-max-scaled reference velocities by
    the single least-squares affine transform fitted over all candidate
    pairs, fitted once; an edge survives iff its residual is within the
    tolerance.
    """
    edges = [(i, j) for i, row in enumerate(adjacency) for j in row]
    if not edges:
        return [[] for _ in ref]
    scaled = _scaled_ref_velocities(ref)
    a = np.array([[est[j].velocity, 1.0] for _, j in edges])
    b = np.array([scaled[i] for i, _ in edges])
    (slope, intercept), *_ = np.linalg.lstsq(a, b, rcond=None)
    filtered: list[list[int]] = [[] for _ in ref]
    for i, j in edges:
        if abs(slope * est[j].velocity + intercept - scaled[i]) <= VELOCITY_TOLERANCE:
            filtered[i].append(j)
    return filtered


def _max_matching(adjacency: list[list[int]], n_right: int) -> np.ndarray:
    """Maximum bipartite matching (Hopcroft–Karp); the matched right index
    of each left vertex, -1 when it is unmatched."""
    indices = [j for row in adjacency for j in row]
    indptr = np.cumsum([0] + [len(row) for row in adjacency])
    graph = csr_array((np.ones(len(indices)), indices, indptr), (len(adjacency), n_right))
    return maximum_bipartite_matching(graph, perm_type="column")


def match_notes(ref: Sequence[Note], est: Sequence[Note], mode: str) -> NoteMatching:
    """Maximum-cardinality one-to-one matching under the mode's tolerances.

    A pair is a candidate iff pitches are equal and onsets differ by at
    most 50 ms; the offset modes additionally require the offset error
    within max(50 ms, 20% of the reference duration); the velocity mode
    further requires the affine-aligned velocity residual within 0.1.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MATCH_MODES}")
    adjacency = _candidate_edges(ref, est, mode)
    if mode == "onset_offset_velocity":
        adjacency = _filter_velocity(ref, est, adjacency)
    match_left = _max_matching(adjacency, len(est)).tolist()
    matched_est = set(match_left)
    return NoteMatching(
        tuple((i, j) for i, j in enumerate(match_left) if j != -1),
        tuple(i for i, j in enumerate(match_left) if j == -1),
        tuple(j for j in range(len(est)) if j not in matched_est),
    )


def note_metrics(ref: Sequence[Note], est: Sequence[Note], mode: str) -> PRF:
    """Note-level precision/recall/F1; empty-vs-empty scores 0 by convention."""
    matching = match_notes(ref, est, mode)
    n = len(matching.pairs)
    precision = n / len(est) if est else 0.0
    recall = n / len(ref) if ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return PRF(precision, recall, f1)
