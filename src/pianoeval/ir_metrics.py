"""Frame-level and note-level precision/recall/F1.

Frame metrics count the cells of 10 ms piano rolls from each note's frame
interval, without building the rolls.
Note metrics match reference and estimated notes one-to-one under pitch,
onset, offset and velocity tolerances, using a maximum-cardinality
bipartite matching so no valid pairing is left on the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .config import RunConfig
from .midi import Performance, expand_in_passes
from .series import grid_positions

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

ONSET_TOLERANCE = 0.050  # seconds
OFFSET_TOLERANCE = 0.050  # seconds, lower bound of the offset window
OFFSET_RATIO = 0.2  # fraction of reference duration for the offset window
VELOCITY_TOLERANCE = 0.1  # in normalized velocity units

MATCH_MODES = ("onset", "onset_offset", "onset_offset_velocity")

N_PITCHES = 128
FRAME_BITS = 40  # a frame index's share of a sweep key; a roll holds at most 2**40 frames
MAX_NOTE_PAIRS = 1 << 21  # same-pitch note pairs near in onset a pair may search; each kept one ~64 B at peak


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


@dataclass(frozen=True, eq=False)
class PianoRoll:
    """A binary pitch x frame roll held as one frame interval [first, stop) per note."""

    pitches: np.ndarray  # int64, one entry per note
    firsts: np.ndarray  # int64, the onset's frame: grid_positions(onset, 0, frame_length, "right") - 1
    stops: np.ndarray  # int64, max(first + 1, grid_positions(offset, 0, frame_length, "left"))
    n_frames: int  # the largest stop: a roll ends at its last note's last frame
    frame_length: float = RunConfig.frame_length

    @cached_property
    def active(self) -> np.ndarray:
        """The bool (128, n_frames) roll, built on first access; same-pitch overlaps OR together."""
        roll = np.zeros((N_PITCHES, self.n_frames), dtype=np.bool_)
        # one slice per note (faster than a fancy-indexed fill on long notes)
        for pitch, first, stop in zip(self.pitches.tolist(), self.firsts.tolist(), self.stops.tolist()):
            roll[pitch, first:stop] = True
        return roll


def build_piano_roll(perf: Performance, frame_length: float = RunConfig.frame_length) -> PianoRoll:
    """Each note's frames at ``frame_length`` seconds, with no duration-sized array.

    A note occupies frames [first, max(first + 1, stop)) and the roll ends at the largest
    stop, where ``series.grid_positions`` puts a note's onset in frame first and its offset
    before frame stop, a time within ``TIME_SLACK`` of a frame start being at it.
    """
    if not 0 < frame_length < math.inf:
        raise ValueError("frame_length must be positive and finite")
    if perf.end_time / frame_length > 1 << FRAME_BITS:
        raise ValueError(f"{perf.end_time:g} s is more than 2**{FRAME_BITS} frames of {frame_length:g} s")
    firsts = grid_positions(perf.onsets, 0.0, frame_length, "right") - 1
    stops = np.maximum(firsts + 1, grid_positions(perf.offsets, 0.0, frame_length, "left"))
    return PianoRoll(perf.pitches, firsts, stops, int(stops.max(initial=0)), frame_length)


def frame_metrics(ref: PianoRoll, est: PianoRoll) -> PRF:
    """Cellwise precision/recall/F1, counted from the note intervals in one sorted sweep.

    Every start (+1) and stop (-1) is a key ``pitch << FRAME_BITS | frame``;
    between two consecutive sorted keys a side covers the stretch when its
    running sum is positive. Frames past a roll's ``n_frames`` are inactive.
    """
    if ref.frame_length != est.frame_length:
        raise ValueError(f"frame_length mismatch: {ref.frame_length} vs {est.frame_length}")
    n, m = len(ref.pitches), len(est.pitches)
    keys = np.concatenate([r.pitches << FRAME_BITS | f for r in (ref, est) for f in (r.firsts, r.stops)])
    order = np.argsort(keys)  # ties bound only zero-length stretches, so their order is free
    lengths = np.diff(keys[order])
    on_ref = np.cumsum(np.repeat([1, -1, 0, 0], [n, n, m, m])[order])[:-1] > 0
    on_est = np.cumsum(np.repeat([0, 0, 1, -1], [n, n, m, m])[order])[:-1] > 0
    tp = int(lengths[on_ref & on_est].sum())
    fp = int(lengths[on_est].sum()) - tp
    fn = int(lengths[on_ref].sum()) - tp
    return PRF.from_counts(tp, fp, fn)


@dataclass(frozen=True, eq=False)
class NoteMatching:
    """One-to-one pairing of reference and estimate note indices: ``pairs``
    is an int64 array of shape (n, 2), one (ref, est) row per match, in
    reference order."""

    pairs: np.ndarray


def offset_window(ref_duration):
    """Offset tolerance for a reference note of this duration (scalar or array):
    max(50 ms, 20 % of the duration)."""
    return np.maximum(OFFSET_TOLERANCE, OFFSET_RATIO * ref_duration)


def _candidate_edges(ref: Performance, est: Performance, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (i, j) of ref and est note indices passing the
    mode's onset/offset rules.

    Pairs come ordered by i, then by the est note's (onset, index); over
    ``MAX_NOTE_PAIRS`` of them to search raise ValueError before any is built.
    """
    ref_onsets, ref_offsets = ref.onsets, ref.offsets
    est_onsets, est_offsets = est.onsets, est.offsets
    # lexsort's (pitch, onset, row) order in two stable passes, several times faster: numpy
    # radix-sorts a uint8 key, and the pitches (0-127) cast to it exactly
    order = np.argsort(est_onsets, kind="stable")
    order = order[np.argsort(est.pitches[order].astype(np.uint8), kind="stable")]
    # the searches run fastest on sorted bounds: (pitch, onset) order when the rows come in onset order
    by_pitch = np.argsort(ref.pitches.astype(np.uint8), kind="stable")
    # complex numbers sort and search by (real, imag): here (pitch, onset), each part an exact float64
    keys, bounds = est.pitches[order].astype(np.complex128), ref.pitches[by_pitch].astype(np.complex128)
    keys.imag = est_onsets[order]
    slack = ONSET_TOLERANCE + 1e-6  # wider than the rounding, so no edge is cut here
    lo, hi = np.empty(len(ref), np.intp), np.empty(len(ref), np.intp)
    bounds.imag = ref_onsets[by_pitch] - slack
    lo[by_pitch] = np.searchsorted(keys, bounds, "left")
    bounds.imag = ref_onsets[by_pitch] + slack
    hi[by_pitch] = np.searchsorted(keys, bounds, "right")
    if (searched := int((hi - lo).sum())) > MAX_NOTE_PAIRS:
        raise ValueError(f"{searched} same-pitch note pairs near in onset, more than the {MAX_NOTE_PAIRS} limit")
    kept = [(np.empty(0, np.intp),) * 2]
    for i, position in expand_in_passes(lo, hi):  # passes of whole ranges, in order
        j = order[position]
        # distances are rounded to 7 decimals (this repository's choice; mir_eval also rounds
        # before it compares), so a tick-derived time exactly on the tolerance is inside it
        keep = np.round(np.abs(est_onsets[j] - ref_onsets[i]), 7) <= ONSET_TOLERANCE
        if mode != "onset":
            window = offset_window(ref_offsets[i] - ref_onsets[i])
            keep &= np.round(np.abs(est_offsets[j] - ref_offsets[i]), 7) <= window
        kept.append((i[keep], j[keep]))
    return tuple(np.concatenate(c) for c in zip(*kept))


def _filter_velocity(
    ref_velocities: np.ndarray, est_velocities: np.ndarray, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep edges whose velocity agrees after a global affine alignment.

    MIDI velocity scales are arbitrary per transcriber, so the estimate's
    velocities are mapped onto the min-max-scaled reference velocities by
    the single least-squares affine transform fitted over all candidate
    pairs, fitted once; an edge survives iff its residual is within the
    tolerance.
    """
    if not len(i):
        return i, j
    # min-max scale to [0, 1]; a degenerate range maps everything to 0
    lo, hi = ref_velocities.min(), ref_velocities.max()
    scaled = (ref_velocities - lo) / (hi - lo) if hi > lo else np.zeros(len(ref_velocities))
    a = np.column_stack([est_velocities[j], np.ones(len(j))])
    (slope, intercept), *_ = np.linalg.lstsq(a, scaled[i], rcond=None)
    keep = np.abs(slope * est_velocities[j] + intercept - scaled[i]) <= VELOCITY_TOLERANCE
    return i[keep], j[keep]


def match_notes(ref: Performance, est: Performance, mode: str) -> NoteMatching:
    """Maximum-cardinality one-to-one matching under the mode's tolerances.

    A pair is a candidate iff pitches are equal and onsets differ by at
    most 50 ms; the offset modes additionally require the offset error
    within max(50 ms, 20% of the reference duration); the velocity mode
    further requires the affine-aligned velocity residual within 0.1.
    Distances are rounded to 7 decimals before they are compared.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MATCH_MODES}")
    i, j = _candidate_edges(ref, est, mode)
    if mode == "onset_offset_velocity":
        i, j = _filter_velocity(ref.velocities, est.velocities, i, j)
    indptr = np.searchsorted(i, np.arange(len(ref) + 1))
    graph = csr_array((np.ones(len(j)), j, indptr), (len(ref), len(est)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    matched = np.flatnonzero(match != -1)
    return NoteMatching(np.column_stack((matched, match[matched])).astype(np.int64, copy=False))


def note_metrics(ref: Performance, est: Performance, mode: str) -> PRF:
    """Note-level precision/recall/F1; empty-vs-empty scores 0 by convention."""
    n = len(match_notes(ref, est, mode).pairs)
    return PRF.from_counts(n, len(est) - n, len(ref) - n)
