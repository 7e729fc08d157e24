"""Frame-level and note-level precision/recall/F1.

Frame metrics compare binary piano rolls cell by cell at 10 ms resolution.
Note metrics match reference and estimated notes one-to-one under pitch,
onset, offset and velocity tolerances, using a maximum-cardinality
bipartite matching so no valid pairing is left on the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .config import RunConfig
from .midi import Performance, expand_ranges

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
    frame_length: float = RunConfig.frame_length

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


def build_piano_roll(perf: Performance, frame_length: float = RunConfig.frame_length) -> PianoRoll:
    """Rasterize a performance to frames of ``frame_length`` seconds.

    A note occupies frames floor(onset/h) through
    max(floor(onset/h), ceil(offset/h) - 1), so every note covers at least
    one frame; same-pitch overlaps simply OR together.
    """
    if not 0 < frame_length < math.inf:
        raise ValueError("frame_length must be positive and finite")
    n_frames = int(math.ceil(perf.end_time / frame_length))
    roll = np.zeros((N_PITCHES, n_frames), dtype=np.bool_)
    firsts = np.floor(perf.onsets / frame_length).astype(np.int64)
    stops = np.maximum(firsts + 1, np.ceil(perf.offsets / frame_length).astype(np.int64))
    # one slice per note (faster than a fancy-indexed fill on long notes), clipped at the last frame
    for pitch, first, stop in zip(perf.pitches.tolist(), firsts.tolist(), stops.tolist()):
        roll[pitch, first:stop] = True
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

    Pairs come ordered by i, then by the est note's (onset, index).
    """
    ref_onsets, ref_offsets = ref.onsets, ref.offsets
    est_onsets, est_offsets = est.onsets, est.offsets
    # complex numbers sort and search by (real, imag): here (pitch, onset), each part an exact float64
    order = np.lexsort((est_onsets, est.pitches))
    keys, bounds = est.pitches[order].astype(np.complex128), ref.pitches.astype(np.complex128)
    keys.imag = est_onsets[order]
    slack = ONSET_TOLERANCE + 1e-6  # wider than the rounding, so no edge is cut here
    bounds.imag = ref_onsets - slack
    lo = np.searchsorted(keys, bounds, "left")
    bounds.imag = ref_onsets + slack
    hi = np.searchsorted(keys, bounds, "right")
    i, position = expand_ranges(lo, hi)
    j = order[position]
    # distances are rounded to 7 decimals first, as mir_eval does, so a
    # tick-derived time exactly on the tolerance counts as inside it
    keep = np.round(np.abs(est_onsets[j] - ref_onsets[i]), 7) <= ONSET_TOLERANCE
    if mode != "onset":
        window = offset_window(ref_offsets[i] - ref_onsets[i])
        keep &= np.round(np.abs(est_offsets[j] - ref_offsets[i]), 7) <= window
    return i[keep], j[keep]


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
