"""Shared test utilities: MIDI serialization, generators and oracles.

The oracles here are written independently of the library code paths they
check: naive per-cell recounts, exhaustive matchings, closed-form
geometry. They trade speed for obviousness.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import gammaincc

from pianoeval import midi
from pianoeval.audio import AudioBuffer
from pianoeval.config import RunConfig
from pianoeval.ir_metrics import PRF
from pianoeval.midi import Note, Performance
from pianoeval.musical import MusicalMetrics
from pianoeval.stats import MetricReport
from pianoeval.tension import SpiralPoint, pitch_to_spiral

# seconds: a time this near a grid point, window edge or time tolerance is at it
# (pianoeval.series.TIME_SLACK, restated so that the oracles do not read it)
SLACK = 1e-9

# ---------------------------------------------------------------------------
# Standard MIDI File serializer (test-harness only)
# ---------------------------------------------------------------------------

_ORDER_TEMPO = 0
_ORDER_NOTE_OFF = 1
_ORDER_PEDAL = 2
_ORDER_NOTE_ON = 3


def vlq(value: int) -> bytes:
    """MIDI variable-length quantity, 7 bits per byte, big-endian."""
    if value < 0:
        raise ValueError("vlq must be non-negative")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track_bytes(events: list[tuple[int, int, bytes]]) -> bytes:
    events = sorted(events, key=lambda e: (e[0], e[1]))
    body = bytearray()
    tick = 0
    for event_tick, _, payload in events:
        body += vlq(event_tick - tick)
        body += payload
        tick = event_tick
    body += vlq(0) + b"\xff\x2f\x00"  # end of track
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def serialize_smf(
    notes_ticks: Sequence[tuple[int, int, int, int]],
    tpq: int = 480,
    tempos: Sequence[tuple[int, int]] = ((0, 500_000),),
    pedals: Sequence[tuple[int, int]] = (),
    fmt: int = 1,
    note_off_via_zero_velocity: bool = False,
    channel: int = 0,
) -> bytes:
    """Build an SMF byte string from (onset_tick, offset_tick, pitch, vel)."""
    note_events: list[tuple[int, int, bytes]] = []
    for onset, offset, pitch, velocity in notes_ticks:
        note_events.append((onset, _ORDER_NOTE_ON, bytes([0x90 | channel, pitch, velocity])))
        if note_off_via_zero_velocity:
            note_events.append((offset, _ORDER_NOTE_OFF, bytes([0x90 | channel, pitch, 0])))
        else:
            note_events.append((offset, _ORDER_NOTE_OFF, bytes([0x80 | channel, pitch, 64])))
    for tick, value in pedals:
        note_events.append((tick, _ORDER_PEDAL, bytes([0xB0 | channel, 64, value])))
    tempo_events = [
        (tick, _ORDER_TEMPO, b"\xff\x51\x03" + uspq.to_bytes(3, "big")) for tick, uspq in tempos
    ]

    header = b"MThd" + struct.pack(">IHHH", 6, fmt, 2 if fmt == 1 else 1, tpq)
    if fmt == 0:
        return header[:10] + struct.pack(">HH", 1, tpq) + _track_bytes(tempo_events + note_events)
    return header + _track_bytes(tempo_events) + _track_bytes(note_events)


def performance_to_smf(
    perf: Performance, tpq: int = 480, uspq: int = 500_000, **kwargs
) -> bytes:
    """Quantize a performance to ticks at a constant tempo and serialize."""
    scale = tpq * 1_000_000 / uspq  # ticks per second
    notes_ticks = []
    for n in perf.notes:
        onset = round(n.onset * scale)
        offset = max(onset + 1, round(n.offset * scale))
        notes_ticks.append((onset, offset, n.pitch, n.velocity))
    return serialize_smf(notes_ticks, tpq=tpq, tempos=((0, uspq),), **kwargs)


# ---------------------------------------------------------------------------
# Random performance generators
# ---------------------------------------------------------------------------

def random_performance(
    rng: np.random.Generator,
    n_notes: int,
    pitch_range: tuple[int, int] = (36, 96),
    velocity_range: tuple[int, int] = (30, 105),
    tempo_scale: float = 1.0,
    chord_probability: float = 0.25,
    min_same_pitch_gap: float = 0.15,
) -> Performance:
    """Unstructured polyphony; same-pitch notes never overlap and their
    onsets stay >= 0.15 s apart.

    The onset separation guarantees that comparing the performance with
    itself admits no cross-note candidate pairs (the onset window is
    50 ms), so self-evaluation must find the identity matching; the
    non-overlap keeps tick-quantized serialization from triggering the
    parser's same-pitch truncation rule.
    """
    lo, hi = pitch_range
    last_onset = {p: -math.inf for p in range(lo, hi + 1)}
    last_offset = {p: -math.inf for p in range(lo, hi + 1)}
    notes = []
    t = 0.0
    while len(notes) < n_notes:
        if notes and rng.random() < chord_probability:
            pass  # chord: reuse current onset
        else:
            t += float(rng.uniform(0.05, 0.35)) * tempo_scale
        allowed = [
            p
            for p in range(lo, hi + 1)
            if t - last_onset[p] >= min_same_pitch_gap and t >= last_offset[p] + 0.01
        ]
        if not allowed:
            t += min_same_pitch_gap
            continue
        pitch = int(rng.choice(allowed))
        duration = float(rng.uniform(0.05, 0.8)) * tempo_scale
        velocity = int(rng.integers(velocity_range[0], velocity_range[1] + 1))
        notes.append(Note(t, t + duration, pitch, velocity))
        last_onset[pitch] = t
        last_offset[pitch] = t + duration
    return Performance.from_notes(notes)


def expressive_performance(
    rng: np.random.Generator,
    n_events: int = 60,
    base_ioi: float = 0.28,
    with_accompaniment: bool = True,
) -> Performance:
    """Two-voice (plus optional inner voice) performance with expressive
    variation: sinusoidal tempo, velocity and articulation curves, so every
    feature series is non-constant and each correlation is defined.
    """
    notes = []
    t = 0.0
    melody_pitch = 72
    bass_pitch = 43
    for i in range(n_events):
        ioi = base_ioi + 0.1 * math.sin(i / 3.0) + float(rng.uniform(-0.02, 0.02))
        articulation = 0.9 + 0.5 * math.sin(i / 4.0) + float(rng.uniform(-0.05, 0.05))
        mel_vel = int(round(70 + 28 * math.sin(i / 5.0) + rng.uniform(-3, 3)))
        bass_vel = int(round(58 + 12 * math.sin(i / 7.0) + rng.uniform(-2, 2)))
        melody_pitch = int(np.clip(melody_pitch + rng.integers(-3, 4), 62, 86))
        bass_pitch = int(np.clip(bass_pitch + rng.integers(-2, 3), 34, 52))
        duration = max(0.06, ioi * articulation)
        notes.append(Note(t, t + duration, melody_pitch, int(np.clip(mel_vel, 20, 105))))
        notes.append(Note(t, t + duration * 1.1, bass_pitch, int(np.clip(bass_vel, 20, 105))))
        if with_accompaniment and i % 2 == 0:
            inner = int((melody_pitch + bass_pitch) // 2)
            notes.append(Note(t, t + duration * 0.7, inner, 45))
        t += ioi
    return Performance.from_notes(notes)


def jitter_onsets(perf: Performance, sigma: float, rng: np.random.Generator) -> Performance:
    """Shift every note (onset and offset together) by N(0, sigma)."""
    if sigma == 0.0:
        return perf
    notes = []
    for n in perf.notes:
        shift = float(rng.normal(0.0, sigma))
        onset = max(0.0, n.onset + shift)
        notes.append(Note(onset, onset + n.duration, n.pitch, n.velocity))
    return Performance.from_notes(notes)


def jitter_velocities(perf: Performance, sigma: float, rng: np.random.Generator) -> Performance:
    if sigma == 0.0:
        return perf
    notes = [
        Note(n.onset, n.offset, n.pitch, int(np.clip(round(n.velocity + rng.normal(0, sigma)), 1, 127)))
        for n in perf.notes
    ]
    return Performance.from_notes(notes)


# ---------------------------------------------------------------------------
# Note-matching oracle: naive validity + exhaustive maximum matching
# ---------------------------------------------------------------------------

def _oracle_affine_fit(xs: Sequence[int], ys: Sequence[float]):
    """The least-squares line from integer ``xs`` to ``ys``, as a function;
    with one distinct x, ``np.linalg.lstsq``'s minimum-norm fit, the mean of ``ys``."""
    n = len(xs)
    det = n * sum(x * x for x in xs) - sum(xs) ** 2  # exact: the xs are ints
    if det == 0:
        return lambda x: sum(ys) / n
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / det
    intercept = (sum(ys) - slope * sum(xs)) / n
    return lambda x: slope * x + intercept


def _oracle_valid_matrix(
    ref: Sequence[Note], est: Sequence[Note], mode: str
) -> list[list[bool]]:
    # distances are rounded to 7 decimals before the compare: this repository's
    # choice of precision; mir_eval also rounds before it compares
    valid = [[False] * len(est) for _ in ref]
    for i, r in enumerate(ref):
        for j, e in enumerate(est):
            if e.pitch != r.pitch or np.round(abs(e.onset - r.onset), 7) > 0.05:
                continue
            if mode in ("onset_offset", "onset_offset_velocity"):
                if np.round(abs(e.offset - r.offset), 7) > max(0.05, 0.2 * r.duration):
                    continue
            valid[i][j] = True
    if mode == "onset_offset_velocity" and ref and est:
        velocities = [n.velocity for n in ref]
        lo, hi = min(velocities), max(velocities)
        scaled = [0.0 if hi == lo else (v - lo) / (hi - lo) for v in velocities]
        edges = [(i, j) for i in range(len(ref)) for j in range(len(est)) if valid[i][j]]
        if edges:
            predict = _oracle_affine_fit([est[j].velocity for _, j in edges], [scaled[i] for i, _ in edges])
            for i, j in edges:
                if abs(predict(est[j].velocity) - scaled[i]) > 0.1:
                    valid[i][j] = False
    return valid


def _oracle_max_matching(valid: list[list[bool]], n_est: int) -> int:
    """Exhaustive bitmask DP, decomposed over connected pitch components.

    Edges only join equal pitches, so the matching splits exactly into
    independent per-pitch subproblems, each solved over all est subsets.
    """
    if not valid or n_est == 0:
        return 0
    ref_rows = range(len(valid))
    est_cols_by_ref = [frozenset(j for j in range(n_est) if valid[i][j]) for i in ref_rows]
    # group refs by the est columns they can reach (transitively = by pitch)
    remaining = set(ref_rows)
    total = 0
    while remaining:
        seed = remaining.pop()
        group_refs = {seed}
        group_cols = set(est_cols_by_ref[seed])
        changed = True
        while changed:
            changed = False
            for i in list(remaining):
                if est_cols_by_ref[i] & group_cols:
                    group_refs.add(i)
                    group_cols |= est_cols_by_ref[i]
                    remaining.discard(i)
                    changed = True
        cols = sorted(group_cols)
        col_bit = {j: 1 << k for k, j in enumerate(cols)}
        full = (1 << len(cols)) - 1
        dp = [0] * (full + 1)
        for i in sorted(group_refs):
            new = dp[:]
            for mask in range(full + 1):
                base = dp[mask]
                for j in est_cols_by_ref[i]:
                    bit = col_bit[j]
                    if mask & bit:
                        candidate = dp[mask ^ bit] + 1
                        if candidate > new[mask]:
                            new[mask] = candidate
            dp = new
        total += dp[full]
    return total


def _oracle_one_max_matching(valid: list[list[bool]], n_est: int) -> list[tuple[int, int]]:
    """One maximum matching as (i, j) pairs, by augmenting paths (Kuhn)."""
    partner: list[Optional[int]] = [None] * n_est  # est column -> ref row

    def augment(i: int, seen: set[int]) -> bool:
        for j in range(n_est):
            if valid[i][j] and j not in seen:
                seen.add(j)
                if partner[j] is None or augment(partner[j], seen):
                    partner[j] = i
                    return True
        return False

    for i in range(len(valid)):
        augment(i, set())
    return sorted((i, j) for j, i in enumerate(partner) if i is not None)


def oracle_mir_eval_counts(ref: Sequence[Note], est: Sequence[Note], mode: str) -> int:
    """Matched-note count of mir_eval's ``transcription.match_notes`` (Raffel
    et al., "mir_eval: A Transparent Implementation of Common MIR Metrics",
    ISMIR 2014) with its default tolerances: ``offset_ratio=None`` for
    ``"onset"``, 0.2 for ``"onset_offset"``.

    As published: the |ref - est| onset distance matrix, rounded; the pitch
    distance matrix in cents between the notes' frequencies, within 50; for
    ``"onset_offset"`` the rounded offset distance matrix, within
    max(0.2 x reference duration, 0.05); every compare ``<=``
    (``strict=False``); then one maximum matching of the hit matrix. The
    rounding keeps 7 decimals, this repository's precision: mir_eval's own
    ``N_DECIMALS`` is not checked here.
    """
    if not ref or not est:
        return 0
    (ref_on, ref_off, ref_hz), (est_on, est_off, est_hz) = (
        (np.array([n.onset for n in side]), np.array([n.offset for n in side]),
         440.0 * 2.0 ** ((np.array([n.pitch for n in side]) - 69) / 12))
        for side in (ref, est)
    )
    hit = np.around(np.abs(np.subtract.outer(ref_on, est_on)), 7) <= 0.05
    hit &= np.abs(1200 * np.subtract.outer(np.log2(ref_hz), np.log2(est_hz))) <= 50.0
    if mode == "onset_offset":
        offset_distances = np.around(np.abs(np.subtract.outer(ref_off, est_off)), 7)
        hit &= offset_distances <= np.maximum(0.2 * (ref_off - ref_on), 0.05)[:, None]
    return len(_oracle_one_max_matching(hit.tolist(), len(est)))


def oracle_mir_eval_velocity_count(ref: Sequence[Note], est: Sequence[Note]) -> int:
    """Matched-note count of mir_eval's ``transcription_velocity.match_notes``
    (Raffel et al., "mir_eval: A Transparent Implementation of Common MIR
    Metrics", ISMIR 2014; the procedure of Hawthorne et al., "Enabling
    Factorized Piano Music Modeling and Generation with the MAESTRO Dataset",
    ICLR 2019), with its default tolerances.

    As published: take the ``onset_offset`` matching; scale the reference
    velocities by (v - min) / max(1, max - min); fit slope and intercept by
    least squares from the matched estimate velocities to the scaled matched
    reference velocities; keep the matched pairs whose residual is < 0.1,
    and match no second time. Which maximum matching mir_eval picks can
    change the count, so this agrees with it only where the ``onset_offset``
    maximum matching is unique.
    """
    pairs = _oracle_one_max_matching(_oracle_valid_matrix(ref, est, "onset_offset"), len(est))
    if not pairs:
        return 0
    lo = min(n.velocity for n in ref)
    spread = max(1, max(n.velocity for n in ref) - lo)
    xs = [est[j].velocity for _, j in pairs]
    ys = [(ref[i].velocity - lo) / spread for i, _ in pairs]
    predict = _oracle_affine_fit(xs, ys)
    return sum(abs(predict(x) - y) < 0.1 for x, y in zip(xs, ys))


def oracle_note_prf(ref: Sequence[Note], est: Sequence[Note], mode: str):
    valid = _oracle_valid_matrix(ref, est, mode)
    n = _oracle_max_matching(valid, len(est))
    precision = n / len(est) if est else 0.0
    recall = n / len(ref) if ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Per-note loop oracles for the array passes: candidate edges, the tension
# window sweep and the dynamics velocity tracker
# ---------------------------------------------------------------------------

def oracle_candidate_edges(ref: Sequence[Note], est: Sequence[Note], mode: str) -> list[tuple[int, int]]:
    """(i, j) pairs passing the onset/offset rules, ordered by i, then by
    the est note's (onset, index); one bisect per reference note."""
    by_pitch: dict[int, list[tuple[float, int]]] = {}
    for j, note in enumerate(est):
        by_pitch.setdefault(note.pitch, []).append((note.onset, j))
    for entries in by_pitch.values():
        entries.sort()
    edges = []
    for i, r in enumerate(ref):
        entries = by_pitch.get(r.pitch, [])
        onsets = [t for t, _ in entries]
        lo = bisect_left(onsets, r.onset - 0.05 - 1e-6)
        hi = bisect_right(onsets, r.onset + 0.05 + 1e-6)
        for onset, j in entries[lo:hi]:
            if np.round(abs(onset - r.onset), 7) > 0.05:
                continue
            if mode != "onset" and np.round(abs(est[j].offset - r.offset), 7) > max(0.05, 0.2 * r.duration):
                continue
            edges.append((i, j))
    return edges


def _oracle_windows(perf: Performance, config: RunConfig):
    """Yield (index, start, notes) for every window overlapping the data,
    sweeping the notes once with a min-heap on offset."""
    end_time = max((n.offset for n in perf.notes), default=0.0)
    if end_time <= 0:
        return
    notes = perf.notes
    pointer = 0
    active: list[tuple[float, int]] = []  # (offset, note index)
    index = 0
    while index * config.hop < end_time - SLACK:
        start = index * config.hop
        end = start + config.window_length
        while pointer < len(notes) and notes[pointer].onset + SLACK < end:
            heapq.heappush(active, (notes[pointer].offset, pointer))
            pointer += 1
        while active and active[0][0] - SLACK <= start:
            heapq.heappop(active)
        yield index, start, [notes[i] for _, i in active]
        index += 1


def oracle_window_starts(end_time: float, hop: float) -> np.ndarray:
    """Window starts i*hop before end_time - SLACK, for i up to ceil(end_time / hop)."""
    starts = np.arange(math.ceil(max(end_time, 0.0) / hop) + 1) * hop
    return starts[starts < end_time - SLACK]


def _oracle_center(notes: Sequence[Note], start: float, end: float, config: RunConfig):
    weights = [0.0] * 12
    for note in notes:
        overlap = min(note.offset, end) - max(note.onset, start)
        if overlap > 0:
            weights[note.pitch % 12] += overlap
    total = sum(weights)
    if total <= 0:
        return None
    x = y = z = 0.0
    for pc, w in enumerate(weights):
        if w > 0:
            p = pitch_to_spiral(pc, config)
            x, y, z = x + w * p.x, y + w * p.y, z + w * p.z
    return SpiralPoint(x / total, y / total, z / total)


def oracle_tension_series(perf: Performance, config: RunConfig = RunConfig()):
    """((times, values) of cloud diameter, (times, values) of cloud momentum),
    window by window."""
    diameter: tuple[list, list] = ([], [])
    momentum: tuple[list, list] = ([], [])
    previous_index = previous_ce = None
    for index, start, notes in _oracle_windows(perf, config):
        points = [pitch_to_spiral(pc, config) for pc in sorted({n.pitch % 12 for n in notes})]
        if points:
            diameter[0].append(start)
            diameter[1].append(max((a.distance(b) for a in points for b in points), default=0.0))
        ce = _oracle_center(notes, start, start + config.window_length, config)
        if ce is not None and previous_ce is not None and index == previous_index + 1:
            momentum[0].append(start)
            momentum[1].append(ce.distance(previous_ce))
        previous_index, previous_ce = index, ce
    return diameter, momentum


def oracle_diameters(present: np.ndarray, config: RunConfig = RunConfig()) -> np.ndarray:
    """Cloud diameter of each row of a W x 12 pitch-class presence mask: each
    distinct mask's largest helix distance over its W x 144 pairs of points."""
    points = np.array([(p.x, p.y, p.z) for p in (pitch_to_spiral(pc, config) for pc in range(12))])
    table = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
    _, first, inverse = np.unique(present @ (1 << np.arange(12)), return_index=True, return_inverse=True)
    pairs = present[first, :, None] & present[first, None, :]
    return np.where(pairs, table, 0.0).max(axis=(1, 2), initial=0.0)[inverse]


def oracle_ioi_series(stream: Sequence[Note], chord_eps: float = 0.030):
    """(times, values) of inter-onset intervals, pair by pair; a later pair
    on the same timestamp overwrites an earlier one."""
    samples: dict[float, float] = {}
    for a, b in zip(stream, stream[1:]):
        ioi = b.onset - a.onset
        samples[b.onset] = 0.0 if ioi < chord_eps - SLACK else ioi
    times = sorted(samples)
    return times, [samples[t] for t in times]


def oracle_kor_series(stream: Sequence[Note], min_ioi: float = 0.001):
    """(times, values) of key-overlap ratios, pair by pair."""
    times, values = [], []
    for a, b in zip(stream, stream[1:]):
        ioi = b.onset - a.onset
        if ioi >= min_ioi - SLACK:
            times.append(b.onset)
            values.append((a.offset - b.onset) / ioi)
    return times, values


class OracleVelocityTracker:
    """Velocity of the note sounding at t, with a hold after it ends.

    Queries must come in non-decreasing time order. The latest-onset note
    still sounding wins; once nothing sounds, the most recently ended
    note's velocity holds for ``hold`` seconds, after which the stream is
    silent (None). An onset, offset or hold end at most SLACK after t is at t.
    """

    def __init__(self, stream: Sequence[Note], hold: float = 2.0):
        self._notes = sorted(stream, key=lambda n: n.onset)
        self._hold = hold
        self._next = 0
        self._sounding: list[tuple[float, float, int]] = []  # (-onset, offset, velocity)
        self._last_ended = None  # (offset, onset, velocity)

    def velocity_at(self, t: float):
        while self._next < len(self._notes) and self._notes[self._next].onset - SLACK <= t:
            n = self._notes[self._next]
            heapq.heappush(self._sounding, (-n.onset, n.offset, n.velocity))
            self._next += 1
        while self._sounding and self._sounding[0][1] - SLACK <= t:
            neg_onset, offset, velocity = heapq.heappop(self._sounding)
            ended = (offset, -neg_onset, velocity)
            if self._last_ended is None or ended > self._last_ended:
                self._last_ended = ended
        if self._sounding:
            return self._sounding[0][2]
        if self._last_ended is not None and t - self._last_ended[0] <= self._hold + SLACK:
            return self._last_ended[2]
        return None


def oracle_dynamics_series(melody: Sequence[Note], bass: Sequence[Note], step: float = 0.1):
    """(times, values) of ln(vel_melody / vel_bass) on the grid 0, step, ...
    up to the last offset (plus SLACK), one tracker query per grid point."""
    if not melody or not bass:
        return [], []
    end = max(n.offset for n in list(melody) + list(bass))
    mel, bas = OracleVelocityTracker(melody), OracleVelocityTracker(bass)
    times, values = [], []
    for k in range(int(math.floor((end + SLACK) / step)) + 1):
        t = k * step
        vm, vb = mel.velocity_at(t), bas.velocity_at(t)
        if vm is not None and vb is not None:
            times.append(t)
            values.append(math.log(vm / vb))
    return times, values


# ---------------------------------------------------------------------------
# Per-note loop oracles for the column passes: the tempo map and per-tick
# conversion, sustain pedal, stream split and piano-roll fill
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PedalEvent:
    """One CC64 controller change, in seconds."""

    time: float
    value: int


@dataclass
class TempoMap:
    """Piecewise-constant tempo as (tick, microseconds-per-quarter) events.

    Events are normalised on construction: sorted by tick, duplicates at the
    same tick collapsed to the last one, and a default 500000 us/quarter
    entry inserted at tick 0 when absent.
    """

    events: list[tuple[int, int]]
    ticks_per_quarter: int

    def __post_init__(self):
        if self.ticks_per_quarter <= 0:
            raise ValueError("ticks_per_quarter must be positive")
        merged: dict[int, int] = {}
        for tick, uspq in sorted(self.events, key=lambda e: e[0]):
            if tick < 0 or uspq <= 0:
                raise ValueError(f"invalid tempo event ({tick}, {uspq})")
            merged[tick] = uspq
        if 0 not in merged:
            merged[0] = midi.DEFAULT_TEMPO
        self.events = sorted(merged.items())
        # prefix sums in exact integer tick*uspq units, one float division later
        ticks = [t for t, _ in self.events]
        cum = [0]
        for i in range(1, len(self.events)):
            dticks = ticks[i] - ticks[i - 1]
            cum.append(cum[-1] + dticks * self.events[i - 1][1])
        self._ticks = ticks
        self._cum_microticks = cum


def ticks_to_seconds(tick: int, tempo_map: TempoMap) -> float:
    """Convert an absolute tick to seconds through the tempo map.

    Accumulates exact integer tick * tempo products per segment and divides
    once at the end, so repeated conversions never drift.
    """
    if tick < 0:
        raise ValueError("tick must be non-negative")
    i = bisect_right(tempo_map._ticks, tick) - 1
    micro = tempo_map._cum_microticks[i] + (tick - tempo_map._ticks[i]) * tempo_map.events[i][1]
    return micro / (tempo_map.ticks_per_quarter * 1_000_000)


def _oracle_sorted(notes) -> list[Note]:
    return sorted(notes, key=lambda n: (n.onset, n.pitch, n.offset))


def oracle_apply_sustain_pedal(notes: Sequence[Note], end_time: float, pedals, threshold: int = 64):
    """(notes, end_time) after the pedal, one note at a time; ``notes``
    must be in (onset, pitch, offset) order."""
    if not notes or not pedals:
        return list(notes), end_time
    spans = []
    down_since = None
    for event in pedals:
        if event.value >= threshold:
            if down_since is None:
                down_since = event.time
        elif down_since is not None:
            spans.append((down_since, event.time))
            down_since = None
    if down_since is not None:
        spans.append((down_since, float("inf")))
    if not spans:
        return list(notes), end_time
    span_starts = [s for s, _ in spans]
    data_end = max(end_time, pedals[-1].time)
    next_same_pitch = {}
    last_seen: dict[int, int] = {}
    for index, note in enumerate(notes):
        if note.pitch in last_seen:
            next_same_pitch[last_seen[note.pitch]] = note.onset
        last_seen[note.pitch] = index
    new_notes = []
    for index, note in enumerate(notes):
        i = bisect_right(span_starts, note.offset) - 1
        if i >= 0 and note.offset < spans[i][1]:
            release = spans[i][1]
            if release == float("inf"):
                release = data_end
            extended = min(release, next_same_pitch.get(index, float("inf")))
            if extended > note.offset:
                note = Note(note.onset, extended, note.pitch, note.velocity)
        new_notes.append(note)
    return _oracle_sorted(new_notes), max(n.offset for n in new_notes)


def oracle_parse_track(
    data: bytes,
    pos: int,
    notes: list[tuple[int, int, int, int]],
    tempos: list[tuple[int, int]],
    pedals: list[tuple[int, int]],
) -> int:
    """A plain track reader, the reference for ``midi._parse_track``: closed
    notes as (onset tick, offset tick, pitch, velocity) tuples into ``notes``,
    set-tempo events into ``tempos``, CC64 events into ``pedals``; returns the
    chunk's end."""
    if data[pos : pos + 4] != b"MTrk":
        raise midi.MidiParseError("expected MTrk chunk", pos)
    if pos + 8 > len(data):
        raise midi.MidiParseError("truncated track chunk header", pos)
    (length,) = struct.unpack_from(">I", data, pos + 4)
    start = pos + 8
    end = start + length
    if end > len(data):
        raise midi.MidiParseError("track length mismatch: chunk extends past end of data", pos + 4)

    p = start
    tick = 0
    running: Optional[int] = None
    active: dict[tuple[int, int], tuple[int, int]] = {}  # (channel, pitch) -> (onset_tick, vel)

    def close(key: tuple[int, int], off_tick: int) -> None:
        onset_tick, velocity = active.pop(key)
        notes.append((onset_tick, off_tick, key[1], velocity))

    while p < end:
        delta, p = midi._read_varint(data, p, end)
        tick += delta
        event_start = p
        if p >= end:
            raise midi.MidiParseError("event truncated at track end", p)
        first = data[p]
        if first & 0x80:
            status = first
            p += 1
            # sysex and meta events cancel running status
            running = status if status < 0xF0 else None
        else:
            if running is None:
                raise midi.MidiParseError("dangling running status", p)
            status = running

        if status == 0xFF:
            if p >= end:
                raise midi.MidiParseError("truncated meta event", p)
            meta_type = data[p]
            p += 1
            meta_len, p = midi._read_varint(data, p, end)
            if p + meta_len > end:
                raise midi.MidiParseError("meta event overruns track", p)
            payload = data[p : p + meta_len]
            p += meta_len
            if meta_type == 0x51:
                if meta_len != 3:
                    raise midi.MidiParseError(f"set-tempo event with length {meta_len}", p)
                uspq = int.from_bytes(payload, "big")
                if uspq == 0:
                    raise midi.MidiParseError("set-tempo event with zero tempo", event_start)
                tempos.append((tick, uspq))
            elif meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            skip, p = midi._read_varint(data, p, end)
            if p + skip > end:
                raise midi.MidiParseError("sysex event overruns track", p)
            p += skip
        else:
            kind = status & 0xF0
            channel = status & 0x0F
            n_data = 1 if kind in (0xC0, 0xD0) else 2
            if p + n_data > end:
                raise midi.MidiParseError("channel event truncated", p)
            d1 = data[p]
            d2 = data[p + 1] if n_data == 2 else 0
            if d1 & 0x80 or d2 & 0x80:
                raise midi.MidiParseError(f"invalid data byte for status 0x{status:02X}", p)
            p += n_data
            if kind == 0x90 and d2 > 0:
                key = (channel, d1)
                if key in active:  # same-pitch overlap: close the earlier note here
                    close(key, tick)
                active[key] = (tick, d2)
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                key = (channel, d1)
                if key in active:
                    close(key, tick)
            elif kind == 0xB0 and d1 == midi.SUSTAIN_CONTROLLER:
                pedals.append((tick, d2))

    for key in sorted(active):  # unterminated notes close at track end
        close(key, tick)
    return end


def oracle_parse_midi(data: bytes, pedal_mode: str = "extend"):
    """(notes, end_time) of an SMF: :func:`oracle_parse_track` on each MTrk
    chunk, any other chunk skipped by its length, then one Note per raw
    (onset tick, offset tick, pitch, velocity) tuple."""
    _, ntrks, tpq, pos = midi._parse_header(data)
    raw_notes, tempo_events, raw_pedals = [], [], []
    tracks = 0
    while tracks < ntrks:
        chunk_type, length = data[pos : pos + 4], int.from_bytes(data[pos + 4 : pos + 8], "big")
        if chunk_type == b"MTrk" or len(data) - pos < 8:
            pos = oracle_parse_track(data, pos, raw_notes, tempo_events, raw_pedals)
            tracks += 1
        elif len(data) - pos - 8 < length:
            raise midi.MidiParseError("alien chunk extends past end of data", pos + 4)
        else:
            pos += 8 + length
    tempo_map = TempoMap(tempo_events, tpq)
    notes = []
    for onset_tick, offset_tick, pitch, velocity in raw_notes:
        onset = ticks_to_seconds(onset_tick, tempo_map)
        offset = ticks_to_seconds(offset_tick, tempo_map)
        if offset <= onset:
            offset = onset + midi.MIN_NOTE_DURATION
        notes.append(Note(onset, offset, pitch, velocity))
    notes = _oracle_sorted(notes)
    end_time = max((n.offset for n in notes), default=0.0)
    if pedal_mode == "extend" and raw_pedals:
        raw_pedals.sort(key=lambda e: e[0])
        pedals = [PedalEvent(ticks_to_seconds(t, tempo_map), v) for t, v in raw_pedals]
        return oracle_apply_sustain_pedal(notes, end_time, pedals)
    return notes, end_time


def oracle_split_streams(notes: Sequence[Note], eps: float = 0.030):
    """(clusters, melody, bass, accompaniment) as lists of notes, from the
    greedy anchored sweep and a per-cluster top/bottom scan."""
    clusters: list[list[Note]] = []
    anchor = None
    for note in notes:
        if anchor is not None and note.onset - anchor <= eps + SLACK:
            clusters[-1].append(note)
        else:
            clusters.append([note])
            anchor = note.onset
    melody, bass, rest = [], [], []
    for cluster in clusters:
        # highest and lowest pitch; ties broken by longer duration, then first in order
        top = bottom = cluster[0]
        for note in cluster[1:]:
            if note.pitch > top.pitch or (note.pitch == top.pitch and note.duration > top.duration):
                top = note
            if note.pitch < bottom.pitch or (note.pitch == bottom.pitch and note.duration > bottom.duration):
                bottom = note
        melody.append(top)
        bass.append(bottom)
        rest.extend(n for n in cluster if n is not top)
    return clusters, melody, bass, rest


def oracle_cluster_onsets(perf: Performance, eps: float = 0.030) -> np.ndarray:
    """The first row of every cluster, from the anchored sweep one row at a time."""
    firsts = []
    anchor = None
    for index, onset in enumerate(perf.onsets.tolist()):
        if anchor is None or onset - anchor > eps + SLACK:
            firsts.append(index)
            anchor = onset
    return np.array(firsts, dtype=np.int64)


def oracle_split_columns(perf: Performance, eps: float = 0.030) -> tuple[Performance, Performance, Performance]:
    """(melody, bass, accompaniment) from :func:`oracle_cluster_onsets` and two
    full (cluster, pitch, duration) lexsorts over the columns."""
    firsts = oracle_cluster_onsets(perf, eps)
    cluster = np.repeat(np.arange(len(firsts)), np.diff(firsts, append=len(perf)))
    duration = perf.offsets - perf.onsets
    # lexsort is stable and cluster c keeps positions firsts[c]..., so each
    # cluster's pick lands on its first position
    top = np.lexsort((-duration, -perf.pitches, cluster))[firsts]
    bottom = np.lexsort((-duration, perf.pitches, cluster))[firsts]
    return perf.take(top), perf.take(bottom), perf.take(np.delete(np.arange(len(perf)), top))


def oracle_piano_roll(perf: Performance, frame_length: float = 0.010) -> np.ndarray:
    """The (128, T) roll filled one note at a time: a note starts in the frame
    that holds onset + SLACK and stops before the frame that starts at or
    after offset - SLACK (keeping at least its first frame), so a time within
    SLACK of a frame start is at it; T ends the last frame a note covers."""
    spans = []
    for note in perf.notes:
        first = int(math.floor((note.onset + SLACK) / frame_length))
        last = max(first, int(math.ceil((note.offset - SLACK) / frame_length)) - 1)
        spans.append((note.pitch, first, last))
    roll = np.zeros((128, max((last + 1 for _, _, last in spans), default=0)), dtype=np.bool_)
    for pitch, first, last in spans:
        roll[pitch, first : last + 1] = True
    return roll


# ---------------------------------------------------------------------------
# Previous-value-hold oracle: one bisect per grid point
# ---------------------------------------------------------------------------

def oracle_hold_indices(times: Sequence[float], t0: float, step: float, n: int) -> list[int]:
    """For each grid point t0 + k*step (0 <= k < n), the index of the last of the
    non-decreasing ``times`` whose time - SLACK is at or before it, or -1."""
    shifted = [t - SLACK for t in times]
    return [bisect_right(shifted, t0 + k * step) - 1 for k in range(n)]


def oracle_hold(times: Sequence[float], values: Sequence[float], t0: float, t1: float, step: float):
    """Grid t0 + k*step up to t1 + SLACK, each point holding the value of the
    latest sample at or before it, a sample at most SLACK after the point
    counting as at it (time - SLACK <= point); None before the first sample."""
    count = int(math.floor((t1 - t0 + SLACK) / step)) + 1
    return [values[i] if i >= 0 else None for i in oracle_hold_indices(times, t0, step, max(count, 0))]


# ---------------------------------------------------------------------------
# Whole-report oracle: the stage oracles above composed as the library
# composes its stages, with a plain-Python Pearson
# ---------------------------------------------------------------------------

# a value series whose max - min is at most this is constant
# (pianoeval.series.CONSTANT_SPREAD, restated so that the oracles do not read it)
SPREAD = 1e-9


def oracle_pearson(a: Sequence[float], b: Sequence[float]):
    """Sample Pearson correlation from exactly rounded sums, clamped to [-1, 1];
    None when either side's max - min is at most SPREAD."""
    if max(a) - min(a) <= SPREAD or max(b) - min(b) <= SPREAD:
        return None
    mean_a, mean_b = math.fsum(a) / len(a), math.fsum(b) / len(b)
    da, db = [x - mean_a for x in a], [y - mean_b for y in b]
    sab = math.fsum(x * y for x, y in zip(da, db))
    r = sab / math.sqrt(math.fsum(x * x for x in da) * math.fsum(y * y for y in db))
    return min(1.0, max(-1.0, r))


def oracle_numpy_pearson(a: Sequence[float], b: Sequence[float]):
    """``series.pearson``'s earlier formula, unscaled: numpy dot products of the centred
    sides, clamped to [-1, 1]; None when either side's max - min is at most SPREAD."""
    x, y = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if np.ptp(x) <= SPREAD or np.ptp(y) <= SPREAD:
        return None
    dx, dy = x - x.mean(), y - y.mean()
    r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    return min(1.0, max(-1.0, r))


def oracle_correlate(a, b, config: RunConfig):
    """Correlation of two (times, values) series held by ``oracle_hold`` from the later
    first time to the earlier last time; None when either is empty, the grid has fewer
    than ``config.min_samples`` points or either side is constant."""
    (times_a, values_a), (times_b, values_b) = a, b
    if not times_a or not times_b:
        return None
    t0, t1 = max(times_a[0], times_b[0]), min(times_a[-1], times_b[-1])
    held_a = oracle_hold(times_a, values_a, t0, t1, config.grid_step)
    if len(held_a) < config.min_samples:
        return None
    return oracle_pearson(held_a, oracle_hold(times_b, values_b, t0, t1, config.grid_step))


def oracle_ratio_kor_series(melody_kor, bass_kor, step: float):
    """(times, values) of melody KOR over bass KOR, both (times, values) series held by
    ``oracle_hold`` onto their shared grid, dropping points where |bass KOR| < 1e-6."""
    (times_m, values_m), (times_b, values_b) = melody_kor, bass_kor
    if not times_m or not times_b:
        return [], []
    t0, t1 = max(times_m[0], times_b[0]), min(times_m[-1], times_b[-1])
    held = zip(oracle_hold(times_m, values_m, t0, t1, step), oracle_hold(times_b, values_b, t0, t1, step))
    kept = [(t0 + k * step, m / b) for k, (m, b) in enumerate(held) if abs(b) >= 1e-6]
    return [t for t, _ in kept], [v for _, v in kept]


def _oracle_features(perf: Performance, config: RunConfig) -> dict:
    """One side's eight (times, values) series, keyed by ``MusicalMetrics`` field."""
    _, melody, bass, accompaniment = oracle_split_streams(perf.notes, config.chord_epsilon)
    melody_kor, bass_kor = oracle_kor_series(melody), oracle_kor_series(bass)
    diameter, momentum = oracle_tension_series(perf, config)
    return {
        "melody_ioi": oracle_ioi_series(melody, config.chord_epsilon),
        "accompaniment_ioi": oracle_ioi_series(accompaniment, config.chord_epsilon),
        "melody_kor": melody_kor,
        "bass_kor": bass_kor,
        "ratio_kor": oracle_ratio_kor_series(melody_kor, bass_kor, config.grid_step),
        "cloud_diameter": diameter,
        "cloud_momentum": momentum,
        "dynamics": oracle_dynamics_series(melody, bass, config.grid_step),
    }


def oracle_evaluate(ref: Performance, est: Performance, config: RunConfig = RunConfig()):
    """What ``evaluate_performances`` reports, from the stage oracles alone: the frame,
    onset-offset and onset-offset-velocity (precision, recall, f1) triples, and the
    eight correlations by ``MusicalMetrics`` field, None where undefined."""
    h = config.frame_length
    prfs = [
        oracle_frame_prf(oracle_piano_roll(ref, h), oracle_piano_roll(est, h)),
        oracle_note_prf(ref.notes, est.notes, "onset_offset"),
        oracle_note_prf(ref.notes, est.notes, "onset_offset_velocity"),
    ]
    a, b = _oracle_features(ref, config), _oracle_features(est, config)
    return prfs, {name: oracle_correlate(a[name], b[name], config) for name in a}


# ---------------------------------------------------------------------------
# Frame-metric oracle: per-cell recount in pure Python
# ---------------------------------------------------------------------------

def oracle_frame_prf(ref_roll: np.ndarray, est_roll: np.ndarray):
    t = max(ref_roll.shape[1], est_roll.shape[1])
    tp = fp = fn = 0
    for p in range(128):
        for f in range(t):
            a = bool(ref_roll[p, f]) if f < ref_roll.shape[1] else False
            b = bool(est_roll[p, f]) if f < est_roll.shape[1] else False
            if a and b:
                tp += 1
            elif b:
                fp += 1
            elif a:
                fn += 1
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def oracle_note_frames(onset: float, offset: float, h: float) -> set[int]:
    """Frames floor((onset + SLACK) / h) through max(that, ceil((offset - SLACK) / h) - 1)."""
    first = math.floor((onset + SLACK) / h)
    last = max(first, math.ceil((offset - SLACK) / h) - 1)
    return set(range(first, last + 1))


# ---------------------------------------------------------------------------
# Report-layer oracle: each column and key spelled out by hand
# ---------------------------------------------------------------------------

_ORACLE_PRF_COLUMNS = [
    f"{name}_{part}"
    for name in ("frame", "note_offset", "note_offset_velocity")
    for part in ("precision", "recall", "f1")
]
_ORACLE_MUSICAL = (
    "melody_ioi", "accompaniment_ioi", "melody_kor", "bass_kor",
    "ratio_kor", "cloud_diameter", "cloud_momentum", "dynamics",
)
ORACLE_METRIC_COLUMNS = _ORACLE_PRF_COLUMNS + list(_ORACLE_MUSICAL)


def _oracle_values(report: MetricReport) -> dict:
    values = {}
    for name, prf in (
        ("frame", report.frame),
        ("note_offset", report.note_offset),
        ("note_offset_velocity", report.note_offset_velocity),
    ):
        values[f"{name}_precision"] = prf.precision
        values[f"{name}_recall"] = prf.recall
        values[f"{name}_f1"] = prf.f1
    values.update({name: getattr(report.musical, name) for name in _ORACLE_MUSICAL})
    return values


def _oracle_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _oracle_csv(header: list, rows: list) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def oracle_aggregate(reports: Sequence[MetricReport], group_by: Sequence[str]) -> list[dict]:
    """Per-group means, each column's values gathered by its own pass over
    the members."""
    grouped: dict = {}
    for r in reports:
        grouped.setdefault(tuple(r.tags[k] for k in group_by), []).append(r)
    rows = []
    for key in sorted(grouped):
        members = grouped[key]
        row: dict = dict(zip(group_by, key))
        row["count"] = len(members)
        for column in ORACLE_METRIC_COLUMNS:
            defined = [v for v in (_oracle_values(r)[column] for r in members) if v is not None]
            row[column] = sum(defined) / len(defined) if defined else None
            if column in _ORACLE_MUSICAL:
                row[f"{column}_excluded"] = len(members) - len(defined)
        rows.append(row)
    return rows


def _oracle_report_json(report: MetricReport) -> dict:
    def prf(p: PRF) -> dict:
        return {"precision": p.precision, "recall": p.recall, "f1": p.f1}

    return {
        "pair_id": report.pair_id,
        "frame": prf(report.frame),
        "note_offset": prf(report.note_offset),
        "note_offset_velocity": prf(report.note_offset_velocity),
        "musical": {name: getattr(report.musical, name) for name in _ORACLE_MUSICAL},
        "tags": dict(report.tags),
    }


def oracle_emit(payload, fmt: str) -> bytes:
    """Reports or aggregate rows as CSV or JSON, with one writer per table kind."""
    is_reports = all(isinstance(x, MetricReport) for x in payload)
    if fmt == "json":
        obj = [_oracle_report_json(r) for r in payload] if is_reports else list(payload)
        return json.dumps(obj, indent=2).encode()
    if not is_reports:
        header = list(payload[0].keys())
        return _oracle_csv(header, [[_oracle_cell(row[c]) for c in header] for row in payload]).encode()
    tag_keys = sorted({k for r in payload for k in r.tags})
    rows = [
        [r.pair_id]
        + [r.tags.get(k, "") for k in tag_keys]
        + [_oracle_cell(_oracle_values(r)[c]) for c in ORACLE_METRIC_COLUMNS]
        for r in payload
    ]
    return _oracle_csv(["pair_id", *tag_keys, *ORACLE_METRIC_COLUMNS], rows).encode()


def oracle_parse_reports_json(data: bytes) -> list[MetricReport]:
    def prf(obj: dict) -> PRF:
        return PRF(obj["precision"], obj["recall"], obj["f1"])

    return [
        MetricReport(
            pair_id=item["pair_id"],
            frame=prf(item["frame"]),
            note_offset=prf(item["note_offset"]),
            note_offset_velocity=prf(item["note_offset_velocity"]),
            musical=MusicalMetrics(**item["musical"]),
            tags=dict(item["tags"]),
        )
        for item in json.loads(data.decode())
    ]


# ---------------------------------------------------------------------------
# Kruskal-Wallis oracle: a Fraction mid-rank per value, summed one at a time
# ---------------------------------------------------------------------------

def oracle_kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, int, float]:
    """(h, df, p) of ``stats.kruskal_wallis`` from exact rational mid-ranks:
    H = 12/(n(n+1)) * sum(R_g^2 / n_g) - 3(n+1), divided by the tie correction
    1 - sum(t^3 - t)/(n^3 - n); all-identical values score (0.0, df, 1.0)."""
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    counts = Counter(pooled)
    ranks: dict[float, Fraction] = {}
    position = 0
    for value in sorted(counts):
        t = counts[value]
        ranks[value] = Fraction(2 * position + t + 1, 2)  # the mean of ranks position+1 .. position+t
        position += t
    df = len(groups) - 1
    rank_term = sum(Fraction(sum(ranks[float(v)] for v in g)) ** 2 / len(g) for g in groups)
    h = Fraction(12, n * (n + 1)) * rank_term - 3 * (n + 1)
    correction = 1 - Fraction(sum(t**3 - t for t in counts.values()), n**3 - n)
    if correction == 0:
        return 0.0, df, 1.0
    h_corrected = float(h / correction)
    return h_corrected, df, float(gammaincc(df / 2.0, h_corrected / 2.0))


# ---------------------------------------------------------------------------
# Audio helpers
# ---------------------------------------------------------------------------

def oracle_convolve_ir(audio: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    """``convolve_ir`` through ``scipy.signal.fftconvolve``: each channel
    convolved on its own (a mono IR serves every channel), then peak-matched."""
    out = np.stack(
        [
            fftconvolve(audio.samples[c], ir.samples[c % ir.channels], mode="full")
            for c in range(audio.channels)
        ]
    )
    in_peak = audio.peak()
    out_peak = float(np.max(np.abs(out))) if out.size else 0.0
    if in_peak > 0.0 and out_peak > 0.0:
        out *= in_peak / out_peak
    return AudioBuffer(audio.sample_rate, out)


def sine_audio(
    frequency: float = 440.0,
    seconds: float = 1.0,
    sample_rate: int = 44100,
    amplitude: float = 0.8,
    channels: int = 1,
) -> AudioBuffer:
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    wave = amplitude * np.sin(2 * np.pi * frequency * t)
    return AudioBuffer(sample_rate, np.tile(wave, (channels, 1)))
