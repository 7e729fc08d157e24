"""One boundary rule on tick lattices: a time within ``TIME_SLACK`` of a grid
point, frame start, window edge or time tolerance is at it.

Every case is built in MIDI ticks at a constant tempo, so each boundary is
exact in integers; ``midi._tick_seconds`` turns the ticks into the float
times a parsed file would hold. The float time of a tick and a float grid
point or window edge of the same instant can differ in the last ulp, and
each property checks the side of the boundary that the integers give. The
``@example`` cases are lattices on which the exact compares fell on the
wrong side.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pianoeval.config import MAX_DURATION, MIN_STEP, RunConfig
from pianoeval.ir_metrics import build_piano_roll
from pianoeval.midi import Performance, _tick_seconds
from pianoeval.musical import DYNAMICS_HOLD, dynamics_series, ioi_series
from pianoeval.series import grid_positions
from pianoeval.streams import cluster_onsets
from pianoeval.tension import cloud_diameter_series

_TPQ = st.sampled_from([96, 384, 480, 960, 1000])
_USPQ = st.integers(250_000, 1_500_000)  # 40 to 240 bpm


def _seconds(ticks, tpq, uspq):
    return _tick_seconds(np.array(ticks, dtype=np.int64), [(0, uspq)], tpq).tolist()


def _step(ticks, tpq, uspq):
    """``ticks``, raised to the fewest ticks that span ``MIN_STEP``."""
    return max(ticks, math.ceil(MIN_STEP * tpq * 1_000_000 / uspq))


def _notes(onsets, offsets, velocities):
    n = len(onsets)
    return Performance(np.array(onsets), np.array(offsets), np.full(n, 60), np.array(velocities))


def _windows_holding(onset, offset, hop, length):
    """Indices of the windows [i*hop, i*hop + length) that a note overlaps, in ticks."""
    return [i for i in range(offset // hop + 1) if i * hop < offset and i * hop + length > onset]


@st.composite
def _window_lattices(draw):
    """(tpq, uspq, hop, window length, window index, duration), in ticks."""
    tpq, uspq = draw(_TPQ), draw(_USPQ)
    hop = _step(draw(st.integers(1, 400)), tpq, uspq)
    length = hop * draw(st.integers(1, 8)) + draw(st.integers(0, hop - 1))
    return tpq, uspq, hop, length, draw(st.integers(0, 60)), draw(st.integers(1, 2000))


def _diameter_times(onset, offset, tpq, uspq, hop, length):
    """The sample times of ``cloud_diameter_series`` over a note and a second
    note one window after it, so that the first note's windows are not the
    last ones, and the times that the integers give."""
    after = offset + length + hop
    on, off, on_after, off_after, hop_s, length_s = _seconds([onset, offset, after, after + 1, hop, length], tpq, uspq)
    perf = _notes([on, on_after], [off, off_after], [80, 80])
    times = cloud_diameter_series(perf, RunConfig(hop=hop_s, window_length=length_s)).times.tolist()
    windows = _windows_holding(onset, offset, hop, length) + _windows_holding(after, after + 1, hop, length)
    return times, [i * hop_s for i in windows], hop_s


@settings(max_examples=200, deadline=None)
@given(_window_lattices())
@example((480, 500_000, 96, 288, 12, 96))  # 0.1 s hop, 0.3 s window, onset 1.5 s
def test_a_note_is_absent_from_the_window_that_ends_at_its_onset(case):
    tpq, uspq, hop, length, index, duration = case
    onset = index * hop + length
    times, expected, hop_s = _diameter_times(onset, onset + duration, tpq, uspq, hop, length)
    assert index * hop_s not in times
    assert times == expected


@settings(max_examples=200, deadline=None)
@given(_window_lattices())
@example((480, 500_000, 288, 576, 2, 96))  # 0.3 s hop, 0.6 s window, offset 0.9 s
def test_a_note_is_absent_from_the_window_that_starts_at_its_offset(case):
    tpq, uspq, hop, length, index, duration = case
    later = index + 1  # the window that starts at the offset, after window 0
    offset = later * hop
    times, expected, hop_s = _diameter_times(max(offset - duration, 0), offset, tpq, uspq, hop, length)
    assert later * hop_s not in times
    assert times == expected


# tempos at which DYNAMICS_HOLD is a whole number of ticks at every tpq above
_HOLD_USPQ = st.sampled_from([250_000, 320_000, 400_000, 500_000, 640_000, 800_000, 1_000_000])


@settings(max_examples=200, deadline=None)
@given(_TPQ, _HOLD_USPQ, st.integers(1, 400), st.integers(0, 20_000), st.integers(1, 5_000), st.integers(0, 3))
@example(480, 500_000, 96, 2400, 96, 0)  # 0.1 s grid, offset 2.6 s, point 4.6000000000000005
def test_a_grid_point_dynamics_hold_after_the_last_offset_still_holds(tpq, uspq, step, onset, duration, tail):
    step = _step(step, tpq, uspq)
    hold = DYNAMICS_HOLD * tpq * 1_000_000 / uspq
    assert hold.is_integer()
    hold = int(hold)
    offset = onset + duration
    offset += -(offset + hold) % step  # a grid point falls exactly DYNAMICS_HOLD after the offset
    bass_end = offset + hold + step * (1 + tail)
    on, off, end, step_s = _seconds([onset, offset, bass_end, step], tpq, uspq)
    melody, bass = _notes([on], [off], [80]), _notes([0.0], [end], [40])
    series = dynamics_series(melody, bass, RunConfig(grid_step=step_s))
    last = (offset + hold) // step
    assert last * step_s in series.times.tolist()
    first = -(-onset // step)
    assert series.times.tolist() == [k * step_s for k in range(first, last + 1)]


@settings(max_examples=200, deadline=None)
@given(_TPQ, _USPQ, st.integers(1, 400), st.integers(0, 2_000_000))
@example(1000, 500_000, 60, 2000)  # 30 ms apart at 1 s: split into two clusters
@example(1000, 500_000, 60, 4000)  # 30 ms apart at 2 s: clamped to 0
def test_onsets_chord_epsilon_apart_share_a_cluster_and_keep_their_interval(tpq, uspq, eps, onset):
    first, second, eps_s = _seconds([onset, onset + eps, eps], tpq, uspq)
    chord = _notes([first, second], [second + 1.0] * 2, [80, 80])
    assert cluster_onsets(chord, eps_s).tolist() == [0]
    assert ioi_series(chord, eps_s).values.tolist() == [second - first]


@settings(max_examples=300, deadline=None)
@given(_TPQ, _USPQ, st.integers(1, 400), st.integers(0, 10_000_000), st.integers(-2_000, 200_000), st.booleans())
@example(480, 500_000, 96, 1440, 0, True)  # an end an ulp below the start
def test_grid_positions_on_lattice_ends_count_the_nominal_points(tpq, uspq, step, start, span, ulp_below):
    step = _step(step, tpq, uspq)
    t0, t1, step_s = _seconds([start, start + span, step], tpq, uspq)
    if ulp_below:
        span, t1 = 0, math.nextafter(t0, -math.inf)
    assert grid_positions(t1, t0, step_s, "right") == max(span // step + 1, 0)


# tempos in whole bpm at which a quarter note is a whole number of microseconds
_BPM = st.sampled_from([bpm for bpm in range(40, 241) if 60_000_000 % bpm == 0])
_FRAME_LENGTHS = st.sampled_from([MIN_STEP, 0.005, 0.01, 0.025, 0.1, 1 / 3])


@settings(max_examples=300, deadline=None)
@given(_TPQ, _BPM, _FRAME_LENGTHS, st.integers(0, 10**6), st.integers(1, 50))
@example(480, 120, 0.01, 23, 1)  # onset 1.15 s (tick 1104): floor(onset / h) is frame 114
@example(1000, 120, 0.01, 29, 1)  # onset 0.29 s (tick 580): floor(onset / h) is frame 28
@example(1000, 120, 0.01, 6, 1)  # offset 0.07 s (tick 140): ceil(offset / h) is frame 8
@example(480, 120, 0.1, 3, 1)  # onset 0.3 s (tick 288): floor(onset / h) is frame 2
def test_a_note_from_frame_k_start_to_frame_m_start_has_first_k_and_stop_m(tpq, bpm, frame_length, j, frames):
    nominal = Fraction(frame_length).limit_denominator(1000)  # the decimal or third the float stands for
    per_frame = nominal / Fraction(60, bpm * tpq)  # ticks per frame
    whole = per_frame.denominator  # frame k starts on a whole tick when whole divides k
    k = j % (int(MAX_DURATION / 2 / (whole * nominal)) + 1) * whole  # onsets up to half of MAX_DURATION
    m = k + frames * whole
    onset, offset = _seconds([int(k * per_frame), int(m * per_frame)], tpq, 60_000_000 // bpm)
    roll = build_piano_roll(_notes([onset], [offset], [80]), frame_length)
    assert (roll.firsts.tolist(), roll.stops.tolist()) == ([k], [m])
