import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_diameters, oracle_tension_series, oracle_window_starts, random_performance
from pianoeval import midi, tension
from pianoeval.config import MIN_STEP, RunConfig
from pianoeval.midi import Note, Performance
from pianoeval.series import TIME_SLACK
from pianoeval.tension import (
    _diameter_table,
    _diameters,
    _pc_weights,
    cloud_diameter,
    cloud_diameter_series,
    cloud_momentum,
    pitch_to_spiral,
)

H = math.sqrt(2.0 / 15.0)


def _perf(*notes):
    return Performance.from_notes([Note(*n) for n in notes])


def _note(pitch, onset=0.0, offset=1.0):
    return Note(onset, offset, pitch, 64)


def test_c_is_at_origin_angle():
    p = pitch_to_spiral(60)
    assert (p.x, p.y, p.z) == (0.0, 1.0, 0.0)


def test_g_is_quarter_turn_up():
    p = pitch_to_spiral(67)
    assert (p.x, p.y, p.z) == (1.0, 0.0, pytest.approx(H))


def test_fifth_distance_closed_form():
    d = pitch_to_spiral(60).distance(pitch_to_spiral(67))
    assert d == pytest.approx(math.sqrt(2 + 2 / 15), abs=1e-12)


def test_major_second_distance_closed_form():
    # C and D sit half a turn apart and two rises up: sqrt(4 + 4h^2)
    d = pitch_to_spiral(60).distance(pitch_to_spiral(62))
    assert d == pytest.approx(math.sqrt(4 + 8 / 15), abs=1e-12)
    assert d == pytest.approx(2.129, abs=1e-3)


def test_transposition_by_fifth_is_one_step():
    for pc in range(12):
        k = (7 * pc) % 12
        if k > 10:
            continue
        a = pitch_to_spiral(pc)
        b = pitch_to_spiral((pc + 7) % 12)
        assert b.z - a.z == pytest.approx(H)
        # one quarter turn: (x, y) -> (y, -x)
        assert (b.x, b.y) == (pytest.approx(a.y), pytest.approx(-a.x))


def test_octave_invariance():
    for pitch in (24, 36, 60, 72, 108):
        assert pitch_to_spiral(pitch) == pitch_to_spiral(pitch % 12)


def test_custom_params():
    p = pitch_to_spiral(67, RunConfig(spiral_radius=2.0, spiral_rise=0.5))
    assert (p.x, p.y, p.z) == (2.0, 0.0, 0.5)


def test_pitch_range_checked():
    with pytest.raises(ValueError):
        pitch_to_spiral(128)


# ---------------------------------------------------------------------------
# Center of effect, as cloud_momentum's step from a C-only window
# ---------------------------------------------------------------------------

_ONE_SECOND = RunConfig(window_length=1.0, hop=1.0)
_C_TO_G = pitch_to_spiral(60).distance(pitch_to_spiral(67))


def _momentum(*notes):
    return cloud_momentum(Performance.from_notes([_note(60, 0.0, 1.0), *notes]), _ONE_SECOND)


def test_ce_single_pitch_is_its_point():
    series = _momentum(_note(67, 1.0, 2.0))
    assert series.times.tolist() == [1.0]
    assert series.values.tolist() == [pytest.approx(_C_TO_G)]


def test_ce_equal_weights_is_midpoint():
    series = _momentum(_note(60, 1.0, 2.0), _note(67, 1.0, 2.0))
    assert series.values.tolist() == [pytest.approx(_C_TO_G / 2)]


def test_ce_duration_weighted():
    series = _momentum(_note(60, 1.0, 1.75), _note(67, 1.75, 2.0))
    assert series.values.tolist() == [pytest.approx(0.25 * _C_TO_G)]


def test_ce_empty_window_undefined():
    assert len(cloud_momentum(Performance.from_notes([]), _ONE_SECOND)) == 0
    # the window [1, 2) is silent, so neither neighbour pair has a step
    assert len(_momentum(_note(67, 2.0, 3.0))) == 0


# ---------------------------------------------------------------------------
# Cloud diameter
# ---------------------------------------------------------------------------

def test_diameter_octaves_collapse():
    assert cloud_diameter(Performance.from_notes([_note(60), _note(72)])) == 0.0


def test_diameter_fifth():
    assert cloud_diameter(Performance.from_notes([_note(60), _note(67)])) == pytest.approx(math.sqrt(2 + 2 / 15))


def test_diameter_c_g_d():
    notes = [_note(60), _note(67), _note(62)]
    assert cloud_diameter(Performance.from_notes(notes)) == pytest.approx(math.sqrt(4 + 8 / 15))


def test_diameter_empty_undefined():
    assert cloud_diameter(Performance.from_notes([])) is None


def test_diameter_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pitches = rng.integers(30, 90, size=int(rng.integers(1, 6)))
        notes = [_note(int(p)) for p in pitches]
        points = [pitch_to_spiral(int(p) % 12) for p in sorted({int(p) % 12 for p in pitches})]
        expected = 0.0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                expected = max(expected, points[i].distance(points[j]))
        assert cloud_diameter(Performance.from_notes(notes)) == pytest.approx(expected, abs=1e-12)


_GEOMETRIES = [
    RunConfig(), RunConfig(spiral_radius=2.5, spiral_rise=0.3), RunConfig(spiral_radius=0.7, spiral_rise=1.9),
]


@pytest.mark.parametrize("params", _GEOMETRIES)
def test_diameter_of_each_pair_is_its_point_distance_exactly(params):
    for a in range(12):
        for b in range(a + 1, 12):
            perf = Performance.from_notes([_note(60 + a), _note(60 + b)])
            expected = pitch_to_spiral(a, params).distance(pitch_to_spiral(b, params))
            assert cloud_diameter(perf, params) == expected


@pytest.mark.parametrize("params", _GEOMETRIES)
def test_diameter_table_equals_the_pairwise_oracle_on_every_mask(params):
    masks = np.arange(4096)[:, None] >> np.arange(12) & 1 == 1
    got, want = _diameters(masks, params), oracle_diameters(masks, params)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    table = _diameter_table(params.spiral_radius, params.spiral_rise)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 1.0


def test_diameter_permutation_invariant():
    notes = [_note(60), _note(67), _note(62)]
    perf = Performance.from_notes(notes)
    assert cloud_diameter(perf) == cloud_diameter(perf.take(slice(None, None, -1)))


# ---------------------------------------------------------------------------
# Windowed series
# ---------------------------------------------------------------------------

def test_momentum_constant_harmony_is_zero():
    notes = [Note(i * 0.5, i * 0.5 + 0.5, 60, 64) for i in range(10)]
    series = cloud_momentum(Performance.from_notes(notes))
    assert len(series) > 0
    assert all(v == pytest.approx(0.0) for v in series.values)


def test_momentum_empty_performance():
    assert len(cloud_momentum(Performance.from_notes([]))) == 0


def test_momentum_c_to_g_hand_value():
    # one C-major second, then one G-major second, windows of exactly 1 s
    config = RunConfig(window_length=1.0, hop=1.0)
    notes = [
        Note(0.0, 1.0, 60, 64),
        Note(0.0, 1.0, 64, 64),
        Note(0.0, 1.0, 67, 64),
        Note(1.0, 2.0, 67, 64),
        Note(1.0, 2.0, 71, 64),
        Note(1.0, 2.0, 74, 64),
    ]
    series = cloud_momentum(Performance.from_notes(notes), config)
    # hand CE: equal 1 s weights over each triad's points
    def ce(pcs):
        points = [pitch_to_spiral(pc) for pc in pcs]
        return (
            sum(p.x for p in points) / 3,
            sum(p.y for p in points) / 3,
            sum(p.z for p in points) / 3,
        )

    c_ce = ce([0, 4, 7])
    g_ce = ce([7, 11, 2])
    expected = math.sqrt(sum((a - b) ** 2 for a, b in zip(c_ce, g_ce)))
    assert series.times.tolist() == [1.0]
    assert series.values.tolist() == [pytest.approx(expected)]


def test_gap_breaks_momentum_chain():
    # notes in windows 0-1 and far later; silent middle windows yield no CE
    config = RunConfig(window_length=1.0, hop=1.0)
    notes = [Note(0.0, 1.0, 60, 64), Note(5.0, 6.0, 67, 64)]
    series = cloud_momentum(Performance.from_notes(notes), config)
    assert len(series) == 0


def test_diameter_series_timestamps_and_gaps():
    config = RunConfig(window_length=1.0, hop=0.5)
    notes = [Note(0.0, 1.0, 60, 64), Note(0.0, 1.0, 67, 64), Note(3.0, 4.0, 62, 64)]
    series = cloud_diameter_series(Performance.from_notes(notes), config)
    times = series.times.tolist()
    # windows starting at 1.5 and 2.0 are silent and produce no sample
    assert 1.5 not in times and 2.0 not in times
    assert times[0] == 0.0
    first = series.values[0]
    assert first == pytest.approx(math.sqrt(2 + 2 / 15))


def test_diameter_series_memory_does_not_grow_as_windows_times_144():
    # one 2.5 s note every 2 s, cycling the pitch classes: 72,500 windows of 100 ms at a 1 ms hop. The
    # int32 note counts they come from take 48 bytes a window; a W x 144 float array would take 1152.
    onsets = np.arange(36) * 2.0
    perf = Performance(onsets, onsets + 2.5, 60 + np.arange(36) % 12, np.full(36, 64))
    tracemalloc.start()
    try:
        series = cloud_diameter_series(perf, RunConfig(hop=0.001, window_length=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 72_500
    assert peak < 400 * 72_500


def test_window_weights_memory_is_bounded_by_the_pass(monkeypatch):
    # notes whose offsets were lost, held to the end: 90,600 (note, window) pairs, about 5 MB of
    # index and overlap arrays if the momentum's weights expanded them at once, against 600 windows
    onsets = np.arange(300) * 1.0
    perf = Performance(onsets, np.full(300, 300.0), 21 + np.arange(300) * 7 % 88, np.full(300, 64))
    expected = cloud_momentum(perf)
    monkeypatch.setattr(midi, "EXPAND_PASS", 4096)
    tracemalloc.start()
    try:
        series = cloud_momentum(perf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert series.times.tolist() == expected.times.tolist()
    assert series.values.tolist() == expected.values.tolist()


# 2000 notes held from uniform onsets to the end of an hour, as when a file's note-offs are lost, against
# an estimate whose onsets are jittered by 10 ms: about 7.2 M (note, window) pairs, 58 MB per array over
# them. The child limits its own address space before numpy loads (a preexec_fn would run in a fork of
# this threaded process).
_HELD_PAIR = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (384 << 20, 384 << 20))
import numpy as np
from pianoeval.evaluation import evaluate_performances
from pianoeval.midi import Performance
rng = np.random.default_rng(0)
onsets = np.sort(rng.uniform(0, 3590, 2000))
pitches, velocities = rng.integers(21, 109, 2000), rng.integers(20, 110, 2000)
jittered = np.sort(np.maximum(onsets + rng.normal(0, 0.01, 2000), 0))
held = [Performance(t, np.full(2000, 3600.0), pitches, velocities) for t in (onsets, jittered)]
evaluate_performances(*held)
"""


def test_held_notes_evaluate_within_a_fixed_address_space():
    # one BLAS thread: each further thread reserves address space of its own
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _HELD_PAIR], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]


def test_tension_values_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(10):
        perf = random_performance(rng, 40)
        for series in (cloud_diameter_series(perf), cloud_momentum(perf)):
            assert all(v >= 0.0 for v in series.values)


def test_window_config_validation():
    with pytest.raises(ValueError, match="^window_length "):
        RunConfig(window_length=0.0)
    with pytest.raises(ValueError, match="^hop "):
        RunConfig(window_length=1.0, hop=1.5)
    with pytest.raises(ValueError, match="^hop "):
        RunConfig(window_length=1.0, hop=0.0)


# ---------------------------------------------------------------------------
# Differential properties against the window-sweep oracle
# ---------------------------------------------------------------------------

@st.composite
def _lattice_performances(draw):
    # times on a lattice that window starts also hit, so equal onsets, notes
    # ending exactly at a window start and stacked overlaps are common
    unit = draw(st.sampled_from([0.125, 0.1, 0.07]))
    notes = draw(st.lists(
        st.tuples(
            st.integers(0, 40),
            st.integers(1, 16),
            st.sampled_from([48, 55, 60, 62, 64, 66, 67, 71, 72]),
        ),
        max_size=14,
    ))
    return Performance.from_notes(Note(k * unit, (k + d) * unit, p, 64) for k, d, p in notes)


# four window layouts (length, hop), each on the three helix geometries
_WINDOWS = [(1.0, 0.5), (1.0, 1.0), (0.75, 0.25), (0.3, 0.1)]
_configs = st.sampled_from([
    replace(geometry, window_length=length, hop=hop) for length, hop in _WINDOWS for geometry in _GEOMETRIES
])


# a pass of a few (note, window) pairs expands the notes in many passes
_passes = st.sampled_from([midi.EXPAND_PASS, 1, 5])


@settings(max_examples=150, deadline=None)
@given(_lattice_performances(), _configs, _passes)
@example(  # two notes held over about 60 windows each, in passes of 5 pairs
    _perf((0.0, 6.0, 60, 64), (0.35, 6.0, 66, 64), (1.0, 1.05, 62, 64)),
    replace(_GEOMETRIES[1], window_length=0.3, hop=0.1),
    5,
)
def test_diameter_series_equals_sweep_oracle(perf, config, expand_pass):
    (times, values), _ = oracle_tension_series(perf, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", expand_pass)
        series = cloud_diameter_series(perf, config)
    assert series.times.tolist() == times
    assert series.values.tolist() == values


def _near_window_starts(draw, hop):
    """A time at a window start k*hop, one ulp or ``TIME_SLACK`` either side of it, or between two starts."""
    point = draw(st.integers(0, 24)) * hop
    time = draw(st.sampled_from([
        point,
        np.nextafter(point, -math.inf),
        np.nextafter(point, math.inf),
        point - TIME_SLACK,
        point + TIME_SLACK,
        point + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * hop,
    ]))
    return max(float(time), 0.0)


@st.composite
def _window_edge_cases(draw):
    """(performance, config): off-lattice notes starting and ending at or near window starts, shorter
    than a hop, or held to the end of the data."""
    config = draw(_configs)
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        onset = _near_window_starts(draw, config.hop)
        length = draw(st.sampled_from(["to a start", "under a hop", "held"]))
        if length == "to a start":
            offset = _near_window_starts(draw, config.hop)
        elif length == "under a hop":
            offset = onset + draw(st.floats(0.0, 1.0, exclude_max=True)) * config.hop
        else:
            offset = 30 * config.hop
        pitch = draw(st.sampled_from([48, 55, 60, 61, 62, 64, 66, 67, 70, 71, 72]))
        rows.append((onset, max(offset, float(np.nextafter(onset, math.inf))), pitch, 64))
    return _perf(*rows), config


@settings(max_examples=300, deadline=None)
@given(_window_edge_cases())
def test_diameter_series_equals_the_diameters_of_the_weights_mask(case):
    # the mask counted from note events is the one the duration weights give, ulp for ulp
    perf, config = case
    weights = _pc_weights(perf, config)
    present = weights > 0
    sounding = present.any(axis=1)
    series = cloud_diameter_series(perf, config)
    assert series.times.tolist() == (np.flatnonzero(sounding) * config.hop).tolist()
    assert series.values.tolist() == _diameters(present[sounding], config).tolist()


def test_diameter_series_expands_no_note_window_pairs(monkeypatch):
    def expand_in_passes(lo, hi):
        raise AssertionError("(note, window) pairs expanded")

    perf = _perf((0.0, 40.0, 60, 64), (0.3, 2.2, 67, 64), (1.0, 1.2, 62, 64), (5.0, 40.0, 66, 64))
    expected = cloud_diameter_series(perf)
    monkeypatch.setattr(midi, "expand_in_passes", expand_in_passes)
    monkeypatch.setattr(tension, "expand_in_passes", expand_in_passes)
    series = cloud_diameter_series(perf)
    assert series.times.tolist() == expected.times.tolist()
    assert series.values.tolist() == expected.values.tolist()
    with pytest.raises(AssertionError, match="pairs expanded"):
        cloud_momentum(perf)


@settings(max_examples=150, deadline=None)
@given(_lattice_performances(), _configs, _passes)
def test_momentum_equals_sweep_oracle_within_last_digits(perf, config, expand_pass):
    # the weights are summed in another order than the sweep's, so values
    # may differ in the last bits; the sample times may not
    _, (times, values) = oracle_tension_series(perf, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", expand_pass)
        series = cloud_momentum(perf, config)
    assert series.times.tolist() == times
    np.testing.assert_allclose(series.values, values, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(_lattice_performances(), _configs)
def test_window_weights_do_not_depend_on_the_pass_size(perf, config):
    weights = _pc_weights(perf, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", 1)
        one_weights = _pc_weights(perf, config)
    assert one_weights.shape == weights.shape and (one_weights == weights).all()


@st.composite
def _window_ends(draw):
    """(end time, hop): ends on a grid point k*hop, one ulp either side of it,
    between two points, or 0."""
    hop = draw(st.sampled_from([0.5, 0.1, 1 / 3, 0.001]) | st.floats(MIN_STEP, 2.0))
    point = draw(st.integers(0, 3000)) * hop
    end = draw(st.sampled_from([
        point,
        np.nextafter(point, -math.inf),
        np.nextafter(point, math.inf),
        point + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * hop,
        0.0,
    ]))
    return max(float(end), 0.0), hop


@settings(max_examples=300, deadline=None)
@given(_window_ends())
def test_window_starts_equal_the_ceil_count_oracle(case):
    end, hop = case
    perf = _perf((0.0, end, 60, 64)) if end > 0 else _perf()
    weights = _pc_weights(perf, RunConfig(window_length=hop, hop=hop))
    expected = oracle_window_starts(end, hop)
    assert (np.arange(len(weights)) * hop).tolist() == expected.tolist()
    assert weights.shape == (len(expected), 12)
