import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_tension_series, random_performance
from pianoeval.midi import Note, Performance
from pianoeval.tension import (
    SpiralParams,
    WindowConfig,
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
    p = pitch_to_spiral(67, SpiralParams(radius=2.0, rise=0.5))
    assert (p.x, p.y, p.z) == (2.0, 0.0, 0.5)


def test_pitch_range_checked():
    with pytest.raises(ValueError):
        pitch_to_spiral(128)


# ---------------------------------------------------------------------------
# Center of effect, as cloud_momentum's step from a C-only window
# ---------------------------------------------------------------------------

_ONE_SECOND = WindowConfig(1.0, 1.0)
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


@pytest.mark.parametrize("params", [SpiralParams(), SpiralParams(2.5, 0.3), SpiralParams(0.7, 1.9)])
def test_diameter_of_each_pair_is_its_point_distance_exactly(params):
    for a in range(12):
        for b in range(a + 1, 12):
            perf = Performance.from_notes([_note(60 + a), _note(60 + b)])
            expected = pitch_to_spiral(a, params).distance(pitch_to_spiral(b, params))
            assert cloud_diameter(perf, params) == expected


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
    cfg = WindowConfig(window_length=1.0, hop=1.0)
    notes = [
        Note(0.0, 1.0, 60, 64),
        Note(0.0, 1.0, 64, 64),
        Note(0.0, 1.0, 67, 64),
        Note(1.0, 2.0, 67, 64),
        Note(1.0, 2.0, 71, 64),
        Note(1.0, 2.0, 74, 64),
    ]
    series = cloud_momentum(Performance.from_notes(notes), cfg)
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
    cfg = WindowConfig(window_length=1.0, hop=1.0)
    notes = [Note(0.0, 1.0, 60, 64), Note(5.0, 6.0, 67, 64)]
    series = cloud_momentum(Performance.from_notes(notes), cfg)
    assert len(series) == 0


def test_diameter_series_timestamps_and_gaps():
    cfg = WindowConfig(window_length=1.0, hop=0.5)
    notes = [Note(0.0, 1.0, 60, 64), Note(0.0, 1.0, 67, 64), Note(3.0, 4.0, 62, 64)]
    series = cloud_diameter_series(Performance.from_notes(notes), cfg)
    times = series.times.tolist()
    # windows starting at 1.5 and 2.0 are silent and produce no sample
    assert 1.5 not in times and 2.0 not in times
    assert times[0] == 0.0
    first = series.values[0]
    assert first == pytest.approx(math.sqrt(2 + 2 / 15))


def test_tension_values_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(10):
        perf = random_performance(rng, 40)
        for series in (cloud_diameter_series(perf), cloud_momentum(perf)):
            assert all(v >= 0.0 for v in series.values)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_length=0.0)
    with pytest.raises(ValueError):
        WindowConfig(window_length=1.0, hop=1.5)
    with pytest.raises(ValueError):
        WindowConfig(window_length=1.0, hop=0.0)


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


_window_configs = st.sampled_from([
    WindowConfig(), WindowConfig(1.0, 1.0), WindowConfig(0.75, 0.25), WindowConfig(0.3, 0.1),
])


@settings(max_examples=150, deadline=None)
@given(_lattice_performances(), _window_configs)
def test_diameter_series_equals_sweep_oracle(perf, cfg):
    (times, values), _ = oracle_tension_series(perf, cfg)
    series = cloud_diameter_series(perf, cfg)
    assert series.times.tolist() == times
    assert series.values.tolist() == values


@settings(max_examples=150, deadline=None)
@given(_lattice_performances(), _window_configs)
def test_momentum_equals_sweep_oracle_within_last_digits(perf, cfg):
    # the weights are summed in another order than the sweep's, so values
    # may differ in the last bits; the sample times may not
    _, (times, values) = oracle_tension_series(perf, cfg)
    series = cloud_momentum(perf, cfg)
    assert series.times.tolist() == times
    np.testing.assert_allclose(series.values, values, rtol=0, atol=1e-12)
