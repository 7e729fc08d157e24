import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    expressive_performance,
    jitter_onsets,
    oracle_dynamics_series,
    oracle_ioi_series,
    oracle_kor_series,
    random_performance,
    serialize_smf,
)
from pianoeval import midi
from pianoeval.config import RunConfig
from pianoeval.evaluation import evaluate_performances
from pianoeval.midi import Note, Performance, parse_midi
from pianoeval.musical import (
    METRIC_NAMES,
    MusicalMetrics,
    compute_musical_metrics,
    dynamics_series,
    ioi_series,
    kor_series,
    _lexsort_ties,
    ratio_kor_series,
)
from pianoeval.series import FeatureSeries, common_grid


def _notes(onsets, duration=0.2, pitch=72, velocity=64):
    return Performance.from_notes(Note(t, t + duration, pitch, velocity) for t in onsets)


# ---------------------------------------------------------------------------
# Inter-onset intervals
# ---------------------------------------------------------------------------

def test_ioi_values_and_timestamps():
    series = ioi_series(_notes([0.0, 0.5, 1.2]))
    assert series.times.tolist() == [0.5, 1.2]
    assert series.values.tolist() == [0.5, pytest.approx(0.7)]


def test_ioi_chord_spacing_clamps_to_zero():
    series = ioi_series(_notes([0.0, 0.02, 1.0]))
    assert series.values[0] == 0.0
    assert series.values[1] == pytest.approx(0.98)


def test_ioi_single_note_is_empty():
    assert len(ioi_series(_notes([0.7]))) == 0
    assert len(ioi_series(Performance.from_notes([]))) == 0


def test_ioi_duplicate_timestamp_keeps_last():
    # three simultaneous-ish onsets produce two pairs with the same
    # timestamp after clamping context; later pair wins
    notes = [Note(0.0, 0.3, 60, 64), Note(0.5, 0.8, 64, 64), Note(0.5, 0.9, 67, 64)]
    series = ioi_series(Performance.from_notes(notes))
    assert series.times.tolist() == [0.5]
    assert series.values[0] == 0.0  # last pair (0.5, 0.5) has zero gap


def test_ioi_custom_chord_eps():
    series = ioi_series(_notes([0.0, 0.05]), chord_eps=0.2)
    assert series.values.tolist() == [0.0]


# ---------------------------------------------------------------------------
# Key-overlap ratios
# ---------------------------------------------------------------------------

def test_kor_detached_notes_are_negative():
    # note ends 0.1 s before the next starts over a 0.5 s gap: -0.2
    notes = [Note(0.0, 0.4, 60, 64), Note(0.5, 0.9, 62, 64)]
    series = kor_series(Performance.from_notes(notes))
    assert series.times.tolist() == [0.5]
    assert series.values.tolist() == [pytest.approx(-0.2)]


def test_kor_overlapped_notes_are_positive():
    notes = [Note(0.0, 0.6, 60, 64), Note(0.5, 0.9, 62, 64)]
    series = kor_series(Performance.from_notes(notes))
    assert series.values[0] == pytest.approx(0.2)


def test_kor_exact_legato_is_zero():
    notes = [Note(0.0, 0.5, 60, 64), Note(0.5, 0.9, 62, 64)]
    assert kor_series(Performance.from_notes(notes)).values[0] == 0.0


def test_kor_skips_tiny_iois():
    notes = [
        Note(0.0, 0.3, 60, 64),
        Note(0.0005, 0.3, 64, 64),  # IOI below the 1 ms floor: skipped
        Note(0.5, 0.8, 67, 64),
    ]
    series = kor_series(Performance.from_notes(notes))
    assert len(series) == 1
    assert series.times.tolist() == [0.5]


def test_kor_empty_and_single():
    assert len(kor_series(Performance.from_notes([]))) == 0
    assert len(kor_series(_notes([0.3]))) == 0


# ---------------------------------------------------------------------------
# Dynamics: log loudness ratio
# ---------------------------------------------------------------------------

def test_dynamics_equal_velocities_give_zero():
    melody = Performance.from_notes([Note(0.0, 1.0, 72, 80)])
    bass = Performance.from_notes([Note(0.0, 1.0, 40, 80)])
    series = dynamics_series(melody, bass)
    assert len(series) > 0
    assert all(v == 0.0 for v in series.values)


def test_dynamics_double_velocity_gives_log_two():
    melody = Performance.from_notes([Note(0.0, 1.0, 72, 80)])
    bass = Performance.from_notes([Note(0.0, 1.0, 40, 40)])
    series = dynamics_series(melody, bass)
    assert all(v == pytest.approx(math.log(2.0)) for v in series.values)


def _value_near(series: FeatureSeries, t: float) -> float:
    for time, value in zip(series.times, series.values):
        if abs(time - t) < 0.05:
            return value
    raise AssertionError(f"no sample near t={t}: {series.times}")


def test_dynamics_sounding_note_wins_over_held_memory():
    melody = Performance.from_notes([Note(0.0, 0.5, 72, 80), Note(1.0, 2.0, 74, 20)])
    bass = Performance.from_notes([Note(0.0, 2.0, 40, 40)])
    series = dynamics_series(melody, bass)
    assert _value_near(series, 0.0) == pytest.approx(math.log(2.0))
    # at t=1.0 the second melody note sounds: ln(20/40)
    assert _value_near(series, 1.0) == pytest.approx(math.log(0.5))
    # between notes (t=0.7) the ended note's velocity is held
    assert _value_near(series, 0.7) == pytest.approx(math.log(2.0))


def test_dynamics_hold_horizon_expires():
    # bass note ends at 0.45; past ~2.45 it is beyond the 2 s hold, so the
    # ratio becomes undefined and the series stops there
    melody = Performance.from_notes([Note(0.0, 4.0, 72, 80)])
    bass = Performance.from_notes([Note(0.0, 0.45, 40, 40)])
    series = dynamics_series(melody, bass)
    last = max(series.times)
    assert 0.45 + 2.0 - 0.1 - 1e-6 <= last <= 0.45 + 2.0 + 1e-6


def test_dynamics_empty_stream_is_empty_series():
    assert len(dynamics_series(Performance.from_notes([]), _notes([0.0]))) == 0
    assert len(dynamics_series(_notes([0.0]), Performance.from_notes([]))) == 0


_lattice_stream = st.lists(
    # onsets and offsets on the 0.1 s grid: notes start, end and stop being
    # held (2 s after their offset) exactly on grid points, and share onsets
    st.builds(
        lambda k, d, v: Note(k * 0.1, (k + d) * 0.1, 60, v),
        st.integers(0, 60),
        st.integers(1, 12),
        # math.log and np.log disagree in the last bit on 21/20, 42/40, 60/59, 63/60
        st.sampled_from([20, 21, 40, 42, 59, 60, 63, 127]),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(_lattice_stream, _lattice_stream, st.randoms(use_true_random=False), st.sampled_from([midi.EXPAND_PASS, 1, 5]))
# every note ends at 2 s, the grid's end: the last-ended order breaks ties by onset, then velocity, and
# the 2 s hold runs past the grid's last point
@example(
    [Note(0.0, 2.0, 60, 40), Note(5 * 0.1, 2.0, 60, 127), Note(5 * 0.1, 2.0, 60, 20)],
    [Note(0.0, 2.0, 60, 60), Note(10 * 0.1, 2.0, 60, 21), Note(10 * 0.1, 2.0, 60, 42)],
    random.Random(0),
    1,
)
# nested notes: shorter notes inside longer ones, and a later note that ends with an earlier one and so
# hides it from its own onset on
@example(
    [Note(0.0, 12 * 0.1, 60, 40), Note(2 * 0.1, 5 * 0.1, 60, 127), Note(3 * 0.1, 4 * 0.1, 60, 20),
     Note(6 * 0.1, 12 * 0.1, 60, 63)],
    [Note(0.0, 9 * 0.1, 60, 60), Note(0.1, 3 * 0.1, 60, 21), Note(0.1, 9 * 0.1, 60, 42), Note(4 * 0.1, 7 * 0.1, 60, 59)],
    random.Random(0),
    1,
)
def test_dynamics_series_equals_tracker_oracle(melody, bass, rng, expand_pass):
    times, values = oracle_dynamics_series(melody, bass)
    melody, bass = Performance.from_notes(melody), Performance.from_notes(bass)
    shuffled = [s.take(rng.sample(range(len(s)), len(s))) for s in (melody, bass)]
    # a pass of a few grid points paints each stream in many passes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", expand_pass)
        for series in (dynamics_series(melody, bass), dynamics_series(*shuffled)):
            assert series.times.tolist() == times
            assert series.values.tolist() == values


def test_dynamics_painter_memory_is_bounded_by_its_pass(monkeypatch):
    # notes whose offsets were lost, held to the end: 451,500 painted grid points in all, about
    # 11 MB of index arrays if expanded at once, against 3001 grid points
    onsets = np.arange(300) * 1.0
    melody = Performance(onsets, np.full(300, 300.0), np.full(300, 72), 1 + np.arange(300) % 127)
    bass = Performance(onsets, np.full(300, 300.0), np.full(300, 40), 1 + np.arange(300) * 7 % 127)
    expected = dynamics_series(melody, bass)
    monkeypatch.setattr(midi, "EXPAND_PASS", 4096)
    tracemalloc.start()
    try:
        series = dynamics_series(melody, bass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert series.times.tolist() == expected.times.tolist()
    assert series.values.tolist() == expected.values.tolist()


def test_dynamics_of_notes_held_to_the_end_costs_by_notes_not_sounding_time():
    # 2000 + 2000 notes held to the end of an hour, as when a file's note-offs are lost: painting every
    # note up to its offset is about 360 M grid points a stream at this step, several seconds
    rng = np.random.default_rng(0)
    melody, bass = (
        Performance(np.sort(rng.uniform(0, 3590, 2000)), np.full(2000, 3600.0), np.full(2000, pitch),
                    rng.integers(20, 110, 2000))
        for pitch in (72, 40)
    )
    start = time.perf_counter()
    series = dynamics_series(melody, bass, RunConfig(grid_step=0.01))
    assert time.perf_counter() - start < 1.0
    assert len(series) == 359911


@st.composite
def _tied_keys(draw):
    """One to three equal-length sort keys of 0 to 12 rows, mostly ties: small
    ints, or floats that include both zeros."""
    n = draw(st.integers(0, 12))
    ints = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    floats = st.lists(st.sampled_from([-0.0, 0.0, 0.1, -2.5]), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64)
    )
    return tuple(draw(st.lists(st.one_of(ints, floats), min_size=1, max_size=3)))


@settings(max_examples=300, deadline=None)
@given(_tied_keys())
def test_tie_only_lexsort_equals_np_lexsort(keys):
    order = _lexsort_ties(keys)
    expected = np.lexsort(keys)
    assert order.dtype == expected.dtype and order.tolist() == expected.tolist()


@settings(max_examples=100, deadline=None)
@given(_lattice_stream)
def test_ioi_and_kor_series_equal_pairwise_oracles(stream):
    # streams arrive in (onset, pitch, offset) order; equal onsets are chord tones
    stream = Performance.from_notes(stream)
    for series, (times, values) in (
        (ioi_series(stream), oracle_ioi_series(stream.notes)),
        (kor_series(stream), oracle_kor_series(stream.notes)),
    ):
        assert series.times.tolist() == times
        assert series.values.tolist() == values


def test_dynamics_latest_onset_wins_within_stream():
    # two sounding melody notes: the more recent onset defines loudness
    melody = Performance.from_notes([Note(0.0, 2.0, 72, 80), Note(1.0, 2.0, 76, 20)])
    bass = Performance.from_notes([Note(0.0, 2.0, 40, 40)])
    series = dynamics_series(melody, bass)
    assert _value_near(series, 0.5) == pytest.approx(math.log(2.0))
    assert _value_near(series, 1.5) == pytest.approx(math.log(0.5))


# ---------------------------------------------------------------------------
# Ratio of key-overlap ratios
# ---------------------------------------------------------------------------

def _kor_pair(mel_kor_value, bass_kor_value):
    melody = [Note(0.0, 0.5 + 0.5 * mel_kor_value, 72, 64), Note(0.5, 1.0, 74, 64)]
    bass = [Note(0.0, 0.5 + 0.5 * bass_kor_value, 40, 64), Note(0.5, 1.0, 36, 64)]
    return kor_series(Performance.from_notes(melody)), kor_series(Performance.from_notes(bass))


def test_ratio_kor_identical_streams_give_one():
    mel, bass = _kor_pair(0.3, 0.3)
    series = ratio_kor_series(mel, bass)
    assert all(v == pytest.approx(1.0) for v in series.values)


def test_ratio_kor_value():
    mel, bass = _kor_pair(0.2, 0.1)
    series = ratio_kor_series(mel, bass)
    assert all(v == pytest.approx(2.0) for v in series.values)


def test_ratio_kor_drops_near_zero_bass():
    mel, bass = _kor_pair(0.2, 0.0)
    series = ratio_kor_series(mel, bass)
    assert len(series) == 0


def test_ratio_kor_negative_values_pass_through():
    mel, bass = _kor_pair(-0.2, 0.1)
    series = ratio_kor_series(mel, bass)
    assert all(v == pytest.approx(-2.0) for v in series.values)


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

def test_metric_names_match_dataclass_fields():
    metrics = MusicalMetrics(*(None,) * len(METRIC_NAMES))
    assert tuple(metrics.as_dict().keys()) == METRIC_NAMES


def test_metrics_validate_range():
    with pytest.raises(ValueError):
        MusicalMetrics(1.5, *(None,) * (len(METRIC_NAMES) - 1))


def test_self_comparison_scores_one_everywhere():
    rng = np.random.default_rng(67)
    perf = expressive_performance(rng)
    metrics = compute_musical_metrics(perf, perf)
    for name, value in metrics.as_dict().items():
        assert value == pytest.approx(1.0), name


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 199))
def test_self_evaluation_scores_exactly_one(seed, n_notes):
    perf = random_performance(np.random.default_rng(seed), n_notes)
    for config in (RunConfig(), RunConfig(frame_length=0.001, grid_step=0.01, window_length=0.1, hop=0.01)):
        report = evaluate_performances(perf, perf, config)
        assert [prf.f1 for prf in (report.frame, report.note_offset, report.note_offset_velocity)] == [1.0] * 3
        assert {name: v for name, v in report.musical.as_dict().items() if v not in (None, 1.0)} == {}


def test_heavy_jitter_scores_below_self():
    rng = np.random.default_rng(71)
    ref = expressive_performance(rng)
    est = jitter_onsets(ref, 0.08, rng)
    metrics = compute_musical_metrics(ref, est)
    ioi = metrics.melody_ioi
    assert ioi is not None and ioi < 0.999


def test_velocity_scaling_leaves_dynamics_metric_unchanged():
    rng = np.random.default_rng(73)
    ref = expressive_performance(rng)

    def quantize(perf):
        # snap velocities to multiples of 5 so a 6/5 gain is an exact
        # integer map and the log-ratio cancellation holds bit for bit
        notes = [
            Note(n.onset, n.offset, n.pitch, int(np.clip(5 * round(n.velocity / 5), 20, 105)))
            for n in perf.notes
        ]
        return Performance.from_notes(notes)

    def scale(perf, num, den):
        notes = [
            Note(n.onset, n.offset, n.pitch, n.velocity * num // den) for n in perf.notes
        ]
        return Performance.from_notes(notes)

    est = quantize(jitter_onsets(ref, 0.02, rng))
    base = compute_musical_metrics(ref, est).dynamics
    scaled = compute_musical_metrics(ref, scale(est, 6, 5)).dynamics
    assert base is not None and scaled is not None
    assert scaled == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("side", ["ref", "est"])
def test_rows_out_of_onset_order_name_the_side_and_row(side):
    perf = expressive_performance(np.random.default_rng(79))
    row = int(np.flatnonzero(np.diff(perf.onsets) > 0)[20]) + 1  # a row that starts after the one before
    order = np.arange(len(perf))
    order[[row - 1, row]] = order[[row, row - 1]]
    swapped = perf.take(order)
    pair = (swapped, perf) if side == "ref" else (perf, swapped)
    message = rf"^{side} row {row}: onset {perf.onsets[row - 1]:g} s is before the previous row's$"
    with pytest.raises(ValueError, match=message):
        compute_musical_metrics(*pair)
    with pytest.raises(ValueError, match=message):
        evaluate_performances(*pair)


# 20 short notes and one from 30 s to 1e9 s: a grid over that span would take about 15 GiB. The child
# limits its own address space before numpy loads, as tests/test_tension.py's held pair does.
_OVERLONG = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pianoeval.midi import Note, Performance
from pianoeval.musical import compute_musical_metrics
perf = Performance.from_notes([Note(0.5 * k, 0.5 * k + 0.3, 60 + k, 64) for k in range(20)] + [Note(30.0, 1e9, 72, 64)])
try:
    compute_musical_metrics(perf, perf)
except ValueError as error:
    print(error)
"""


def test_musical_metrics_reject_a_side_longer_than_max_duration_before_building_a_grid():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _OVERLONG], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "ref lasts 1e+09 s, longer than the 7200 s limit\n"


def test_equal_onsets_in_any_row_order_are_accepted():
    chord = Performance.from_notes([Note(0.0, 0.5, p, 64) for p in (60, 64, 67)] + [Note(1.0, 1.5, 60, 64)])
    reordered = chord.take([2, 0, 1, 3])
    assert compute_musical_metrics(reordered, reordered) == compute_musical_metrics(chord, chord)


def test_sparse_performance_yields_undefined_metrics():
    perf = Performance.from_notes([Note(0.0, 0.2, 60, 64), Note(0.3, 0.5, 64, 64)])
    metrics = compute_musical_metrics(perf, perf)
    assert metrics.melody_ioi is None
    assert metrics.cloud_momentum is None


def test_metronomic_estimate_has_undefined_ioi_correlation():
    est = _notes([k / 6 for k in range(48)])
    ref = jitter_onsets(est, 0.01, np.random.default_rng(5))
    assert np.ptp(ioi_series(est).values) > 0  # the intervals differ in their last bits
    assert compute_musical_metrics(ref, est).melody_ioi is None


@st.composite
def _metronomes(draw):
    """(tpq, microseconds per quarter, tick step) of a steady pulse whose
    interval is above the chord spacing."""
    tpq = draw(st.integers(1, 960))
    return tpq, draw(st.integers(250_000, 1_500_000)), draw(st.integers(max(1, tpq // 4), 4 * tpq))


@settings(max_examples=100, deadline=None)
@given(_metronomes(), st.integers(0, 2**32 - 1))
@example((480, 500_000, 160), 0)
def test_metronomic_smf_has_undefined_melody_ioi(metronome, seed):
    tpq, uspq, step = metronome
    est = parse_midi(serialize_smf([(k * step, (k + 1) * step, 72, 64) for k in range(48)], tpq, ((0, uspq),)))
    ref = jitter_onsets(est, 0.005, np.random.default_rng(seed))
    config = RunConfig()
    assert common_grid(ioi_series(ref), ioi_series(est), config.grid_step)[1] >= config.min_samples
    assert compute_musical_metrics(ref, est, config).melody_ioi is None
