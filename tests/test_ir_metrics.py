import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _oracle_max_matching,
    _oracle_valid_matrix,
    jitter_onsets,
    jitter_velocities,
    oracle_candidate_edges,
    oracle_frame_prf,
    oracle_mir_eval_counts,
    oracle_mir_eval_velocity_count,
    oracle_note_frames,
    oracle_note_prf,
    oracle_piano_roll,
    random_performance,
    serialize_smf,
)
from pianoeval import midi
from pianoeval.config import RunConfig
from pianoeval.ir_metrics import (
    MATCH_MODES,
    PRF,
    NoteMatching,
    _candidate_edges,
    build_piano_roll,
    frame_metrics,
    match_notes,
    note_metrics,
    offset_window,
)
from pianoeval.midi import Note, Performance, parse_midi
from pianoeval.series import FeatureSeries, resample_to_grid


def _perf(*notes):
    return Performance.from_notes([Note(*n) for n in notes])


# ---------------------------------------------------------------------------
# Piano roll construction
# ---------------------------------------------------------------------------

def test_roll_short_note_spans_three_frames():
    roll = build_piano_roll(_perf((0.0, 0.03, 60, 64)))
    assert roll.active.shape == (128, 3)
    assert roll.active[60].tolist() == [True, True, True]
    assert roll.active.sum() == 3


def test_roll_empty_performance_has_no_frames():
    roll = build_piano_roll(Performance.from_notes([]))
    assert roll.active.shape == (128, 0)


def test_roll_subframe_note_still_occupies_its_onset_frame():
    roll = build_piano_roll(_perf((0.005, 0.012, 60, 64)))
    assert roll.active[60].tolist() == [True, True]


def test_roll_frame_boundary_is_half_open():
    # offset exactly on a frame edge: last active frame is the one before it
    roll = build_piano_roll(_perf((0.0, 0.02, 60, 64)))
    assert roll.active[60].tolist() == [True, True]


def test_roll_matches_per_note_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        perf = random_performance(rng, int(rng.integers(1, 30)))
        roll = build_piano_roll(perf)
        expected = np.zeros_like(roll.active)
        for note in perf.notes:
            for frame in oracle_note_frames(note.onset, note.offset, RunConfig.frame_length):
                expected[note.pitch, frame] = True
        assert np.array_equal(roll.active, expected)


def test_roll_ends_at_its_last_notes_last_frame():
    # 0.1 + 0.2 is an ulp past frame 30's start, which the time rule puts the offset at
    roll = build_piano_roll(_perf((0.1, 0.1 + 0.2, 60, 64)))
    assert (roll.n_frames, roll.stops.tolist()) == (30, [30])
    roll = build_piano_roll(_AT_THE_ROLL_END)
    assert roll.n_frames == 4 and roll.active[60].tolist() == [False, False, False, True]


def test_roll_custom_frame_length():
    roll = build_piano_roll(_perf((0.0, 1.0, 60, 64)), frame_length=0.5)
    assert roll.active.shape == (128, 2)
    with pytest.raises(ValueError):
        build_piano_roll(_perf((0.0, 1.0, 60, 64)), frame_length=0.0)
    # more frames than a sweep key's 40-bit frame field holds
    with pytest.raises(ValueError, match=r"2\*\*40 frames"):
        build_piano_roll(_perf((0.0, 2.0, 60, 64)), frame_length=1e-12)


# ---------------------------------------------------------------------------
# Frame-level scores
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "values, message",
    [((1.5, 0.5, 0.5), r"precision out of \[0, 1\]: 1.5"), ((0.5, -0.1, 0.5), r"recall out of \[0, 1\]: -0.1"),
     ((0.5, 0.5, math.nan), r"f1 out of \[0, 1\]: nan")],
)
def test_prf_rejects_a_value_outside_the_unit_interval(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PRF(*values)


def test_frames_identical_rolls_score_one():
    perf = _perf((0.0, 0.5, 60, 64), (0.25, 0.75, 64, 80))
    prf = frame_metrics(build_piano_roll(perf), build_piano_roll(perf))
    assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_frames_empty_estimate_scores_zero():
    ref = build_piano_roll(_perf((0.0, 0.5, 60, 64)))
    est = build_piano_roll(Performance.from_notes([]))
    prf = frame_metrics(ref, est)
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


def test_frames_half_overlap():
    # ref active frames 0..3, est frames 2..5 on the same pitch: 2 shared
    ref = build_piano_roll(_perf((0.0, 0.04, 60, 64)))
    est = build_piano_roll(_perf((0.02, 0.06, 60, 64)))
    prf = frame_metrics(ref, est)
    assert prf.precision == pytest.approx(0.5)
    assert prf.recall == pytest.approx(0.5)
    assert prf.f1 == pytest.approx(0.5)


def test_frames_pads_shorter_roll():
    ref = build_piano_roll(_perf((0.0, 0.04, 60, 64)))
    est = build_piano_roll(_perf((0.0, 0.02, 60, 64)))
    prf = frame_metrics(ref, est)
    assert prf.precision == 1.0
    assert prf.recall == pytest.approx(0.5)


def test_frames_frame_length_mismatch_rejected():
    a = build_piano_roll(_perf((0.0, 0.1, 60, 64)), frame_length=0.01)
    b = build_piano_roll(_perf((0.0, 0.1, 60, 64)), frame_length=0.02)
    with pytest.raises(ValueError):
        frame_metrics(a, b)


def test_frames_both_empty_score_zero():
    empty = build_piano_roll(Performance.from_notes([]))
    prf = frame_metrics(empty, empty)
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        # a 5 ms lattice puts onsets and offsets on frame edges and mid-frame
        st.builds(
            lambda k, d, pitch: Note(k * 0.005, (k + d) * 0.005, pitch, 64),
            st.integers(0, 60),
            st.integers(1, 40),
            st.sampled_from([0, 60, 127]),
        ),
        max_size=12,
    ),
    st.sampled_from([0.01, 0.02, 0.03]),
)
def test_piano_roll_equals_per_note_oracle(notes, frame_length):
    perf = Performance.from_notes(notes)
    roll = build_piano_roll(perf, frame_length).active
    want = oracle_piano_roll(perf, frame_length)
    assert roll.shape == want.shape
    assert np.array_equal(roll, want)


def test_frames_match_pure_python_oracle():
    rng = np.random.default_rng(37)
    for _ in range(10):
        ref = build_piano_roll(random_performance(rng, int(rng.integers(0, 25))))
        est = build_piano_roll(random_performance(rng, int(rng.integers(0, 25))))
        got = frame_metrics(ref, est)
        want = oracle_frame_prf(ref.active, est.active)
        assert got.precision == pytest.approx(want[0])
        assert got.recall == pytest.approx(want[1])
        assert got.f1 == pytest.approx(want[2])


@st.composite
def _frame_pairs(draw):
    """Two performances and a frame length h, on a tick-like grid.

    The grid step is h/4, h/2 or 1/960 s (480 ticks per quarter at 120 BPM),
    so times fall on frame edges and between them. Pitches 60 and 61 make
    same-pitch overlaps common, either side may be empty, and each side ends
    where its own last note does.
    """
    h = draw(st.sampled_from([0.01, 0.02, 0.001]))
    step = draw(st.sampled_from([h / 4, h / 2, 1 / 960]))
    note = st.builds(
        lambda k, d, pitch: Note(k * step, (k + d) * step, pitch, 64),
        st.integers(0, 80),
        st.integers(1, 40),
        st.sampled_from([0, 60, 61, 127]),
    )
    side = st.lists(note, max_size=10).map(Performance.from_notes)
    return draw(side), draw(side), h


# the pitch-60 note starts at frame 3's start (0.03 at h = 0.01) and ends an ulp later, under
# 2 x TIME_SLACK long: it keeps frame 3, its first, which is the roll's last
_AT_THE_ROLL_END = _perf((0.0, 0.02, 62, 64), (0.03, 0.030000000000000002, 60, 64))


@settings(max_examples=200, deadline=None)
@given(_frame_pairs(), st.integers(0, 2**32 - 1))
@example((_AT_THE_ROLL_END, _perf((0.0, 0.1, 60, 64)), 0.01), 0)
@example((_AT_THE_ROLL_END, Performance.from_notes([]), 0.01), 1)
def test_frame_sweep_equals_per_cell_oracle(pair, seed):
    a, b, h = pair
    got = frame_metrics(build_piano_roll(a, h), build_piano_roll(b, h))
    want = oracle_frame_prf(oracle_piano_roll(a, h), oracle_piano_roll(b, h))
    assert (got.precision, got.recall, got.f1) == want
    # row order does not matter
    rng = np.random.default_rng(seed)
    shuffled = [side.take(rng.permutation(len(side))) for side in (a, b)]
    assert frame_metrics(*(build_piano_roll(side, h) for side in shuffled)) == got
    for side in (a, b):
        if len(side):
            assert frame_metrics(build_piano_roll(side, h), build_piano_roll(side, h)).f1 == 1.0


def test_frame_counts_of_a_two_hour_pair_need_no_roll():
    # a rasterized roll of this pair at 10 ms would be 128 x 720000 cells per side
    ref = _perf((0.0, 1.0, 60, 64), (7199.0, 7200.0, 60, 64))
    est = _perf((0.5, 1.5, 60, 64), (7199.5, 7200.0, 62, 64))
    tracemalloc.start()
    try:
        rolls = build_piano_roll(ref, 0.01), build_piano_roll(est, 0.01)
        prf = frame_metrics(*rolls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # ref 200 cells, est 150; pitch 60 shares frames 50-99
    assert prf == PRF.from_counts(50, 100, 150)
    assert rolls[0].active.shape == (128, 720000)


# ---------------------------------------------------------------------------
# Note matching
# ---------------------------------------------------------------------------

def _unmatched(matching, n, side):
    """The indices of range(n) that no pair uses on ``side`` (0 ref, 1 est)."""
    return sorted(set(range(n)) - set(matching.pairs[:, side].tolist()))


def test_match_identical_lists_pair_everything():
    notes = Performance.from_notes([Note(0.0, 0.5, 60, 64), Note(0.5, 1.0, 62, 70)])
    for mode in MATCH_MODES:
        matching = match_notes(notes, notes, mode)
        assert matching.pairs.tolist() == [[0, 0], [1, 1]]
        assert _unmatched(matching, 2, 0) == []
        assert _unmatched(matching, 2, 1) == []


def test_match_onset_tolerance_boundary():
    ref = Performance.from_notes([Note(0.0, 2.0, 60, 64)])
    within = Performance.from_notes([Note(0.05, 2.0, 60, 64)])   # difference is exactly the tolerance
    beyond = Performance.from_notes([Note(0.06, 2.0, 60, 64)])
    assert match_notes(ref, within, "onset").pairs.tolist() == [[0, 0]]
    assert match_notes(ref, beyond, "onset").pairs.tolist() == []


def _tick_notes(*notes_ticks):
    """Notes parsed from an SMF at 480 ticks per quarter and 120 BPM: 960 ticks per second."""
    return parse_midi(serialize_smf(notes_ticks, tpq=480))


@pytest.mark.parametrize("est_onset, f1", [(1008, 1.0), (912, 1.0), (1009, 0.0), (911, 0.0)])
def test_onset_tolerance_boundary_in_ticks(est_onset, f1):
    # 48 ticks is exactly 50 ms, but abs(1.05 - 1.0) evaluates to 0.050000000000000044
    ref = _tick_notes((960, 1920, 60, 64))
    est = _tick_notes((est_onset, 1920, 60, 64))
    assert note_metrics(ref, est, "onset").f1 == f1


@pytest.mark.parametrize("est_offset, f1", [(2112, 1.0), (1728, 1.0), (2113, 0.0), (1727, 0.0)])
def test_offset_tolerance_boundary_in_ticks(est_offset, f1):
    # the reference lasts 960 ticks, so its offset window is 192 ticks: exactly 20 %
    ref = _tick_notes((960, 1920, 60, 64))
    est = _tick_notes((960, est_offset, 60, 64))
    assert note_metrics(ref, est, "onset_offset").f1 == f1


def test_match_pitch_must_be_exact():
    ref = Performance.from_notes([Note(0.0, 1.0, 60, 64)])
    est = Performance.from_notes([Note(0.0, 1.0, 61, 64)])
    assert match_notes(ref, est, "onset").pairs.tolist() == []


def test_offset_window_scales_with_duration():
    assert offset_window(Note(0.0, 1.0, 60, 64).duration) == pytest.approx(0.2)
    assert offset_window(Note(0.0, 0.1, 60, 64).duration) == pytest.approx(0.05)


def test_match_offset_rule_uses_duration_scaled_window():
    ref = Performance.from_notes([Note(0.0, 1.0, 60, 64)])
    ok = Performance.from_notes([Note(0.0, 1.15, 60, 64)])       # offset error 0.15 <= 0.2 * 1.0
    bad = Performance.from_notes([Note(0.0, 1.25, 60, 64)])      # 0.25 > 0.2
    assert match_notes(ref, ok, "onset_offset").pairs.tolist() == [[0, 0]]
    assert match_notes(ref, bad, "onset_offset").pairs.tolist() == []
    # but the same est is fine in onset-only mode
    assert match_notes(ref, bad, "onset").pairs.tolist() == [[0, 0]]


def test_match_resolves_crossing_greedy_trap():
    # one est note sits within tolerance of two refs; maximum matching must
    # still pair both refs when a second est is available for only one of them
    ref = Performance.from_notes([Note(0.00, 1.0, 60, 64), Note(0.04, 1.0, 60, 64)])
    est = Performance.from_notes([Note(0.04, 1.0, 60, 64), Note(0.08, 1.0, 60, 64)])
    matching = match_notes(ref, est, "onset")
    assert len(matching.pairs) == 2


def test_match_unknown_mode_rejected():
    with pytest.raises(ValueError):
        match_notes(Performance.from_notes([]), Performance.from_notes([]), "strict")


def test_match_empty_sides():
    matching = match_notes(Performance.from_notes([]), _perf((0.0, 1.0, 60, 64)), "onset")
    assert matching.pairs.tolist() == []
    assert _unmatched(matching, 1, 1) == [0]


def test_layers_hand_each_other_arrays():
    assert [f.name for f in fields(Performance)] == ["onsets", "offsets", "pitches", "velocities"]
    assert [f.name for f in fields(NoteMatching)] == ["pairs"]
    ref = Performance.from_notes([Note(0.0, 1.0, 60, 64), Note(1.0, 2.0, 62, 64), Note(2.0, 3.0, 64, 64)])
    pairs = match_notes(ref, ref.take([2, 0]), "onset").pairs
    assert isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape == (2, 2)
    assert pairs.tolist() == [[0, 1], [2, 0]]  # in reference order
    empty = match_notes(ref, Performance.from_notes([]), "onset").pairs
    assert empty.dtype == np.int64 and empty.shape == (0, 2)
    held = resample_to_grid(FeatureSeries([0.0, 1.0], [3.0, 4.0]), 0.0, 0.5, 3)
    assert isinstance(held, np.ndarray) and held.dtype == np.float64


# ---------------------------------------------------------------------------
# Note-level scores
# ---------------------------------------------------------------------------

def test_notes_spurious_extra_note():
    ref = [Note(i * 0.5, i * 0.5 + 0.4, 60 + i, 64) for i in range(4)]
    est = list(ref) + [Note(10.0, 10.4, 100, 64)]
    prf = note_metrics(Performance.from_notes(ref), Performance.from_notes(est), "onset")
    assert prf.precision == pytest.approx(0.8)
    assert prf.recall == pytest.approx(1.0)
    assert prf.f1 == pytest.approx(8.0 / 9.0)


def test_notes_both_empty_score_zero():
    prf = note_metrics(Performance.from_notes([]), Performance.from_notes([]), "onset")
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)


def test_notes_self_evaluation_is_perfect():
    rng = np.random.default_rng(41)
    for _ in range(10):
        perf = random_performance(rng, int(rng.integers(1, 40)))
        for mode in MATCH_MODES:
            prf = note_metrics(perf, perf, mode)
            assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)


def test_notes_modes_are_increasingly_strict():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ref = random_performance(rng, int(rng.integers(5, 30)))
        est = jitter_velocities(jitter_onsets(ref, 0.04, rng), 12.0, rng)
        scores = [note_metrics(ref, est, mode).f1 for mode in MATCH_MODES]
        assert scores[0] >= scores[1] >= scores[2]


def test_notes_degrade_with_heavier_jitter():
    rng = np.random.default_rng(47)
    ref = random_performance(rng, 60)
    mild = jitter_onsets(ref, 0.01, rng)
    heavy = jitter_onsets(ref, 0.2, rng)
    assert (
        note_metrics(ref, mild, "onset").f1
        >= note_metrics(ref, heavy, "onset").f1
    )


def _small_alphabet_notes(rng, n):
    """Random lists on few pitches so matchings need real optimization."""
    notes = []
    t = 0.0
    for _ in range(n):
        t += float(rng.uniform(0.01, 0.09))
        dur = float(rng.uniform(0.05, 0.6))
        pitch = int(rng.choice([60, 60, 60, 62, 64]))
        notes.append(Note(t, t + dur, pitch, int(rng.integers(1, 128))))
    return notes


def test_note_scores_equal_exhaustive_oracle():
    rng = np.random.default_rng(53)
    for _ in range(60):
        ref = _small_alphabet_notes(rng, int(rng.integers(0, 9)))
        est = _small_alphabet_notes(rng, int(rng.integers(0, 9)))
        for mode in MATCH_MODES:
            got = note_metrics(Performance.from_notes(ref), Performance.from_notes(est), mode)
            want = oracle_note_prf(ref, est, mode)
            assert got.precision == pytest.approx(want[0]), (mode, ref, est)
            assert got.recall == pytest.approx(want[1]), (mode, ref, est)
            assert got.f1 == pytest.approx(want[2]), (mode, ref, est)


_cluster_notes = st.lists(
    st.builds(
        lambda onset, duration, velocity: Note(onset / 100, onset / 100 + duration / 100, 60, velocity),
        st.integers(0, 15),  # onsets on a 10 ms lattice, so many land exactly 50 ms apart
        st.integers(1, 60),
        st.integers(1, 127),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_cluster_notes, _cluster_notes)
def test_same_pitch_cluster_counts_equal_exhaustive_oracle(ref, est):
    ref_perf, est_perf = Performance.from_notes(ref), Performance.from_notes(est)
    for mode in MATCH_MODES:
        want = _oracle_max_matching(_oracle_valid_matrix(ref, est, mode), len(est))
        matched = len(match_notes(ref_perf, est_perf, mode).pairs)
        assert matched == want, mode
        assert note_metrics(ref_perf, est_perf, mode) == PRF.from_counts(matched, len(est) - matched, len(ref) - matched)


_passes = st.sampled_from([midi.EXPAND_PASS, 1, 5])

_tick_lattice_notes = st.lists(
    # times in 8-tick steps at 960 ticks per second: 48 ticks is exactly the
    # 50 ms onset tolerance, and many offsets land exactly on their window
    st.builds(
        lambda onset, duration, pitch, velocity: Note(
            onset * 8 / 960, (onset + duration) * 8 / 960, pitch, velocity
        ),
        st.integers(0, 40),
        st.integers(1, 40),
        st.sampled_from([60, 61, 64]),
        st.integers(1, 127),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
# at 1e10 s an onset's ulp (1.9e-6) is wider than the search slack (1e-6)
@given(_tick_lattice_notes, _tick_lattice_notes, st.sampled_from([0.0, 1e6, 1e10]), _passes)
# 0.2 - 0.05 is 0.15000000000000002: only the slack keeps the est onset 0.15 in the search
@example([Note(0.2, 0.3, 60, 80)], [Note(0.15, 0.25, 60, 80)], 0.0, midi.EXPAND_PASS)
# reference pitches 60, 61, 64, 60, 64 in row order, three notes on one onset: the bounds are searched in
# (pitch, onset) order and must land back on their own rows
@example(
    [Note(0.1, 0.2, 64, 80), Note(0.1, 0.3, 61, 80), Note(0.1, 0.25, 60, 80), Note(0.2, 0.3, 60, 80),
     Note(0.2, 0.4, 64, 80)],
    [Note(0.11, 0.21, 64, 70), Note(0.1, 0.3, 61, 80), Note(0.09, 0.25, 60, 80), Note(0.19, 0.31, 60, 80),
     Note(0.12, 0.22, 60, 90), Note(0.21, 0.4, 64, 80)],
    0.0,
    1,
)
def test_candidate_edges_equal_loop_oracle(ref, est, shift, expand_pass):
    ref, est = (Performance.from_notes(notes) for notes in (ref, est))
    ref, est = (Performance(p.onsets + shift, p.offsets + shift, p.pitches, p.velocities) for p in (ref, est))
    _assert_candidate_edges_equal_oracle(ref, est, expand_pass)


def _assert_candidate_edges_equal_oracle(ref, est, expand_pass):
    # a pass of 1 or 5 pairs splits the search into many passes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", expand_pass)
        edges = {mode: _candidate_edges(ref, est, mode) for mode in MATCH_MODES}
    for mode in ("onset", "onset_offset"):
        i, j = edges[mode]
        assert list(zip(i.tolist(), j.tolist())) == oracle_candidate_edges(ref.notes, est.notes, mode), mode
    # the velocity rule filters the offset mode's edges after the search
    assert all(map(np.array_equal, edges["onset_offset"], edges["onset_offset_velocity"]))


# many notes of three pitches on a few onsets: more than 16 rows tie on a pitch, where numpy's
# unstable sorts stop acting stable; an onset of 0 is drawn as 0.0 or -0.0
_tied_notes = st.lists(
    st.builds(
        lambda onset, negative, duration, pitch: Note(
            -0.0 if negative and not onset else onset * 8 / 960, (onset + duration) * 8 / 960, pitch, 80
        ),
        st.integers(0, 8),
        st.booleans(),
        st.integers(1, 12),
        st.sampled_from([60, 61, 64]),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(_tied_notes, _tied_notes, st.data(), _passes)
def test_candidate_edges_equal_loop_oracle_on_rows_in_any_order(ref, est, data, expand_pass):
    # the search sorts est rows by (pitch, onset, row) itself, with -0.0 and 0.0 as one onset
    ref, est = (
        p.take(data.draw(st.permutations(range(len(p))))) for p in map(Performance.from_notes, (ref, est))
    )
    _assert_candidate_edges_equal_oracle(ref, est, expand_pass)


@settings(max_examples=150, deadline=None)
@given(_tick_lattice_notes, _tick_lattice_notes)
def test_onset_and_onset_offset_counts_equal_mir_eval_match_notes(ref, est):
    # a maximum matching's size is unique, so this holds whichever matching either side picks
    ref_perf, est_perf = Performance.from_notes(ref), Performance.from_notes(est)
    for mode in ("onset", "onset_offset"):
        n = oracle_mir_eval_counts(ref, est, mode)
        assert note_metrics(ref_perf, est_perf, mode) == PRF.from_counts(n, len(est) - n, len(ref) - n), mode


@settings(max_examples=100, deadline=None)
@given(_tick_lattice_notes, _tick_lattice_notes, st.randoms(use_true_random=False))
def test_note_metrics_invariant_to_estimate_order(ref, est, random):
    ref, est = Performance.from_notes(ref), Performance.from_notes(est)
    shuffled = est.take(random.sample(range(len(est)), len(est)))
    for mode in MATCH_MODES:
        assert note_metrics(ref, shuffled, mode) == note_metrics(ref, est, mode), mode


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from([0.0, 0.01, 0.04]), st.sampled_from([0, 1])
)
def test_frame_and_note_offset_scores_do_not_depend_on_row_order(seed, n_notes, sigma, shuffled):
    # onset_offset_velocity is left out: its least-squares fit runs over the edges in row order
    rng = np.random.default_rng(seed)
    ref = random_performance(rng, n_notes)
    sides = [ref, jitter_onsets(ref, sigma, rng)]
    permuted = list(sides)
    permuted[shuffled] = sides[shuffled].take(rng.permutation(n_notes))
    h = RunConfig.frame_length
    frame, shuffled_frame = (
        frame_metrics(*(build_piano_roll(perf, h) for perf in pair)) for pair in (sides, permuted)
    )
    assert shuffled_frame == frame
    assert note_metrics(*permuted, "onset_offset") == note_metrics(*sides, "onset_offset")


def test_matching_pairs_are_valid_and_disjoint():
    rng = np.random.default_rng(59)
    for _ in range(30):
        ref = Performance.from_notes(_small_alphabet_notes(rng, 10))
        est = Performance.from_notes(_small_alphabet_notes(rng, 10))
        matching = match_notes(ref, est, "onset_offset")
        ref, est = ref.notes, est.notes
        ref_used = matching.pairs[:, 0].tolist()
        est_used = matching.pairs[:, 1].tolist()
        assert len(set(ref_used)) == len(ref_used)
        assert len(set(est_used)) == len(est_used)
        for i, j in matching.pairs.tolist():
            assert ref[i].pitch == est[j].pitch
            assert abs(ref[i].onset - est[j].onset) <= 0.05 + 1e-12
            assert abs(ref[i].offset - est[j].offset) <= offset_window(ref[i].duration) + 1e-12
        assert set(ref_used) <= set(range(10))
        assert set(est_used) <= set(range(10))


# ---------------------------------------------------------------------------
# Velocity mode specifics
# ---------------------------------------------------------------------------

def test_velocity_mode_invariant_to_affine_velocity_maps():
    # est velocities are an exact affine image of ref's: fit recovers it
    ref = [Note(i * 0.3, i * 0.3 + 0.2, 60, 30 + 10 * i) for i in range(6)]
    est = [Note(n.onset, n.offset, n.pitch, min(127, 2 * n.velocity - 20)) for n in ref]
    prf = note_metrics(Performance.from_notes(ref), Performance.from_notes(est), "onset_offset_velocity")
    assert prf.f1 == 1.0


def test_velocity_mode_rejects_scrambled_velocities():
    ref = [Note(i * 0.3, i * 0.3 + 0.2, 60, v) for i, v in enumerate((20, 90, 40, 110, 60, 127))]
    scrambled = [
        Note(n.onset, n.offset, n.pitch, v)
        for n, v in zip(ref, (127, 20, 110, 40, 90, 60))
    ]
    ref, scrambled = Performance.from_notes(ref), Performance.from_notes(scrambled)
    prf = note_metrics(ref, scrambled, "onset_offset_velocity")
    assert prf.f1 < 1.0
    # sanity: timing alone would have matched everything
    assert note_metrics(ref, scrambled, "onset_offset").f1 == 1.0


def test_velocity_mode_constant_reference_velocities():
    # zero-range reference velocities normalize to all-zero targets
    ref = [Note(i * 0.3, i * 0.3 + 0.2, 60, 64) for i in range(4)]
    est = [Note(n.onset, n.offset, n.pitch, 90) for n in ref]
    prf = note_metrics(Performance.from_notes(ref), Performance.from_notes(est), "onset_offset_velocity")
    assert prf.f1 == 1.0


def test_velocity_count_differs_from_mir_eval_on_a_pinned_pair():
    # README: here the fit runs over every onset_offset candidate pair and the matching runs again;
    # mir_eval fits over its onset_offset matching only. The extra candidate (0, 1) pulls this fit.
    ref = [Note(0.0, 1.0, 60, 20), Note(0.08, 1.0, 60, 40), Note(2.0, 3.0, 64, 100)]
    est = [Note(0.0, 1.0, 60, 60), Note(0.04, 1.0, 60, 80), Note(2.0, 3.0, 64, 120)]
    # ref 1 has est 1 only, so the maximum onset_offset matching is unique: {(0, 0), (1, 1), (2, 2)}
    assert oracle_candidate_edges(ref, est, "onset_offset") == [(0, 0), (0, 1), (1, 1), (2, 2)]
    assert oracle_mir_eval_velocity_count(ref, est) == 3
    assert oracle_mir_eval_velocity_count(ref, ref) == 3  # a perfect fit keeps every pair
    ref, est = Performance.from_notes(ref), Performance.from_notes(est)
    assert len(match_notes(ref, est, "onset_offset_velocity").pairs) == 2
