import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_cluster_onsets, oracle_split_columns, oracle_split_streams, random_performance
from pianoeval.midi import Note, Performance
from pianoeval.streams import cluster_onsets, split_streams


def _perf(*notes):
    return Performance.from_notes([Note(*n) for n in notes])


def _melody(perf):
    return list(split_streams(perf)[0].notes)


def _bass(perf):
    return list(split_streams(perf)[1].notes)


def _clusters(perf, eps):
    firsts = cluster_onsets(perf, eps).tolist()
    notes = perf.notes
    return [list(notes[a:b]) for a, b in zip(firsts, firsts[1:] + [len(notes)])]


C4, E4, G4, B3, D5 = 60, 64, 67, 59, 74


def test_cluster_simple():
    perf = _perf((0.00, 1.0, 60, 64), (0.01, 1.0, 64, 64), (0.50, 1.0, 67, 64))
    clusters = _clusters(perf, 0.03)
    assert [[n.onset for n in c] for c in clusters] == [[0.00, 0.01], [0.50]]


def test_cluster_empty():
    assert _clusters(_perf(), 0.03) == []


def test_cluster_anchored_not_chained():
    # 0.04 is within eps of 0.02 but not of the anchor 0.00
    perf = _perf((0.00, 1.0, 60, 64), (0.02, 1.0, 64, 64), (0.04, 1.0, 67, 64))
    clusters = _clusters(perf, 0.03)
    assert [[n.onset for n in c] for c in clusters] == [[0.00, 0.02], [0.04]]


def test_cluster_eps_domain():
    perf = _perf((0.0, 1.0, C4, 64), (0.5, 1.0, E4, 64), (9.0, 9.5, G4, 64))
    for bad in (-0.01, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            cluster_onsets(perf, bad)
        with pytest.raises(ValueError, match="non-negative"):
            split_streams(perf, bad)
    assert cluster_onsets(perf, math.inf).tolist() == [0]
    assert len(split_streams(perf, math.inf)[0]) == 1


def test_melody_picks_chord_top():
    perf = _perf((0.0, 1.0, C4, 64), (0.0, 1.0, E4, 64), (0.0, 1.0, G4, 64))
    assert [n.pitch for n in _melody(perf)] == [G4]


def test_melody_single_note():
    perf = _perf((0.0, 1.0, C4, 64))
    assert _melody(perf) == [perf.notes[0]]


def test_melody_three_clusters():
    perf = _perf(
        (0.0, 1.0, C4, 64),
        (0.0, 1.0, E4, 64),
        (0.5, 1.0, D5, 64),
        (1.0, 2.0, B3, 64),
        (1.0, 2.0, G4, 64),
    )
    assert [n.pitch for n in _melody(perf)] == [E4, D5, G4]
    assert [n.pitch for n in _bass(perf)] == [C4, D5, B3]


def test_bass_picks_chord_bottom():
    perf = _perf((0.0, 1.0, C4, 64), (0.0, 1.0, E4, 64), (0.0, 1.0, G4, 64))
    assert [n.pitch for n in _bass(perf)] == [C4]


def test_equal_pitch_tie_longest_duration():
    perf = _perf((0.0, 0.5, C4, 64), (0.01, 2.0, C4, 80))
    assert _melody(perf)[0].velocity == 80
    assert _bass(perf)[0].velocity == 80


def test_melody_preserves_offsets_and_velocities():
    perf = _perf((0.0, 3.7, G4, 99), (0.0, 1.0, C4, 30))
    melody = _melody(perf)
    assert melody[0].offset == 3.7 and melody[0].velocity == 99


def test_accompaniment_set_difference():
    perf = _perf(
        (0.0, 1.0, C4, 64),
        (0.0, 1.0, E4, 64),
        (0.5, 1.0, D5, 64),
        (1.0, 2.0, B3, 64),
        (1.0, 2.0, G4, 64),
    )
    assert [n.pitch for n in split_streams(perf)[2].notes] == [C4, B3]
    assert split_streams(_perf((0.0, 1.0, C4, 64), (0.5, 1.0, E4, 64)))[2].notes == ()
    # multiset difference: of two equal notes, only one becomes the melody
    twins = _perf((0.0, 1.0, C4, 64), (0.0, 1.0, C4, 64))
    melody, _, rest = split_streams(twins)
    assert melody.notes == rest.notes == (Note(0.0, 1.0, C4, 64),)


def test_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(25):
        perf = random_performance(rng, int(rng.integers(1, 80)))
        melody, bass, rest = split_streams(perf)
        assert len(melody) + len(rest) == len(perf)
        assert len(bass) == len(melody)
        # melody onsets strictly increasing after clustering; likewise bass
        for stream in (melody, bass):
            onsets = [n.onset for n in stream.notes]
            assert all(b > a for a, b in zip(onsets, onsets[1:]))


def test_pitch_dominance_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        perf = random_performance(rng, int(rng.integers(1, 80)))
        melody, bass, _ = split_streams(perf, 0.03)
        for cluster, top, bottom in zip(_clusters(perf, 0.03), melody.notes, bass.notes, strict=True):
            pitches = [n.pitch for n in cluster]
            assert top.pitch == max(pitches)
            assert bottom.pitch == min(pitches)
            # ties: longest duration, then first in sort order
            for pick in (top, bottom):
                tied = [n for n in cluster if n.pitch == pick.pitch]
                longest = max(n.duration for n in tied)
                assert pick == next(n for n in tied if n.duration == longest)


def test_determinism():
    rng = np.random.default_rng(9)
    perf = random_performance(rng, 50)
    assert [s.notes for s in split_streams(perf)] == [s.notes for s in split_streams(perf)]


_chord_notes = st.lists(
    # on a 10 ms lattice onsets land exactly eps after an anchor, where
    # onset - anchor and anchor + eps round differently; on the binary
    # 1/128 s lattice notes of different onsets tie on duration exactly
    st.builds(
        lambda unit, k, d, pitch, velocity: Note(k * unit, (k + d) * unit, pitch, velocity),
        st.sampled_from([0.01, 1 / 128]),
        st.integers(0, 30),
        st.integers(1, 3),
        st.sampled_from([55, 60, 64]),
        st.integers(1, 127),
    ),
    max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(_chord_notes, st.sampled_from([0.0, 0.02, 0.03, math.inf]), st.data())
def test_split_streams_equal_per_note_oracle(notes, eps, data):
    # rows in any order: take() keeps the order it is given, so onsets may fall back
    perf = Performance.from_notes(notes)
    perf = perf.take(data.draw(st.permutations(range(len(perf)))))
    clusters, melody, bass, rest = oracle_split_streams(perf.notes, eps)
    assert _clusters(perf, eps) == clusters
    streams = split_streams(perf, eps)
    assert [s.notes for s in streams] == [tuple(melody), tuple(bass), tuple(rest)]
    # and bit for bit the columns of the lexsort implementation
    firsts = cluster_onsets(perf, eps)
    assert firsts.dtype == np.int64 and firsts.tobytes() == oracle_cluster_onsets(perf, eps).tobytes()
    for stream, oracle in zip(streams, oracle_split_columns(perf, eps), strict=True):
        for column, expected in zip(stream._columns(), oracle._columns(), strict=True):
            assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes()
