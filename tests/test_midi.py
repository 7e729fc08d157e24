import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    PedalEvent,
    oracle_apply_sustain_pedal,
    oracle_parse_midi,
    oracle_parse_track,
    performance_to_smf,
    random_performance,
    serialize_smf,
    vlq,
)
from pianoeval import midi
from pianoeval.evaluation import evaluate_performances
from pianoeval.midi import (
    MidiParseError,
    Note,
    Performance,
    apply_sustain_pedal,
    expand_in_passes,
    expand_ranges,
    parse_midi,
    parse_midi_file,
)


# ---------------------------------------------------------------------------
# Note / Performance invariants
# ---------------------------------------------------------------------------

def test_note_requires_positive_duration():
    with pytest.raises(ValueError):
        Note(1.0, 1.0, 60, 64)
    with pytest.raises(ValueError):
        Note(1.0, 0.5, 60, 64)


def test_note_field_ranges():
    with pytest.raises(ValueError):
        Note(0.0, 1.0, 128, 64)
    with pytest.raises(ValueError):
        Note(0.0, 1.0, 60, 0)
    with pytest.raises(ValueError):
        Note(0.0, 1.0, 60, 128)
    with pytest.raises(ValueError, match="whole numbers"):
        Note(0, 1, 60.7, 80)


@pytest.mark.parametrize(
    "onset, offset", [(-0.05, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (0.0, math.inf)]
)
def test_note_and_performance_reject_negative_and_non_finite_times(onset, offset):
    with pytest.raises(ValueError, match="finite and non-negative"):
        Note(onset, offset, 60, 80)
    with pytest.raises(ValueError, match="finite and non-negative"):
        Performance([onset, 0.0], [offset, 0.1], [60, 62], [80, 80])


def test_performance_sorting_and_end_time():
    perf = Performance.from_notes(
        [Note(1.0, 2.0, 70, 50), Note(0.0, 3.0, 60, 50), Note(1.0, 1.5, 60, 50)]
    )
    assert [n.pitch for n in perf.notes] == [60, 60, 70]
    assert perf.notes[1].onset == 1.0
    assert perf.end_time == 3.0
    assert len(Performance.from_notes([])) == 0
    assert Performance.from_notes([]).end_time == 0.0


def test_performance_columns_are_coerced_read_only_and_checked():
    perf = Performance([0, 1], [1, 2.5], [60.0, 61.0], [64, 65])
    assert [c.dtype for c in (perf.onsets, perf.offsets, perf.pitches, perf.velocities)] == [
        np.float64, np.float64, np.int64, np.int64,
    ]
    assert perf.end_time == 2.5 and isinstance(perf.end_time, float)
    with pytest.raises(ValueError):
        perf.onsets[0] = 5.0
    for bad in (
        ([0.0], [1.0, 2.0], [60], [64]),  # unequal lengths
        ([1.0], [1.0], [60], [64]),  # zero duration
        ([0.0], [1.0], [128], [64]),  # pitch
        ([0.0], [1.0], [60], [0]),  # velocity
    ):
        with pytest.raises(ValueError):
            Performance(*bad)


@pytest.mark.parametrize(
    "pitch, velocity, problem",
    [(60.7, 80.9, "pitch must be a whole number"), (60.0, 80.5, "velocity must be a whole number"),
     (1e30, 80, "pitch out of range")],
)
def test_performance_rejects_fractional_and_huge_pitch_or_velocity(pitch, velocity, problem):
    # not truncated to 60 and 80, and no OverflowError from the int64 cast
    with pytest.raises(ValueError, match=rf"^note 0 \(0\.0, 1\.0, .*\): {problem}$"):
        Performance([0.0], [1.0], [pitch], [velocity])


def test_take_keeps_given_order_and_end_time():
    perf = Performance.from_notes([Note(0.0, 2.0, 60, 64), Note(1.0, 1.5, 62, 70)])
    part = perf.take([1, 0])
    assert [n.pitch for n in part.notes] == [62, 60]
    assert part.end_time == perf.end_time == 2.0
    masked = perf.take(np.array([False, True]))
    assert len(masked) == 1
    assert masked.end_time == 1.5  # the end time is always the last offset


def test_evaluation_path_builds_no_note(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    paths = []
    for name in ("ref.mid", "est.mid"):
        path = tmp_path / name
        path.write_bytes(performance_to_smf(random_performance(rng, 80), pedals=((0, 127), (2400, 0), (4800, 100))))
        paths.append(path)

    def refuse(self):
        raise AssertionError("a Note was built between parse and report")

    monkeypatch.setattr(Note, "__post_init__", refuse)
    ref, est = (parse_midi_file(path) for path in paths)
    report = evaluate_performances(ref, est)
    assert 0.0 <= report.note_offset.f1 <= 1.0


# ---------------------------------------------------------------------------
# Ticks to seconds through the tempo map, seen through parse_midi
# ---------------------------------------------------------------------------

def _parsed_offsets(offset_ticks, **smf):
    """The offsets of back-to-back notes ending at these ticks, the first from tick 0, after a parse."""
    onset_ticks = [0, *offset_ticks[:-1]]
    data = serialize_smf([(a, b, 60, 64) for a, b in zip(onset_ticks, offset_ticks)], **smf)
    return parse_midi(data, pedal_mode="ignore").offsets.tolist()


def test_ticks_to_seconds_origin():
    assert parse_midi(serialize_smf([(0, 480, 60, 64)], tempos=())).onsets.tolist() == [0.0]


def test_ticks_to_seconds_constant_tempo():
    assert _parsed_offsets([960], tempos=((0, 500_000),)) == [1.0]


def test_ticks_to_seconds_tempo_change():
    assert _parsed_offsets([960], tempos=((0, 500_000), (480, 250_000))) == [0.75]


def test_tempo_map_inserts_default_at_zero():
    # 500000 us/quarter holds before the first set-tempo event
    assert _parsed_offsets([480], tempos=((480, 250_000),)) == [0.5]


def test_division_zero_is_parse_error():
    data = serialize_smf([(0, 480, 60, 64)])
    with pytest.raises(MidiParseError, match="zero ticks per quarter"):
        parse_midi(data[:12] + b"\x00\x00" + data[14:])


def test_ticks_to_seconds_no_drift():
    # exact integer accumulation: quarter at 120 BPM is exactly 0.5 s
    assert _parsed_offsets([480 * k for k in range(1, 200)]) == [0.5 * k for k in range(1, 200)]


def test_tick_conversion_exact_past_2_53():
    # 3q ticks at 0xFFFFFF us/quarter is past 2**53 microseconds, where float64 products round
    q = 2**28 - 1
    data = serialize_smf([(q, 3 * q, 60, 64), (2 * q, 2 * q + 1, 62, 64)], tpq=1, tempos=((0, 0xFFFFFF),))
    # parse only: evaluating a file this long would allocate for its whole duration
    assert parse_midi(data).offsets.max() == 3 * q * 0xFFFFFF / 10**6 == 13510798026.473475


# ---------------------------------------------------------------------------
# parse_midi
# ---------------------------------------------------------------------------

def test_parse_single_note():
    data = serialize_smf([(0, 480, 60, 64)], tpq=480)
    perf = parse_midi(data)
    assert len(perf) == 1
    note = perf.notes[0]
    assert (note.onset, note.offset, note.pitch, note.velocity) == (0.0, 0.5, 60, 64)


def test_parse_empty_track():
    perf = parse_midi(serialize_smf([], tpq=480))
    assert len(perf) == 0
    assert perf.end_time == 0.0


def test_zero_velocity_note_on_is_note_off():
    data = serialize_smf([(0, 480, 60, 64)], note_off_via_zero_velocity=True)
    perf = parse_midi(data)
    assert len(perf) == 1
    assert perf.notes[0].offset == 0.5


def test_format_0_parses():
    data = serialize_smf([(0, 480, 60, 64)], fmt=0)
    assert len(parse_midi(data)) == 1


def test_same_pitch_overlap_closed_at_new_onset():
    # second note-on of pitch 60 arrives before the first note-off
    data = serialize_smf([(0, 960, 60, 64), (480, 1440, 60, 70)])
    perf = parse_midi(data)
    assert len(perf) == 2
    assert perf.notes[0].offset == pytest.approx(0.5)
    assert perf.notes[1].onset == pytest.approx(0.5)


def test_unterminated_note_closed_at_track_end():
    # pitch 60 gets a note-on but never a note-off; raw event bytes
    track = (
        b"\x00\x90\x3c\x40"  # note-on pitch 60 at tick 0
        + b"\x83\x60\x90\x48\x40"  # note-on pitch 72 at tick 480
        + b"\x83\x60\x80\x48\x40"  # note-off pitch 72 at tick 960
        + b"\x00\xff\x2f\x00"
    )
    data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    data += b"MTrk" + len(track).to_bytes(4, "big") + track
    perf = parse_midi(data)
    assert len(perf) == 2
    sixty = [n for n in perf.notes if n.pitch == 60][0]
    assert sixty.offset == pytest.approx(1.0)  # closed at track end (tick 960)


def test_running_status():
    track = (
        b"\x00\x90\x3c\x40"  # note-on with explicit status
        + b"\x60\x3c\x00"  # running status: same pitch, velocity 0 (off) at +96
        + b"\x00\x3e\x40"  # running status: note-on pitch 62
        + b"\x60\x3e\x00"
        + b"\x00\xff\x2f\x00"
    )
    data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    data += b"MTrk" + len(track).to_bytes(4, "big") + track
    perf = parse_midi(data)
    assert [n.pitch for n in perf.notes] == [60, 62]


def test_meta_event_cancels_running_status():
    track = (
        b"\x00\x90\x3c\x40"
        + b"\x00\xff\x01\x02hi"  # text meta event
        + b"\x60\x3c\x00"  # would need running status, which meta canceled
    )
    data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    data += b"MTrk" + len(track).to_bytes(4, "big") + track
    with pytest.raises(MidiParseError):
        parse_midi(data)


def test_malformed_header_rejected():
    with pytest.raises(MidiParseError) as info:
        parse_midi(b"RIFFxxxx")
    assert info.value.offset == 0


def test_smf_format_2_rejected():
    data = serialize_smf([(0, 480, 60, 64)])
    bad = data[:8] + (2).to_bytes(2, "big") + data[10:]
    with pytest.raises(MidiParseError, match="format 2"):
        parse_midi(bad)


def test_smpte_division_rejected():
    data = serialize_smf([(0, 480, 60, 64)])
    bad = data[:12] + b"\xe8\x28" + data[14:]  # negative SMPTE fps code
    with pytest.raises(MidiParseError, match="SMPTE"):
        parse_midi(bad)


def test_track_length_mismatch_rejected():
    data = serialize_smf([(0, 480, 60, 64)])
    # inflate the declared length of the note track beyond the data
    track_at = data.index(b"MTrk", data.index(b"MTrk") + 1)
    bad = data[: track_at + 4] + (10_000).to_bytes(4, "big") + data[track_at + 8 :]
    with pytest.raises(MidiParseError, match="length mismatch"):
        parse_midi(bad)


def _with_alien_chunks(data: bytes, *payloads: bytes) -> bytes:
    """``data`` with one non-MTrk chunk before each of its MTrk chunks, holding the given payloads."""
    parts = data.split(b"MTrk")
    aliens = [b"XFIH" + len(p).to_bytes(4, "big") + p for p in payloads]
    return parts[0] + b"".join(alien + b"MTrk" + part for alien, part in zip(aliens, parts[1:]))


def test_alien_chunks_are_skipped():
    data = serialize_smf([(0, 480, 60, 64), (240, 960, 64, 90)], tempos=((0, 400_000),), pedals=[(100, 127), (700, 0)])
    assert data.count(b"MTrk") == 2  # a tempo track and a note track
    alien = _with_alien_chunks(data, b"\x00\x01\x02MTrk", b"")
    assert alien != data
    for pedal_mode in ("extend", "ignore"):
        assert parse_midi(alien, pedal_mode).notes == parse_midi(data, pedal_mode).notes
        assert oracle_parse_midi(alien, pedal_mode) == oracle_parse_midi(data, pedal_mode)


def test_truncated_alien_chunk_rejected_at_its_length():
    data = serialize_smf([(0, 480, 60, 64)])
    bad = data[:14] + b"XFIH" + (100).to_bytes(4, "big") + data[14:]
    message = "alien chunk extends past end of data (byte offset 18)"
    for read in (parse_midi, oracle_parse_midi):
        with pytest.raises(MidiParseError) as info:
            read(bad)
        assert (str(info.value), info.value.offset) == (message, 18)


def test_dangling_running_status_rejected():
    track = b"\x00\x3c\x40"  # data bytes with no status byte ever seen
    data = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + (480).to_bytes(2, "big")
    data += b"MTrk" + len(track).to_bytes(4, "big") + track
    with pytest.raises(MidiParseError, match="running status"):
        parse_midi(data)


def test_parse_error_carries_byte_offset():
    with pytest.raises(MidiParseError) as info:
        parse_midi(b"MThd" + (6).to_bytes(4, "big") + b"\x00\x02\x00\x01\x01\xe0")
    assert "byte offset" in str(info.value)
    assert isinstance(info.value.offset, int)


def test_zero_tempo_rejected_at_event_offset():
    data = serialize_smf([], tempos=((0, 0),), fmt=0)
    with pytest.raises(MidiParseError, match="zero tempo") as info:
        parse_midi(data)
    assert data[info.value.offset : info.value.offset + 3] == b"\xff\x51\x03"


def _one_track_smf(track: bytes, fmt: int = 0) -> bytes:
    """An SMF of format ``fmt``, 480 ticks per quarter, whose one MTrk chunk holds ``track`` from byte 22."""
    header = b"MThd" + (6).to_bytes(4, "big") + b"".join(v.to_bytes(2, "big") for v in (fmt, 1, 480))
    return header + b"MTrk" + len(track).to_bytes(4, "big") + track


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (_one_track_smf(b"\x80\x80"), "truncated variable-length quantity", 24),
        (_one_track_smf(b"\x00\xff\x2f\x00", fmt=3), "unknown SMF format 3", 8),
        (_one_track_smf(b"\x00"), "event truncated at track end", 23),
        (_one_track_smf(b"\x00\x90\x3c"), "channel event truncated", 24),
        (_one_track_smf(b"\x00\xff"), "truncated meta event", 24),
        (_one_track_smf(b"\x00\xff\x51\x02\x07\xa1"), "set-tempo event with length 2", 28),
        (_one_track_smf(b"\x00\xf0\x05\x01"), "sysex event overruns track", 25),
        (_one_track_smf(b"\x80\x80\x80\x80\x00\xff\x2f\x00"), "variable-length quantity longer than 4 bytes", 26),
        (_one_track_smf(b"\x00\xff\x01\x80\x80\x80\x80\x00"), "variable-length quantity longer than 4 bytes", 29),
    ],
)
def test_each_truncation_and_length_error_names_its_byte_offset(data, message, offset):
    with pytest.raises(MidiParseError) as info:
        parse_midi(data)
    assert (str(info.value), info.value.offset) == (f"{message} (byte offset {offset})", offset)
    _assert_reader_equals_oracle(data)


def test_parse_requires_known_pedal_mode():
    data = serialize_smf([(0, 480, 60, 64)])
    with pytest.raises(ValueError):
        parse_midi(data, pedal_mode="sometimes")


def test_tempo_change_mid_file():
    # 480 ticks at 500000, then 480 ticks at 250000 -> offsets 0.5 + 0.25
    data = serialize_smf([(0, 960, 60, 64)], tempos=((0, 500_000), (480, 250_000)))
    perf = parse_midi(data)
    assert perf.notes[0].offset == 0.75


def test_min_duration_applied():
    data = serialize_smf([(0, 0, 60, 64)])  # zero-length after quantization
    perf = parse_midi(data)
    assert perf.notes[0].duration == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# Sustain pedal
# ---------------------------------------------------------------------------

def _perf(*notes):
    return Performance.from_notes([Note(*n) for n in notes])


def test_pedal_no_events_identity():
    perf = _perf((0.0, 1.0, 60, 64))
    assert apply_sustain_pedal(perf, [], []) == perf


def test_pedal_extends_to_release():
    perf = _perf((0.0, 1.0, 60, 64))
    times, values = [0.5, 2.0], [100, 0]
    out = apply_sustain_pedal(perf, times, values)
    assert out.notes[0].offset == 2.0


def test_pedal_extension_truncated_at_same_pitch_onset():
    perf = _perf((0.0, 1.0, 60, 64), (1.5, 2.5, 60, 64))
    times, values = [0.5, 3.0], [100, 0]
    out = apply_sustain_pedal(perf, times, values)
    assert out.notes[0].offset == 1.5  # truncated by the next pitch-60 onset
    assert out.notes[1].offset == 3.0


def test_pedal_down_only_when_offset_inside_span():
    perf = _perf((0.0, 1.0, 60, 64))
    times, values = [1.2, 2.0], [100, 0]  # pedal goes down after the note ends
    out = apply_sustain_pedal(perf, times, values)
    assert out.notes[0].offset == 1.0


def test_pedal_release_boundary_is_up():
    perf = _perf((0.0, 1.0, 60, 64))
    times, values = [0.2, 1.0], [100, 0]  # released exactly at the offset
    out = apply_sustain_pedal(perf, times, values)
    assert out.notes[0].offset == 1.0


def test_pedal_threshold():
    perf = _perf((0.0, 1.0, 60, 64))
    times, values = [0.5, 2.0], [63, 0]  # below the threshold: up
    assert apply_sustain_pedal(perf, times, values).notes[0].offset == 1.0
    times, values = [0.5, 2.0], [64, 0]  # at the threshold: down
    assert apply_sustain_pedal(perf, times, values).notes[0].offset == 2.0


def test_pedal_unreleased_extends_to_data_end():
    perf = _perf((0.0, 1.0, 60, 64), (0.0, 3.0, 72, 64))
    times, values = [0.5], [127]
    out = apply_sustain_pedal(perf, times, values)
    assert max(n.offset for n in out.notes) == 3.0
    assert [n.offset for n in out.notes if n.pitch == 60] == [3.0]


def test_pedal_never_shortens():
    rng = np.random.default_rng(7)
    for _ in range(20):
        perf = random_performance(rng, 30)
        times = np.sort(rng.uniform(0, perf.end_time, size=6))
        values = rng.integers(0, 128, size=6)
        out = apply_sustain_pedal(perf, times, values)
        before = sorted((n.onset, n.pitch, n.offset) for n in perf.notes)
        after = sorted((n.onset, n.pitch, n.offset) for n in out.notes)
        for (o1, p1, f1), (o2, p2, f2) in zip(before, after):
            assert (o1, p1) == (o2, p2)
            assert f2 >= f1 - 1e-12


@pytest.mark.parametrize(
    "times, values, message",
    [
        ([0.5, 2.0, 3.0], [100, 0], r"^pedal times \(3,\) and values \(2,\) must be 1-D, equal length$"),
        ([0.5], [100, 0], r"^pedal times \(1,\) and values \(2,\) must be 1-D, equal length$"),
        ([2.0, 0.5], [100, 0], r"^pedal times must be non-decreasing \(at t=0.5\)$"),
        ([0.5, math.nan], [100, 0], r"^pedal times must be non-decreasing \(at t=nan\)$"),
    ],
)
def test_pedal_rejects_unequal_lengths_and_decreasing_times(times, values, message):
    with pytest.raises(ValueError, match=message):
        apply_sustain_pedal(_perf((0.0, 1.0, 60, 64)), times, values)


def test_pedal_applied_during_parse():
    data = serialize_smf([(0, 480, 60, 64)], pedals=((240, 127), (960, 0)))
    assert parse_midi(data, pedal_mode="extend").notes[0].offset == 1.0
    assert parse_midi(data, pedal_mode="ignore").notes[0].offset == 0.5


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_round_trip_random_performances():
    rng = np.random.default_rng(11)
    for i in range(15):
        tpq = int(rng.choice([240, 480, 960]))
        uspq = int(rng.choice([400_000, 500_000, 750_000]))
        tick = uspq / (tpq * 1_000_000)  # seconds per tick
        perf = random_performance(rng, int(rng.integers(5, 60)))
        parsed = parse_midi(performance_to_smf(perf, tpq=tpq, uspq=uspq), pedal_mode="ignore")
        assert len(parsed) == len(perf)
        for a, b in zip(perf.notes, parsed.notes):
            assert a.pitch == b.pitch
            assert a.velocity == b.velocity
            assert abs(a.onset - b.onset) <= tick + 1e-9
            assert abs(a.offset - b.offset) <= tick + 1e-9


def test_parse_output_satisfies_invariants():
    rng = np.random.default_rng(13)
    for _ in range(10):
        perf = random_performance(rng, 40)
        parsed = parse_midi(performance_to_smf(perf))
        onsets = [n.onset for n in parsed.notes]
        assert onsets == sorted(onsets)
        assert parsed.end_time >= max(n.offset for n in parsed.notes)
        for n in parsed.notes:
            assert n.offset > n.onset
            assert 0 <= n.pitch <= 127
            assert 1 <= n.velocity <= 127


# ---------------------------------------------------------------------------
# Differential properties against the per-note loops
# ---------------------------------------------------------------------------

_lattice_notes = st.lists(
    # one 0.25 s lattice for notes and pedal events, so offsets meet pedal
    # releases and same-pitch onsets exactly; two pitches repeat often
    st.builds(
        lambda k, d, pitch, velocity: Note(k * 0.25, (k + d) * 0.25, pitch, velocity),
        st.integers(0, 16),
        st.integers(1, 8),
        st.sampled_from([60, 62]),
        st.sampled_from([40, 90]),
    ),
    max_size=12,
)
_pedal_events = st.lists(st.tuples(st.integers(0, 30), st.sampled_from([0, 63, 64, 127])), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_lattice_notes, _pedal_events)
# same-pitch repeat cut short, pedal still down at the end of the data
@example([Note(0.0, 0.5, 60, 40), Note(1.0, 1.5, 60, 90)], [(1, 127)])
# released exactly at an offset
@example([Note(0.0, 0.5, 60, 40)], [(1, 127), (2, 0)])
# offset before the first pedal-down
@example([Note(0.0, 0.5, 60, 40), Note(0.25, 2.0, 62, 40)], [(3, 127), (6, 0)])
def test_pedal_equals_per_note_oracle(notes, events):
    perf = Performance.from_notes(notes)
    pedals = [PedalEvent(k * 0.25, value) for k, value in sorted(events, key=lambda e: e[0])]
    out = apply_sustain_pedal(perf, [e.time for e in pedals], [e.value for e in pedals])
    want_notes, want_end = oracle_apply_sustain_pedal(perf.notes, perf.end_time, pedals)
    assert out.notes == tuple(want_notes)
    assert out.end_time == want_end


@settings(max_examples=300, deadline=None)
@given(
    _lattice_notes.filter(lambda notes: len({(n.onset, n.pitch, n.offset) for n in notes}) == len(notes)),
    _pedal_events.filter(lambda events: any(value >= midi.SUSTAIN_THRESHOLD for _, value in events)),
    st.randoms(use_true_random=False),
)
def test_pedal_on_rows_in_any_order_equals_oracle_on_sorted_notes(notes, events, rnd):
    rows = list(range(len(notes)))
    rnd.shuffle(rows)
    perf = Performance.from_notes(notes)
    pedals = [PedalEvent(k * 0.25, value) for k, value in sorted(events, key=lambda e: e[0])]
    out = apply_sustain_pedal(perf.take(rows), [e.time for e in pedals], [e.value for e in pedals])
    want_notes, want_end = oracle_apply_sustain_pedal(perf.notes, perf.end_time, pedals)
    assert out.notes == tuple(want_notes)
    assert out.end_time == want_end


def test_pedal_truncates_at_the_next_onset_in_time_not_in_row_order():
    rows = Performance(np.array([1.0, 0.0]), np.array([1.2, 0.5]), np.array([60, 60]), np.array([64, 64]))
    out = apply_sustain_pedal(rows, [0.4, 3.0], [127, 0])
    assert [(n.onset, n.offset) for n in out.notes] == [(0.0, 1.0), (1.0, 3.0)]


_tick_notes = st.lists(
    # zero-length notes, same-pitch overlaps and unterminated notes all occur
    st.tuples(st.integers(0, 40), st.integers(0, 6), st.sampled_from([60, 62]), st.integers(1, 127)),
    max_size=12,
)
_tempo_changes = st.lists(st.tuples(st.integers(1, 20), st.sampled_from([300_000, 500_000, 777_777])), max_size=3)


@settings(max_examples=200, deadline=None)
@given(_tick_notes, _tempo_changes, _pedal_events, st.sampled_from(["extend", "ignore"]))
def test_parse_equals_per_note_oracle(notes, tempos, pedals, pedal_mode):
    data = serialize_smf(
        [(60 * k, 60 * (k + d), pitch, velocity) for k, d, pitch, velocity in notes],
        tempos=((0, 500_000), *((240 * k, uspq) for k, uspq in tempos)),
        pedals=[(60 * k, value) for k, value in pedals],
    )
    perf = parse_midi(data, pedal_mode)
    want_notes, want_end = oracle_parse_midi(data, pedal_mode)
    assert perf.notes == tuple(want_notes)
    assert perf.end_time == want_end


def _read_tracks(data: bytes, read_track, notes) -> tuple:
    """``read_track`` over every track of ``data``: (tempos, pedals, end), or
    the message and offset of the MidiParseError it raised; notes go to ``notes``."""
    try:
        _, ntrks, _, pos = midi._parse_header(data)
        tempos, pedals = [], []
        for _ in range(ntrks):
            pos = read_track(data, pos, notes, tempos, pedals)
        return tempos, pedals, pos
    except MidiParseError as err:
        return str(err), err.offset


def _assert_reader_equals_oracle(data: bytes) -> None:
    """The track reader's columns, events and errors equal the oracle tokenizer's, closing order included."""
    columns, rows = ([], [], [], []), []
    assert _read_tracks(data, midi._parse_track, columns) == _read_tracks(data, oracle_parse_track, rows)
    assert list(zip(*columns)) == rows


_deltas = st.one_of(
    st.just(0), st.integers(1, 127), st.integers(2**7, 2**14 - 1), st.integers(2**14, 2**21 - 1),
    st.integers(2**21, 2**28 - 1),
)


@st.composite
def _event_tracks(draw) -> bytes:
    """One MTrk chunk of raw events: notes on two channels (one pitch often on
    both at one tick), note-on velocity 0, running status, 1-4-byte deltas,
    one-data-byte program change and channel pressure, other channel events,
    a system status, sysex F0/F7, tempo and other meta events. Notes left
    open close at the track end, and bytes may follow the end-of-track event."""
    body = bytearray()
    running = None
    for _ in range(draw(st.integers(0, 24))):
        body += vlq(draw(_deltas))
        kind = draw(st.sampled_from([0x90, 0x90, 0x80, "off0", 0xB0, 0xC0, 0xD0, 0xA0, 0xE0, 0xF2, "sysex", "meta"]))
        if kind == 0xF2:  # song position: a system status with two data bytes, which cancels running status
            body += bytes([0xF2, draw(st.integers(0, 127)), draw(st.integers(0, 127))])
            running = None
        elif kind == "sysex":
            payload = draw(st.binary(max_size=4))
            body += bytes([draw(st.sampled_from([0xF0, 0xF7]))]) + vlq(len(payload)) + payload
            running = None
        elif kind == "meta":
            meta_type = draw(st.sampled_from([0x01, 0x03, 0x51, 0x58, 0x7F]))
            if meta_type == 0x51:
                payload = draw(st.integers(1, 2**24 - 1)).to_bytes(3, "big")
            else:
                payload = draw(st.binary(max_size=4))
            body += bytes([0xFF, meta_type]) + vlq(len(payload)) + payload
            running = None
        else:
            status = (0x90 if kind == "off0" else kind) | draw(st.sampled_from([0, 1]))
            if kind == 0xB0:
                data = [draw(st.sampled_from([7, 64])), draw(st.sampled_from([0, 63, 64, 127]))]
            else:
                data = [draw(st.sampled_from([60, 62])), 0 if kind == "off0" else draw(st.integers(0, 127))]
            if kind in (0xC0, 0xD0):
                data = data[:1]
            if status != running or not draw(st.booleans()):
                body.append(status)
            body += bytes(data)
            running = status
    if draw(st.booleans()):
        body += b"\x00\xff\x2f\x00" + draw(st.binary(max_size=6))
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


_event_smfs = st.builds(
    lambda tpq, tracks: b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")
    + len(tracks).to_bytes(2, "big") + tpq.to_bytes(2, "big") + b"".join(tracks),
    st.sampled_from([96, 480]),
    st.lists(_event_tracks(), min_size=1, max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(_event_smfs)
def test_event_kinds_parse_as_the_oracle_does(data):
    _assert_reader_equals_oracle(data)
    for pedal_mode in ("extend", "ignore"):
        perf = parse_midi(data, pedal_mode)
        want_notes, want_end = oracle_parse_midi(data, pedal_mode)
        assert perf.notes == tuple(want_notes)
        assert perf.end_time == want_end


# ---------------------------------------------------------------------------
# Robustness: malformed bytes fail as MidiParseError and nothing else
# ---------------------------------------------------------------------------

_valid_smfs = st.builds(
    lambda notes, tempos, pedals, fmt: serialize_smf(
        [(60 * k, 60 * (k + d), pitch, velocity) for k, d, pitch, velocity in notes],
        tempos=((0, 500_000), *((240 * k, uspq) for k, uspq in tempos)),
        pedals=[(60 * k, value) for k, value in pedals],
        fmt=fmt,
    ),
    _tick_notes,
    _tempo_changes,
    _pedal_events,
    st.sampled_from([0, 1]),
)


@st.composite
def _damaged_smfs(draw):
    """A valid SMF with 1-5 bytes overwritten, deleted, or cut off at the end."""
    data = bytearray(draw(st.one_of(_valid_smfs, _event_smfs)))
    for _ in range(draw(st.integers(1, 5))):
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["overwrite", "delete", "truncate"]))
        if edit == "overwrite":
            data[at] = draw(st.integers(0, 255))
        elif edit == "delete":
            del data[at]
        else:
            del data[at:]
    return bytes(data)


# Only the parse runs: a damaged delta can make a valid file of enormous
# duration, which evaluating or rasterising would have to allocate for.
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=64), _damaged_smfs()), st.sampled_from(["extend", "ignore"]))
def test_parse_raises_only_midi_parse_error(data, pedal_mode):
    try:
        parse_midi(data, pedal_mode)
    except MidiParseError:
        pass
    _assert_reader_equals_oracle(data)


# ---------------------------------------------------------------------------
# Range expansion, whole and in bounded passes
# ---------------------------------------------------------------------------

def test_expand_ranges_lists_each_index_of_each_range_in_order():
    # [2, 4), the empty [5, 5), [0, 3) and the negative [7, 2)
    k, index = expand_ranges(np.array([2, 5, 0, 7]), np.array([4, 5, 3, 2]))
    assert k.tolist() == [0, 0, 2, 2, 2]
    assert index.tolist() == [2, 3, 0, 1, 2]


def _lo_hi(rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return rows[:, 0], rows.sum(axis=1)


# up to 12 ranges [lo, lo + n), n from -10 (a negative range) through 0 (empty) to 80 (longer than
# a pass of 1, 5 or 64 pairs)
_ranges = st.lists(st.tuples(st.integers(0, 40), st.integers(-10, 80)), max_size=12).map(_lo_hi)


@settings(max_examples=300, deadline=None)
@given(_ranges, st.sampled_from([1, 5, 64, midi.EXPAND_PASS]))
@example((np.array([3, 0, 7, 1]), np.array([3, 90, 2, 4])), 64)
@example((np.array([0, 0]), np.array([-1, 0])), 1)
def test_passes_are_whole_ranges_of_the_whole_expansion_in_order(ranges, expand_pass):
    lo, hi = ranges
    k, index = expand_ranges(lo, hi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(midi, "EXPAND_PASS", expand_pass)
        passes = list(expand_in_passes(lo, hi))
    for pass_k, pass_index in passes:
        assert pass_k.dtype == k.dtype and pass_index.dtype == index.dtype
    owners = [pass_k.tolist() for pass_k, _ in passes]
    assert sum(owners, []) == k.tolist()
    assert sum((pass_index.tolist() for _, pass_index in passes), []) == index.tolist()
    # each range's pairs lie in one pass, so a later pass starts past every range of an earlier one
    ranges_seen = [owner for owner in owners if owner]
    assert all(a[-1] < b[0] for a, b in zip(ranges_seen, ranges_seen[1:]))
    assert all(len(owner) <= expand_pass or len(set(owner)) == 1 for owner in owners)
