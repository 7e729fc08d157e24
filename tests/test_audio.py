import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pianoeval.audio
from helpers import oracle_convolve_ir, sine_audio
from pianoeval.audio import (
    MAX_IR_SAMPLES,
    MAX_SNR_DB,
    AudioBuffer,
    WavFormatError,
    add_noise_snr,
    apply_condition_grid,
    convolve_ir,
    derive_seed,
    read_wav,
    read_wav_file,
    synth_ir,
    write_wav_file,
)
from pianoeval.cli import DEFAULT_RT60_LEVELS


def _random_buffer(seed, channels=1, n=2000, sample_rate=8000):
    rng = np.random.default_rng(seed)
    # float32-representable values so a float32 round trip is exact
    samples = (rng.standard_normal((channels, n)) * 0.3).astype(np.float32).astype(np.float64)
    return AudioBuffer(sample_rate, samples)


# ---------------------------------------------------------------------------
# WAV container
# ---------------------------------------------------------------------------

def test_float32_round_trip_is_exact(tmp_path):
    buf = _random_buffer(3, channels=2)
    write_wav_file(tmp_path / "out.wav", buf)
    back = read_wav_file(tmp_path / "out.wav")
    assert back.sample_rate == buf.sample_rate
    assert np.array_equal(back.samples, buf.samples)


def test_stereo_interleave_round_trip(tmp_path):
    left = np.arange(4, dtype=np.float64) / 8
    right = -left
    write_wav_file(tmp_path / "out.wav", AudioBuffer(8000, np.stack([left, right])))
    back = read_wav_file(tmp_path / "out.wav")
    assert np.array_equal(back.samples[0], left)
    assert np.array_equal(back.samples[1], right)


def _wav_with_chunks(chunks, riff_tag=b"RIFF", wave_tag=b"WAVE"):
    body = b"".join(
        cid + struct.pack("<I", len(payload)) + payload + (b"\x00" if len(payload) % 2 else b"")
        for cid, payload in chunks
    )
    return riff_tag + struct.pack("<I", 4 + len(body)) + wave_tag + body


def _fmt_chunk(audio_format=3, channels=1, sample_rate=8000, bits=32):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", audio_format, channels, sample_rate, sample_rate * block, block, bits)


def test_pcm16_reads_full_scale_and_interleaves():
    codes = np.array([[-32768, -1, 0, 1, 32767], [32767, 1, 0, -1, -32768]])
    payload = codes.T.astype("<i2").tobytes()
    back = read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk(1, 2, 44100, 16)), (b"data", payload)]))
    assert back.sample_rate == 44100
    assert np.array_equal(back.samples, codes / 32768.0)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype, audio_format, bits", [(np.float32, 3, 32)])
def test_writers_emit_the_documented_bytes(tmp_path, channels, dtype, audio_format, bits):
    buf = AudioBuffer(8000, _random_buffer(8, channels=channels).samples * 4.0)
    payload = buf.samples.T.reshape(-1).astype(np.dtype(dtype).newbyteorder("<")).tobytes()
    expected = _wav_with_chunks([(b"fmt ", _fmt_chunk(audio_format, channels, 8000, bits)), (b"data", payload)])
    path = tmp_path / "out.wav"
    write_wav_file(path, buf)
    assert path.read_bytes() == expected


def test_reader_skips_unknown_chunks_with_odd_padding():
    data_payload = struct.pack("<4f", 0.1, 0.2, 0.3, 0.4)
    raw = _wav_with_chunks(
        [(b"junk", b"abc"), (b"fmt ", _fmt_chunk()), (b"LIST", b"x" * 5), (b"data", data_payload)]
    )
    buf = read_wav(raw)
    assert buf.n_samples == 4
    assert buf.samples[0, 1] == pytest.approx(0.2, abs=1e-7)


def test_reader_rejects_non_riff():
    with pytest.raises(WavFormatError):
        read_wav(b"OggS" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk())], wave_tag=b"AVI "))


def test_reader_rejects_truncated_data_chunk():
    raw = _wav_with_chunks([(b"fmt ", _fmt_chunk()), (b"data", b"\x00" * 16)])
    clipped = raw[:-8]
    with pytest.raises(WavFormatError):
        read_wav(clipped)


def test_reader_requires_fmt_and_data():
    with pytest.raises(WavFormatError):
        read_wav(_wav_with_chunks([(b"data", b"\x00" * 8)]))
    with pytest.raises(WavFormatError):
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk())]))
    with pytest.raises(WavFormatError, match="^fmt chunk too short$"):
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk()[:14]), (b"data", b"\x00" * 8)]))


def test_reader_rejects_exotic_formats():
    with pytest.raises(WavFormatError):  # three channels
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk(channels=3)), (b"data", b"\x00" * 24)]))
    with pytest.raises(WavFormatError):  # ADPCM
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk(audio_format=2, bits=4)), (b"data", b"\x00" * 8)]))
    with pytest.raises(WavFormatError):  # 24-bit PCM
        read_wav(_wav_with_chunks([(b"fmt ", _fmt_chunk(audio_format=1, bits=24)), (b"data", b"\x00" * 12)]))


# ---------------------------------------------------------------------------
# Noise injection
# ---------------------------------------------------------------------------

def test_noise_power_hits_requested_snr():
    audio = sine_audio(seconds=2.0, amplitude=1.0)
    signal_power = float(np.mean(audio.samples**2))
    assert signal_power == pytest.approx(0.5, abs=1e-4)
    for snr in (24.0, 12.0, 6.0):
        noisy = add_noise_snr(audio, snr, seed=11)
        noise = noisy.samples - audio.samples
        measured = 10.0 * math.log10(signal_power / float(np.mean(noise**2)))
        assert measured == pytest.approx(snr, abs=0.1)


def test_infinite_snr_returns_untouched_copy():
    audio = sine_audio()
    out = add_noise_snr(audio, math.inf, seed=1)
    assert out is not audio
    assert np.array_equal(out.samples, audio.samples)


@pytest.mark.parametrize("snr", [math.nan, -math.inf])
def test_noise_rejects_nan_and_negative_infinite_snr(snr):
    with pytest.raises(ValueError, match=r"\+inf"):
        add_noise_snr(sine_audio(), snr, seed=1)


@pytest.mark.parametrize("snr", [4000.0, -4000.0, math.nextafter(MAX_SNR_DB, math.inf)])
def test_noise_rejects_snr_beyond_the_bound(snr):
    # 10 ** (4000 / 10) overflows a float and 10 ** (-4000 / 10) is 0.0
    with pytest.raises(ValueError, match=f"within ±{MAX_SNR_DB:g}"):
        add_noise_snr(sine_audio(), snr, seed=1)


@pytest.mark.parametrize("snr", [MAX_SNR_DB, -MAX_SNR_DB])
def test_noise_at_the_snr_bound_is_finite(snr):
    audio = sine_audio(seconds=0.05)
    noise = add_noise_snr(audio, snr, seed=1).samples - audio.samples
    measured = 10.0 * math.log10(float(np.mean(audio.samples**2)) / float(np.mean(noise**2)))
    assert measured == pytest.approx(snr, abs=1.0)


def test_noise_is_seed_deterministic():
    audio = sine_audio()
    a = add_noise_snr(audio, 12.0, seed=7)
    b = add_noise_snr(audio, 12.0, seed=7)
    c = add_noise_snr(audio, 12.0, seed=8)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_on_silence_rejected():
    silent = AudioBuffer(8000, np.zeros((1, 100)))
    with pytest.raises(ValueError):
        add_noise_snr(silent, 12.0, seed=1)


def test_noise_covers_both_channels():
    audio = sine_audio(channels=2)
    noisy = add_noise_snr(audio, 6.0, seed=3)
    diff = noisy.samples - audio.samples
    assert float(np.mean(diff[0] ** 2)) > 0
    assert float(np.mean(diff[1] ** 2)) > 0
    assert not np.array_equal(diff[0], diff[1])


# ---------------------------------------------------------------------------
# Convolution reverb
# ---------------------------------------------------------------------------

def test_unit_impulse_is_identity_up_to_rounding():
    audio = sine_audio(seconds=0.1)
    ir = AudioBuffer(44100, np.array([[1.0]]))
    out = convolve_ir(audio, ir)
    assert out.n_samples == audio.n_samples  # N + 1 - 1
    assert np.max(np.abs(out.samples - audio.samples)) < 1e-9


def test_scaled_impulse_is_neutralized_by_peak_matching():
    audio = sine_audio(seconds=0.1)
    ir = AudioBuffer(44100, np.array([[0.5]]))
    out = convolve_ir(audio, ir)
    assert np.max(np.abs(out.samples - audio.samples)) < 1e-9


def test_box_kernel_hand_values():
    audio = AudioBuffer(8000, np.array([[1.0, 1.0]]))
    ir = AudioBuffer(8000, np.array([[1.0, 1.0]]))
    out = convolve_ir(audio, ir)
    # raw convolution [1, 2, 1], peak-matched back to 1.0
    assert out.samples[0] == pytest.approx([0.5, 1.0, 0.5], abs=1e-12)


def test_convolution_output_length():
    audio = sine_audio(seconds=0.25)
    ir = synth_ir(0.19, 44100, seed=2)
    out = convolve_ir(audio, ir)
    assert out.n_samples == audio.n_samples + ir.n_samples - 1


def test_convolution_preserves_peak():
    audio = sine_audio(seconds=0.5, amplitude=0.7)
    ir = synth_ir(0.19, 44100, seed=2)
    out = convolve_ir(audio, ir)
    assert out.peak() == pytest.approx(audio.peak(), rel=1e-9)


def test_mono_ir_applies_to_both_stereo_channels():
    audio = sine_audio(channels=2, seconds=0.05)
    ir = AudioBuffer(44100, np.array([[1.0]]))
    out = convolve_ir(audio, ir)
    assert np.max(np.abs(out.samples - audio.samples)) < 1e-9


def test_convolution_rejects_mismatches():
    audio = sine_audio(sample_rate=44100)
    with pytest.raises(ValueError):
        convolve_ir(audio, AudioBuffer(48000, np.array([[1.0]])))
    stereo_ir = AudioBuffer(44100, np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError):
        convolve_ir(audio, stereo_ir)  # stereo IR on mono audio


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 3000),
    m=st.integers(0, 3000),
    channels=st.sampled_from([1, 2]),
    stereo_ir=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, m=40, channels=2, stereo_ir=True, dtype=np.float64, seed=0)
@example(n=40, m=1, channels=2, stereo_ir=False, dtype=np.float64, seed=1)
@example(n=1, m=40, channels=2, stereo_ir=True, dtype=np.float64, seed=2)
@example(n=1, m=1, channels=1, stereo_ir=False, dtype=np.float64, seed=3)
@example(n=300, m=40, channels=2, stereo_ir=True, dtype=np.float32, seed=4)
def test_convolution_equals_fftconvolve_bit_for_bit(n, m, channels, stereo_ir, dtype, seed):
    rng = np.random.default_rng(seed)
    audio = AudioBuffer(8000, rng.standard_normal((channels, n)).astype(dtype))
    ir = AudioBuffer(8000, rng.standard_normal((channels if stereo_ir else 1, m)).astype(dtype))
    out, expected = convolve_ir(audio, ir).samples, oracle_convolve_ir(audio, ir).samples
    assert out.shape == expected.shape
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# Impulse response synthesis
# ---------------------------------------------------------------------------

def test_synth_ir_length_and_direct_sound():
    ir = synth_ir(0.19, 44100, seed=9)
    assert ir.n_samples == 8379
    assert ir.samples[0, 0] == 1.0
    assert ir.channels == 1


def test_synth_ir_is_deterministic():
    a = synth_ir(1.85, 16000, seed=4)
    b = synth_ir(1.85, 16000, seed=4)
    c = synth_ir(1.85, 16000, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_ir_decays_by_sixty_db():
    ir = synth_ir(0.5, 16000, seed=6).samples[0]
    head = float(np.sqrt(np.mean(ir[: len(ir) // 10] ** 2)))
    tail = float(np.sqrt(np.mean(ir[-len(ir) // 10 :] ** 2)))
    assert tail < head / 100.0


def test_synth_ir_rejects_an_ir_longer_than_the_limit_before_allocating():
    # 60 s at 768 kHz would be a 46 M-sample IR; the check comes before any array
    with pytest.raises(ValueError, match=f"an IR of 46080000 samples is longer than the {MAX_IR_SAMPLES}-sample limit"):
        synth_ir(60.0, 768_000, seed=1)


@pytest.mark.parametrize("sample_rate", [44_100, 48_000, 96_000])
def test_default_rt60_levels_fit_the_ir_limit(sample_rate):
    longest = max(float(t) for t in DEFAULT_RT60_LEVELS.split(",") if t != "none")
    assert math.floor(longest * sample_rate) <= MAX_IR_SAMPLES


def test_synth_ir_rejects_nonpositive_rt60():
    with pytest.raises(ValueError):
        synth_ir(0.0, 44100, seed=1)


@pytest.mark.parametrize("rt60", [math.inf, math.nan])
def test_synth_ir_rejects_non_finite_rt60(rt60):
    with pytest.raises(ValueError, match="positive and finite"):
        synth_ir(rt60, 44100, seed=1)


# ---------------------------------------------------------------------------
# Seed derivation and the condition grid
# ---------------------------------------------------------------------------

def test_derive_seed_depends_on_every_key():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert 0 <= derive_seed(0) < 2**32


def test_grid_shape_and_clean_cell():
    audio = sine_audio(seconds=0.2)
    irs = [None, synth_ir(0.19, 44100, seed=100), synth_ir(1.85, 44100, seed=101),
           synth_ir(10.5, 44100, seed=102)]
    snrs = [None, 24.0, 12.0, 6.0]
    cells = list(apply_condition_grid(audio, snrs, irs, seed=42))
    assert len(cells) == 16
    clean = cells[0]
    assert clean.samples is not audio.samples
    assert np.array_equal(clean.samples, audio.samples)


def test_grid_order_is_ir_major():
    audio = sine_audio(seconds=0.05)
    ir = synth_ir(0.19, 44100, seed=100)
    cells = list(apply_condition_grid(audio, [None, 6.0], [None, ir], seed=0))
    reverbed = audio.n_samples + ir.n_samples - 1
    assert [cell.n_samples for cell in cells] == [audio.n_samples, audio.n_samples, reverbed, reverbed]
    assert np.array_equal(cells[0].samples, audio.samples)
    assert not np.array_equal(cells[1].samples, audio.samples)


def test_grid_cells_equal_their_direct_composition():
    # cell k, in IR-major order, is noise over reverb with the noise seeded by the cell's
    # (i_ir, i_snr) key; a None level skips its stage, so the first cell is a copy of the input
    audio = _random_buffer(5, channels=2)
    irs = [None, synth_ir(0.05, 8000, seed=1), _random_buffer(6, channels=2, n=40)]
    snrs = [None, 24.0, 6.0]
    cells = list(apply_condition_grid(audio, snrs, irs, seed=9))
    assert len(cells) == 9
    for k, cell in enumerate(cells):
        i_ir, i_snr = divmod(k, len(snrs))
        expected = audio if irs[i_ir] is None else convolve_ir(audio, irs[i_ir])
        if snrs[i_snr] is not None:
            expected = add_noise_snr(expected, snrs[i_snr], derive_seed(9, 0, i_ir, i_snr))
        assert cell.sample_rate == expected.sample_rate
        assert cell.samples.dtype == expected.samples.dtype
        assert np.array_equal(cell.samples, expected.samples)
        assert not np.shares_memory(cell.samples, audio.samples)


def test_grid_is_reproducible():
    audio = sine_audio(seconds=0.1)
    irs = [None, synth_ir(0.19, 44100, seed=100)]
    a = apply_condition_grid(audio, [None, 12.0], irs, seed=7)
    b = apply_condition_grid(audio, [None, 12.0], irs, seed=7)
    for out_a, out_b in zip(a, b):
        assert np.array_equal(out_a.samples, out_b.samples)


def test_grid_cells_use_distinct_noise():
    audio = sine_audio(seconds=0.1)
    cells = list(apply_condition_grid(audio, [12.0, 12.0], [None], seed=7))
    assert not np.array_equal(cells[0].samples, cells[1].samples)


def test_grid_treats_infinite_snr_as_none():
    audio = sine_audio(seconds=0.05)
    [out] = apply_condition_grid(audio, [math.inf], [None], seed=1)
    assert np.array_equal(out.samples, audio.samples)


def test_grid_rejects_negative_infinite_snr():
    # -inf dB is infinitely loud noise, not "no noise"
    with pytest.raises(ValueError):
        apply_condition_grid(sine_audio(seconds=0.05), [-math.inf], [None], seed=1)


_SILENCE = sine_audio(seconds=0.05, amplitude=0.0)
_ZERO_IR = AudioBuffer(44100, np.zeros((1, 10)))
_EMPTY = AudioBuffer(44100, np.zeros((1, 0)))


@pytest.mark.parametrize(
    "audio, snrs, irs, message",
    [
        (sine_audio(seconds=0.05), [None, math.nan], [None], "SNR must be a number"),
        (sine_audio(seconds=0.05), [None], [None, synth_ir(0.19, 22050, seed=1)], "sample rate mismatch"),
        (sine_audio(seconds=0.05), [None], [None, AudioBuffer(44100, np.ones((2, 3)))], "2-channel IR"),
        (_SILENCE, [None, 6.0], [None], "all-zero audio"),
        (sine_audio(seconds=0.05), [None, 6.0], [None, _ZERO_IR], "an IR is all zero"),
        (_EMPTY, [None, 6.0], [None], "all-zero audio"),
        (sine_audio(seconds=0.05), [None, 6.0], [None, _EMPTY], "an IR is all zero"),
    ],
)
def test_grid_checks_its_inputs_before_returning(audio, snrs, irs, message):
    # the none/none cell comes first, so a check left to a later cell would let it out
    with pytest.raises(ValueError, match=message):
        apply_condition_grid(audio, snrs, irs, seed=1)


def test_grid_accepts_silence_and_a_zero_ir_without_noise():
    cells = list(apply_condition_grid(_SILENCE, [None], [None, _ZERO_IR], seed=1))
    assert [out.peak() for out in cells] == [0.0, 0.0]


def test_grid_makes_each_cell_when_asked(monkeypatch):
    calls = []
    real = pianoeval.audio.convolve_ir

    def counted(audio, ir):
        calls.append(ir)
        return real(audio, ir)

    monkeypatch.setattr(pianoeval.audio, "convolve_ir", counted)
    ir = synth_ir(0.19, 44100, seed=100)
    cells = apply_condition_grid(sine_audio(seconds=0.05), [None, 6.0], [None, ir], seed=0)
    next(cells), next(cells)
    assert len(calls) == 0
    next(cells)
    assert len(calls) == 1


def test_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(0, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        AudioBuffer(8000, np.zeros(4))
    with pytest.raises(ValueError):
        AudioBuffer(8000, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        AudioBuffer(8000, np.array([[np.nan]]))
