"""Audio degradation: convolution reverb and SNR-calibrated white noise.

Recordings are perturbed over a factorial grid of reverb and noise levels
so a transcription's robustness can be measured per condition. WAV I/O is
deliberately strict: it reads 16-bit PCM or 32-bit IEEE float, mono or
stereo, nothing else, and writes 32-bit IEEE float.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

__all__ = [
    "AudioBuffer",
    "WavFormatError",
    "read_wav",
    "read_wav_file",
    "write_wav_file",
    "checked_snr",
    "checked_ir_length",
    "checked_rt60",
    "add_noise_snr",
    "convolve_ir",
    "synth_ir",
    "derive_seed",
    "apply_condition_grid",
]


class WavFormatError(ValueError):
    """Raised for WAV data this module does not speak."""


@dataclass(frozen=True)
class AudioBuffer:
    """Planar float64 audio: samples has shape (channels, n)."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 2:
            raise ValueError("samples must be planar with shape (channels, n)")
        if self.samples.shape[0] not in (1, 2):
            raise ValueError(f"only mono or stereo supported, got {self.samples.shape[0]} channels")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def peak(self) -> float:
        return _peak(self.samples)


def _peak(samples: np.ndarray) -> float:
    """The largest magnitude (0.0 for no samples), without an ``abs`` copy of the samples."""
    return float(max(samples.max(), -samples.min())) if samples.size else 0.0


# ---------------------------------------------------------------------------
# WAV container
# ---------------------------------------------------------------------------

_PCM16 = 1
_IEEE_FLOAT = 3
MAX_SAMPLE_RATE = 768_000  # Hz; the highest rate audio interfaces record at


def read_wav(data: bytes) -> AudioBuffer:
    """Decode RIFF/WAVE bytes (PCM16 or float32, 1-2 channels)."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE stream")
    pos = 12
    fmt = None
    payload = None  # the data chunk's (offset, size) in ``data``: its samples are read in place
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + size > len(data):
            raise WavFormatError(f"truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif chunk_id == b"data":
            payload = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise WavFormatError(f"unsupported channel count {channels}")
    if sample_rate > MAX_SAMPLE_RATE:
        raise WavFormatError(f"sample rate {sample_rate} Hz is above the {MAX_SAMPLE_RATE} Hz limit")
    dtype = {(_PCM16, 16): "<i2", (_IEEE_FLOAT, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise WavFormatError(f"unsupported codec (format {audio_format}, {bits}-bit)")
    n = payload[1] // (bits // 8 * channels)  # whole frames; a trailing partial frame is dropped
    samples = np.empty((channels, n))  # C-order float64, filled by one cast of the interleaved view
    samples[...] = np.frombuffer(data, dtype, count=n * channels, offset=payload[0]).reshape(n, channels).T
    if dtype == "<i2":
        samples /= 32768.0
    return AudioBuffer(int(sample_rate), samples)


def read_wav_file(path) -> AudioBuffer:
    with open(path, "rb") as fh:
        return read_wav(fh.read())


def write_wav_file(path, buffer: AudioBuffer) -> None:
    """32-bit IEEE float RIFF/WAVE, lossless for float32 values: the header, then the payload array."""
    payload = buffer.samples.T.astype("<f4", order="C")  # a C-order cast of (n, channels) interleaves
    block_align = buffer.channels * 4
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + payload.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        _IEEE_FLOAT,
        buffer.channels,
        buffer.sample_rate,
        buffer.sample_rate * block_align,
        block_align,
        32,
        b"data",
        payload.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# Degradations
# ---------------------------------------------------------------------------

def checked_snr(snr_db: float) -> float:
    """``snr_db`` if it is within ``MAX_SNR_DB`` dB of 0 or +inf (no noise); else ValueError."""
    if not (-MAX_SNR_DB <= snr_db <= MAX_SNR_DB or snr_db == math.inf):  # NaN fails both
        raise ValueError(f"SNR must be a number of dB within ±{MAX_SNR_DB:g} or +inf, got {snr_db}")
    return snr_db


def _power(samples: np.ndarray) -> float:
    """The mean square of ``samples``; ValueError when there are none or all are zero, as noise then has no level."""
    if not samples.size or (power := float(np.mean(samples**2))) == 0.0:
        raise ValueError("SNR is undefined for all-zero audio")
    return power


def add_noise_snr(audio: AudioBuffer, snr_db: float, seed: int) -> AudioBuffer:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    Noise power is set from the measured signal power: P_n = P_s /
    10^(snr_db/10). No clipping is applied; exceeding [-1, 1] is the
    16-bit writer's problem. An SNR of +inf returns the input unchanged.
    """
    if checked_snr(snr_db) == math.inf:
        return AudioBuffer(audio.sample_rate, audio.samples.copy())
    noise_power = _power(audio.samples) / (10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(noise_power), audio.samples.shape)
    noise += audio.samples  # the same sum as audio + noise, in the noise's memory
    return AudioBuffer(audio.sample_rate, noise)


def _check_ir(audio: AudioBuffer, ir: AudioBuffer) -> None:
    if audio.sample_rate != ir.sample_rate:
        raise ValueError(
            f"sample rate mismatch: audio {audio.sample_rate} Hz vs IR {ir.sample_rate} Hz"
        )
    if ir.channels not in (1, audio.channels):
        raise ValueError(f"cannot apply {ir.channels}-channel IR to {audio.channels}-channel audio")


def convolve_ir(audio: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    """Full convolution with an impulse response, peak-matched to the input.

    A mono IR is applied to every channel; a stereo IR pairs with stereo
    audio channel by channel. The result (length N + M - 1) is rescaled so
    its peak equals the input's peak, keeping loudness comparable across
    IRs of different energy.
    """
    _check_ir(audio, ir)
    n, m = audio.n_samples, ir.n_samples
    if n == 0 or m == 0:
        out = np.zeros((audio.channels, 0))
    elif n == 1 or m == 1:  # a length-1 side needs no transform: a broadcast product
        out = audio.samples * ir.samples
    else:
        # scipy.signal.fftconvolve(mode="full")'s transform, with the IR spectrum taken once
        size = next_fast_len(n + m - 1, True)
        spectra = rfft(ir.samples, size, axis=-1)
        for c in range(audio.channels):
            row = irfft(rfft(audio.samples[c], size) * spectra[c % ir.channels], size)
            if c == 0:  # the transform's dtype: float32 audio and IR give float32
                out = np.empty((audio.channels, n + m - 1), row.dtype)
            out[c] = row[: n + m - 1]
            del row  # freed before the next channel's transforms
    in_peak = audio.peak()
    out_peak = _peak(out)
    if in_peak > 0.0 and out_peak > 0.0:
        out *= in_peak / out_peak
    return AudioBuffer(audio.sample_rate, out)


MAX_SNR_DB = 300.0  # dB either way; 10 ** (snr / 10) stays a finite, non-zero float well past it
MAX_RT60 = 60.0  # seconds; the longest synthetic reverb, ten times a large concert hall's
MAX_IR_SAMPLES = int(MAX_RT60 * 96_000)  # the longest reverb at 96 kHz; 5.76 M samples, 46 MB


def checked_ir_length(n_samples: int) -> int:
    """``n_samples`` if an IR that long is within ``MAX_IR_SAMPLES``; ValueError otherwise."""
    if n_samples > MAX_IR_SAMPLES:
        raise ValueError(f"an IR of {n_samples} samples is longer than the {MAX_IR_SAMPLES}-sample limit")
    return n_samples


def checked_rt60(rt60: float) -> float:
    """``rt60`` if it is in (0, ``MAX_RT60``]; else ValueError."""
    if not 0 < rt60 <= MAX_RT60:
        raise ValueError(f"rt60 must be positive and finite, at most {MAX_RT60:g} s, got {rt60}")
    return rt60


def synth_ir(rt60: float, sample_rate: int, seed: int) -> AudioBuffer:
    """Synthetic exponential-decay impulse response.

    White Gaussian noise under the envelope exp(-t ln(1000) / rt60) — down
    60 dB at t = rt60, where the IR is truncated. The first sample is
    forced to 1.0 so the direct sound is always present. An RT60 above
    ``MAX_RT60``, or one whose IR would be longer than ``MAX_IR_SAMPLES``
    at ``sample_rate``, raises ValueError before anything is allocated.
    """
    length = checked_ir_length(max(1, int(math.floor(checked_rt60(rt60) * sample_rate))))
    t = np.arange(length) / sample_rate
    envelope = np.exp(-t * math.log(1000.0) / rt60)
    rng = np.random.default_rng(seed)
    ir = rng.standard_normal(length) * envelope
    ir[0] = 1.0
    return AudioBuffer(sample_rate, ir[np.newaxis, :])


def derive_seed(*keys: int) -> int:
    """Deterministic child seed from a key path, stable under parallelism."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def apply_condition_grid(
    audio: AudioBuffer,
    snr_levels: Sequence[Optional[float]],
    ir_levels: Sequence[Optional[AudioBuffer]],
    seed: int,
) -> Iterator[AudioBuffer]:
    """One ``AudioBuffer`` per (IR, SNR) pair, reverb first, then noise, yielded one at a time.

    Reverb precedes noise because the noise models the recording chain
    after the room. Levels of None and an SNR of +inf skip that stage, so
    None in both lists yields the untouched original as one cell. Output
    order is IR-major, then SNR, matching the input level order.

    Every check that can reject the grid runs here, before the iterator is
    returned: each SNR (NaN and -inf raise ValueError), each IR's sample
    rate and channel count, and empty or all-zero audio or IR when a cell
    adds noise. A cell is made only when the iterator is advanced, so a
    caller that drops each cell before asking for the next holds one at a time.
    """
    snrs = [None if snr is None or snr == math.inf else checked_snr(snr) for snr in snr_levels]
    irs = list(ir_levels)
    for ir in irs:
        if ir is not None:
            _check_ir(audio, ir)
    if any(snr is not None for snr in snrs):
        _power(audio.samples)
        # the output is peak-matched, so only an IR of exact zeros, or of no samples, makes an all-zero cell
        if any(ir is not None and not ir.samples.any() for ir in irs):
            raise ValueError("SNR is undefined for all-zero audio: an IR is all zero")
    return _grid_cells(audio, snrs, irs, seed)


def _grid_cells(audio, snrs, irs, seed):
    for i_ir, ir in enumerate(irs):
        for i_snr, snr in enumerate(snrs):
            out = audio  # drops the previous cell before this one is made
            if ir is not None:
                out = convolve_ir(out, ir)
            if snr is not None:
                out = add_noise_snr(out, snr, derive_seed(seed, 0, i_ir, i_snr))
            if out is audio:  # each stage returns a new buffer, so only a cell without one copies
                out = AudioBuffer(audio.sample_rate, audio.samples.copy())
            yield out
