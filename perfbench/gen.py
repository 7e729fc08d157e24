"""Seeded input generators for the benchmark.

Everything here is the benchmark's own: a Standard MIDI File writer with a
tempo map and CC64 sustain pedal, the note-pair shapes of each workload, and
a WAV synthesizer. Nothing is imported from the project's test helpers, so
editing a test cannot shift the benchmark's data. Every generator takes a
``numpy.random.Generator``; the same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_right

import numpy as np

# A note is (onset_s, offset_s, pitch, velocity) in seconds, or
# (onset_tick, offset_tick, pitch, velocity) in ticks where stated.

LOW_PITCH, HIGH_PITCH = 36, 96


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def notes_digest(notes) -> str:
    return digest(np.asarray(notes, dtype=np.float64).tobytes())


# ---------------------------------------------------------------------------
# Standard MIDI File writer
# ---------------------------------------------------------------------------

def _vlq(value: int) -> bytes:
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.insert(0, 0x80 | (value & 0x7F))
        value >>= 7
    return bytes(out)


def _track(events) -> bytes:
    """events: (tick, order, payload); order breaks ties at one tick."""
    body = bytearray()
    now = 0
    for tick, _, payload in sorted(events, key=lambda e: (e[0], e[1])):
        body += _vlq(tick - now) + payload
        now = tick
    body += b"\x00\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def write_smf(notes_ticks, tpq: int, tempos, pedals=()) -> bytes:
    """Format-1 SMF: a tempo track and one note track on channel 0.

    At one tick, note-offs precede pedal changes, which precede note-ons.
    """
    tempo_events = [(t, 0, b"\xff\x51\x03" + uspq.to_bytes(3, "big")) for t, uspq in tempos]
    events = []
    for on, off, pitch, velocity in notes_ticks:
        events.append((on, 3, bytes([0x90, pitch, velocity])))
        events.append((off, 1, bytes([0x80, pitch, 64])))
    events += [(t, 2, bytes([0xB0, 64, value])) for t, value in pedals]
    header = b"MThd" + struct.pack(">IHHH", 6, 1, 2, tpq)
    return header + _track(tempo_events) + _track(events)


class TickClock:
    """Tick to seconds through a piecewise-constant tempo map."""

    def __init__(self, tempos, tpq: int):
        self.ticks = [t for t, _ in tempos]
        self.uspq = [u for _, u in tempos]
        self.tpq = tpq
        self.start_s = [0.0]
        for i in range(1, len(tempos)):
            span = self.ticks[i] - self.ticks[i - 1]
            self.start_s.append(self.start_s[-1] + span * self.uspq[i - 1] / (tpq * 1e6))

    def seconds(self, tick: int) -> float:
        i = bisect_right(self.ticks, tick) - 1
        return self.start_s[i] + (tick - self.ticks[i]) * self.uspq[i] / (self.tpq * 1e6)


# ---------------------------------------------------------------------------
# pair_5k: random polyphony and a lightly jittered estimate
# ---------------------------------------------------------------------------

def random_polyphony(rng: np.random.Generator, n_notes: int, tempo_scale: float = 0.8):
    """Unstructured polyphony in seconds: a quarter of the notes join the
    previous onset as a chord; a pitch sounds again only 0.15 s after its
    last onset and 10 ms after its last offset."""
    free_at = np.full(HIGH_PITCH + 1, -np.inf)
    notes = []
    t = 0.0
    while len(notes) < n_notes:
        if not notes or rng.random() >= 0.25:
            t += float(rng.uniform(0.05, 0.35)) * tempo_scale
        allowed = np.flatnonzero(free_at[LOW_PITCH:] <= t) + LOW_PITCH
        if allowed.size == 0:
            t += 0.15
            continue
        pitch = int(rng.choice(allowed))
        duration = float(rng.uniform(0.05, 0.8)) * tempo_scale
        velocity = int(rng.integers(30, 106))
        notes.append((t, t + duration, pitch, velocity))
        free_at[pitch] = max(t + 0.15, t + duration + 0.01)
    return sorted(notes)


def jittered(rng: np.random.Generator, notes, onset_sigma: float, velocity_sigma: float):
    """Shift each note by N(0, onset_sigma) and its velocity by N(0, velocity_sigma)."""
    out = []
    for on, off, pitch, velocity in notes:
        shifted = max(0.0, on + float(rng.normal(0.0, onset_sigma)))
        v = int(np.clip(round(velocity + float(rng.normal(0.0, velocity_sigma))), 1, 127))
        out.append((shifted, shifted + (off - on), pitch, v))
    return sorted(out)


# ---------------------------------------------------------------------------
# batch_dense: dense pedalled reference, transcriber-like estimate
# ---------------------------------------------------------------------------

DENSE_TPQ = 480
EST_TPQ = 480
EST_USPQ = 500_000


def dense_reference(rng: np.random.Generator, n_notes: int):
    """(notes_ticks, tempos, pedals) of a dense pedalled reference.

    Onset clusters are mostly 3-6-note chords, with fast same-pitch repeats
    (a sixteenth apart) mixed in; the tempo changes every two bars between
    60 and 160 BPM and the sustain pedal goes down and up every bar or two.
    """
    q = DENSE_TPQ
    notes = []
    tick = 0
    while len(notes) < n_notes:
        kind = rng.random()
        if kind < 0.15:
            pitch = int(rng.integers(LOW_PITCH, HIGH_PITCH + 1))
            for k in range(int(rng.integers(3, 5))):
                on = tick + k * q // 4
                notes.append((on, on + q // 8, pitch, int(rng.integers(40, 110))))
            tick += q
            continue
        size = int(rng.integers(3, 7)) if kind < 0.75 else 1
        pitches = rng.choice(np.arange(LOW_PITCH, HIGH_PITCH + 1), size=size, replace=False)
        for pitch in pitches:
            length = int(rng.integers(q // 8, 2 * q))
            notes.append((tick, tick + length, int(pitch), int(rng.integers(25, 120))))
        tick += int(rng.choice([q // 4, q // 2, q // 2, q]))
    end = tick + 2 * q
    tempos = [(t, int(60e6 / rng.uniform(60.0, 160.0))) for t in range(0, end, 8 * q)]
    pedals = []
    t = 0
    while t < end:
        down = t + int(rng.integers(0, q))
        up = down + int(rng.integers(4, 9)) * q
        pedals += [(down, 127), (min(up, end), 0)]
        t = up + q // 4
    return notes, tempos, pedals


def transcribed_estimate(rng: np.random.Generator, ref_notes_s, onset_sigma: float):
    """A transcriber-shaped estimate of reference notes given in seconds:
    onset jitter, 5 % dropped and 5 % spurious notes, durations off by up
    to 20 %, and velocities on a different affine scale."""
    out = []
    for on, off, pitch, velocity in ref_notes_s:
        if rng.random() < 0.05:
            continue
        shifted = max(0.0, on + float(rng.normal(0.0, onset_sigma)))
        duration = (off - on) * float(rng.uniform(0.8, 1.2))
        v = int(np.clip(round(0.6 * velocity + 30 + float(rng.normal(0.0, 3.0))), 1, 127))
        out.append((shifted, shifted + duration, pitch, v))
    end = max(off for _, off, _, _ in ref_notes_s)
    for _ in range(len(ref_notes_s) // 20):
        on = float(rng.uniform(0.0, end))
        out.append((on, on + float(rng.uniform(0.05, 0.5)),
                    int(rng.integers(LOW_PITCH, HIGH_PITCH + 1)), int(rng.integers(20, 90))))
    return sorted(out)


def seconds_to_smf(notes_s) -> bytes:
    """Constant 120 BPM file, the way transcribers usually write them."""
    per_s = EST_TPQ * 1e6 / EST_USPQ
    ticks = []
    for on, off, pitch, velocity in notes_s:
        a = round(on * per_s)
        ticks.append((a, max(a + 1, round(off * per_s)), pitch, velocity))
    return write_smf(ticks, EST_TPQ, [(0, EST_USPQ)])


def dense_pair(rng: np.random.Generator, n_notes: int, onset_sigma: float):
    """(ref_smf, est_smf) bytes of one batch_dense pair."""
    notes_ticks, tempos, pedals = dense_reference(rng, n_notes)
    clock = TickClock(tempos, DENSE_TPQ)
    ref_s = [(clock.seconds(a), clock.seconds(b), p, v) for a, b, p, v in notes_ticks]
    est = transcribed_estimate(rng, ref_s, onset_sigma)
    return write_smf(notes_ticks, DENSE_TPQ, tempos, pedals), seconds_to_smf(est)


# ---------------------------------------------------------------------------
# perturb_grid: synthetic piano-like stereo recording
# ---------------------------------------------------------------------------

def synth_recording(rng: np.random.Generator, seconds: float, sample_rate: int = 44_100) -> np.ndarray:
    """Planar float32 stereo (2, n): decaying two-partial tones with random
    pitch, pan and loudness, plus a faint noise floor, peak 0.5."""
    n = int(seconds * sample_rate)
    out = np.zeros((2, n))
    tail = int(1.5 * sample_rate)
    t = np.arange(tail) / sample_rate
    onsets = np.sort(rng.uniform(0.0, seconds, size=int(4 * seconds)))
    for onset in onsets:
        start = int(onset * sample_rate)
        length = min(tail, n - start)
        freq = 440.0 * 2.0 ** ((int(rng.integers(LOW_PITCH, HIGH_PITCH + 1)) - 69) / 12.0)
        tone = np.sin(2 * math.pi * freq * t[:length]) + 0.3 * np.sin(4 * math.pi * freq * t[:length])
        tone *= float(rng.uniform(0.2, 1.0)) * np.exp(-3.0 * t[:length])
        pan = float(rng.uniform(0.2, 0.8))
        out[0, start : start + length] += (1.0 - pan) * tone
        out[1, start : start + length] += pan * tone
    out += 1e-3 * rng.standard_normal(out.shape)
    out *= 0.5 / np.max(np.abs(out))
    return out.astype(np.float32)


def wav_bytes(samples: np.ndarray, sample_rate: int = 44_100) -> bytes:
    """Canonical 44-byte-header IEEE float32 WAV of planar samples."""
    channels = samples.shape[0]
    payload = np.ascontiguousarray(samples.T).astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, channels, sample_rate, sample_rate * channels * 4, channels * 4, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_payload(data: bytes) -> bytes:
    """The data chunk of a RIFF/WAVE byte string."""
    pos = 12
    while pos + 8 <= len(data):
        chunk, size = data[pos : pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if chunk == b"data":
            return data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    raise ValueError("no data chunk")
