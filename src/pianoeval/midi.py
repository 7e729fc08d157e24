"""Standard MIDI File parsing into tempo-resolved note columns.

Reads SMF format 0 and 1 byte streams and produces a :class:`Performance`:
time-sorted note columns of onset and offset in seconds, pitch and
velocity. All channels are merged (solo piano assumption). Sustain pedal
(CC64) can optionally extend note offsets the way a real piano's dampers
would.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Note",
    "Performance",
    "MidiParseError",
    "parse_midi",
    "parse_midi_file",
    "apply_sustain_pedal",
    "expand_ranges",
]

DEFAULT_TEMPO = 500_000  # microseconds per quarter note (120 BPM)
MIN_NOTE_DURATION = 0.001  # seconds; zero-length notes are widened to this
SUSTAIN_CONTROLLER = 64
SUSTAIN_THRESHOLD = 64  # CC64 values at or above this hold the pedal down


class MidiParseError(ValueError):
    """Raised on malformed MIDI input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Note:
    """A single performed note in physical time."""

    onset: float
    offset: float
    pitch: int
    velocity: int

    def __post_init__(self):
        if not 0 <= self.onset < self.offset < math.inf:
            raise ValueError(
                f"note times must be finite and non-negative, the offset after the onset: "
                f"onset={self.onset}, offset={self.offset}"
            )
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch out of range: {self.pitch}")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity out of range: {self.velocity}")

    @property
    def duration(self) -> float:
        return self.offset - self.onset


_COLUMNS = (("onsets", np.float64), ("offsets", np.float64), ("pitches", np.int64), ("velocities", np.int64))


@dataclass(frozen=True, eq=False)
class Performance:
    """A performance as four read-only note columns; the input to every metric.

    Row k is one note: ``onsets[k]`` and ``offsets[k]`` in seconds
    (float64), ``pitches[k]`` and ``velocities[k]`` (int64). The
    constructor checks what :class:`Note` checks, row by row: times finite
    and non-negative, offset after onset, pitch 0-127, velocity 1-127.
    :meth:`from_notes`, :func:`parse_midi` and :func:`apply_sustain_pedal`
    sort the rows by (onset, pitch, offset); :meth:`take` keeps the order
    it is given.
    """

    onsets: np.ndarray
    offsets: np.ndarray
    pitches: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.onsets.ndim != 1 or any(c.shape != self.onsets.shape for c in self._columns()):
            raise ValueError("note columns must be one-dimensional and of equal length")
        for valid, problem in (
            ((self.onsets >= 0) & (self.offsets < np.inf), "times must be finite and non-negative"),
            (self.offsets > self.onsets, "duration must be positive"),
            ((self.pitches >= 0) & (self.pitches <= 127), "pitch out of range"),
            ((self.velocities >= 1) & (self.velocities <= 127), "velocity out of range"),
        ):
            if not valid.all():
                k = int(np.argmin(valid))
                raise ValueError(f"note {k} {tuple(c[k].item() for c in self._columns())}: {problem}")

    @classmethod
    def from_notes(cls, notes: Iterable[Note]) -> "Performance":
        """The notes as columns, sorted by (onset, pitch, offset)."""
        rows = [(n.onset, n.offset, n.pitch, n.velocity) for n in notes]
        return _sorted(*np.array(rows, dtype=np.float64).reshape(-1, 4).T)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.onsets, self.offsets, self.pitches, self.velocities

    @property
    def end_time(self) -> float:
        """The largest offset in seconds; 0.0 without notes."""
        return float(self.offsets.max()) if len(self) else 0.0

    @property
    def notes(self) -> tuple[Note, ...]:
        """The rows as :class:`Note` objects, built on each access."""
        return tuple(map(Note, *(c.tolist() for c in self._columns())))

    def take(self, index) -> "Performance":
        """The notes at ``index`` (positions or a boolean mask)."""
        return Performance(*(c[index] for c in self._columns()))

    def __len__(self) -> int:
        return len(self.onsets)


def _sorted(onsets, offsets, pitches, velocities) -> Performance:
    """The notes ordered by (onset, pitch, offset), ties kept in input order."""
    order = np.lexsort((offsets, pitches, onsets))
    return Performance(onsets[order], offsets[order], pitches[order], velocities[order])


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, index) for every index in every range [lo[k], hi[k]), in order of k."""
    counts = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def _tick_seconds(ticks: np.ndarray, tempos: Sequence[tuple[int, int]], tpq: int) -> np.ndarray:
    """Seconds at each absolute tick through the (tick, us-per-quarter) set-tempo events.

    The last event at a tick wins, and 500000 us/quarter holds before the
    first. Each tick's microticks are summed as exact Python ints (object
    arrays) and divided once, so no conversion drifts or overflows.
    """
    merged = dict(sorted([(0, DEFAULT_TEMPO), *tempos], key=lambda e: e[0]))
    starts, uspq = (np.array(c, dtype=object) for c in zip(*merged.items()))
    micro_at_start = np.cumsum(np.append(0, np.diff(starts) * uspq[:-1]))
    i = np.searchsorted(starts.astype(np.int64), ticks, "right") - 1
    micro = micro_at_start[i] + (ticks.astype(object) - starts[i]) * uspq[i]
    return (micro / (tpq * 1_000_000)).astype(np.float64)


# ---------------------------------------------------------------------------
# Binary SMF reading
# ---------------------------------------------------------------------------

def _read_varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= end:
            raise MidiParseError("truncated variable-length quantity", pos)
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError("variable-length quantity longer than 4 bytes", pos)


def _parse_header(data: bytes) -> tuple[int, int, int, int]:
    if len(data) < 14 or data[:4] != b"MThd":
        raise MidiParseError("missing MThd header chunk", 0)
    (length,) = struct.unpack_from(">I", data, 4)
    if length < 6:
        raise MidiParseError(f"malformed header chunk length {length}", 4)
    fmt, ntrks, division = struct.unpack_from(">HHH", data, 8)
    if fmt == 2:
        raise MidiParseError("unsupported SMF format 2", 8)
    if fmt > 2:
        raise MidiParseError(f"unknown SMF format {fmt}", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is not supported", 12)
    if division == 0:
        raise MidiParseError("zero ticks per quarter note", 12)
    return fmt, ntrks, division, 8 + length


def _parse_track(
    data: bytes,
    pos: int,
    columns: tuple[list[int], list[int], list[int], list[int]],
    tempos: list[tuple[int, int]],
    pedals: list[tuple[int, int]],
) -> int:
    """Read the MTrk chunk at ``pos`` and return its end. Notes go to the four
    ``columns`` (onset tick, offset tick, pitch, velocity) in the order they close."""
    if data[pos : pos + 4] != b"MTrk":
        raise MidiParseError("expected MTrk chunk", pos)
    if pos + 8 > len(data):
        raise MidiParseError("truncated track chunk header", pos)
    (length,) = struct.unpack_from(">I", data, pos + 4)
    start = pos + 8
    end = start + length
    if end > len(data):
        raise MidiParseError("track length mismatch: chunk extends past end of data", pos + 4)

    onset_ticks, offset_ticks, pitches, velocities = columns
    p = start
    tick = 0
    running: Optional[int] = None
    active: dict[int, tuple[int, int]] = {}  # channel << 7 | pitch -> (onset_tick, velocity)
    while p < end:
        byte = data[p]  # deltas of 1 and 2 bytes inline, longer ones through _read_varint
        if byte < 0x80:
            tick += byte
            p += 1
        elif p + 1 < end and data[p + 1] < 0x80:
            tick += (byte & 0x7F) << 7 | data[p + 1]
            p += 2
        else:
            delta, p = _read_varint(data, p, end)
            tick += delta
        if p >= end:
            raise MidiParseError("event truncated at track end", p)
        status = data[p]
        if status & 0x80:
            p += 1
            running = status if status < 0xF0 else None  # sysex and meta events cancel running status
        elif running is None:
            raise MidiParseError("dangling running status", p)
        else:
            status = running

        # channel voice; the other system statuses also take two data bytes and are dropped
        if status < 0xF0 or status not in (0xF0, 0xF7, 0xFF):
            kind = status & 0xF0
            n_data = 1 if kind == 0xC0 or kind == 0xD0 else 2
            if p + n_data > end:
                raise MidiParseError("channel event truncated", p)
            d1 = data[p]
            d2 = data[p + 1] if n_data == 2 else 0
            if (d1 | d2) & 0x80:
                raise MidiParseError(f"invalid data byte for status 0x{status:02X}", p)
            p += n_data
            if kind == 0x90 or kind == 0x80:
                key = (status & 0x0F) << 7 | d1
                opened = active.pop(key, None)
                if opened is not None:  # a note-off, or a same-pitch note-on that closes the earlier note
                    onset_ticks.append(opened[0])
                    offset_ticks.append(tick)
                    pitches.append(d1)
                    velocities.append(opened[1])
                if kind == 0x90 and d2:
                    active[key] = (tick, d2)
            elif kind == 0xB0 and d1 == SUSTAIN_CONTROLLER:
                pedals.append((tick, d2))
        elif status == 0xFF:
            event_start = p - 1  # a meta event never runs on running status
            if p >= end:
                raise MidiParseError("truncated meta event", p)
            meta_type = data[p]
            meta_len, p = _read_varint(data, p + 1, end)
            if p + meta_len > end:
                raise MidiParseError("meta event overruns track", p)
            p += meta_len
            if meta_type == 0x51:
                if meta_len != 3:
                    raise MidiParseError(f"set-tempo event with length {meta_len}", p)
                uspq = int.from_bytes(data[p - 3 : p], "big")
                if uspq == 0:
                    raise MidiParseError("set-tempo event with zero tempo", event_start)
                tempos.append((tick, uspq))
            elif meta_type == 0x2F:
                break
        else:
            skip, p = _read_varint(data, p, end)
            if p + skip > end:
                raise MidiParseError("sysex event overruns track", p)
            p += skip

    for key in sorted(active):  # unterminated notes close at track end
        onset_tick, velocity = active[key]
        onset_ticks.append(onset_tick)
        offset_ticks.append(tick)
        pitches.append(key & 0x7F)
        velocities.append(velocity)
    return end


def parse_midi(data: bytes, pedal_mode: str = "extend") -> Performance:
    """Parse a Standard MIDI File (format 0 or 1) into a :class:`Performance`.

    Note-on events with velocity 0 are treated as note-offs. Event times are
    converted to seconds through the file's tempo map. With
    ``pedal_mode="extend"``, CC64 sustain spans lengthen note offsets via
    :func:`apply_sustain_pedal`; with ``"ignore"`` the pedal is discarded.

    Raises :class:`MidiParseError` (with a byte offset) on malformed input.
    """
    if pedal_mode not in ("ignore", "extend"):
        raise ValueError(f"pedal_mode must be 'ignore' or 'extend', got {pedal_mode!r}")

    fmt, ntrks, tpq, pos = _parse_header(data)
    columns, tempos, raw_pedals = ([], [], [], []), [], []  # filled by _parse_track
    for _ in range(ntrks):
        pos = _parse_track(data, pos, columns, tempos, raw_pedals)

    onset_ticks, offset_ticks, pitches, velocities = (np.array(c, dtype=np.int64) for c in columns)
    onsets, offsets = _tick_seconds(np.stack([onset_ticks, offset_ticks]), tempos, tpq)
    offsets = np.where(offsets <= onsets, onsets + MIN_NOTE_DURATION, offsets)
    performance = _sorted(onsets, offsets, pitches, velocities)

    if pedal_mode == "extend" and raw_pedals:
        raw_pedals.sort(key=lambda e: e[0])
        pedal_ticks, values = np.array(raw_pedals, dtype=np.int64).T
        performance = apply_sustain_pedal(performance, _tick_seconds(pedal_ticks, tempos, tpq), values)
    return performance


def parse_midi_file(path, pedal_mode: str = "extend") -> Performance:
    with open(path, "rb") as fh:
        return parse_midi(fh.read(), pedal_mode=pedal_mode)


# ---------------------------------------------------------------------------
# Sustain pedal
# ---------------------------------------------------------------------------

def apply_sustain_pedal(performance: Performance, times: np.ndarray, values: np.ndarray) -> Performance:
    """Extend note offsets over sustain-pedal spans.

    ``times`` (seconds, non-decreasing) and ``values`` are the CC64
    controller changes in order. While CC64 >= ``SUSTAIN_THRESHOLD`` the
    pedal is down. A note whose nominal offset falls inside a down span
    keeps sounding until the pedal release, truncated at the next onset of
    the same pitch. Notes are never shortened. A pedal that is still down at
    the end of the data sustains to the end of the performance.
    """
    times, values = np.asarray(times, dtype=np.float64), np.asarray(values)
    if not len(performance) or not len(times):
        return performance
    down = values >= SUSTAIN_THRESHOLD
    # the pedal goes down, up, down, ... at these times; a span still down at the end ends at inf
    flips = times[np.flatnonzero(np.diff(down, prepend=False))]
    span_starts, span_ends = flips[0::2], np.append(flips[1::2], [np.inf] * (len(flips) % 2))
    if not len(span_starts):
        return performance
    data_end = max(performance.end_time, times[-1])
    onsets, offsets, pitches = performance.onsets, performance.offsets, performance.pitches

    # next onset of the same pitch, per note (inf when none follows)
    by_pitch = np.argsort(pitches, kind="stable")
    follows = pitches[by_pitch[1:]] == pitches[by_pitch[:-1]]
    next_same_pitch = np.full(len(performance), np.inf)
    next_same_pitch[by_pitch[:-1][follows]] = onsets[by_pitch[1:][follows]]

    # the down span an offset falls in, if any
    span = np.searchsorted(span_starts, offsets, "right") - 1
    release = span_ends[np.maximum(span, 0)]
    held = (span >= 0) & (offsets < release)
    extended = np.minimum(np.where(release == np.inf, data_end, release), next_same_pitch)
    offsets = np.where(held & (extended > offsets), extended, offsets)
    return _sorted(onsets, offsets, pitches, performance.velocities)
