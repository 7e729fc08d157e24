"""Per-layer spans timed from outside the program.

The benchmark wraps each layer's public functions at the module attribute
through which the program calls them (``pianoeval.musical.split_streams``,
``pianoeval.cli.parse_midi_file``, ...), so the program itself carries no
tracing code. Each wrapped call records a span (name, thread, start, end,
parent) and may add to named counters computed from its arguments and
result. Every thread keeps its own stack of open spans; a span opened on a
thread whose stack is empty (a batch row on a pool thread) takes as parent
the innermost span open on the thread that began the operation.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (the union, so children running in parallel threads
are not subtracted twice).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

_MARK = "__perfbench_span__"


class Recorder:
    """Spans and counters of one traced operation at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._anchor = None
        self.spans: list[list] = []  # [name, thread, start, end, parent]
        self.counts: Counter = Counter()

    def begin_op(self, name: str = "op") -> int:
        self.spans = []
        self.counts = Counter()
        self._stacks = {}
        self._anchor = threading.get_ident()
        return self.open(name)

    def end_op(self, root: int) -> "OpTrace":
        self.close(root)
        self._anchor = None
        return OpTrace(self.spans, self.counts)

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                anchor = self._stacks.get(self._anchor) if tid != self._anchor else None
                parent = anchor[-1] if anchor else None
            index = len(self.spans)
            self.spans.append([name, tid, time.perf_counter(), None, parent])
            stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][3] = end
            self._stacks[self.spans[index][1]].pop()

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class OpTrace:
    """Per-name totals of one operation's spans."""

    def __init__(self, spans, counts):
        children = defaultdict(list)
        for name, tid, start, end, parent in spans:
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            if parent is not None:
                children[parent].append((start, end, tid != spans[parent][1]))
        self.root_s = spans[0][3] - spans[0][2]
        self.total = Counter()
        self.self_s = Counter()
        self.calls = Counter()
        self.cross_thread_s = 0.0
        for index, (name, tid, start, end, parent) in enumerate(spans):
            kids = children.get(index, [])
            self.total[name] += end - start
            self.self_s[name] += end - start - _union_length([(a, b) for a, b, _ in kids], start, end)
            self.calls[name] += 1
            self.cross_thread_s += sum(b - a for a, b, cross in kids if cross)
        self.counts = Counter(counts)

    def self_sum_error(self) -> float:
        """Sum of self times minus the root span, for an operation whose
        spans all ran on one thread; it is 0 unless time is counted twice."""
        return sum(self.self_s.values()) - self.root_s


# ---------------------------------------------------------------------------
# What is wrapped, where
# ---------------------------------------------------------------------------

def _mode_name(base):
    def name(args, kwargs):
        mode = kwargs["mode"] if "mode" in kwargs else args[2]
        return f"{base}.{mode}"
    return name


def _count_len(key):
    def hook(rec, args, kwargs, result):
        rec.add(key, len(result))
    return hook


def _grid_hook(rec, args, kwargs, result):
    rec.add("series.grid_points", len(result))
    rec.add("series.defined_points", sum(v is not None for v in result))


def _streams_hook(rec, args, kwargs, result):
    melody, _, accompaniment = result
    rec.add("streams.melody_notes", len(melody))
    rec.add("streams.accompaniment_notes", len(accompaniment))


def _matched_hook(rec, args, kwargs, result):
    mode = kwargs["mode"] if "mode" in kwargs else args[2]
    rec.add(f"ir_metrics.matched.{mode}", len(result.pairs))


def _roll_hook(rec, args, kwargs, result):
    rec.add("ir_metrics.roll_cells", result.active.size)


def _parsed_hook(rec, args, kwargs, result):
    rec.add("midi.notes_parsed", len(result.notes))


def _fft_hook(rec, args, kwargs, result):
    rec.add("audio.fft_output_samples", result.samples.size)


def _written_hook(rec, args, kwargs, result):
    rec.add("audio.bytes_written", os.path.getsize(args[0]))


# (span name or name(args, kwargs) or None for a counter only, counter hook,
#  call sites as "module:attribute")
WRAPS = [
    ("cli.batch", None, ["pianoeval.cli:cmd_batch"]),
    ("cli.stats", None, ["pianoeval.cli:cmd_stats"]),
    ("cli.perturb", None, ["pianoeval.cli:cmd_perturb"]),
    ("midi.parse_midi_file", _parsed_hook, ["pianoeval.cli:parse_midi_file"]),
    ("midi.apply_sustain_pedal", None, ["pianoeval.midi:apply_sustain_pedal"]),
    ("evaluation.evaluate_performances", None,
     ["pianoeval.cli:evaluate_performances", "pianoeval.evaluation:evaluate_performances"]),
    ("ir_metrics.build_piano_roll", _roll_hook, ["pianoeval.evaluation:build_piano_roll"]),
    ("ir_metrics.frame_metrics", None, ["pianoeval.evaluation:frame_metrics"]),
    (_mode_name("ir_metrics.note_metrics"), None, ["pianoeval.evaluation:note_metrics"]),
    (None, _matched_hook, ["pianoeval.ir_metrics:match_notes"]),
    ("musical.compute_musical_metrics", None, ["pianoeval.evaluation:compute_musical_metrics"]),
    ("streams.split_streams", _streams_hook, ["pianoeval.musical:split_streams"]),
    ("musical.ioi_series", None, ["pianoeval.musical:ioi_series"]),
    ("musical.kor_series", None, ["pianoeval.musical:kor_series"]),
    ("musical.ratio_kor_series", None, ["pianoeval.musical:ratio_kor_series"]),
    ("musical.dynamics_series", None, ["pianoeval.musical:dynamics_series"]),
    ("tension.cloud_diameter_series", _count_len("tension.samples"),
     ["pianoeval.musical:cloud_diameter_series"]),
    ("tension.cloud_momentum", _count_len("tension.samples"), ["pianoeval.musical:cloud_momentum"]),
    ("series.correlate_series", None, ["pianoeval.musical:correlate_series"]),
    ("series.resample_to_grid", _grid_hook,
     ["pianoeval.series:resample_to_grid", "pianoeval.musical:resample_to_grid"]),
    ("stats.emit", None, ["pianoeval.cli:emit"]),
    ("stats.aggregate", None, ["pianoeval.cli:aggregate"]),
    ("stats.kruskal_wallis", None, ["pianoeval.cli:kruskal_wallis"]),
    ("audio.read_wav_file", None, ["pianoeval.cli:read_wav_file"]),
    ("audio.synth_ir", None, ["pianoeval.cli:synth_ir"]),
    ("audio.apply_condition_grid", None, ["pianoeval.cli:apply_condition_grid"]),
    ("audio.convolve_ir", _fft_hook, ["pianoeval.audio:convolve_ir"]),
    ("audio.add_noise_snr", None, ["pianoeval.audio:add_noise_snr"]),
    ("audio.write_wav_file", _written_hook, ["pianoeval.cli:write_wav_file"]),
]


def _wrapper(rec: Recorder, original, name, hook):
    if name is None:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(rec, args, kwargs, result)
            return result
        setattr(counted, _MARK, True)
        return counted

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        index = rec.open(name(args, kwargs) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    setattr(spanned, _MARK, True)
    return spanned


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block.

    ``missing`` lists call sites that no longer exist (a renamed function);
    their spans never fire, which the layer report shows as incomplete.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, hook, sites in WRAPS:
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(site)
                    continue
                if getattr(original, _MARK, False):
                    raise RuntimeError(f"{site} is already wrapped")
                self._restore.append((module, attr, original))
                setattr(module, attr, _wrapper(self.recorder, original, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

INCOMPLETE = -1.0  # reported for a layer whose span fired fewer times than there were ops


def _total(span):
    return (lambda op: op.total[span]), (span,)


def _self(span):
    return (lambda op: op.self_s[span]), (span,)


def _calls(span):
    return (lambda op: op.calls[span]), (span,)


def _count(key, *spans):
    return (lambda op: op.counts[key]), spans


def _defined_ratio(op):
    points = op.counts["series.grid_points"]
    return op.counts["series.defined_points"] / points if points else 0.0


def _busy_ratio(jobs):
    def ratio(op):
        wall = op.total["cli.batch"]
        return op.cross_thread_s / (wall * jobs) if wall else 0.0
    return ratio


def layer_metrics(jobs: int):
    """name -> (unit, value(op), spans the value rests on)."""
    resample = "series.resample_to_grid"
    return {
        "tension.cloud_diameter_series.s": ("s", *_total("tension.cloud_diameter_series")),
        "tension.cloud_momentum.s": ("s", *_total("tension.cloud_momentum")),
        "tension.samples": ("count", *_count("tension.samples", "tension.cloud_diameter_series",
                                             "tension.cloud_momentum")),
        "series.correlate_series.self_s": ("s", *_self("series.correlate_series")),
        "series.resample_to_grid.s": ("s", *_total(resample)),
        "series.grid_points": ("count", *_count("series.grid_points", resample)),
        "series.defined_ratio": ("ratio", _defined_ratio, (resample,)),
        "musical.ioi_series.s": ("s", *_total("musical.ioi_series")),
        "musical.kor_series.s": ("s", *_total("musical.kor_series")),
        "musical.ratio_kor_series.s": ("s", *_total("musical.ratio_kor_series")),
        "musical.dynamics_series.s": ("s", *_total("musical.dynamics_series")),
        "musical.compute_musical_metrics.self_s": ("s", *_self("musical.compute_musical_metrics")),
        "streams.split_streams.s": ("s", *_total("streams.split_streams")),
        "streams.melody_notes": ("count", *_count("streams.melody_notes", "streams.split_streams")),
        "streams.accompaniment_notes": ("count", *_count("streams.accompaniment_notes",
                                                         "streams.split_streams")),
        "ir_metrics.note_metrics.onset_offset.s": ("s", *_total("ir_metrics.note_metrics.onset_offset")),
        "ir_metrics.note_metrics.onset_offset_velocity.s": (
            "s", *_total("ir_metrics.note_metrics.onset_offset_velocity")),
        "ir_metrics.matched.onset_offset": ("count", *_count(
            "ir_metrics.matched.onset_offset", "ir_metrics.note_metrics.onset_offset")),
        "ir_metrics.matched.onset_offset_velocity": ("count", *_count(
            "ir_metrics.matched.onset_offset_velocity", "ir_metrics.note_metrics.onset_offset_velocity")),
        "ir_metrics.build_piano_roll.s": ("s", *_total("ir_metrics.build_piano_roll")),
        "ir_metrics.frame_metrics.s": ("s", *_total("ir_metrics.frame_metrics")),
        "ir_metrics.roll_cells": ("count", *_count("ir_metrics.roll_cells", "ir_metrics.build_piano_roll")),
        "midi.parse_midi_file.s": ("s", *_total("midi.parse_midi_file")),
        "midi.apply_sustain_pedal.s": ("s", *_total("midi.apply_sustain_pedal")),
        "midi.notes_parsed": ("count", *_count("midi.notes_parsed", "midi.parse_midi_file")),
        "stats.emit.s": ("s", *_total("stats.emit")),
        "stats.aggregate.s": ("s", *_total("stats.aggregate")),
        "stats.kruskal_wallis.s": ("s", *_total("stats.kruskal_wallis")),
        "cli.batch.self_s": ("s", *_self("cli.batch")),
        "cli.batch.busy_ratio": ("ratio", _busy_ratio(jobs),
                                 ("cli.batch", "evaluation.evaluate_performances")),
        "evaluation.evaluate_performances.self_s": ("s", *_self("evaluation.evaluate_performances")),
        "audio.convolve_ir.s": ("s", *_total("audio.convolve_ir")),
        "audio.convolve_ir.calls": ("count", *_calls("audio.convolve_ir")),
        "audio.fft_output_samples": ("count", *_count("audio.fft_output_samples", "audio.convolve_ir")),
        "audio.add_noise_snr.s": ("s", *_total("audio.add_noise_snr")),
        "audio.add_noise_snr.calls": ("count", *_calls("audio.add_noise_snr")),
        "audio.apply_condition_grid.self_s": ("s", *_self("audio.apply_condition_grid")),
        "audio.read_wav_file.s": ("s", *_total("audio.read_wav_file")),
        "audio.synth_ir.s": ("s", *_total("audio.synth_ir")),
        "audio.write_wav_file.s": ("s", *_total("audio.write_wav_file")),
        "audio.bytes_written": ("count", *_count("audio.bytes_written", "audio.write_wav_file")),
        "cli.perturb.self_s": ("s", *_self("cli.perturb")),
    }


def summarize(ops: list[OpTrace], expected: set[str], jobs: int):
    """(metrics, incomplete span names) over the traced operations.

    Each metric is the median over operations of its per-operation value.
    A metric resting on an expected span that fired fewer times than there
    were operations reads ``INCOMPLETE`` instead of a misleading 0.
    """
    fired = Counter()
    for op in ops:
        fired.update(op.calls)
    incomplete = sorted(s for s in expected if fired[s] < len(ops))
    metrics = {}
    for name, (unit, value, spans) in layer_metrics(jobs).items():
        if any(s in incomplete for s in spans):
            metrics[name] = (INCOMPLETE, unit)
        else:
            metrics[name] = (statistics.median(value(op) for op in ops), unit)
    return metrics, incomplete
