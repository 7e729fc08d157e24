"""End-to-end evaluation of one ground-truth/estimate MIDI pair."""

from __future__ import annotations

from typing import Optional

from .config import RunConfig
from .ir_metrics import build_piano_roll, frame_metrics, note_metrics
from .midi import Performance
from .musical import compute_musical_metrics
from .stats import MetricReport

__all__ = ["MAX_DURATION", "checked_duration", "evaluate_performances"]

# Longest performance evaluated, seconds: a full two-hour recital
MAX_DURATION = 7200.0


def checked_duration(perf: Performance, side: str) -> Performance:
    """``perf`` if it ends within ``MAX_DURATION``; otherwise a ValueError naming
    ``side``. Grid and window arrays grow with the duration, so a small valid
    file whose ticks span years would otherwise ask for terabytes."""
    if perf.end_time > MAX_DURATION:
        raise ValueError(f"{side} lasts {perf.end_time:.6g} s, longer than the {MAX_DURATION:g} s limit")
    return perf


def evaluate_performances(
    ref: Performance,
    est: Performance,
    config: RunConfig = RunConfig(),
    pair_id: str = "pair",
    tags: Optional[dict[str, str]] = None,
) -> MetricReport:
    """Frame PRF, the two headline note PRFs, and the eight correlations.

    A side longer than ``MAX_DURATION`` raises ValueError before any array is
    built."""
    checked_duration(ref, "ref")
    checked_duration(est, "est")
    frame = frame_metrics(
        build_piano_roll(ref, config.frame_length), build_piano_roll(est, config.frame_length)
    )
    musical = compute_musical_metrics(ref, est, config)
    return MetricReport(
        pair_id=pair_id,
        frame=frame,
        note_offset=note_metrics(ref, est, "onset_offset"),
        note_offset_velocity=note_metrics(ref, est, "onset_offset_velocity"),
        musical=musical,
        tags=dict(tags or {}),
    )
