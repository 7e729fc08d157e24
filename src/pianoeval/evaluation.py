"""End-to-end evaluation of one ground-truth/estimate MIDI pair."""

from __future__ import annotations

from typing import Optional

from .config import RunConfig
from .ir_metrics import build_piano_roll, frame_metrics, note_metrics, shared_edge_search
from .midi import Performance
from .musical import compute_musical_metrics
from .stats import MetricReport

__all__ = ["evaluate_performances"]


def evaluate_performances(
    ref: Performance,
    est: Performance,
    config: RunConfig = RunConfig(),
    pair_id: str = "pair",
    tags: Optional[dict[str, str]] = None,
) -> MetricReport:
    """Frame PRF, the two headline note PRFs, and the eight correlations.

    The musical metrics come first: a side longer than ``MAX_DURATION`` raises
    ValueError there before any array is built."""
    musical = compute_musical_metrics(ref, est, config)
    frame = frame_metrics(
        build_piano_roll(ref, config.frame_length), build_piano_roll(est, config.frame_length)
    )
    with shared_edge_search():
        return MetricReport(
            pair_id=pair_id,
            frame=frame,
            note_offset=note_metrics(ref, est, "onset_offset"),
            note_offset_velocity=note_metrics(ref, est, "onset_offset_velocity"),
            musical=musical,
            tags=dict(tags or {}),
        )
