"""End-to-end evaluation of one ground-truth/estimate MIDI pair."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .ir_metrics import FRAME_LENGTH, build_piano_roll, frame_metrics, note_metrics
from .midi import Performance
from .musical import compute_musical_metrics
from .series import GridConfig
from .stats import MetricReport
from .streams import CHORD_EPSILON
from .tension import SpiralParams, WindowConfig

__all__ = ["MAX_DURATION", "MIN_STEP", "RunConfig", "checked_duration", "evaluate_performances"]

# Longest performance evaluated, seconds: a full two-hour recital
MAX_DURATION = 7200.0
# Finest frame length, grid step and window hop, seconds: arrays grow as the duration over these
MIN_STEP = 0.001


@dataclass(frozen=True)
class RunConfig:
    """Every knob of an evaluation run, serializable as flat key=value."""

    frame_length: float = FRAME_LENGTH
    chord_epsilon: float = CHORD_EPSILON
    grid_step: float = GridConfig.step
    min_samples: int = GridConfig.min_samples
    window_length: float = WindowConfig.window_length
    hop: float = WindowConfig.hop
    pedal_mode: str = "extend"
    spiral_radius: float = SpiralParams.radius
    spiral_rise: float = SpiralParams.rise

    def __post_init__(self):
        for name in ("frame_length", "chord_epsilon"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be positive and finite")
        if self.pedal_mode not in ("ignore", "extend"):
            raise ValueError(f"pedal_mode must be 'ignore' or 'extend', got {self.pedal_mode!r}")
        # grid/window/spiral ranges are enforced by their own constructors
        self.grid()
        self.window()
        self.spiral()
        for name in ("frame_length", "grid_step", "hop"):
            if getattr(self, name) < MIN_STEP:
                raise ValueError(f"{name} must be at least {MIN_STEP:g} s")

    def grid(self) -> GridConfig:
        return GridConfig(self.grid_step, self.min_samples)

    def window(self) -> WindowConfig:
        return WindowConfig(self.window_length, self.hop)

    def spiral(self) -> SpiralParams:
        return SpiralParams(self.spiral_radius, self.spiral_rise)


def checked_duration(perf: Performance, side: str) -> Performance:
    """``perf`` if it ends within ``MAX_DURATION``; otherwise a ValueError naming
    ``side``. Frame, grid and window arrays grow with the duration, so a small
    valid file whose ticks span years would otherwise ask for terabytes."""
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
    musical = compute_musical_metrics(
        ref,
        est,
        chord_epsilon=config.chord_epsilon,
        grid=config.grid(),
        window=config.window(),
        spiral=config.spiral(),
    )
    return MetricReport(
        pair_id=pair_id,
        frame=frame,
        note_offset=note_metrics(ref, est, "onset_offset"),
        note_offset_velocity=note_metrics(ref, est, "onset_offset_velocity"),
        musical=musical,
        tags=dict(tags or {}),
    )
