"""The parameters of an evaluation run, stated and checked in one place."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["MAX_DURATION", "MAX_WINDOW_OVERLAP", "MIN_STEP", "PEDAL_MODES", "RunConfig", "checked_duration"]

# Finest frame_length, grid_step and hop, seconds: grids, windows and a read roll grow as the duration over these
MIN_STEP = 0.001
# Longest performance evaluated, seconds: a full two-hour recital
MAX_DURATION = 7200.0
# Largest window_length / hop: windows' work grows as sounding time over hop, in passes of midi.EXPAND_PASS pairs
MAX_WINDOW_OVERLAP = 100
# The sustain pedal handlings: RunConfig.pedal_mode, parse_midi's pedal_mode and the --pedal flag take one
PEDAL_MODES = ("ignore", "extend")


@dataclass(frozen=True)
class RunConfig:
    """Every parameter of an evaluation run, serializable as flat key=value.

    The default ``spiral_rise`` sqrt(2/15) makes the helix distance of a
    major third equal that of a perfect fifth, the published calibration of
    the spiral array. Every check names the key at fault first.
    """

    frame_length: float = 0.010  # piano-roll frame, seconds
    chord_epsilon: float = 0.030  # onsets up to this + TIME_SLACK past a cluster's first join its chord, seconds
    grid_step: float = 0.1  # correlation grid step, seconds
    min_samples: int = 8  # fewest shared grid points for a defined correlation
    window_length: float = 1.0  # harmonic window [i*hop, i*hop + window_length), seconds, to within TIME_SLACK
    hop: float = 0.5
    pedal_mode: str = "extend"  # 'extend' applies the sustain pedal, 'ignore' drops it
    spiral_radius: float = 1.0  # pitch-class helix radius
    spiral_rise: float = math.sqrt(2.0 / 15.0)  # helix rise per fifth

    def __post_init__(self):
        for f in fields(self):
            # NaN fails every comparison
            if isinstance(f.default, float) and not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")
        for name in ("frame_length", "grid_step", "hop"):
            if getattr(self, name) < MIN_STEP:
                raise ValueError(f"{name} must be at least {MIN_STEP:g} s")
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")
        if self.hop > self.window_length:
            raise ValueError("hop must be in (0, window_length]")
        overlap = self.window_length / self.hop
        if overlap > MAX_WINDOW_OVERLAP:
            raise ValueError(f"window_length / hop must be at most {MAX_WINDOW_OVERLAP}, got {overlap:g}")
        if self.pedal_mode not in PEDAL_MODES:
            raise ValueError(f"pedal_mode must be {' or '.join(map(repr, PEDAL_MODES))}, got {self.pedal_mode!r}")


def checked_duration(perf, side: str):
    """The performance ``perf`` if it ends within ``MAX_DURATION``, else a ValueError naming ``side``: grid
    and window arrays grow with the duration, so a small file whose ticks span years would ask for terabytes."""
    if perf.end_time > MAX_DURATION:
        raise ValueError(f"{side} lasts {perf.end_time:.6g} s, longer than the {MAX_DURATION:g} s limit")
    return perf
