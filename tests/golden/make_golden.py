"""Write the golden batch inputs and their expected outputs.

    PYTHONPATH=src:tests python tests/golden/make_golden.py

The inputs (``inputs/``) are small seeded SMF pairs: references with a tempo
map, CC64 pedal and chords, a quantized metronomic estimate, a jittered
estimate with dropped and spurious notes, and one file with a status byte
where a data byte belongs, which fails its row. The expected outputs
(``expected/<config>/``) are what ``pianoeval batch`` writes for them.
``expected/dense_pair/`` holds the emitted CSV and JSON report of one
denser pair, ~2000 seeded notes with chords against a jittered estimate,
built in memory by the test helpers. An
expected file changes only with a recorded spec change that lists the old
and new values; rewriting it to turn a failing ``tests/test_golden.py``
green hides a drift.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import numpy as np

from helpers import (
    TempoMap,
    jitter_onsets,
    jitter_velocities,
    random_performance,
    serialize_smf,
    ticks_to_seconds,
)
from pianoeval import cli
from pianoeval.evaluation import evaluate_performances
from pianoeval.stats import MetricReport, emit

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
MANIFEST = "manifest.csv"
# config name -> config file in inputs/ (None: the defaults)
CONFIGS = {"default": None, "all_keys": "all_keys.cfg"}
ALL_KEYS_CFG = """\
frame_length = 0.02
chord_epsilon = 0.04
grid_step = 0.05
min_samples = 6
window_length = 2.0
hop = 0.5
pedal_mode = ignore
spiral_radius = 1.5
spiral_rise = 0.4
"""


def _reference(rng, n_events: int, tpq: int):
    """(onset tick, offset tick, pitch, velocity) rows: a melody over a bass, a chord on every third event."""
    notes = []
    tick = 0
    melody, bass = 72, 45
    for i in range(n_events):
        length = int(rng.integers(tpq // 4, tpq))
        melody = int(np.clip(melody + rng.integers(-4, 5), 62, 88))
        bass = int(np.clip(bass + rng.integers(-2, 3), 36, 52))
        notes.append((tick, tick + length, melody, int(rng.integers(50, 110))))
        notes.append((tick, tick + 2 * length, bass, int(rng.integers(35, 80))))
        if i % 3 == 0:
            for step in (4, 7):
                notes.append((tick, tick + length, bass + 12 + step, int(rng.integers(30, 60))))
        tick += length
    return notes


def _seconds(notes, tempos, tpq):
    tempo_map = TempoMap(list(tempos), tpq)
    return [(ticks_to_seconds(a, tempo_map), ticks_to_seconds(b, tempo_map), p, v) for a, b, p, v in notes]


def _quantized(notes_s):
    """Every onset and duration on a 160-tick grid at 120 BPM, tpq 480 (1/6 s), one velocity."""
    rows = {}
    for onset, offset, pitch, _ in notes_s:
        start = round(onset * 6) * 160
        rows[(start, pitch)] = (start, start + max(1, round((offset - onset) * 6)) * 160, pitch, 64)
    return serialize_smf(sorted(rows.values()))


def _jittered(rng, notes_s):
    """A transcriber-like estimate: 15 ms onset jitter, 5 % dropped, 5 % spurious, another velocity scale."""
    rows = []
    for onset, offset, pitch, velocity in notes_s:
        if rng.random() < 0.05:
            continue
        start = max(0.0, onset + float(rng.normal(0.0, 0.015)))
        rows.append((start, start + (offset - onset), pitch, int(np.clip(0.8 * velocity + 15, 1, 127))))
        if rng.random() < 0.05:
            rows.append((start + 0.1, start + 0.3, int(rng.integers(40, 90)), 40))
    ticks = {}
    for onset, offset, pitch, velocity in rows:  # tpq 960 at 120 BPM: 1920 ticks per second
        start = round(onset * 1920)
        ticks[(start, pitch)] = (start, max(start + 1, round(offset * 1920)), pitch, velocity)
    return serialize_smf(sorted(ticks.values()), tpq=960, note_off_via_zero_velocity=True)


def write_inputs() -> None:
    rng = np.random.default_rng(20241)
    INPUTS.mkdir(exist_ok=True)
    files = {}

    tempos_a = ((0, 500_000), (480 * 8, 420_000), (480 * 16, 600_000))
    pedals_a = [(480 * k + after, value) for k in range(0, 28, 2) for after, value in ((0, 127), (400, 0))]
    notes_a = _reference(rng, 24, 480)
    files["a_ref.mid"] = serialize_smf(notes_a, tpq=480, tempos=tempos_a, pedals=pedals_a)
    a_seconds = _seconds(notes_a, tempos_a, 480)
    files["a_quantized.mid"] = _quantized(a_seconds)
    files["a_jittered.mid"] = _jittered(rng, a_seconds)

    tempos_b = ((0, 650_000), (384 * 4, 500_000), (384 * 10, 450_000), (384 * 14, 700_000))
    notes_b = _reference(rng, 20, 384)
    files["b_ref.mid"] = serialize_smf(notes_b, tpq=384, tempos=tempos_b, pedals=((0, 100), (384 * 6, 0)), fmt=0)
    files["b_jittered.mid"] = _jittered(rng, _seconds(notes_b, tempos_b, 384))
    broken = bytearray(files["b_jittered.mid"])  # a status byte where the 12th note event's pitch belongs
    notes_at = broken.index(b"MTrk", broken.index(b"MTrk") + 1)
    broken[[i for i in range(notes_at, len(broken)) if broken[i] == 0x90][11] + 1] = 0x90
    files["b_broken.mid"] = bytes(broken)

    for name, data in files.items():
        (INPUTS / name).write_bytes(data)
    (INPUTS / MANIFEST).write_text(
        "id,ref,est,model\n"
        "a_quantized,a_ref.mid,a_quantized.mid,quantized\n"
        "a_jittered,a_ref.mid,a_jittered.mid,jittered\n"
        "b_jittered,b_ref.mid,b_jittered.mid,jittered\n"
        "b_broken,b_ref.mid,b_broken.mid,quantized\n",
        encoding="utf-8",
    )
    (INPUTS / CONFIGS["all_keys"]).write_text(ALL_KEYS_CFG, encoding="utf-8")


def run_batch(out: Path, config_file, jobs: int) -> None:
    """``pianoeval batch`` in CSV and in JSON into ``out``; run from ``inputs/``."""
    for fmt in ("csv", "json"):
        argv = ["batch", MANIFEST, "--output", str(out), "--jobs", str(jobs), "--group-by", "model"]
        argv += ["--format", fmt] + (["--config", config_file] if config_file else [])
        assert cli.main(argv) == 0


def dense_pair_report() -> MetricReport:
    """The report of a seeded ~2000-note reference (a chord on ~35 % of its onsets)
    against itself with 25 ms onset and 4-step velocity jitter."""
    rng = np.random.default_rng(20243)
    ref = random_performance(rng, 2000, chord_probability=0.35)
    est = jitter_velocities(jitter_onsets(ref, 0.025, rng), 4.0, rng)
    return evaluate_performances(ref, est, pair_id="dense_pair")


def main() -> None:
    write_inputs()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        for name, config_file in CONFIGS.items():
            out = EXPECTED / name
            shutil.rmtree(out, ignore_errors=True)
            run_batch(out, config_file, jobs=1)
    finally:
        os.chdir(cwd)
    report = dense_pair_report()
    (EXPECTED / "dense_pair").mkdir(exist_ok=True)
    for fmt in ("csv", "json"):
        (EXPECTED / "dense_pair" / f"report.{fmt}").write_bytes(emit([report], fmt))


if __name__ == "__main__":
    main()
