"""End-to-end acceptance checks, one test per release criterion.

Each test prints a PASS/FAIL line via the conftest hook so the whole gate
can be read off a single pytest run.
"""

import csv
import io
import math
import time

import numpy as np

from helpers import (
    expressive_performance,
    jitter_onsets,
    jitter_velocities,
    oracle_frame_prf,
    oracle_note_prf,
    performance_to_smf,
    random_performance,
    sine_audio,
)
from pianoeval.audio import (
    add_noise_snr,
    apply_condition_grid,
    AudioBuffer,
    synth_ir,
)
from pianoeval.cli import main
from pianoeval.config import RunConfig
from pianoeval.evaluation import evaluate_performances
from pianoeval.ir_metrics import (
    MATCH_MODES,
    build_piano_roll,
    frame_metrics,
    note_metrics,
)
from pianoeval.midi import Note, Performance
from pianoeval.musical import compute_musical_metrics
from pianoeval.stats import kruskal_wallis
from pianoeval.tension import cloud_diameter, cloud_momentum, pitch_to_spiral


def test_self_evaluation_identity():
    """evaluate(x, x): every F1 exactly 1.0, every defined correlation
    within 1e-9 of 1.0, 25 varied performances in under 5 seconds."""
    rng = np.random.default_rng(2024)
    performances = [
        random_performance(
            rng,
            int(rng.integers(10, 501)),
            tempo_scale=float(rng.uniform(0.5, 2.0)),
            velocity_range=(int(rng.integers(1, 40)), int(rng.integers(80, 128))),
        )
        for _ in range(25)
    ]
    config = RunConfig()
    start = time.perf_counter()
    reports = [evaluate_performances(p, p, config) for p in performances]
    elapsed = time.perf_counter() - start
    for report in reports:
        for prf in (report.frame, report.note_offset, report.note_offset_velocity):
            assert prf.precision == 1.0
            assert prf.recall == 1.0
            assert prf.f1 == 1.0
        for name, value in report.musical.as_dict().items():
            if value is not None:
                assert value >= 1.0 - 1e-9, name
    assert elapsed < 5.0, f"25 self-evaluations took {elapsed:.2f}s"


def test_note_matching_oracle_parity():
    """Note P/R/F1 in all three modes equals an exhaustive maximum-matching
    oracle exactly, over 200 random pairs of up to 12 notes per side."""
    rng = np.random.default_rng(404)

    def random_notes(n):
        notes = []
        t = 0.0
        for _ in range(n):
            t += float(rng.uniform(0.0, 0.12))
            pitch = int(rng.choice([60, 60, 62, 64, 65]))
            dur = float(rng.uniform(0.04, 0.7))
            notes.append(Note(t, t + dur, pitch, int(rng.integers(1, 128))))
        return notes

    for _ in range(200):
        ref = random_notes(int(rng.integers(0, 13)))
        est = random_notes(int(rng.integers(0, 13)))
        for mode in MATCH_MODES:
            got = note_metrics(Performance.from_notes(ref), Performance.from_notes(est), mode)
            precision, recall, f1 = oracle_note_prf(ref, est, mode)
            assert (got.precision, got.recall, got.f1) == (precision, recall, f1)


def test_frame_oracle_parity():
    """Frame P/R/F1 equals a naive pure-Python per-cell recount on 50
    random piano-roll pairs."""
    rng = np.random.default_rng(505)
    for _ in range(50):
        ref = build_piano_roll(random_performance(rng, int(rng.integers(0, 40))))
        est = build_piano_roll(random_performance(rng, int(rng.integers(0, 40))))
        got = frame_metrics(ref, est)
        precision, recall, f1 = oracle_frame_prf(ref.active, est.active)
        assert (got.precision, got.recall, got.f1) == (precision, recall, f1)


def test_spiral_geometry():
    """Fifth distance sqrt(2 + 2/15) within 1e-9; one-pitch-class clouds
    have zero diameter; constant harmony has zero momentum."""
    d = pitch_to_spiral(60).distance(pitch_to_spiral(67))
    assert abs(d - math.sqrt(2.0 + 2.0 / 15.0)) <= 1e-9

    octaves = [Note(0.0, 1.0, 36 + 12 * k, 64) for k in range(5)]
    assert cloud_diameter(Performance.from_notes(octaves)) == 0.0

    steady = Performance.from_notes(
        [Note(i * 0.5, i * 0.5 + 0.5, 60, 64) for i in range(12)]
    )
    momentum = cloud_momentum(steady)
    assert len(momentum) > 0
    assert all(v == 0.0 for v in momentum.values)


def test_dynamics_velocity_scale_invariance():
    """Scaling every estimate velocity by a common factor moves the
    dynamics correlation by at most 1e-9."""
    rng = np.random.default_rng(606)
    for attempt in range(5):
        ref = expressive_performance(rng)
        est_notes = [
            # multiples of 5 so the 6/5 gain below is an exact integer map
            Note(n.onset, n.offset, n.pitch, int(np.clip(5 * round(n.velocity / 5), 20, 105)))
            for n in jitter_onsets(ref, 0.02, rng).notes
        ]
        est = Performance.from_notes(est_notes)
        scaled = Performance.from_notes(
            [Note(n.onset, n.offset, n.pitch, n.velocity * 6 // 5) for n in est.notes]
        )
        base = compute_musical_metrics(ref, est).dynamics
        after = compute_musical_metrics(ref, scaled).dynamics
        assert base is not None and after is not None
        assert abs(after - base) <= 1e-9


def test_degradation_monotonicity():
    """Mean melody-IOI correlation strictly decreases with onset jitter
    sigma in {0, 10, 50} ms; mean dynamics strictly decreases with velocity
    noise sigma in {0, 5, 20} while onset-mode note F1 stays exactly 1.0.
    20 seeds per condition."""
    onset_sigmas = (0.0, 0.010, 0.050)
    velocity_sigmas = (0.0, 5.0, 20.0)
    ioi_sums = [0.0, 0.0, 0.0]
    dyn_sums = [0.0, 0.0, 0.0]
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        ref = expressive_performance(rng)
        for k, sigma in enumerate(onset_sigmas):
            est = jitter_onsets(ref, sigma, rng)
            value = compute_musical_metrics(ref, est).melody_ioi
            assert value is not None
            ioi_sums[k] += value
        for k, sigma in enumerate(velocity_sigmas):
            est = jitter_velocities(ref, sigma, rng)
            value = compute_musical_metrics(ref, est).dynamics
            assert value is not None
            dyn_sums[k] += value
            prf = note_metrics(ref, est, "onset")
            assert prf.f1 == 1.0
    assert ioi_sums[0] > ioi_sums[1] > ioi_sums[2], ioi_sums
    assert dyn_sums[0] > dyn_sums[1] > dyn_sums[2], dyn_sums


def test_snr_calibration():
    """Measured SNR of injected noise within +-0.1 dB of each target in
    {24, 12, 6} dB on 10 seconds of audio."""
    audio = sine_audio(frequency=440.0, seconds=10.0, amplitude=0.9)
    signal_power = float(np.mean(audio.samples**2))
    for k, target in enumerate((24.0, 12.0, 6.0)):
        noisy = add_noise_snr(audio, target, seed=900 + k)
        noise_power = float(np.mean((noisy.samples - audio.samples) ** 2))
        measured = 10.0 * math.log10(signal_power / noise_power)
        assert abs(measured - target) <= 0.1, (target, measured)


def test_reverb_identity_and_condition_grid():
    """Unit-impulse reverb reproduces the input within 1e-6; the 4x4
    condition grid yields exactly 16 cells, bit-identical across runs."""
    audio = sine_audio(seconds=1.0, amplitude=0.7)
    from pianoeval.audio import convolve_ir

    unit = AudioBuffer(audio.sample_rate, np.array([[1.0]]))
    out = convolve_ir(audio, unit)
    assert out.n_samples == audio.n_samples
    assert float(np.max(np.abs(out.samples - audio.samples))) <= 1e-6

    irs = [None] + [
        synth_ir(rt60, audio.sample_rate, seed=70 + i)
        for i, rt60 in enumerate((0.19, 1.85, 10.5))
    ]
    snrs = [None, 24.0, 12.0, 6.0]
    first = list(apply_condition_grid(audio, snrs, irs, seed=33))
    second = list(apply_condition_grid(audio, snrs, irs, seed=33))
    assert len(first) == 16 and len(second) == 16
    for out_a, out_b in zip(first, second):
        assert np.array_equal(out_a.samples, out_b.samples)


def test_kruskal_wallis_reference_case():
    """Groups {1,2,3},{4,5,6},{7,8,9}: H exactly 7.2, p within 1e-6 of
    e^-3.6, flagged significant at alpha = 0.05."""
    result = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert result.h == 7.2
    assert result.df == 2
    assert abs(result.p - math.exp(-3.6)) <= 1e-6
    assert result.significant


def test_single_pair_runtime(tmp_path):
    """A ~5000-note, ~10-minute pair evaluates (all metrics) in under 2 s."""
    rng = np.random.default_rng(777)
    ref = random_performance(rng, 5000, tempo_scale=0.8)
    assert 400.0 < ref.end_time < 900.0  # ballpark ten minutes
    est = jitter_velocities(jitter_onsets(ref, 0.008, rng), 4.0, rng)
    start = time.perf_counter()
    report = evaluate_performances(ref, est, RunConfig())
    elapsed = time.perf_counter() - start
    assert report.frame.f1 > 0.5  # sanity: the workload was real
    assert elapsed < 2.0, f"evaluation took {elapsed:.2f}s"


def test_batch_runtime(tmp_path):
    """100 manifest rows with 4-way parallelism complete in under 60 s."""
    rng = np.random.default_rng(888)
    pairs = []
    for i in range(10):
        perf = random_performance(rng, 120)
        ref_path = tmp_path / f"ref{i}.mid"
        est_path = tmp_path / f"est{i}.mid"
        ref_path.write_bytes(performance_to_smf(perf))
        est_path.write_bytes(performance_to_smf(jitter_onsets(perf, 0.01, rng)))
        pairs.append((str(ref_path), str(est_path)))
    lines = ["ref,est,id,model"]
    for row in range(100):
        ref_path, est_path = pairs[row % 10]
        lines.append(f"{ref_path},{est_path},row-{row:03d},model{'AB'[row % 2]}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"

    start = time.perf_counter()
    code = main(["batch", str(manifest), "--output", str(out_dir), "--jobs", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = list(csv.DictReader(io.StringIO((out_dir / "reports.csv").read_text())))
    assert len(rows) == 100
    assert elapsed < 60.0, f"batch took {elapsed:.2f}s"
