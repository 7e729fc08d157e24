"""The three workloads: inputs, one operation, and its output check.

Each workload is driven as a closed loop with one client: the next
operation starts when the previous one returns. ``setup`` generates and
writes the inputs from the seed; ``prepare`` makes the untimed reference
outputs every timed operation is checked against; ``op`` is the timed
operation; ``check`` returns an error string for a wrong output, or None.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import pianoeval.cli
import pianoeval.evaluation
import pianoeval.musical
from pianoeval.midi import Note, Performance

import gen

# notes per pair (pair_5k); pairs and notes per pair (batch_dense); seconds of audio (perturb_grid)
SCALES = {
    "full": {"pair_notes": 5000, "batch_pairs": 8, "batch_notes": 1000, "wav_seconds": 20.0},
    "tiny": {"pair_notes": 300, "batch_pairs": 4, "batch_notes": 120, "wav_seconds": 1.0},
}

PAIR_SPANS = {
    "evaluation.evaluate_performances",
    "ir_metrics.build_piano_roll",
    "ir_metrics.frame_metrics",
    "ir_metrics.note_metrics.onset_offset",
    "ir_metrics.note_metrics.onset_offset_velocity",
    "musical.compute_musical_metrics",
    "streams.split_streams",
    "musical.ioi_series",
    "musical.kor_series",
    "musical.ratio_kor_series",
    "musical.dynamics_series",
    "tension.cloud_diameter_series",
    "tension.cloud_momentum",
    "series.correlate_series",
    "series.resample_to_grid",
}

PRF_FIELDS = ("frame", "note_offset", "note_offset_velocity")


def _report_error(report) -> str | None:
    for name in PRF_FIELDS:
        prf = getattr(report, name)
        for value in (prf.precision, prf.recall, prf.f1):
            if not 0.0 <= value <= 1.0:
                return f"{name} PRF out of [0, 1]: {prf}"
    for name, value in report.musical.as_dict().items():
        if value is not None and not -1.0 <= value <= 1.0:
            return f"{name} = {value} outside [-1, 1]"
    return None


class PairWorkload:
    """In-process ``evaluate_performances`` on one ~5000-note, ~10-minute pair.

    The reference is random polyphony; the estimate has ~8 ms onset jitter
    and ~4 velocity jitter. Musical series, tension and note matching do
    the work; there is no MIDI parsing, CLI or parallelism.
    """

    name = "pair_5k"
    jobs = 1
    expected_spans = PAIR_SPANS

    def __init__(self, work_dir: Path, seed: int, scale: str):
        self.seed = seed
        self.size = SCALES[scale]
        self.items_per_op = 1

    def setup(self) -> dict[str, str]:
        rng = np.random.default_rng([self.seed, 1])
        ref = gen.random_polyphony(rng, self.size["pair_notes"])
        est = gen.jittered(rng, ref, onset_sigma=0.008, velocity_sigma=4.0)
        self.ref = Performance.from_notes(Note(*n) for n in ref)
        self.est = Performance.from_notes(Note(*n) for n in est)
        return {"ref": gen.notes_digest(ref), "est": gen.notes_digest(est)}

    def prepare(self) -> list[str]:
        errors = []
        own = pianoeval.evaluation.evaluate_performances(self.ref, self.ref)
        for name in PRF_FIELDS:
            if getattr(own, name).f1 != 1.0:
                errors.append(f"self-pair {name} F1 = {getattr(own, name).f1}, expected 1.0")
        self.expected = self.op()
        error = _report_error(self.expected)
        return errors + ([error] if error else [])

    def op(self):
        return pianoeval.evaluation.evaluate_performances(self.ref, self.est, pair_id=self.name)

    def check(self, report) -> str | None:
        error = _report_error(report)
        if error is None and report != self.expected:
            error = "report differs from the first evaluation of the same pair"
        return error


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class BatchWorkload:
    """``pianoeval batch --jobs 2 --group-by model`` on 8 SMF pairs of
    ~1000 notes, then ``pianoeval stats`` on the reports.

    References have dense 3-6-note chords, fast same-pitch repeats, a
    multi-tempo map and CC64 pedal; estimates look like a transcriber's
    output (~20 ms onset jitter, dropped and spurious notes, velocities on
    another affine scale). Parsing, pedal, candidate edges, the velocity
    fit, the row pool and the report writers all do real work.

    The manifest is small so that a run holds many operations: with 4
    operations a run, its medians spread too widely from run to run on a
    host whose speed drifts (see README.md).
    """

    name = "batch_dense"
    jobs = 2
    expected_spans = PAIR_SPANS | {
        "cli.batch",
        "cli.stats",
        "midi.parse_midi_file",
        "midi.apply_sustain_pedal",
        "stats.emit",
        "stats.aggregate",
        "stats.kruskal_wallis",
    }
    models = {"A": 0.015, "B": 0.018, "C": 0.022, "D": 0.025}  # onset jitter per model
    metric = "note_offset_f1"

    def __init__(self, work_dir: Path, seed: int, scale: str):
        self.seed = seed
        self.size = SCALES[scale]
        self.inputs = work_dir / "inputs"
        self.out = work_dir / "out"
        self.items_per_op = self.size["batch_pairs"]

    def setup(self) -> dict[str, str]:
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 2])
        lines = ["ref,est,id,model"]
        whole = hashlib.sha256()
        for i in range(self.size["batch_pairs"]):
            model = "ABCD"[i % 4]
            ref, est = gen.dense_pair(rng, self.size["batch_notes"], self.models[model])
            ref_path, est_path = self.inputs / f"ref{i:03d}.mid", self.inputs / f"est{i:03d}.mid"
            ref_path.write_bytes(ref)
            est_path.write_bytes(est)
            whole.update(ref + est)
            lines.append(f"{ref_path},{est_path},pair{i:03d},{model}")
        self.manifest = self.inputs / "manifest.csv"
        self.manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"pairs": whole.hexdigest()[:16]}

    def _run(self, out: Path, jobs: int):
        args = ["batch", str(self.manifest), "--output", str(out), "--jobs", str(jobs), "--group-by", "model"]
        batch_code = pianoeval.cli.main(args)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            stats_code = pianoeval.cli.main(
                ["stats", str(out / "reports.csv"), "--metric", self.metric, "--group-by", "model"]
            )
        return batch_code, stats_code, stdout.getvalue()

    def prepare(self) -> list[str]:
        """One untimed ``--jobs 1`` run: every timed run must reproduce its bytes."""
        reference = self.out.parent / "reference"
        result = self._run(reference, jobs=1)
        self.expected_reports = (reference / "reports.csv").read_bytes()
        self.expected_stats = result[2]
        errors = [self._outputs_error(result, reference)]
        rows = _read_csv(reference / "reports.csv")
        for row in rows:
            for column, cell in row.items():
                if column.endswith(("_precision", "_recall", "_f1")) and not 0.0 <= float(cell) <= 1.0:
                    errors.append(f"{row['pair_id']} {column} = {cell} outside [0, 1]")
                elif column in pianoeval.musical.METRIC_NAMES and cell != "NA" and not -1.0 <= float(cell) <= 1.0:
                    errors.append(f"{row['pair_id']} {column} = {cell} outside [-1, 1]")
        if not all(line.split(" = ")[0] in ("H", "df", "p") for line in self.expected_stats.splitlines()[:3]):
            errors.append(f"unexpected stats output {self.expected_stats!r}")
        return [e for e in errors if e]

    def op(self):
        return self._run(self.out, jobs=self.jobs)

    def _outputs_error(self, result, out: Path) -> str | None:
        batch_code, stats_code, _ = result
        if (batch_code, stats_code) != (0, 0):
            return f"exit codes batch={batch_code} stats={stats_code}"
        rows = _read_csv(out / "reports.csv")
        if len(rows) != self.size["batch_pairs"]:
            return f"reports.csv has {len(rows)} rows for {self.size['batch_pairs']} manifest rows"
        failures = (out / "failures.csv").read_text(encoding="utf-8")
        if failures != "row,ref,est,error\n":
            return f"failures.csv is not empty: {failures[:200]!r}"
        if not (out / "aggregate.csv").is_file():
            return "aggregate.csv missing"
        return None

    def check(self, result) -> str | None:
        error = self._outputs_error(result, self.out)
        if error is None and (self.out / "reports.csv").read_bytes() != self.expected_reports:
            error = "reports.csv differs from the --jobs 1 reference"
        if error is None and result[2] != self.expected_stats:
            error = "stats output differs from the reference"
        return error


class PerturbWorkload:
    """``pianoeval perturb`` with the default 4 x 4 SNR x RT60 grid on a
    seeded stereo 44.1 kHz float32 WAV. Only ``audio`` and ``cli`` work."""

    name = "perturb_grid"
    jobs = 1
    expected_spans = {
        "cli.perturb",
        "audio.read_wav_file",
        "audio.synth_ir",
        "audio.apply_condition_grid",
        "audio.convolve_ir",
        "audio.add_noise_snr",
        "audio.write_wav_file",
    }
    snr_levels = ("none", "24", "12", "6")
    rt60_levels = ("none", "0.19", "1.85", "10.5")
    sample_rate = 44_100

    def __init__(self, work_dir: Path, seed: int, scale: str):
        self.seed = seed
        self.size = SCALES[scale]
        self.wav = work_dir / "inputs" / "take.wav"
        self.out = work_dir / "out"
        self.items_per_op = len(self.snr_levels) * len(self.rt60_levels)

    def setup(self) -> dict[str, str]:
        self.wav.parent.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 3])
        data = gen.wav_bytes(gen.synth_recording(rng, self.size["wav_seconds"], self.sample_rate))
        self.wav.write_bytes(data)
        self.input_payload = gen.wav_payload(data)
        return {"wav": gen.digest(data)}

    def _names(self):
        return {
            f"take__snr{snr}_rt{rt}.wav": (snr, rt) for rt in self.rt60_levels for snr in self.snr_levels
        }

    def op(self):
        return pianoeval.cli.main(["perturb", str(self.wav), "--output", str(self.out), "--seed", str(self.seed)])

    def _digests(self) -> dict[str, str]:
        return {
            path.name: hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()
            for path in sorted(self.out.iterdir())
        }

    def prepare(self) -> list[str]:
        """The first run is checked cell by cell; later runs must match it bit for bit."""
        code = self.op()
        if code != 0:
            return [f"perturb exit code {code}"]
        names = self._names()
        found = sorted(p.name for p in self.out.iterdir())
        if found != sorted(names):
            return [f"expected {len(names)} files {sorted(names)}, found {found}"]
        errors = []
        source = np.frombuffer(self.input_payload, dtype="<f4").astype(np.float64)
        n_frames = source.size // 2
        for name, (snr, rt) in names.items():
            payload = gen.wav_payload((self.out / name).read_bytes())
            ir_length = 0 if rt == "none" else max(1, int(math.floor(float(rt) * self.sample_rate))) - 1
            if len(payload) != (n_frames + ir_length) * 2 * 4:
                errors.append(f"{name}: {len(payload) // 8} frames, expected {n_frames + ir_length}")
            elif rt == "none" and snr == "none" and payload != self.input_payload:
                errors.append(f"{name} is not bit-identical to the input")
            elif rt == "none" and snr != "none":
                noise = np.frombuffer(payload, dtype="<f4").astype(np.float64) - source
                measured = 10.0 * math.log10(np.mean(source**2) / np.mean(noise**2))
                if abs(measured - float(snr)) > 0.1:
                    errors.append(f"{name}: SNR {measured:.3f} dB, target {snr} dB")
        self.expected = self._digests()
        return errors

    def check(self, code) -> str | None:
        if code != 0:
            return f"perturb exit code {code}"
        if self._digests() != self.expected:
            return "outputs differ from the first run"
        return None


WORKLOADS = {w.name: w for w in (PairWorkload, BatchWorkload, PerturbWorkload)}
