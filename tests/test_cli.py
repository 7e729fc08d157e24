import csv
import io
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from helpers import performance_to_smf, random_performance, serialize_smf, sine_audio
from pianoeval import cli
from pianoeval.audio import write_wav_file
from pianoeval.cli import main
from pianoeval.evaluation import RunConfig, evaluate_performances
from pianoeval.midi import parse_midi
from pianoeval.stats import parse_reports_json


def _write_midi(path, perf, **kwargs):
    path.write_bytes(performance_to_smf(perf, **kwargs))
    return str(path)


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture
def midi_pair(tmp_path):
    rng = np.random.default_rng(97)
    perf = random_performance(rng, 30)
    ref = _write_midi(tmp_path / "ref.mid", perf)
    est = _write_midi(tmp_path / "est.mid", perf)
    return ref, est


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_self_pair_to_stdout(midi_pair, capsys):
    ref, est = midi_pair
    assert main(["evaluate", ref, est]) == 0
    rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert row["pair_id"] == "ref__vs__est"
    for column in ("frame_f1", "note_offset_f1", "note_offset_velocity_f1"):
        assert row[column] == "1.000000"


def test_evaluate_json_to_file(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    out = tmp_path / "report.json"
    assert main(["evaluate", ref, est, "--format", "json", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    (report,) = parse_reports_json(out.read_bytes())
    assert report.frame.f1 == 1.0
    assert report.note_offset.precision == 1.0


def test_evaluate_missing_file_is_io_error(midi_pair, tmp_path, capsys):
    ref, _ = midi_pair
    missing = str(tmp_path / "nope.mid")
    assert main(["evaluate", ref, missing]) == 3
    assert "nope.mid" in capsys.readouterr().err


def test_evaluate_corrupt_midi_is_parse_error(midi_pair, tmp_path, capsys):
    ref, _ = midi_pair
    bad = tmp_path / "bad.mid"
    bad.write_bytes(b"\x00\x01garbage")
    assert main(["evaluate", ref, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.mid" in err
    assert "byte offset" in err


def test_evaluate_zero_tempo_is_parse_error(midi_pair, tmp_path, capsys):
    ref, _ = midi_pair
    bad = tmp_path / "stopped.mid"
    bad.write_bytes(serialize_smf([], tempos=((0, 0),), fmt=0))
    assert main(["evaluate", ref, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "stopped.mid" in err
    assert "zero tempo" in err


def test_evaluate_config_file(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text("# run parameters\ngrid_step = 0.2\nmin_samples = 4\n")
    assert main(["evaluate", ref, est, "--config", str(config)]) == 0
    assert _read_csv(capsys.readouterr().out)[0]["frame_f1"] == "1.000000"


def test_config_file_sets_every_run_config_field(midi_pair, tmp_path, monkeypatch, capsys):
    ref, est = midi_pair
    wanted = RunConfig(
        frame_length=0.02,
        chord_epsilon=0.05,
        grid_step=0.2,
        min_samples=5,
        window_length=2.0,
        hop=1.0,
        pedal_mode="ignore",
        spiral_radius=2.0,
        spiral_rise=0.5,
    )
    assert all(getattr(wanted, f.name) != f.default for f in fields(RunConfig))
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{f.name} = {getattr(wanted, f.name)}\n" for f in fields(RunConfig)))
    seen = []
    real = cli.evaluate_performances

    def spy(ref_perf, est_perf, config, *args, **kwargs):
        seen.append(config)
        return real(ref_perf, est_perf, config, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_performances", spy)
    assert main(["evaluate", ref, est, "--config", str(config)]) == 0
    assert seen == [wanted]
    assert type(seen[0].min_samples) is int


def test_evaluate_unknown_config_key(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text("window = 2.0\n")
    assert main(["evaluate", ref, est, "--config", str(config)]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("min_samples = 8.0", "min_samples: invalid literal for int()"),
        ("grid_step = fast", "grid_step: could not convert string to float"),
        ("hop = 5", "hop must be in (0, window_length]"),
        ("frame_length = inf", "frame_length must be positive and finite"),
        ("chord_epsilon = nan", "chord_epsilon must be positive and finite"),
        ("spiral_radius = nan", "radius and rise must be positive and finite"),
        ("grid_step = inf", "step must be positive and finite"),
    ],
)
def test_evaluate_bad_config_value_names_file(midi_pair, tmp_path, capsys, line, message):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert main(["evaluate", ref, est, "--config", str(config)]) == 2
    assert f"pianoeval: {config}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if isinstance(f.default, float)])
def test_run_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError):
        RunConfig(**{name: value})


def test_evaluate_missing_config_file_is_io_error(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    assert main(["evaluate", ref, est, "--config", str(tmp_path / "absent.cfg")]) == 3
    assert "absent.cfg" in capsys.readouterr().err


# 3q ticks at tpq 1 and 0xFFFFFF us/quarter: a valid 70-byte file that lasts 1.35e10 s
_Q = 2**28 - 1
_OVERLONG_SMF = serialize_smf([(_Q, 3 * _Q, 60, 64), (2 * _Q, 2 * _Q + 1, 62, 64)], tpq=1, tempos=((0, 0xFFFFFF),))


def test_overlong_performance_is_rejected_before_any_array():
    long = parse_midi(_OVERLONG_SMF)
    short = random_performance(np.random.default_rng(5), 10)
    with pytest.raises(ValueError, match=r"^ref lasts 1\.35108e\+10 s, longer than the 7200 s limit$"):
        evaluate_performances(long, short)
    with pytest.raises(ValueError, match=r"^est lasts"):
        evaluate_performances(short, long)


def test_evaluate_overlong_file_exits_2_naming_it(midi_pair, tmp_path, capsys):
    ref, _ = midi_pair
    long = tmp_path / "long.mid"
    long.write_bytes(_OVERLONG_SMF)
    assert main(["evaluate", ref, str(long)]) == 2
    assert capsys.readouterr().err == (
        f"pianoeval: {long}: est lasts 1.35108e+10 s, longer than the 7200 s limit\n"
    )


def test_evaluate_malformed_config_line(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text("grid_step 0.2\n")
    assert main(["evaluate", ref, est, "--config", str(config)]) == 2


def test_pedal_flag_overrides_config(tmp_path, capsys):
    # ref: half-second note, pedal held until t=1.0; est: full-second note.
    # With pedal extension the pair matches on offsets; ignoring the pedal
    # it does not. The flag must beat the config file.
    ref_bytes = serialize_smf(
        [(0, 480, 60, 80)], tpq=480, pedals=((0, 127), (960, 0))
    )
    est_bytes = serialize_smf([(0, 960, 60, 80)], tpq=480)
    ref = tmp_path / "ref.mid"
    est = tmp_path / "est.mid"
    ref.write_bytes(ref_bytes)
    est.write_bytes(est_bytes)
    config = tmp_path / "run.cfg"
    config.write_text("pedal_mode = ignore\n")

    assert main(["evaluate", str(ref), str(est), "--config", str(config)]) == 0
    ignored = _read_csv(capsys.readouterr().out)[0]
    assert ignored["note_offset_f1"] == "0.000000"

    args = ["evaluate", str(ref), str(est), "--config", str(config), "--pedal", "extend"]
    assert main(args) == 0
    extended = _read_csv(capsys.readouterr().out)[0]
    assert extended["note_offset_f1"] == "1.000000"


def test_evaluate_unexpected_error_propagates(midi_pair, monkeypatch):
    # main maps only ValueError and OSError to exit codes; anything else is a bug
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "evaluate_performances", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main(["evaluate", *midi_pair])


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _make_batch(tmp_path, n_good=3, n_bad=0):
    rng = np.random.default_rng(101)
    lines = ["ref,est,id,model"]
    for i in range(n_good):
        perf = random_performance(rng, 20)
        ref = _write_midi(tmp_path / f"ref{i}.mid", perf)
        est = _write_midi(tmp_path / f"est{i}.mid", perf)
        lines.append(f"{ref},{est},pair-{i},model{'AB'[i % 2]}")
    for i in range(n_bad):
        bad = tmp_path / f"bad{i}.mid"
        bad.write_bytes(b"junk")
        ref = _write_midi(tmp_path / f"refbad{i}.mid", random_performance(rng, 5))
        lines.append(f"{ref},{bad},bad-{i},modelA")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return str(manifest)


def test_batch_happy_path(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=3)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 0
    rows = _read_csv((out / "reports.csv").read_text())
    assert [r["pair_id"] for r in rows] == ["pair-0", "pair-1", "pair-2"]
    assert all(r["frame_f1"] == "1.000000" for r in rows)
    assert (out / "failures.csv").read_text().strip() == "row,ref,est,error"


def test_batch_reports_partial_failures(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2, n_bad=1)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 0
    rows = _read_csv((out / "reports.csv").read_text())
    assert len(rows) == 2
    failures = (out / "failures.csv").read_text().splitlines()
    assert len(failures) == 2  # header + one failed row
    assert "bad0.mid" in failures[1]
    assert "row 2 failed" in capsys.readouterr().err


def test_batch_failure_names_the_file_as_evaluate_does(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=0, n_bad=1)
    ref, bad = _read_csv((tmp_path / "manifest.csv").read_text())[0]["ref"], str(tmp_path / "bad0.mid")
    assert main(["evaluate", ref, bad]) == 2
    message = capsys.readouterr().err.removeprefix("pianoeval: ").rstrip("\n")
    assert message.startswith(f"{bad}: ")
    assert main(["batch", manifest, "--output", str(tmp_path / "out")]) == 4
    (failure,) = _read_csv((tmp_path / "out" / "failures.csv").read_text())
    assert failure["error"] == message


def test_batch_overlong_row_fails_alone(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2)
    long = tmp_path / "long.mid"
    long.write_bytes(_OVERLONG_SMF)
    ref = _read_csv((tmp_path / "manifest.csv").read_text())[0]["ref"]
    with open(manifest, "a") as fh:
        fh.write(f"{long},{ref},long,modelB\n")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 0
    assert [r["pair_id"] for r in _read_csv((out / "reports.csv").read_text())] == ["pair-0", "pair-1"]
    (failure,) = _read_csv((out / "failures.csv").read_text())
    assert failure["row"] == "2"
    assert failure["error"] == f"{long}: ref lasts 1.35108e+10 s, longer than the 7200 s limit"


def test_batch_failures_csv_quotes_paths_with_commas(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    missing = str(tmp_path / "a,b.mid")
    manifest.write_text(f'ref,est\n"{missing}","{missing}"\n')
    out = tmp_path / "out"
    assert main(["batch", str(manifest), "--output", str(out)]) == 4
    header, row = list(csv.reader(io.StringIO((out / "failures.csv").read_text())))
    assert header == ["row", "ref", "est", "error"]
    assert row[:3] == ["0", missing, missing]
    assert len(row) == 4


def test_batch_unexpected_error_fails_only_its_row(tmp_path, monkeypatch, capsys):
    manifest = _make_batch(tmp_path, n_good=3)
    real = cli.evaluate_performances

    def flaky(ref, est, config, pair_id, tags):
        if pair_id == "pair-1":
            raise RuntimeError("boom")
        return real(ref, est, config, pair_id, tags)

    monkeypatch.setattr(cli, "evaluate_performances", flaky)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 0
    rows = _read_csv((out / "reports.csv").read_text())
    assert [r["pair_id"] for r in rows] == ["pair-0", "pair-2"]
    failures = _read_csv((out / "failures.csv").read_text())
    assert [(f["row"], f["error"]) for f in failures] == [("1", "RuntimeError: boom")]
    assert "row 1 failed" in capsys.readouterr().err


def test_batch_all_rows_failing(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=0, n_bad=2)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 4
    assert _read_csv((out / "reports.csv").read_text()) == []


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ref,est\n")
    assert main(["batch", str(manifest), "--output", str(tmp_path / "out")]) == 4


def test_batch_missing_columns(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("a,b\nx,y\n")
    assert main(["batch", str(manifest), "--output", str(tmp_path / "out")]) == 2
    assert "ref" in capsys.readouterr().err


def test_batch_missing_manifest(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "none.csv"), "--output", str(tmp_path / "o")]) == 3


def test_batch_manifest_row_with_surplus_cell_names_file_and_line(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2)
    with open(manifest, "a") as fh:
        fh.write(f"{tmp_path / 'ref0.mid'},{tmp_path / 'est0.mid'},pair-2,modelA,surplus\n")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", "model"]) == 2
    assert f"pianoeval: {manifest}: line 4: 5 cells for 4 columns" in capsys.readouterr().err
    assert not out.exists()


def _batch_with_header(tmp_path, header):
    """A two-row batch manifest under ``header``, which names one column more than ``_make_batch``."""
    manifest = _make_batch(tmp_path, n_good=2)
    with open(manifest) as fh:
        rows = fh.read().splitlines()[1:]
    with open(manifest, "w") as fh:
        fh.write("".join(f"{line}\n" for line in [header, *(row + ",x" for row in rows)]))
    return manifest


def test_batch_rejects_repeated_manifest_column(tmp_path, capsys):
    manifest = _batch_with_header(tmp_path, "ref,est,id,model,ref")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 2
    assert f"pianoeval: {manifest}: column 'ref' is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag", ["frame_f1", "pair_id", "count", "melody_ioi_excluded"])
def test_batch_rejects_tag_named_like_a_report_column(tmp_path, capsys, tag):
    manifest = _batch_with_header(tmp_path, f"ref,est,id,model,{tag}")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 2
    assert f"pianoeval: {manifest}: tag column {tag!r} has the name of a report column" in capsys.readouterr().err
    assert not out.exists()


def test_batch_group_by_writes_aggregate(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=4)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", "model"]) == 0
    rows = _read_csv((out / "aggregate.csv").read_text())
    assert [r["model"] for r in rows] == ["modelA", "modelB"]
    assert all(r["count"] == "2" for r in rows)


@pytest.mark.parametrize("key", ["modle", "ref"])
def test_batch_rejects_bad_group_by_key_before_any_row(tmp_path, capsys, monkeypatch, key):
    manifest = _make_batch(tmp_path, n_good=2)
    loaded = []
    monkeypatch.setattr(cli, "_performance", lambda *args: loaded.append(args))
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", f"model,{key}"]) == 2
    err = capsys.readouterr().err
    assert f"pianoeval: {manifest}: --group-by key {key!r} is not a tag column ['id', 'model']" in err
    assert loaded == [] and not out.exists()


def test_batch_jobs_do_not_change_output(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=4, n_bad=1)
    out1, out4 = tmp_path / "o1", tmp_path / "o4"
    assert main(["batch", manifest, "--output", str(out1), "--jobs", "1"]) == 0
    assert main(["batch", manifest, "--output", str(out4), "--jobs", "4"]) == 0
    assert (out1 / "reports.csv").read_bytes() == (out4 / "reports.csv").read_bytes()
    assert (out1 / "failures.csv").read_bytes() == (out4 / "failures.csv").read_bytes()


def test_batch_json_format(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--format", "json"]) == 0
    reports = parse_reports_json((out / "reports.json").read_bytes())
    assert [r.pair_id for r in reports] == ["pair-0", "pair-1"]
    assert reports[0].tags["model"] == "modelA"


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def test_perturb_default_grid_names(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.2))
    out = tmp_path / "out"
    assert main(["perturb", str(wav), "--output", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 16
    assert "take__snrnone_rtnone.wav" in names
    assert "take__snr12_rt1.85.wav" in names
    assert "take__snr6_rt10.5.wav" in names
    assert "take__snr24_rt0.19.wav" in names


def test_perturb_clean_cell_matches_input_bytes(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.1))
    out = tmp_path / "out"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--rt60", "none"]) == 0
    assert [p.name for p in out.iterdir()] == ["take__snrnone_rtnone.wav"]
    assert (out / "take__snrnone_rtnone.wav").read_bytes() == wav.read_bytes()


def test_perturb_is_reproducible(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.1))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["--snr", "12,6", "--rt60", "none,0.19", "--seed", "5"]
    assert main(["perturb", str(wav), "--output", str(out1), *args]) == 0
    assert main(["perturb", str(wav), "--output", str(out2), *args]) == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_perturb_seed_changes_noise(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.1))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["perturb", str(wav), "--output", str(out1), "--snr", "6", "--rt60", "none"]) == 0
    assert main(["perturb", str(wav), "--output", str(out2), "--snr", "6", "--rt60", "none",
                 "--seed", "9"]) == 0
    a = (out1 / "take__snr6_rtnone.wav").read_bytes()
    b = (out2 / "take__snr6_rtnone.wav").read_bytes()
    assert a != b


def test_perturb_with_ir_files(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.1))
    ir = tmp_path / "hall.wav"
    write_wav_file(ir, sine_audio(seconds=0.01, amplitude=0.3))
    out = tmp_path / "out"
    args = ["perturb", str(wav), "--output", str(out), "--snr", "none", "--ir", f"none,{ir}"]
    assert main(args) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["take__snrnone_rthall.wav", "take__snrnone_rtnone.wav"]


def test_perturb_missing_ir_file_is_io_error(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    missing = tmp_path / "hall.wav"
    args = ["perturb", str(wav), "--output", str(tmp_path / "o"), "--ir", f"none,{missing}"]
    assert main(args) == 3
    assert "hall.wav" in capsys.readouterr().err


def test_perturb_silent_input_with_noise_is_input_error(tmp_path, capsys):
    wav = tmp_path / "silence.wav"
    write_wav_file(wav, sine_audio(seconds=0.05, amplitude=0.0))
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o"), "--snr", "12", "--rt60", "none"]) == 2
    err = capsys.readouterr().err
    assert "silence.wav" in err
    assert "all-zero" in err


def test_perturb_ir_at_other_sample_rate_is_input_error(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    ir = tmp_path / "hall.wav"
    write_wav_file(ir, sine_audio(seconds=0.01, sample_rate=22050))
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o"), "--snr", "none", "--ir", str(ir)]) == 2
    err = capsys.readouterr().err
    assert "take.wav" in err
    assert "sample rate" in err


def test_perturb_bad_ir_file_names_flag_and_file(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    ir = tmp_path / "hall.wav"
    ir.write_bytes(b"junk")
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o"), "--snr", "none", "--ir", str(ir)]) == 2
    assert f"--ir '{ir}'" in capsys.readouterr().err


def test_perturb_rejects_bad_wav(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFxxxxNOPE")
    assert main(["perturb", str(bad), "--output", str(tmp_path / "o")]) == 2
    assert "bad.wav" in capsys.readouterr().err


def test_perturb_missing_input(tmp_path, capsys):
    assert main(["perturb", str(tmp_path / "none.wav"), "--output", str(tmp_path / "o")]) == 3


def test_perturb_non_finite_sample_names_file(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    data = bytearray(wav.read_bytes())
    first_sample = data.index(b"data") + 8
    data[first_sample:first_sample + 4] = struct.pack("<f", math.nan)
    wav.write_bytes(bytes(data))
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o")]) == 2
    assert f"pianoeval: {wav}: samples must be finite" in capsys.readouterr().err


def test_perturb_rejects_repeated_snr_level(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "6,6", "--rt60", "none"]) == 2
    assert "--snr: level '6' is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_ir_files_with_one_stem(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    irs = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        irs.append(tmp_path / folder / "hall.wav")
        write_wav_file(irs[-1], sine_audio(seconds=0.01, amplitude=0.3))
    out = tmp_path / "o"
    args = ["perturb", str(wav), "--output", str(out), "--snr", "none", "--ir", ",".join(map(str, irs))]
    assert main(args) == 2
    assert "--ir: level 'hall' is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_bad_level(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o"), "--snr", "loud"]) == 2
    assert "--snr 'loud'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, token", [("--rt60", "inf"), ("--rt60", "nan"), ("--snr", "nan"), ("--snr", "-inf")])
def test_perturb_rejects_non_finite_level_naming_flag_and_token(tmp_path, capsys, flag, token):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), f"{flag}={token}"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} '{token}'" in err
    assert "take.wav" not in err  # the input is not to blame
    assert not out.exists()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _stats_csv(tmp_path, rows, metric="frame_f1"):
    path = tmp_path / "reports.csv"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pair_id", "model", metric])
    writer.writerows(rows)
    path.write_text(out.getvalue())
    return str(path)


def test_stats_hand_example(tmp_path, capsys):
    rows = [
        (f"p{i}", model, value)
        for model, values in (("a", (1, 2, 3)), ("b", (4, 5, 6)), ("c", (7, 8, 9)))
        for i, value in enumerate(values)
    ]
    path = _stats_csv(tmp_path, rows)
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 0
    out = capsys.readouterr().out
    assert "H = 7.200000" in out
    assert "df = 2" in out
    assert f"p = {math.exp(-3.6):.6f}" in out
    assert "significant at alpha = 0.05" in out
    assert "not significant" not in out


def test_stats_not_significant(tmp_path, capsys):
    rows = [("p1", "a", 1.0), ("p2", "a", 2.0), ("p3", "b", 1.5), ("p4", "b", 1.8)]
    path = _stats_csv(tmp_path, rows)
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 0
    assert "not significant at alpha = 0.05" in capsys.readouterr().out


def test_stats_skips_na_cells(tmp_path, capsys):
    rows = [
        ("p1", "a", 0.1), ("p2", "a", "NA"), ("p3", "a", 0.2),
        ("p4", "b", 0.8), ("p5", "b", 0.9), ("p6", "b", "NA"),
    ]
    path = _stats_csv(tmp_path, rows, metric="melody_ioi")
    assert main(["stats", path, "--metric", "melody_ioi", "--group-by", "model"]) == 0
    assert "H = " in capsys.readouterr().out


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "0.9x"])
def test_stats_rejects_non_finite_cell(tmp_path, capsys, cell):
    rows = [("p1", "a", 0.1), ("p2", "a", 0.2), ("p3", "b", cell), ("p4", "b", 0.9)]
    path = _stats_csv(tmp_path, rows)
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 2
    captured = capsys.readouterr()
    assert "H = " not in captured.out
    assert path in captured.err and "line 4" in captured.err


def test_stats_unknown_metric(tmp_path, capsys):
    path = _stats_csv(tmp_path, [("p1", "a", 1.0)])
    assert main(["stats", path, "--metric", "note_f1", "--group-by", "model"]) == 2
    assert "note_f1" in capsys.readouterr().err


def test_stats_unknown_metric_names_reports_file(tmp_path, capsys):
    path = _stats_csv(tmp_path, [("p1", "a", 1.0)])
    assert main(["stats", path, "--metric", "note_f1", "--group-by", "model"]) == 2
    assert f"pianoeval: {path}: unknown metric column 'note_f1'" in capsys.readouterr().err


def test_stats_unknown_group_column(tmp_path, capsys):
    path = _stats_csv(tmp_path, [("p1", "a", 1.0)])
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "split"]) == 2


def test_stats_single_group_rejected(tmp_path, capsys):
    path = _stats_csv(tmp_path, [("p1", "a", 1.0), ("p2", "a", 2.0)])
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 2
    assert "2 groups" in capsys.readouterr().err


def test_stats_oversized_csv_field_is_parse_error(tmp_path, capsys):
    path = _stats_csv(tmp_path, [("p" * 200_000, "a", 1.0), ("p2", "b", 2.0)])
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 2
    assert f"pianoeval: {path}: field larger than field limit" in capsys.readouterr().err


def test_stats_missing_file(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "none.csv"), "--metric", "frame_f1",
                 "--group-by", "model"]) == 3


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["evaluate"])  # missing positionals
