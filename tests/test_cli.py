import csv
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import oracle_parse_reports_json, performance_to_smf, random_performance, serialize_smf, sine_audio
import pianoeval.audio
from pianoeval import cli
from pianoeval.audio import AudioBuffer, write_wav_file
from pianoeval.cli import main
from pianoeval.config import MAX_WINDOW_OVERLAP, RunConfig
from pianoeval.evaluation import evaluate_performances
from pianoeval.midi import parse_midi


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
    (report,) = oracle_parse_reports_json(out.read_bytes())
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
    config.write_text("# run parameters\ngrid_step = 0.2  # coarser\nmin_samples=4#fewer\n  # end\n")
    assert cli._config_file(str(config)) == RunConfig(grid_step=0.2, min_samples=4)
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
    assert "line 1: unknown config key 'window'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("min_samples = 8.0", "min_samples: invalid literal for int()"),
        ("grid_step = fast", "grid_step: could not convert string to float"),
        ("hop = 5", "hop must be in (0, window_length]"),
        ("frame_length = inf", "frame_length must be positive and finite"),
        ("chord_epsilon = nan", "chord_epsilon must be positive and finite"),
        ("spiral_radius = nan", "spiral_radius must be positive and finite"),
        ("spiral_radius = -1", "spiral_radius must be positive and finite"),
        ("spiral_rise = nan", "spiral_rise must be positive and finite"),
        ("grid_step = inf", "grid_step must be positive and finite"),
        ("grid_step = 0", "grid_step must be positive and finite"),
        ("frame_length = 1e-9", "frame_length must be at least 0.001 s"),
        ("grid_step = 1e-9", "grid_step must be at least 0.001 s"),
        ("hop = 1e-9", "hop must be at least 0.001 s"),
        ("pedal_mode = hold", "pedal_mode must be 'ignore' or 'extend', got 'hold'"),
        # one window per millisecond, each 1000 s long: every window would hold every note
        ("window_length = 1000\nhop = 0.001", "window_length / hop must be at most 100, got 1e+06"),
        ("grid_step = 0.2\n# finer\ngrid_step = 0.3", "line 3: key 'grid_step' was already set on line 1"),
    ],
)
def test_evaluate_bad_config_value_names_file(midi_pair, tmp_path, capsys, line, message):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert main(["evaluate", ref, est, "--config", str(config)]) == 2
    assert f"pianoeval: {config}: {message}" in capsys.readouterr().err


def test_readme_config_block_parses_to_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    config = tmp_path / "run.cfg"
    config.write_text(blocks[0])
    assert "#" in blocks[0]  # the block carries comments after its values
    assert cli._config_file(str(config)) == RunConfig()


def test_config_file_with_byte_order_mark(midi_pair, tmp_path, capsys):
    ref, est = midi_pair
    config = tmp_path / "run.cfg"
    config.write_text("grid_step = 0.2\nmin_samples = 4\n", encoding="utf-8-sig")
    assert config.read_bytes().startswith(b"\xef\xbb\xbfgrid_step")
    assert cli._config_file(str(config)) == RunConfig(grid_step=0.2, min_samples=4)
    assert main(["evaluate", ref, est, "--config", str(config)]) == 0


def test_run_config_accepts_one_millisecond_steps():
    # a 1 ms hop needs windows of at most 0.1 s, within MAX_WINDOW_OVERLAP
    config = RunConfig(frame_length=0.001, grid_step=0.001, window_length=0.1, hop=0.001)
    assert (config.frame_length, config.grid_step, config.hop) == (0.001, 0.001, 0.001)


def test_run_config_accepts_window_overlap_at_limit():
    config = RunConfig(window_length=50.0, hop=0.5)
    assert config.window_length / config.hop == MAX_WINDOW_OVERLAP


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if isinstance(f.default, float)])
def test_run_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
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


def test_batch_skips_blank_manifest_lines(tmp_path, capsys):
    manifest = Path(_make_batch(tmp_path, n_good=2))
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0], lines[1], "", lines[2], "", ""]))
    out = tmp_path / "out"
    assert main(["batch", str(manifest), "--output", str(out)]) == 0
    assert [r["pair_id"] for r in _read_csv((out / "reports.csv").read_text())] == ["pair-0", "pair-1"]


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


# 8000 one-tick notes on one key at tpq 32767 (15 us a tick), a 64 KB file: against itself about 41.7 M
# same-pitch note pairs lie within the onset tolerance, some 4 GB to expand
_DENSE_KEY_SMF = serialize_smf([(k, k + 1, 60, 64) for k in range(8000)], tpq=0x7FFF, fmt=0)
_PAIRS_REFUSED = "41688548 same-pitch note pairs near in onset, more than the 2097152 limit"


def test_note_pair_blow_up_is_refused_before_it_is_built():
    dense = parse_midi(_DENSE_KEY_SMF)
    with pytest.raises(ValueError, match=f"^{_PAIRS_REFUSED}$"):
        evaluate_performances(dense, dense)


def test_batch_note_pair_blow_up_row_fails_alone(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2)
    dense = tmp_path / "dense.mid"
    dense.write_bytes(_DENSE_KEY_SMF)
    with open(manifest, "a") as fh:
        fh.write(f"{dense},{dense},dense,modelB\n")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out)]) == 0
    assert [r["pair_id"] for r in _read_csv((out / "reports.csv").read_text())] == ["pair-0", "pair-1"]
    (failure,) = _read_csv((out / "failures.csv").read_text())
    assert (failure["row"], failure["error"]) == ("2", _PAIRS_REFUSED)


# the child limits its own address space before numpy loads (a preexec_fn would run in a fork of this
# threaded process); without the refusal the expansion dies there with a MemoryError traceback
_EVALUATE_IN_1_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pianoeval.cli import main
sys.exit(main(["evaluate", sys.argv[1], sys.argv[1]]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_evaluate_refuses_a_note_pair_blow_up_within_a_fixed_address_space(tmp_path):
    dense = tmp_path / "dense.mid"
    dense.write_bytes(_DENSE_KEY_SMF)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _EVALUATE_IN_1_GIB, str(dense)], env=env, capture_output=True,
                          text=True)
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stderr == f"pianoeval: {_PAIRS_REFUSED}\n"


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


def test_batch_manifest_with_byte_order_mark(tmp_path, capsys):
    manifest = Path(_make_batch(tmp_path, n_good=2))
    manifest.write_text(manifest.read_text(), encoding="utf-8-sig")  # as Excel's "CSV UTF-8" saves it
    assert manifest.read_bytes().startswith(b"\xef\xbb\xbfref,")
    out = tmp_path / "out"
    assert main(["batch", str(manifest), "--output", str(out), "--group-by", "model"]) == 0
    rows = _read_csv((out / "reports.csv").read_text())
    assert [(r["pair_id"], r["model"]) for r in rows] == [("pair-0", "modelA"), ("pair-1", "modelB")]


def test_batch_missing_manifest(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "none.csv"), "--output", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param("{ref},{est},pair-2,modelA,surplus", "line 4: 5 cells for 4 columns", id="surplus"),
        pytest.param("{ref}", "line 4: 1 cells for 4 columns", id="short"),
        pytest.param("{ref},,pair-2,modelA", "line 4: empty 'est' cell", id="empty_est"),
    ],
)
def test_batch_manifest_row_with_surplus_cell_names_file_and_line(tmp_path, capsys, row, message):
    manifest = _make_batch(tmp_path, n_good=2)
    with open(manifest, "a") as fh:
        fh.write(row.format(ref=tmp_path / "ref0.mid", est=tmp_path / "est0.mid") + "\n")
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", "model"]) == 2
    assert f"pianoeval: {manifest}: {message}" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "ids, message",
    [
        pytest.param(["x", "y", "x"], "line 4: pair id 'x' is also on line 2", id="explicit"),
        pytest.param(["a", "", "pair0001"], "line 4: pair id 'pair0001' is also on line 3", id="default"),
    ],
)
def test_batch_rejects_repeated_pair_id_before_any_row(tmp_path, capsys, monkeypatch, ids, message):
    _make_batch(tmp_path, n_good=1)
    manifest = tmp_path / "ids.csv"
    manifest.write_text("ref,est,id\n" + "".join(f"{tmp_path / 'ref0.mid'},{tmp_path / 'est0.mid'},{i}\n" for i in ids))
    loaded = []
    monkeypatch.setattr(cli, "_performance", lambda *args: loaded.append(args))
    out = tmp_path / "out"
    assert main(["batch", str(manifest), "--output", str(out)]) == 2
    assert f"pianoeval: {manifest}: {message}" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


def test_batch_group_by_writes_aggregate(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=4)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", "model"]) == 0
    rows = _read_csv((out / "aggregate.csv").read_text())
    assert [r["model"] for r in rows] == ["modelA", "modelB"]
    assert all(r["count"] == "2" for r in rows)


@pytest.mark.parametrize(
    "group_by, message",
    [
        pytest.param("model,modle", "--group-by key 'modle' is not a tag column ['id', 'model']", id="modle"),
        pytest.param("model,ref", "--group-by key 'ref' is not a tag column ['id', 'model']", id="ref"),
        pytest.param(",", "--group-by ',' names no tag column", id="comma"),
        pytest.param(" ", "--group-by ' ' names no tag column", id="blank"),
        pytest.param("", "--group-by '' names no tag column", id="empty"),
    ],
)
def test_batch_rejects_bad_group_by_key_before_any_row(tmp_path, capsys, monkeypatch, group_by, message):
    manifest = _make_batch(tmp_path, n_good=2)
    loaded = []
    monkeypatch.setattr(cli, "_performance", lambda *args: loaded.append(args))
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--group-by", group_by]) == 2
    assert f"pianoeval: {manifest}: {message}" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


def test_batch_jobs_do_not_change_output(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=4, n_bad=1)
    out1, out4 = tmp_path / "o1", tmp_path / "o4"
    assert main(["batch", manifest, "--output", str(out1), "--jobs", "1"]) == 0
    assert main(["batch", manifest, "--output", str(out4), "--jobs", "4"]) == 0
    assert (out1 / "reports.csv").read_bytes() == (out4 / "reports.csv").read_bytes()
    assert (out1 / "failures.csv").read_bytes() == (out4 / "failures.csv").read_bytes()


@pytest.mark.parametrize(
    "jobs, rows, cpus, size", [(5000, 10_000, 2, 2), (5000, 3, 64, 3), (2, 16, 2, 2), (0, 5, 2, 1), (-3, 5, None, 1)]
)
def test_batch_pool_is_capped_by_rows_and_cpus(monkeypatch, jobs, rows, cpus, size):
    # the size is computed, never a pool of that many started
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._pool_size(jobs, rows) == size


def test_batch_starts_the_capped_pool(tmp_path, monkeypatch, capsys):
    manifest = _make_batch(tmp_path, n_good=2, n_bad=1)
    sizes = []

    def executor(max_workers):
        sizes.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", executor)
    assert main(["batch", manifest, "--output", str(tmp_path / "out"), "--jobs", "5000"]) == 0
    assert sizes == [min(3, os.cpu_count() or 1)]


def test_batch_json_format(tmp_path, capsys):
    manifest = _make_batch(tmp_path, n_good=2)
    out = tmp_path / "out"
    assert main(["batch", manifest, "--output", str(out), "--format", "json"]) == 0
    reports = oracle_parse_reports_json((out / "reports.json").read_bytes())
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
    assert f"pianoeval: --ir '{missing}': " in capsys.readouterr().err


@pytest.mark.parametrize("seconds", [0.05, 0.0], ids=["zeros", "no-frames"])
def test_perturb_silent_input_with_noise_is_input_error(tmp_path, capsys, seconds):
    wav = tmp_path / "silence.wav"
    write_wav_file(wav, sine_audio(seconds=seconds, amplitude=0.0))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none,12", "--rt60", "none"]) == 2
    err = capsys.readouterr().err
    assert "silence.wav" in err
    assert "all-zero" in err
    assert not out.exists()


def test_perturb_ir_at_other_sample_rate_is_input_error(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    ir = tmp_path / "hall.wav"
    write_wav_file(ir, sine_audio(seconds=0.01, sample_rate=22050))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--ir", f"none,{ir}"]) == 2
    err = capsys.readouterr().err
    assert "take.wav" in err
    assert "sample rate" in err
    assert not out.exists()


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


@pytest.mark.parametrize("rt60", ["none", "0.19"])
def test_perturb_rejects_sample_rate_above_limit_naming_file(tmp_path, capsys, rt60):
    wav = tmp_path / "fast.wav"
    write_wav_file(wav, sine_audio(seconds=0.0001))
    data = bytearray(wav.read_bytes())
    rate_field = data.index(b"fmt ") + 12
    data[rate_field:rate_field + 4] = struct.pack("<I", 2**31)
    wav.write_bytes(bytes(data))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--rt60", rt60]) == 2
    assert f"pianoeval: {wav}: sample rate 2147483648 Hz is above the 768000 Hz limit" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_rt60_above_limit_naming_flag(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--rt60", "1e6"]) == 2
    assert "pianoeval: --rt60 '1e6': rt60 must be positive and finite, at most 60 s" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_ir_longer_than_limit_naming_flag(tmp_path, capsys):
    # 60 s at 768 kHz is a 46 M-sample IR; only the rate matters, so the input is short
    wav = tmp_path / "fast.wav"
    write_wav_file(wav, sine_audio(seconds=0.001, sample_rate=768_000, channels=2))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--rt60", "60"]) == 2
    assert "pianoeval: --rt60 '60': an IR of 46080000 samples is longer than the" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_ir_file_longer_than_limit_naming_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pianoeval.audio, "MAX_IR_SAMPLES", 100)
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    ir = tmp_path / "hall.wav"
    write_wav_file(ir, sine_audio(seconds=0.01))  # 441 samples
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--ir", f"none,{ir}"]) == 2
    assert f"pianoeval: --ir '{ir}': an IR of 441 samples is longer than the 100-sample limit" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("level", ["4000", "-4000"])
def test_perturb_rejects_snr_beyond_the_bound_before_writing(tmp_path, capsys, level):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", f"none,{level}", "--rt60", "none"]) == 2
    assert f"--snr '{level}'" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_rejects_bad_level(tmp_path, capsys):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    assert main(["perturb", str(wav), "--output", str(tmp_path / "o"), "--snr", "loud"]) == 2
    assert "--snr 'loud'" in capsys.readouterr().err


@pytest.mark.parametrize("flag, level", [("--snr", "loud"), ("--rt60", "-1"), ("--rt60", "none,1e6")])
def test_perturb_checks_levels_before_reading_the_input(tmp_path, capsys, flag, level):
    missing = tmp_path / "missing.wav"
    assert main(["perturb", str(missing), "--output", str(tmp_path / "o"), flag, level]) == 2
    err = capsys.readouterr().err
    assert f"pianoeval: {flag} '{level.split(',')[-1]}'" in err
    assert "missing.wav" not in err


@pytest.mark.parametrize("spec", ["", "none,", " "])
def test_perturb_rejects_an_empty_ir_level_before_reading_the_input(tmp_path, capsys, monkeypatch, spec):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    read = []
    monkeypatch.setattr(cli, "read_wav_file", lambda path: read.append(path))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--snr", "none", "--ir", spec]) == 2
    assert "pianoeval: --ir '': empty level" in capsys.readouterr().err
    assert read == [] and not out.exists()


@pytest.mark.parametrize("grid", [[], ["--rt60", "none"]])
def test_perturb_rejects_negative_seed_before_writing(tmp_path, capsys, grid):
    wav = tmp_path / "take.wav"
    write_wav_file(wav, sine_audio(seconds=0.05))
    out = tmp_path / "o"
    assert main(["perturb", str(wav), "--output", str(out), "--seed", "-1", *grid]) == 2
    err = capsys.readouterr().err
    assert "pianoeval: --seed -1: must be a non-negative integer" in err
    assert "take.wav" not in err  # the input is not to blame
    assert not out.exists()


# sha256 of each file `perturb --seed 3` writes for the seeded 8 kHz input below. These
# pin the output bytes on one numpy/scipy build; FFT rounding may differ on another, so
# they are not meant to be portable. Change a digest only with a recorded spec change.
PERTURB_DIGESTS = {
    "take__snr12_rt0.19.wav": "246d2e98a3c6b97a13ca100a529abc2c0b6131a2360bf655da8fdeb0bd4eb72a",
    "take__snr12_rt1.85.wav": "5cf60bbada59f5abb489d3e47b05e0b67664e72b8bee5b1a4c7c6d097ff1a725",
    "take__snr12_rt10.5.wav": "efd3c9734f7a900bde67353d08fc9812434559011e9d97a292a018b279d1fc57",
    "take__snr12_rtnone.wav": "ac9b50073a0f779dc5bb0b5f833c773866896ad8bd0f5556771fb70ae6e4f4ce",
    "take__snr24_rt0.19.wav": "35a3e05af938aa21de6d4f6459d4c52ada99317ea6a391b40e09f5f3547545f6",
    "take__snr24_rt1.85.wav": "33ebbce2cd8f215b4b7e7e19a0176676d4ff21e7c57600c7eadd350035d1c3a2",
    "take__snr24_rt10.5.wav": "f03f10c7928105cdc920e694d15d01f49507b5e0df29de4722e1f69f8c6b64fe",
    "take__snr24_rtnone.wav": "322e98a70d7f6332e4cbe4d64b60769008fbfefb9fe69131ba338c8d1c605796",
    "take__snr6_rt0.19.wav": "42fc2b8ad7eb01a55e0252ab25b7456c3f6f956236754bdba47c582751bc0cb5",
    "take__snr6_rt1.85.wav": "00a180b26ea25424e097f10961e2d253d4c6143b3dfdf7f786093939b5d19164",
    "take__snr6_rt10.5.wav": "e5cd1b0a52730b6c6ac54885f79aa6f8350789238b025f6260db1ff870ce4080",
    "take__snr6_rtnone.wav": "0c1c2a4960c14d6292e66012e8af3a333fb347890a96ef2d4d8762aa2017f31f",
    "take__snrnone_rt0.19.wav": "e8d20272d9f590b48a5ac77bbb2d067597daf5f20895b43cba5e3a47b5231733",
    "take__snrnone_rt1.85.wav": "2fdebc566eed6398d21b7d111f8f4490316cfcaf7275e8f8e4bf1192e5c2026f",
    "take__snrnone_rt10.5.wav": "3f89bfb86cc10fb42bbb88f0e0b5a3450591e8711c16437d978a5a3f424ae5f5",
    "take__snrnone_rtnone.wav": "7c51cad516de37625c4fecb54ea7a3b9624344b7c98160756e1aecd5b197a86a",
}
PERTURB_IR_DIGESTS = {
    "take__snr12_rthall.wav": "dece8bb565ea9f26c0ec3c8be588190f9476a4911451a0a79caf3fe21795ed1a",
    "take__snr12_rtnone.wav": PERTURB_DIGESTS["take__snr12_rtnone.wav"],
    "take__snr24_rthall.wav": "b7491af9aefe8c1cfc05707f86890fe98a2755c33fe6edf2d7abf456cb034fb1",
    "take__snr24_rtnone.wav": PERTURB_DIGESTS["take__snr24_rtnone.wav"],
    "take__snr6_rthall.wav": "8f444d01a3951a9e751b73975345bb32dcd76cb93b6898d6e7e4b4d75eee0b42",
    "take__snr6_rtnone.wav": PERTURB_DIGESTS["take__snr6_rtnone.wav"],
    "take__snrnone_rthall.wav": "fb9401bfbde1dbed43d5c2b7c896d81d1775d5562192346d18c515e9e12471c3",
    "take__snrnone_rtnone.wav": PERTURB_DIGESTS["take__snrnone_rtnone.wav"],
}


def _seeded_wav(path, seconds, channels, seed):
    rng = np.random.default_rng(seed)
    rate = 8000
    t = np.arange(int(seconds * rate)) / rate
    tone = 0.5 * np.sin(2 * np.pi * 220.0 * t) * np.exp(-3.0 * t)
    samples = tone + 0.05 * rng.standard_normal((channels, t.size))
    write_wav_file(path, AudioBuffer(rate, samples))


def _digests(folder):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(folder.iterdir())}


def test_perturb_output_bytes_are_pinned(tmp_path, capsys):
    wav, ir = tmp_path / "take.wav", tmp_path / "hall.wav"
    _seeded_wav(wav, 0.25, channels=2, seed=11)
    _seeded_wav(ir, 0.05, channels=1, seed=12)
    grid, with_ir = tmp_path / "grid", tmp_path / "ir"
    assert main(["perturb", str(wav), "--output", str(grid), "--seed", "3"]) == 0
    assert main(["perturb", str(wav), "--output", str(with_ir), "--seed", "3", "--ir", f"none,{ir}"]) == 0
    assert _digests(grid) == PERTURB_DIGESTS
    assert _digests(with_ir) == PERTURB_IR_DIGESTS


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


def test_stats_reports_csv_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "reports.csv"
    # a BOM that is not stripped becomes part of the first column's name
    path.write_text("model,frame_f1\na,1\na,2\nb,3\nb,4\n", encoding="utf-8-sig")
    assert main(["stats", str(path), "--metric", "frame_f1", "--group-by", "model"]) == 0
    assert "df = 1" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "row, cells", [pytest.param(("p3", "b"), 2, id="short"), pytest.param(("p3", "b", 0.5, "x"), 4, id="surplus")]
)
def test_stats_rejects_row_of_other_length(tmp_path, capsys, row, cells):
    path = _stats_csv(tmp_path, [("p1", "a", 0.1), ("p2", "a", 0.2), row, ("p4", "b", 0.9)])
    assert main(["stats", path, "--metric", "frame_f1", "--group-by", "model"]) == 2
    captured = capsys.readouterr()
    assert "H = " not in captured.out
    assert f"pianoeval: {path}: line 4: {cells} cells for 3 columns" in captured.err


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
