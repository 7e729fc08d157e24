"""Self-test of the benchmark at tiny input sizes.

Checks that every metric the benchmark prints matches ``BENCHMARK.json`` by
name and unit, that a layer whose function the tracer can no longer reach
reads as missing and incomplete instead of 0, that a corrupted output
counts as a failed operation, and that without the program's sources the
benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pianoeval.cli  # noqa: E402
import pianoeval.evaluation  # noqa: E402
import pianoeval.musical  # noqa: E402
from pianoeval.ir_metrics import PRF  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _prepared(name: str, tmp_path):
    workload = WORKLOADS[name](tmp_path, seed=5, scale="tiny")
    workload.setup()
    assert workload.prepare() == []
    return workload


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def _bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_5k", "--seed", "3", "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line():
    done = _bench(ROOT, "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metric_names_and_units(name, tmp_path):
    workload = _prepared(name, tmp_path)
    result = worker.measure(workload, seconds=0, trace=True)
    assert result["errors"] == [] and result["incomplete"] == [] and result["missing"] == []
    result["peak_rss_mb"] = 1.0
    assert {k: unit for k, (_, unit) in run.end_to_end([1.0], result).items()} == _declared("end_to_end")
    layers = run.per_layer(result)
    assert {k: unit for k, (_, unit) in layers.items()} == _declared("per_layer")
    if name == "perturb_grid":
        assert layers["audio.convolve_ir.calls"] == (12, "count")
        assert layers["audio.add_noise_snr.calls"] == (12, "count")


def test_recorder_keeps_one_stack_per_thread():
    recorder = spans.Recorder()
    root = recorder.begin_op()
    both_open = threading.Barrier(2, timeout=10)

    def row():
        outer = recorder.open("row")
        both_open.wait()
        inner = recorder.open("inner")
        time.sleep(0.02)
        recorder.close(inner)
        both_open.wait()
        recorder.close(outer)

    threads = [threading.Thread(target=row) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    op = recorder.end_op(root)
    assert op.calls == {"op": 1, "row": 2, "inner": 2}
    # each inner span is subtracted from its own thread's row, once
    assert 0 <= op.self_s["row"] < op.total["row"] - 0.035
    assert op.self_s["inner"] == op.total["inner"]
    assert 0 <= op.self_s["op"] < op.root_s
    assert op.cross_thread_s == op.total["row"]


def test_two_job_batch_traces_rows_on_pool_threads(tmp_path):
    workload = _prepared("batch_dense", tmp_path)
    result = worker.measure(workload, seconds=0, trace=True)
    assert result["errors"] == [] and result["incomplete"] == []
    rows = workload.size["batch_pairs"]
    assert result["spans"]["evaluation.evaluate_performances"][2] == rows
    assert all(self_s >= 0 for _, self_s, _ in result["spans"].values())
    assert 0.5 < result["layers"]["cli.batch.busy_ratio"][0] <= 1.0


def test_wrapped_away_function_reads_missing(tmp_path, monkeypatch):
    """A renamed function: the call site the tracer wraps is gone, and the
    caller reaches the layer through a name the tracer does not know."""
    workload = _prepared("pair_5k", tmp_path)
    original = pianoeval.musical.compute_musical_metrics
    unreachable = types.FunctionType(
        original.__code__, dict(vars(pianoeval.musical)), original.__name__, original.__defaults__
    )
    monkeypatch.setattr(pianoeval.evaluation, "compute_musical_metrics", unreachable)
    monkeypatch.delattr(pianoeval.musical, "cloud_momentum")
    result = worker.measure(workload, seconds=0, trace=True)
    assert result["errors"] == []
    assert result["missing"] == ["pianoeval.musical:cloud_momentum"]
    assert "tension.cloud_momentum" in result["incomplete"]
    assert result["layers"]["tension.cloud_momentum.s"] == (spans.INCOMPLETE, "s")
    assert result["layers"]["musical.compute_musical_metrics.self_s"][0] > 0


def _corrupt_pair(monkeypatch):
    monkeypatch.setattr(pianoeval.evaluation, "note_metrics", lambda ref, est, mode: PRF(0.5, 0.5, 0.5))


def _corrupt_batch(monkeypatch):
    emit = pianoeval.cli.emit

    def drop_last_row(payload, fmt="csv"):
        return emit(payload[:-1] if len(payload) > 1 else payload, fmt)

    monkeypatch.setattr(pianoeval.cli, "emit", drop_last_row)


def _corrupt_perturb(monkeypatch):
    write = pianoeval.cli.write_wav_file

    def flip_first_sample(path, buffer, *args):
        samples = buffer.samples.copy()
        samples[0, 0] += 0.25
        write(path, type(buffer)(buffer.sample_rate, samples), *args)

    monkeypatch.setattr(pianoeval.cli, "write_wav_file", flip_first_sample)


@pytest.mark.parametrize(
    "name, corrupt",
    [("pair_5k", _corrupt_pair), ("batch_dense", _corrupt_batch), ("perturb_grid", _corrupt_perturb)],
)
def test_corrupted_output_fails(name, corrupt, tmp_path, monkeypatch):
    workload = _prepared(name, tmp_path)
    corrupt(monkeypatch)
    result = worker.measure(workload, seconds=0, trace=False)
    assert result["errors"] and len(result["errors"]) == result["attempted"]


def test_tail_needs_ten_samples_beyond():
    times = [float(i) for i in range(1, 31)]
    value, _ = run.tail(times)
    assert value == 20.0 and sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
