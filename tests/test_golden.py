"""Whole batch outputs pinned byte for byte (see ``golden/make_golden.py``).

The expected JSON keeps every digit of each float, which may depend on the
numpy and BLAS build (``lstsq``, ``@``); the files pin this project's
outputs on one build and are not meant to hold across machines.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "golden"))
from make_golden import CONFIGS, EXPECTED, INPUTS, dense_pair_report, run_batch  # noqa: E402

from pianoeval.stats import emit  # noqa: E402


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_batch_outputs_equal_golden_files(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(INPUTS)
    expected = {p.name: p.read_bytes() for p in (EXPECTED / config).iterdir()}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        run_batch(out, CONFIGS[config], jobs)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected, f"--jobs {jobs}"
    assert "b_broken.mid: invalid data byte" in capsys.readouterr().err


def test_dense_pair_report_equals_golden_files():
    report = dense_pair_report()
    for fmt in ("csv", "json"):
        assert emit([report], fmt) == (EXPECTED / "dense_pair" / f"report.{fmt}").read_bytes(), fmt
