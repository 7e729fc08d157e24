"""Batch-oriented command line: evaluate, batch, perturb, stats.

Commands raise, and ``main`` turns the exception into the exit code: 0
success; 2 unparseable input, a ValueError (MIDI/WAV/CSV/config/levels, or a
performance longer than ``MAX_DURATION``; argparse uses 2 for usage too); 3
I/O failure, an OSError; 4 batch run where every row failed. Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

from .audio import (
    _checked_rt60,
    apply_condition_grid,
    checked_ir_length,
    checked_snr,
    derive_seed,
    read_wav_file,
    synth_ir,
    write_wav_file,
)
from .evaluation import RunConfig, checked_duration, evaluate_performances
from .midi import Performance, parse_midi_file
from .stats import ALPHA, REPORT_METRIC_COLUMNS, aggregate, csv_text, emit, kruskal_wallis

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_ALL_FAILED = 4

DEFAULT_SNR_LEVELS = "none,24,12,6"
DEFAULT_RT60_LEVELS = "none,0.19,1.85,10.5"


def _fail(code: int, message: str) -> int:
    print(f"pianoeval: {message}", file=sys.stderr)
    return code


def _read(path: str, reader, *args):
    """``reader(path, *args)``, naming the file in every input error: a ValueError (or
    csv.Error) or an OSError is re-raised as a ValueError or OSError ``<path>: <error>``."""
    try:
        return reader(path, *args)
    except (ValueError, csv.Error) as err:
        raise ValueError(f"{path}: {err}") from err
    except OSError as err:
        raise OSError(f"{path}: {err}") from err


def _config_file(path: str) -> RunConfig:
    """A flat key=value file over the defaults, each key set at most once and
    each value coerced to its field's type."""
    field_types = {f.name: type(f.default) for f in fields(RunConfig)}
    values: dict = {}
    set_on: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"line {line_number}: expected key=value, got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in field_types:
                raise ValueError(f"line {line_number}: unknown config key {key!r}")
            if key in set_on:
                raise ValueError(f"line {line_number}: key {key!r} was already set on line {set_on[key]}")
            set_on[key] = line_number
            try:
                values[key] = field_types[key](value)
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from None
    return RunConfig(**values)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by --pedal."""
    config = _read(args.config, _config_file) if args.config else RunConfig()
    return replace(config, pedal_mode=args.pedal) if args.pedal else config


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _performance(path: str, config: RunConfig, side: str) -> Performance:
    """One side of a pair, parsed and held to ``MAX_DURATION``."""
    return checked_duration(parse_midi_file(path, config.pedal_mode), side)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    ref, est = (_read(getattr(args, side), _performance, config, side) for side in ("ref", "est"))
    pair_id = f"{Path(args.ref).stem}__vs__{Path(args.est).stem}"
    report = evaluate_performances(ref, est, config, pair_id)
    data = emit([report], args.format)
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

# tag names that would give a report or aggregate column a second meaning
_RESERVED_TAGS = {"pair_id", "count"} | {f"{c}{s}" for c in REPORT_METRIC_COLUMNS for s in ("", "_excluded")}


def _manifest_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None or not {"ref", "est"} <= set(header):
            raise ValueError("manifest needs 'ref' and 'est' columns")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"column {name!r} is repeated in the header")
            if name in _RESERVED_TAGS:
                raise ValueError(f"tag column {name!r} has the name of a report column")
        rows = []
        for row in reader:
            if None in row:  # DictReader files a row's surplus cells under None
                n = len(reader.fieldnames)
                raise ValueError(f"line {reader.line_num}: {n + len(row[None])} cells for {n} columns")
            rows.append({k: (v or "") for k, v in row.items()})
        return rows


def _pool_size(jobs: int, rows: int) -> int:
    """Threads for ``--jobs``: no more than the rows or the host's CPUs, and at least one."""
    return max(1, min(jobs, rows, os.cpu_count() or 1))


def cmd_batch(args: argparse.Namespace) -> int:
    config = _run_config(args)
    rows = _read(args.manifest, _manifest_rows)
    if not rows:
        return _fail(EXIT_ALL_FAILED, f"{args.manifest}: empty manifest")
    group_by = [k.strip() for k in (args.group_by or "").split(",") if k.strip()]
    if args.group_by is not None and not group_by:
        raise ValueError(f"{args.manifest}: --group-by {args.group_by!r} names no tag column")
    tag_columns = [k for k in rows[0] if k not in ("ref", "est")]  # every row holds every header column
    for key in group_by:
        if key not in tag_columns:
            raise ValueError(f"{args.manifest}: --group-by key {key!r} is not a tag column {tag_columns}")

    def run_row(indexed_row):
        index, row = indexed_row
        tags = {k: v for k, v in row.items() if k not in ("ref", "est")}
        pair_id = tags.get("id") or f"pair{index:04d}"
        try:
            ref, est = (_read(row[side], _performance, config, side) for side in ("ref", "est"))
            return evaluate_performances(ref, est, config, pair_id, tags), None
        except (OSError, ValueError) as err:
            return None, str(err)
        except Exception as err:  # any other fault fails this row, not the batch
            return None, f"{type(err).__name__}: {err}"

    with ThreadPoolExecutor(max_workers=_pool_size(args.jobs, len(rows))) as pool:
        results = list(pool.map(run_row, enumerate(rows)))  # in row order
    reports = [report for report, _ in results if report is not None]
    failures = [(i, rows[i]["ref"], rows[i]["est"], e) for i, (_, e) in enumerate(results) if e is not None]

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"reports.{args.format}").write_bytes(emit(reports, args.format))
    failures_csv = csv_text(["row", "ref", "est", "error"], failures)
    (out_dir / "failures.csv").write_text(failures_csv, encoding="utf-8")
    if group_by and reports:
        table = aggregate(reports, group_by)
        (out_dir / f"aggregate.{args.format}").write_bytes(emit(table, args.format))

    for i, ref, est, err in failures:
        print(f"pianoeval: row {i} failed ({ref} vs {est}): {err}", file=sys.stderr)
    return EXIT_OK if reports else EXIT_ALL_FAILED


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def _labels(flag: str, spec: str, label) -> list[str]:
    """Each level's part of the output names, 'none' or ``label(token)``; a repeat would overwrite a file."""
    labels = ["none" if t.strip().lower() == "none" else label(t.strip()) for t in spec.split(",")]
    repeated = [name for i, name in enumerate(labels) if name in labels[:i]]
    if repeated:
        raise ValueError(f"{flag}: level {repeated[0]!r} is given twice, so two cells would write one file")
    return labels


def _parse_levels(flag: str, spec: str, make) -> list:
    """``make(index, token)`` for each comma-separated token (None for
    'none'); a ValueError names the flag and the token."""
    levels = []
    for i, token in enumerate(t.strip() for t in spec.split(",")):
        try:
            levels.append(None if token.lower() == "none" else make(i, token))
        except ValueError as err:
            raise ValueError(f"{flag} {token!r}: {err}") from None
    return levels


def cmd_perturb(args: argparse.Namespace) -> int:
    ir_flag, ir_spec = ("--ir", args.ir) if args.ir else ("--rt60", args.rt60)
    snr_labels = _labels("--snr", args.snr, str)
    ir_labels = _labels(ir_flag, ir_spec, (lambda tok: Path(tok).stem) if args.ir else str)
    snr_levels = _parse_levels("--snr", args.snr, lambda i, tok: checked_snr(float(tok)))
    if not args.ir:  # the IR length check needs the input's sample rate, so it waits for the read
        _parse_levels("--rt60", args.rt60, lambda i, tok: _checked_rt60(float(tok)))
    audio = _read(args.input, read_wav_file)

    def room(i: int, token: str):
        if args.ir:
            ir = read_wav_file(token)
            checked_ir_length(ir.n_samples)
            return ir
        return synth_ir(float(token), audio.sample_rate, derive_seed(args.seed, 1, i))

    ir_levels = _parse_levels(ir_flag, ir_spec, room)
    try:
        cells = apply_condition_grid(audio, snr_levels, ir_levels, args.seed)
    except ValueError as err:  # all-zero audio under noise, an IR of another rate or width
        raise ValueError(f"{args.input}: {err}") from None
    names = [f"{Path(args.input).stem}__snr{snr}_rt{ir}.wav" for ir in ir_labels for snr in snr_labels]
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:  # no name keeps a written cell alive while the next one is made
        write_wav_file(out_dir / name, next(cells)[1])
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _metric_groups(path: str, metric: str, group_by: str) -> list[list[float]]:
    """The defined ``metric`` values of a reports CSV, one list per ``group_by`` value, in sorted order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or []
        if metric not in columns:
            raise ValueError(f"unknown metric column {metric!r}")
        if group_by not in columns:
            raise ValueError(f"unknown group column {group_by!r}")
        grouped: dict[str, list[float]] = {}
        for row in reader:
            cell = (row.get(metric) or "").strip()
            if cell in ("", "NA"):
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"line {reader.line_num}: {metric} {cell!r} is not a finite number")
            grouped.setdefault(row.get(group_by) or "", []).append(value)
    return [values for _, values in sorted(grouped.items())]


def cmd_stats(args: argparse.Namespace) -> int:
    groups = _read(args.reports, _metric_groups, args.metric, args.group_by)
    if len(groups) < 2:
        return _fail(EXIT_PARSE, f"need at least 2 groups with defined '{args.metric}' values")
    result = kruskal_wallis(groups)
    verdict = "significant" if result.significant else "not significant"
    print(f"H = {result.h:.6f}")
    print(f"df = {result.df}")
    print(f"p = {result.p:.6f}")
    print(f"{verdict} at alpha = {ALPHA}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pianoeval",
        description="Evaluate piano-transcription MIDI against ground truth, "
        "perturb audio, and test metric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the run flags of evaluate and batch
    run.add_argument("--config", help="flat key=value run configuration file")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--pedal", choices=("ignore", "extend"), help="sustain pedal handling")

    pe = sub.add_parser("evaluate", parents=[run], help="evaluate one MIDI pair")
    pe.add_argument("ref", help="ground-truth MIDI file")
    pe.add_argument("est", help="estimated (transcribed) MIDI file")
    pe.add_argument("--output", help="report file (default: stdout)")
    pe.set_defaults(func=cmd_evaluate)

    pb = sub.add_parser("batch", parents=[run], help="evaluate every row of a manifest CSV")
    pb.add_argument("manifest", help="CSV with header 'ref,est' plus tag columns")
    pb.add_argument("--output", default=".", help="directory for reports/failures/aggregate")
    pb.add_argument("--jobs", type=int, default=1, help="parallel rows")
    pb.add_argument("--group-by", dest="group_by", help="comma-separated tag keys to aggregate on")
    pb.set_defaults(func=cmd_batch)

    pp = sub.add_parser(
        "perturb",
        help="write one WAV per (SNR, reverb) grid cell",
        description="Outputs are named <input stem>__snr<level>_rt<level>.wav, "
        "e.g. takefive__snr12_rt1.85.wav; 'none' marks an untouched axis.",
    )
    pp.add_argument("input", help="input WAV (PCM16 or float32, 1-2 channels)")
    pp.add_argument("--output", default=".", help="output directory")
    pp.add_argument("--snr", default=DEFAULT_SNR_LEVELS, help="comma list of dB levels or 'none'")
    group = pp.add_mutually_exclusive_group()
    group.add_argument(
        "--rt60", default=DEFAULT_RT60_LEVELS, help="comma list of synthetic-IR RT60 seconds or 'none'"
    )
    group.add_argument("--ir", help="comma list of IR WAV paths or 'none'")
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(func=cmd_perturb)

    ps = sub.add_parser("stats", help="Kruskal-Wallis test over report groups")
    ps.add_argument("reports", help="reports CSV produced by evaluate/batch")
    ps.add_argument("--metric", required=True, help="metric column to test")
    ps.add_argument("--group-by", dest="group_by", required=True, help="tag column defining groups")
    ps.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))
    except OSError as err:
        return _fail(EXIT_IO, str(err))


if __name__ == "__main__":
    sys.exit(main())
