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
from typing import Iterator, Optional

from .audio import (
    apply_condition_grid,
    checked_ir_length,
    checked_rt60,
    checked_snr,
    derive_seed,
    read_wav_file,
    synth_ir,
    write_wav_file,
)
from .config import PEDAL_MODES, RunConfig, checked_duration
from .evaluation import evaluate_performances
from .midi import Performance, parse_midi_file
from .stats import ALPHA, aggregate, check_tags, csv_text, emit, kruskal_wallis

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_ALL_FAILED = 4

DEFAULT_SNR_LEVELS = "none,24,12,6"
DEFAULT_RT60_LEVELS = "none,0.19,1.85,10.5"


def _fail(code: int, message: str) -> int:
    print(f"pianoeval: {message}", file=sys.stderr)
    return code


def _named(label: str, call, *args):
    """``call(*args)``, with ``label`` prefixed to each ValueError, csv.Error (as a ValueError) or OSError."""
    try:
        return call(*args)
    except (ValueError, csv.Error) as err:
        raise ValueError(f"{label}: {err}") from err
    except OSError as err:
        raise OSError(f"{label}: {err}") from err


def _csv_rows(reader, header: list[str]) -> Iterator[dict[str, str]]:
    """The rows after ``reader``'s header as dicts over ``header``, skipping blank lines; a row with
    more or fewer cells than the header raises ValueError naming its line."""
    for cells in filter(None, reader):  # a blank line reads as no cells
        if len(cells) != len(header):
            raise ValueError(f"line {reader.line_num}: {len(cells)} cells for {len(header)} columns")
        yield dict(zip(header, cells))


def _config_file(path: str) -> RunConfig:
    """A flat key=value file over the defaults, each key set at most once and
    each value coerced to its field's type; ``#`` starts a comment anywhere on a line."""
    field_types = {f.name: type(f.default) for f in fields(RunConfig)}
    values: dict = {}
    set_on: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_number, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"line {line_number}: expected key=value, got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in field_types:
                raise ValueError(f"line {line_number}: unknown config key {key!r}")
            if key in set_on:
                raise ValueError(f"line {line_number}: key {key!r} was already set on line {set_on[key]}")
            set_on[key] = line_number
            values[key] = _named(key, field_types[key], value)
    return RunConfig(**values)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by --pedal."""
    config = _named(args.config, _config_file, args.config) if args.config else RunConfig()
    return replace(config, pedal_mode=args.pedal) if args.pedal else config


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _performance(path: str, config: RunConfig, side: str) -> Performance:
    """One side of a pair, parsed and held to ``MAX_DURATION``; an input error names the file."""
    return _named(path, lambda: checked_duration(parse_midi_file(path, config.pedal_mode), side))


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    ref, est = (_performance(getattr(args, side), config, side) for side in ("ref", "est"))
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

def _manifest_rows(path: str) -> list[tuple[str, dict[str, str]]]:
    """Each row's pair id (its ``id`` cell, or else ``pair<index>``) and its cells."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"ref", "est"} <= set(header):
            raise ValueError("manifest needs 'ref' and 'est' columns")
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"column {name!r} is repeated in the header")
        check_tags(header)
        rows = []
        seen: dict[str, int] = {}  # pair id -> its line
        for row in _csv_rows(reader, header):
            for side in ("ref", "est"):
                if not row[side]:
                    raise ValueError(f"line {reader.line_num}: empty {side!r} cell")
            pair_id = row.get("id") or f"pair{len(rows):04d}"
            if pair_id in seen:
                raise ValueError(f"line {reader.line_num}: pair id {pair_id!r} is also on line {seen[pair_id]}")
            seen[pair_id] = reader.line_num
            rows.append((pair_id, row))
        return rows


def _pool_size(jobs: int, rows: int) -> int:
    """Threads for ``--jobs``: no more than the rows or the host's CPUs, and at least one."""
    return max(1, min(jobs, rows, os.cpu_count() or 1))


def cmd_batch(args: argparse.Namespace) -> int:
    config = _run_config(args)
    rows = _named(args.manifest, _manifest_rows, args.manifest)
    if not rows:
        return _fail(EXIT_ALL_FAILED, f"{args.manifest}: empty manifest")
    group_by = [k.strip() for k in (args.group_by or "").split(",") if k.strip()]
    if args.group_by is not None and not group_by:
        raise ValueError(f"{args.manifest}: --group-by {args.group_by!r} names no tag column")
    tag_columns = [k for k in rows[0][1] if k not in ("ref", "est")]  # every row holds every header column
    for key in group_by:
        if key not in tag_columns:
            raise ValueError(f"{args.manifest}: --group-by key {key!r} is not a tag column {tag_columns}")

    def run_row(pair_id_row):
        pair_id, row = pair_id_row
        tags = {k: v for k, v in row.items() if k not in ("ref", "est")}
        try:
            ref, est = (_performance(row[side], config, side) for side in ("ref", "est"))
            return evaluate_performances(ref, est, config, pair_id, tags), None
        except (OSError, ValueError) as err:
            return None, str(err)
        except Exception as err:  # any other fault fails this row, not the batch
            return None, f"{type(err).__name__}: {err}"

    with ThreadPoolExecutor(max_workers=_pool_size(args.jobs, len(rows))) as pool:
        results = list(pool.map(run_row, rows))  # in row order
    reports = [report for report, _ in results if report is not None]
    failures = [(i, rows[i][1]["ref"], rows[i][1]["est"], e) for i, (_, e) in enumerate(results) if e is not None]

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

def _levels(flag: str, spec: str, make) -> list[tuple[str, object]]:
    """A (file-name part, level) pair per comma-separated token: ('none', None) for
    'none', else ``make(token)``. A ValueError names the flag and the token, and a
    repeated name is refused, since its two cells would write one file."""
    levels: list[tuple[str, object]] = []
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            raise ValueError(f"{flag} {token!r}: empty level")
        name, level = ("none", None) if token.lower() == "none" else _named(f"{flag} {token!r}", make, token)
        if name in (seen for seen, _ in levels):
            raise ValueError(f"{flag}: level {name!r} is given twice, so two cells would write one file")
        levels.append((name, level))
    return levels


def cmd_perturb(args: argparse.Namespace) -> int:
    snrs = _levels("--snr", args.snr, lambda t: (t, checked_snr(float(t))))
    if args.ir is not None:  # an IR's level is its file, read after the input
        rooms = _levels("--ir", args.ir, lambda t: (Path(t).stem, t))
    else:  # an RT60's IR length check needs the input's sample rate, so it waits for the read
        rooms = _levels("--rt60", args.rt60, lambda t: (t, checked_rt60(float(t))))
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: must be a non-negative integer")
    audio = _named(args.input, read_wav_file, args.input)
    irs = []
    for i, (name, level) in enumerate(rooms):  # named as in _levels: an RT60's token is its name
        if level is None:
            irs.append(None)
        elif args.ir is None:
            seed = derive_seed(args.seed, 1, i)
            irs.append(_named(f"--rt60 {name!r}", synth_ir, level, audio.sample_rate, seed))
        else:  # a file's token is its level
            irs.append(_named(f"--ir {level!r}", read_wav_file, level))
            _named(f"--ir {level!r}", checked_ir_length, irs[-1].n_samples)
    # the input is at fault: all zero under noise, or of another rate or width than an IR
    cells = _named(args.input, apply_condition_grid, audio, [snr for _, snr in snrs], irs, args.seed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ir_name, _ in rooms:  # no name keeps a written cell alive while the next one is made
        for snr_name, _ in snrs:
            write_wav_file(out_dir / f"{Path(args.input).stem}__snr{snr_name}_rt{ir_name}.wav", next(cells))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _metric_groups(path: str, metric: str, group_by: str) -> list[list[float]]:
    """The defined ``metric`` values of a reports CSV, one list per ``group_by`` value, in sorted order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        columns = next(reader, [])
        if metric not in columns:
            raise ValueError(f"unknown metric column {metric!r}")
        if group_by not in columns:
            raise ValueError(f"unknown group column {group_by!r}")
        grouped: dict[str, list[float]] = {}
        for row in _csv_rows(reader, columns):
            cell = row[metric].strip()
            if cell in ("", "NA"):
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"line {reader.line_num}: {metric} {cell!r} is not a finite number")
            grouped.setdefault(row[group_by], []).append(value)
    return [values for _, values in sorted(grouped.items())]


def cmd_stats(args: argparse.Namespace) -> int:
    groups = _named(args.reports, _metric_groups, args.reports, args.metric, args.group_by)
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
    run.add_argument("--pedal", choices=PEDAL_MODES, help="sustain pedal handling")

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
