"""Batch-oriented command line: evaluate, batch, perturb, stats.

Exit codes: 0 success; 2 unparseable input (MIDI/WAV/CSV columns/usage);
3 I/O failure; 4 batch run where every row failed.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .audio import (
    WavFormatError,
    apply_condition_grid,
    checked_snr,
    derive_seed,
    read_wav_file,
    synth_ir,
    write_wav_file,
)
from .evaluation import RunConfig, evaluate_performances
from .midi import MidiParseError, Performance, parse_midi_file
from .stats import ALPHA, aggregate, csv_text, emit, kruskal_wallis

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_ALL_FAILED = 4

DEFAULT_SNR_LEVELS = "none,24,12,6"
DEFAULT_RT60_LEVELS = "none,0.19,1.85,10.5"


def _fail(code: int, message: str) -> int:
    print(f"pianoeval: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_number}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    field_types = {f.name: type(f.default) for f in fields(RunConfig)}
    values: dict = {}
    path = getattr(args, "config", None)
    if path:
        for key, raw in _parse_config_file(path).items():
            if key not in field_types:
                raise ValueError(f"{path}: unknown config key {key!r}")
            try:
                values[key] = field_types[key](raw)
            except ValueError as err:
                raise ValueError(f"{path}: {key}: {err}") from None
    if getattr(args, "pedal", None):
        values["pedal_mode"] = args.pedal
    try:
        return RunConfig(**values)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None  # only config values can be out of range


def _write_output(data: bytes, output: Optional[str]) -> None:
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _load_midi(path: str, config: RunConfig) -> Performance:
    """Parse one MIDI file; a parse error (as ValueError) or I/O error names the file."""
    try:
        return parse_midi_file(path, pedal_mode=config.pedal_mode)
    except MidiParseError as err:
        raise ValueError(f"{path}: {err}") from err
    except OSError as err:
        raise OSError(f"{path}: {err}") from err


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        config = _build_run_config(args)
        ref, est = _load_midi(args.ref, config), _load_midi(args.est, config)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))
    except OSError as err:
        return _fail(EXIT_IO, str(err))
    pair_id = f"{Path(args.ref).stem}__vs__{Path(args.est).stem}"
    report = evaluate_performances(ref, est, config, pair_id)
    try:
        _write_output(emit([report], args.format), args.output)
    except OSError as err:
        return _fail(EXIT_IO, str(err))
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _read_manifest(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"ref", "est"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: manifest needs 'ref' and 'est' columns")
        return [{k: (v or "") for k, v in row.items()} for row in reader]


def cmd_batch(args: argparse.Namespace) -> int:
    try:
        config = _build_run_config(args)
        rows = _read_manifest(args.manifest)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))
    except OSError as err:
        return _fail(EXIT_IO, str(err))
    if not rows:
        return _fail(EXIT_ALL_FAILED, f"{args.manifest}: empty manifest")

    def run_row(indexed_row):
        index, row = indexed_row
        tags = {k: v for k, v in row.items() if k not in ("ref", "est")}
        pair_id = tags.get("id") or f"pair{index:04d}"
        try:
            ref = _load_midi(row["ref"], config)
            est = _load_midi(row["est"], config)
            return index, evaluate_performances(ref, est, config, pair_id, tags), None
        except (OSError, ValueError) as err:
            return index, None, str(err)
        except Exception as err:  # any other fault fails this row, not the batch
            return index, None, f"{type(err).__name__}: {err}"

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        results = list(pool.map(run_row, enumerate(rows)))
    results.sort(key=lambda item: item[0])
    reports = [r for _, r, _ in results if r is not None]
    failures = [(i, rows[i]["ref"], rows[i]["est"], err) for i, _, err in results if err]

    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = args.format
        (out_dir / f"reports.{suffix}").write_bytes(emit(reports, args.format))
        failures_csv = csv_text(["row", "ref", "est", "error"], failures)
        (out_dir / "failures.csv").write_text(failures_csv, encoding="utf-8")
        if args.group_by and reports:
            keys = [k.strip() for k in args.group_by.split(",") if k.strip()]
            table = aggregate(reports, keys)
            (out_dir / f"aggregate.{suffix}").write_bytes(emit(table, args.format))
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))
    except OSError as err:
        return _fail(EXIT_IO, str(err))

    for i, ref, est, err in failures:
        print(f"pianoeval: row {i} failed ({ref} vs {est}): {err}", file=sys.stderr)
    return EXIT_OK if reports else EXIT_ALL_FAILED


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def _parse_levels(flag: str, spec: str, make) -> tuple[tuple[str, ...], tuple]:
    """The comma-separated tokens, and ``make(index, token)`` for each (None
    for 'none'); a ValueError names the flag and the token."""
    levels = []
    for i, token in enumerate(t.strip() for t in spec.split(",")):
        try:
            levels.append(("none", None) if token.lower() == "none" else (token, make(i, token)))
        except ValueError as err:
            raise ValueError(f"{flag} {token!r}: {err}") from None
    return tuple(zip(*levels))


def cmd_perturb(args: argparse.Namespace) -> int:
    try:
        audio = read_wav_file(args.input)
    except WavFormatError as err:
        return _fail(EXIT_PARSE, f"{args.input}: {err}")
    except OSError as err:
        return _fail(EXIT_IO, f"{args.input}: {err}")

    def room(i: int, token: str):
        if args.ir:
            return read_wav_file(token)
        return synth_ir(float(token), audio.sample_rate, derive_seed(args.seed, 1, i))

    try:
        snr_tokens, snr_levels = _parse_levels("--snr", args.snr, lambda i, tok: checked_snr(float(tok)))
        ir_tokens, ir_levels = _parse_levels("--ir" if args.ir else "--rt60", args.ir or args.rt60, room)
    except ValueError as err:
        return _fail(EXIT_PARSE, str(err))
    except OSError as err:
        return _fail(EXIT_IO, str(err))

    stem = Path(args.input).stem
    ir_labels = [Path(tok).stem for tok in ir_tokens] if args.ir else ir_tokens
    names = [f"{stem}__snr{snr}_rt{ir}.wav" for ir in ir_labels for snr in snr_tokens]
    try:
        cells = apply_condition_grid(audio, snr_levels, ir_levels, args.seed)
    except ValueError as err:  # all-zero audio under noise, an IR of another rate or width
        return _fail(EXIT_PARSE, f"{args.input}: {err}")
    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (_, buffer) in zip(names, cells):
            write_wav_file(out_dir / name, buffer)
    except OSError as err:
        return _fail(EXIT_IO, str(err))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    try:
        with open(args.reports, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            columns = reader.fieldnames or []
            if args.metric not in columns:
                return _fail(EXIT_PARSE, f"unknown metric column {args.metric!r}")
            if args.group_by not in columns:
                return _fail(EXIT_PARSE, f"unknown group column {args.group_by!r}")
            grouped: dict[str, list[float]] = {}
            for row in reader:
                cell = (row.get(args.metric) or "").strip()
                if cell in ("", "NA"):
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ValueError(f"line {reader.line_num}: {args.metric} {cell!r} is not a finite number")
                grouped.setdefault(row.get(args.group_by) or "", []).append(value)
    except OSError as err:
        return _fail(EXIT_IO, f"{args.reports}: {err}")
    except ValueError as err:
        return _fail(EXIT_PARSE, f"{args.reports}: {err}")

    groups = [values for _, values in sorted(grouped.items())]
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

    pe = sub.add_parser("evaluate", help="evaluate one MIDI pair")
    pe.add_argument("ref", help="ground-truth MIDI file")
    pe.add_argument("est", help="estimated (transcribed) MIDI file")
    pe.add_argument("--config", help="flat key=value run configuration file")
    pe.add_argument("--output", help="report file (default: stdout)")
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.add_argument("--pedal", choices=("ignore", "extend"), help="sustain pedal handling")
    pe.set_defaults(func=cmd_evaluate)

    pb = sub.add_parser("batch", help="evaluate every row of a manifest CSV")
    pb.add_argument("manifest", help="CSV with header 'ref,est' plus tag columns")
    pb.add_argument("--output", default=".", help="directory for reports/failures/aggregate")
    pb.add_argument("--config", help="flat key=value run configuration file")
    pb.add_argument("--format", choices=("csv", "json"), default="csv")
    pb.add_argument("--jobs", type=int, default=1, help="parallel rows")
    pb.add_argument("--group-by", dest="group_by", help="comma-separated tag keys to aggregate on")
    pb.add_argument("--pedal", choices=("ignore", "extend"))
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
