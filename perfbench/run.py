"""Seeded benchmark of pianoeval: pair, batch and perturb workloads.

    python3 perfbench/run.py --workload pair_5k --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each run sets the workload up in fresh processes (the median of
``SETUP_RUNS`` set-ups is ``setup_s``), then measures it in one child
process for ``--seconds`` and checks every output. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
traced operations. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine, the seed and a digest of every input.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair_5k", "batch_dense", "perturb_grid")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every child is killed after this much of the run


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, or the
    maximum when there are fewer than 11 samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops (10 beyond it)"


def end_to_end(setups: list[float], run: dict) -> dict[str, tuple[float, str]]:
    times = run["op_times"]
    tail_s, _ = tail(times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "items_per_s": (run["items_per_op"] * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    metrics = {name: tuple(value) for name, value in run["layers"].items()}
    metrics["trace_overhead_ratio"] = (run["trace_overhead_ratio"], "ratio")
    metrics["trace.incomplete_spans"] = (len(run["incomplete"]), "count")
    metrics["trace.missing_sites"] = (len(run["missing"]), "count")
    return metrics


def versions() -> str:
    found = []
    for package in ("numpy", "scipy"):
        try:
            found.append(f"{package}={metadata.version(package)}")
        except metadata.PackageNotFoundError:
            found.append(f"{package}=absent")
    return " ".join(found)


def child(args, mode: str, work_dir: Path, started: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--src", str(ROOT / "src"),
        "--work-dir", str(work_dir),
    ]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "pianoeval" / "__init__.py").is_file():
        print(f"perfbench: no pianoeval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()} {versions()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        probes = [] if args.trace else [
            child(args, "setup", work_dir, started) for _ in range(SETUP_RUNS - 1)
        ]
        run = child(args, "run", work_dir, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not run["op_times"]:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    setups = [probe["setup_s"] for probe in probes] + [run["setup_s"]]
    for name, value in run["digests"].items():
        print(f"# input {name} sha256:{value}")
    consistent = all(probe["digests"] == run["digests"] for probe in probes)
    if not consistent:
        print("perfbench: set-up runs wrote different inputs for one seed", file=sys.stderr)
    if args.trace:
        metrics = per_layer(run)
        print(f"# traced ops {len(run['traced_op_times'])}, untraced ops {len(run['op_times'])}; "
              "per op, median over traced ops:")
        for name, (total, self_s, calls) in run["spans"].items():
            print(f"# span {name:48s} total {total:9.6f} s  self {self_s:9.6f} s  calls {calls:g}")
        for name in run["incomplete"]:
            print(f"# incomplete span {name}: fired fewer times than there were traced ops")
        for site in run["missing"]:
            print(f"# missing call site {site}")
    else:
        metrics = end_to_end(setups, run)
        print(f"# setup_s runs {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"# op_tail_s is the {tail(run['op_times'])[1]}")
    print(f"# failed_ratio {run['failed']}/{run['attempted']} = {run['failed'] / run['attempted']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["failed"] == 0 and consistent,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
