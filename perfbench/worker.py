"""One workload in its own process: set up, measure, check, report.

``--mode setup`` only imports ``pianoeval`` and writes the inputs, and
reports how long that took. ``--mode run`` does the same, makes the
untimed reference outputs, then runs operations for about ``--seconds``,
stopping before one that would end past it. With ``--trace 1`` it alternates untraced and traced operations,
so the two are measured under the same conditions. The result is one JSON
line on standard output.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, Tracer, summarize  # noqa: E402

SELF_SUM_TOLERANCE_S = 1e-6


def measure(workload, seconds: float, trace: bool) -> dict:
    """Closed loop of operations for about ``seconds``; every output is checked."""
    recorder = Recorder()
    plain, traced, traces, errors, missing = [], [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    elapsed = 0.0
    while True:
        tracing = trace and attempted % 2 == 1
        attempted += 1
        try:
            if tracing:
                with Tracer(recorder) as tracer:
                    start = time.perf_counter()
                    root = recorder.begin_op()
                    result = workload.op()
                    op_trace = recorder.end_op(root)
                    elapsed = time.perf_counter() - start
                missing = tracer.missing
            else:
                start = time.perf_counter()
                result = workload.op()
                elapsed = time.perf_counter() - start
            error = workload.check(result)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        if error:
            errors.append(error)
        elif tracing:
            if op_trace.cross_thread_s == 0 and abs(op_trace.self_sum_error()) > SELF_SUM_TOLERANCE_S:
                raise RuntimeError(f"self times miss the root span by {op_trace.self_sum_error()} s")
            traced.append(elapsed)
            traces.append(op_trace)
        else:
            plain.append(elapsed)
        # stop before an operation that would end past the deadline
        measured = plain and (traced or not trace)
        if time.perf_counter() + elapsed >= deadline and (measured or errors):
            break
    out = {"attempted": attempted, "errors": errors, "op_times": plain, "items_per_op": workload.items_per_op}
    if trace:
        layers, incomplete = summarize(traces, workload.expected_spans, workload.jobs)
        names = sorted(set().union(*(op.calls for op in traces)))
        out.update(
            spans={
                name: [statistics.median(getattr(op, field)[name] for op in traces)
                       for field in ("total", "self_s", "calls")]
                for name in names
            },
            layers=layers,
            incomplete=incomplete,
            missing=missing,
            traced_op_times=traced,
            trace_overhead_ratio=statistics.median(traced) / statistics.median(plain),
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--src", required=True, help="directory holding the pianoeval package")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import pianoeval

    if src not in Path(pianoeval.__file__).resolve().parents:
        print(f"perfbench: imported pianoeval from {pianoeval.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](Path(args.work_dir), args.seed, args.scale)
    digests = workload.setup()
    result = {"setup_s": time.perf_counter() - STARTED, "digests": digests}
    if args.mode == "run":
        try:
            prepare_errors = workload.prepare()
        except Exception:
            prepare_errors = [traceback.format_exc()]
        result.update(measure(workload, args.seconds, bool(args.trace)))
        result["attempted"] += 1  # the reference run
        result["failed"] = len(result["errors"]) + bool(prepare_errors)
        result["errors"] = prepare_errors + result["errors"]
        # this process plus the largest child it waited for (none today); ru_maxrss is in KiB
        peak_kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result["peak_rss_mb"] = peak_kib / 1024.0
    for error in result.get("errors", []):
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
