"""One workload in one process: set up, signal ready, run a closed loop, report.

Started by ``run.py`` with flowrec's ``src`` on ``PYTHONPATH`` and every
thread pool pinned to one thread.  It writes ``ready`` on its own line
once set-up is done (the parent times set-up up to that line) and, unless
``--setup-only``, a JSON line with the loop's results.  flowrec's own
printing goes to the null device.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import reference
import tracer as tracing
from workloads import WORKLOADS

MIN_OPS = 100  # the p90 then has at least ten samples beyond it
TRACE_WINDOW = 50  # traced operations the per-layer numbers average over


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w")
    import flowrec  # noqa: F401  (set-up pays for the import)
    import flowrec.cli  # noqa: F401

    expected = os.path.join(os.getcwd(), "src", "flowrec")
    if os.path.dirname(os.path.abspath(flowrec.__file__)) != expected:
        print(f"flowrec imported from {flowrec.__file__}, not {expected}", file=sys.stderr)
        return 2

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    warm = workload.op(-1)[2]  # warm-up: lazy imports, caches, first-time paths
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0
    workload.check(-1, warm)

    # Traced runs do each operation twice, traced and untraced, in alternating
    # order, so the overhead is a paired difference on the same input.
    tracer = tracing.Tracer() if args.trace else None
    wall, cpu, traced_wall, untraced_wall = [], [], [], []
    failed, correct, i = 0, True, 0
    window_end = 0
    deadline = time.perf_counter() + args.seconds
    while i < MIN_OPS or time.perf_counter() < deadline:
        index = i if tracer is None else i // 2
        traced = tracer is not None and (i % 2) != (index % 2)
        if traced:
            start = tracer.mark()
            tracer.install()
        try:
            w, c, out = workload.op(index)
        except Exception:  # an operation that raises counts as failed; keep going
            traceback.print_exc()
            failed += 1
            i += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.file_sizes(start)
            traced_wall.append(w)
            if len(traced_wall) == TRACE_WINDOW:
                window_end = tracer.mark()
        elif tracer is not None:
            untraced_wall.append(w)
        wall.append(w)
        cpu.append(c)
        try:
            if workload.check(index, out):
                failed += 1
        except reference.CheckFailed as exc:
            print(f"operation {i}: {exc}", file=sys.stderr)
            correct = False
        i += 1

    result = {"attempted": i, "failed": failed, "correct": correct}
    if tracer is None:
        result["metrics"] = {
            "op_s_p50": (statistics.median(wall), "s"),
            "op_s_p90": (statistics.quantiles(wall, n=10)[8], "s"),
            "ops_per_s": (len(wall) / sum(wall), "1/s"),
            # Median, not mean: a rare slow solve (sweep-nonsmooth has them) would
            # otherwise decide the figure.
            "cpu_s_per_op": (statistics.median(cpu), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        named, self_times, covered = tracing.layer_metrics(tracer.spans[:window_end])
        per_op = {k: v / TRACE_WINDOW for k, v in named.items()}
        pairs = zip(traced_wall[:TRACE_WINDOW], untraced_wall[:TRACE_WINDOW])
        per_op["trace.overhead_s"] = statistics.median(t - u for t, u in pairs)
        result["per_layer"] = per_op
        op_time = sum(traced_wall[:TRACE_WINDOW])
        result["trace_summary"] = {
            "operations": TRACE_WINDOW,
            "op_s_mean_traced": op_time / TRACE_WINDOW,
            "op_s_median_traced": statistics.median(traced_wall[:TRACE_WINDOW]),
            "op_s_median_untraced": statistics.median(untraced_wall[:TRACE_WINDOW]),
            "self_s_per_op": {k: v / TRACE_WINDOW for k, v in sorted(self_times.items())},
            "traced_share": covered / op_time,
        }
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
