"""flowrec benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a flowrec checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: reconcile-l2-h24, sweep-nonsmooth, update-rounds (see README.md
next to this file).  The workload runs in one child process with flowrec's
``src`` on the path, ``FLOWREC_THREADS`` unset and every BLAS/OpenMP pool
pinned to one thread.  With ``--trace 0`` set-up is repeated in
SETUP_SAMPLES processes, half before and half after the timed run, and its
median reported with the loop's timings; with ``--trace 1`` the per-layer
numbers are reported instead.  The last line of standard output is one JSON object: correct, attempted, failed and
metrics.  Inputs and outputs go to ``.perfbench/`` in the checkout and are
removed afterwards; ``.perfbench/<workload>-s<seed>-t<trace>.json`` keeps
the result with the host it ran on and, for a traced run, the self time
per layer.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 160.0

PER_LAYER = {
    "cli.self_s": "s",
    "fileio.read_s": "s", "fileio.write_s": "s",
    "fileio.bytes_read": "bytes", "fileio.bytes_written": "bytes",
    "network.build_s": "s", "network.builds": "count",
    "reconcile.l2_s": "s", "reconcile.l1_s": "s", "reconcile.general_s": "s",
    "reconcile.self_s": "s", "reconcile.calls": "count",
    "numerics.cg_s": "s", "numerics.cg_iters": "count", "numerics.spd_check_s": "s",
    "numerics.lp_s": "s", "numerics.lp_iters": "count",
    "numerics.smooth_s": "s", "numerics.smooth_iters": "count",
    "relaxed.solve_s": "s", "relaxed.self_s": "s",
    "relaxed.iterations": "count", "relaxed.refine_rounds": "count",
    "series.coherence_s": "s", "series.coherence_calls": "count",
    "dynamic.remove_s": "s", "dynamic.add_s": "s", "dynamic.check_s": "s",
    "dynamic.checks": "count", "dynamic.kept": "count", "dynamic.affected_paths": "count",
    "benchmark.generate_s": "s", "benchmark.run_self_s": "s", "benchmark.instances": "count",
    "baselines.evaluate_s": "s",
    "trace.overhead_s": "s",
}

# One thread everywhere: the numbers then describe the code, not the scheduler.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def host() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "machine": platform.machine()}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("FLOWREC_THREADS", None)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict, root: str) -> tuple[float, str | None]:
    """Run the worker; return (seconds until it printed ``ready``, its last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready_s, last = None, None
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"worker {' '.join(argv[:4])} exited with {code}")
    return ready_s, last


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowrec", "__init__.py")):
        print("error: run from the root of a flowrec checkout (no src/flowrec here)", file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    workdirs = []

    def setup_only(k: int) -> float:
        workdirs.append(os.path.join(base, f"{tag}-setup{k}"))
        return run_child([*common, "--seconds", "0", "--workdir", workdirs[-1], "--setup-only"],
                         env, root)[0]

    try:
        # Set-up samples before and after the timed run, so that they see the
        # same stretch of machine speed as the operations do.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setup = [setup_only(k) for k in range(extra // 2)]
        workdirs.append(os.path.join(base, tag))
        ready_s, last = run_child([*common, "--seconds", str(args.seconds),
                                   "--workdir", workdirs[-1]], env, root)
        setup.append(ready_s)
        setup += [setup_only(k) for k in range(extra // 2, extra)]
        result = json.loads(last)
    except (RuntimeError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "host": host()}
    if args.trace:
        per_layer = result.pop("per_layer")
        metrics = {k: {"value": per_layer.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
        record.update(result.pop("trace_summary"))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.pop("metrics").items()}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        record["setup_samples_s"] = setup
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record["result"] = line
    os.makedirs(base, exist_ok=True)
    with open(os.path.join(base, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
