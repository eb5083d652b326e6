"""Time the multi-horizon l2 solve of two checkouts across network sizes.

Usage, from anywhere:

    python3 tools/cg_scaling.py PARENT_DIR CHANGE_DIR [--out FILE]

For each size N in ``NODES``, an instance
``GeneratorConfig(nodes=N, seed=4000)`` with about 3N edges
(``density_for_edge_target``) gets an (n, HORIZONS) panel of base
forecasts: its truth scaled by a daily cycle plus 5 % Gaussian noise, as in
``perfbench``'s ``reconcile-l2-h24``.  Each checkout then solves
S^T S B = S^T Y as its l2 dispatch does, by ``flowrec.reconcile._l2_solve``
(the right-hand side S^T Y and one block CG at ``flowrec.reconcile.L2_TOL``,
through that checkout's own products with S), in a fresh
process with flowrec imported from its ``src`` and every BLAS pool pinned
to one thread, which times one solve after an untimed one.  The two
checkouts take ``REPEATS`` turns each, alternating which goes first, so
that a change in the machine's speed meets both sides.  Reported per
side: the tolerance, every time, their median and the operator steps, the largest
per-column iteration count (one column's CG iterations in a lockstep
solve, the block's step count in a block solve).
With ``--out``, the table is stored under ``"scaling"`` in FILE, which is
created or updated in place.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NODES = (100, 300, 1000, 3000)
HORIZONS = 24
REPEATS = 5


def measure(nodes: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance
    from flowrec.reconcile import L2_TOL, LossSpec, _l2_solve

    base = GeneratorConfig(nodes=nodes, seed=4000)
    cfg = GeneratorConfig(nodes=nodes, seed=4000, density=density_for_edge_target(base, 3 * nodes))
    inst = generate_instance(cfg, 0)
    rng = np.random.default_rng(4000 + nodes)
    cycle = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(HORIZONS) / 24.0)
    truth = inst.y_true.data[:, None] * cycle[None, :]
    panel = truth + rng.normal(0.0, 0.05 * float(np.abs(truth).mean()), truth.shape)
    _l2_solve(panel, inst.agg, LossSpec("l2"), time.perf_counter())
    start = time.perf_counter()
    _, stats = _l2_solve(panel, inst.agg, LossSpec("l2"), start)
    return {"paths": inst.agg.n_paths, "edges": len(inst.network.edges), "tol": L2_TOL,
            "ms": 1e3 * (time.perf_counter() - start),
            "steps": max(s.iterations for s in stats)}


def run_child(root: str, nodes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(nodes)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child for {root} at {nodes} nodes failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(measure(int(sys.argv[2]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout directory")
    ap.add_argument("change", help="change checkout directory")
    ap.add_argument("--out", default=None, help="JSON file to store the table in")
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    rows = []
    for nodes in NODES:
        runs = {side: [] for side in roots}
        for k in range(REPEATS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run_child(roots[side], nodes))
        row = {"nodes": nodes, "paths": runs["parent"][0]["paths"],
               "edges": runs["parent"][0]["edges"], "horizons": HORIZONS}
        for side, done in runs.items():
            times = [run["ms"] for run in done]
            row[side] = {"ms": times, "median_ms": statistics.median(times),
                         "steps": done[0]["steps"], "tol": done[0]["tol"]}
        rows.append(row)
        print(f"{nodes} nodes: {row['parent']['median_ms']:.1f} ms, {row['parent']['steps']} steps"
              f" -> {row['change']['median_ms']:.1f} ms, {row['change']['steps']} steps")
    if args.out:
        bench = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                bench = json.load(fh)
        bench["scaling"] = {
            "description": (
                f"tools/cg_scaling.py: {REPEATS} alternating turns per side of one timed "
                f"_l2_solve call (S^T Y and one block CG) on an (n, {HORIZONS}) panel per "
                "size, at each side's flowrec.reconcile.L2_TOL (its \"tol\"), one "
                "thread, each in a fresh process; steps = largest per-column iteration count"),
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
