"""Time the boxed and custom smooth-loss solves of two checkouts across network sizes.

Usage, from anywhere:

    python3 tools/smooth_kernels.py PARENT_DIR CHANGE_DIR [--out FILE]

For each size N in ``NODES``, the instance ``GeneratorConfig(nodes=N,
seed=555000)`` is built at density 0.2 for 30 nodes and at about 3N edges
(``density_for_edge_target``) otherwise.  Each case in ``CASES`` runs
``reconcile_general`` on its base forecasts: l2 and Huber (delta 1) under
the path box [6, 14], and the custom quartic f(u) = u^4 with and without
it.  Each solve runs in a fresh process with flowrec imported from one
checkout's ``src`` and every BLAS pool pinned to one thread, which times
one solve after an untimed one.  The two checkouts take ``REPEATS`` turns
each per case, alternating which goes first, so that a change in the
machine's speed meets both sides.  Reported per side: every time, their
median and minimum, the solver steps, the objective and the certificate
(the gradient norm, under a box the projected-gradient norm) against its
target 1e-8 (1 + objective); and per case the objectives' relative
difference.  The table is stored under ``"smooth_kernels"`` in FILE
(default ``BENCH_smooth_newton.json``), which is created or updated in
place.
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
NODES = (30, 100, 300)
CASES = ("boxed_l2", "boxed_huber", "boxed_quartic", "quartic")
SEED = 555000
BOX = (6.0, 14.0)
# The dispatch's Newton tolerance (reconcile.NEWTON_TOL), restated here
# so that the reported target reads the same on a checkout without it.
TOL = 1e-8
REPEATS = 5


def measure(nodes: int, case: str) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance
    from flowrec.reconcile import BoxConstraints, LossSpec, reconcile_general

    if nodes == 30:
        cfg = GeneratorConfig(nodes=nodes, density=0.2, seed=SEED)
    else:
        base = GeneratorConfig(nodes=nodes, seed=SEED)
        cfg = GeneratorConfig(nodes=nodes, seed=SEED, density=density_for_edge_target(base, 3 * nodes))
    inst = generate_instance(cfg, 0)
    agg = inst.agg
    quartic = LossSpec("custom", f=lambda u: u**4, f_prime=lambda u: 4.0 * u**3)
    loss = {"boxed_l2": LossSpec("l2"), "boxed_huber": LossSpec("huber", delta=1.0),
            "boxed_quartic": quartic, "quartic": quartic}[case]
    box = None
    if case.startswith("boxed_"):
        lower, upper = np.full(agg.n, -np.inf), np.full(agg.n, np.inf)
        lower[agg.index_map.path_slice], upper[agg.index_map.path_slice] = BOX
        box = BoxConstraints(lower, upper)
    reconcile_general(inst.y_base, agg, loss, box=box)
    start = time.perf_counter()
    res = reconcile_general(inst.y_base, agg, loss, box=box)
    return {"paths": agg.n_paths, "edges": len(inst.network.edges),
            "ms": 1e3 * (time.perf_counter() - start), "steps": res.stats.iterations,
            "objective": res.loss_value, "certificate": res.stats.gradient_norm,
            "target": TOL * (1.0 + abs(res.loss_value))}


def run_child(root: str, nodes: int, case: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(nodes), case]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child for {root} at {nodes} nodes, {case}, failed:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        print(json.dumps(measure(int(sys.argv[2]), sys.argv[3])))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout directory")
    ap.add_argument("change", help="change checkout directory")
    ap.add_argument("--out", default="BENCH_smooth_newton.json",
                    help="JSON file to store the table in")
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    rows = []
    for nodes in NODES:
        for case in CASES:
            runs = {side: [] for side in roots}
            for k in range(REPEATS):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_child(roots[side], nodes, case))
            first = runs["parent"][0]
            row = {"nodes": nodes, "case": case, "paths": first["paths"], "edges": first["edges"]}
            for side, done in runs.items():
                times = [run["ms"] for run in done]
                last = done[-1]
                row[side] = {"ms": times, "median_ms": statistics.median(times),
                             "min_ms": min(times), "steps": last["steps"],
                             "objective": last["objective"], "certificate": last["certificate"],
                             "target": last["target"],
                             "certified": all(r["certificate"] <= r["target"] for r in done)}
            parent_obj = row["parent"]["objective"]
            row["objective_rel_diff"] = (row["change"]["objective"] - parent_obj) / abs(parent_obj)
            rows.append(row)
            print(f"{nodes} nodes {case}: {row['parent']['median_ms']:.1f} ms, "
                  f"{row['parent']['steps']} steps -> {row['change']['median_ms']:.1f} ms, "
                  f"{row['change']['steps']} steps; objective {row['objective_rel_diff']:+.1e} rel")
    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["smooth_kernels"] = {
        "description": (
            f"tools/smooth_kernels.py: {REPEATS} alternating turns per side of one timed "
            f"reconcile_general call per case and size, tol {TOL}, path box {list(BOX)}, "
            f"seed {SEED}, one thread, each in a fresh process; steps = solver iterations"),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
