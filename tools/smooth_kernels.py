"""Time the non-l2 solves of two checkouts across network sizes.

Usage, from anywhere:

    python3 tools/smooth_kernels.py PARENT_DIR CHANGE_DIR [--out FILE]
        [--cases C1,C2,...] [--nodes N1,N2,...] [--seed S] [--repeats K]
        [--key KEY]

For each size N in ``--nodes`` (default 30,100,300), the instance
``GeneratorConfig(nodes=N, seed=S)`` (default S = 555000) is built at
density 0.2 for 30 nodes and at about 3N edges
(``density_for_edge_target``) otherwise.  Each case runs
``reconcile_general`` on its base forecasts:

* ``boxed_l2``, ``boxed_huber``, ``boxed_quartic``: l2, Huber (delta 1)
  and the custom quartic f(u) = u^4 under the path box [6, 14];
* ``quartic``: the custom quartic without a box;
* ``huber``, ``huber_0.1``: Huber with delta 1 and 0.1;
* ``relaxed``: the relaxed loss at epsilon 0.01;
* ``l2_nonneg``: l2 under the path box b >= 0;
* ``l1``: the linear program.

The default cases are the first four.  Each solve runs in a fresh process
with flowrec imported from one checkout's ``src`` and every BLAS pool
pinned to one thread, which times one solve after an untimed solve of the
same case on the 30-node instance.  The two checkouts take ``--repeats``
turns each (default 5) per case, alternating which goes first, so that a
change in the machine's speed meets both sides.  Reported per side: every
time, their median and minimum, the solver steps (Newton steps, or simplex
iterations for l1), the conjugate-gradient iterations of every solve the
call made, the objective and the certificate against its target: the
gradient norm (under a box the projected-gradient norm) against
1e-8 (1 + objective), 1e-10 (1 + objective) for the relaxed loss, and the
duality gap against 1e-7 for l1.  A solve that raises is recorded with its
error in place of the numbers.  Per case the objectives' relative
difference is reported.  The table is stored under ``KEY`` (default
``"smooth_kernels"``) in FILE (default ``BENCH_smooth_newton.json``),
which is created or updated in place.
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
ALL_CASES = CASES + ("huber", "huber_0.1", "relaxed", "l2_nonneg", "l1")
SEED = 555000
BOX = (6.0, 14.0)
EPSILON = 0.01
# The dispatch's Newton tolerances (reconcile.NEWTON_TOL and RELAXED_TOL)
# and the LP's gap bound, restated here so that the reported target reads
# the same on a checkout without them.
TOL = 1e-8
RELAXED_TOL = 1e-10
GAP_TOL = 1e-7
REPEATS = 5


def instance(nodes: int, seed: int):
    from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance

    if nodes == 30:
        cfg = GeneratorConfig(nodes=nodes, density=0.2, seed=seed)
    else:
        base = GeneratorConfig(nodes=nodes, seed=seed)
        cfg = GeneratorConfig(nodes=nodes, seed=seed, density=density_for_edge_target(base, 3 * nodes))
    return generate_instance(cfg, 0)


def problem(agg, case: str):
    """The (loss, box) pair of ``case`` on the operator ``agg``."""
    import numpy as np

    from flowrec.reconcile import BoxConstraints, LossSpec

    quartic = LossSpec("custom", f=lambda u: u**4, f_prime=lambda u: 4.0 * u**3)
    loss = {"boxed_l2": LossSpec("l2"), "boxed_huber": LossSpec("huber", delta=1.0),
            "boxed_quartic": quartic, "quartic": quartic,
            "huber": LossSpec("huber", delta=1.0), "huber_0.1": LossSpec("huber", delta=0.1),
            "relaxed": LossSpec("relaxed", epsilon=EPSILON), "l2_nonneg": LossSpec("l2"),
            "l1": LossSpec("l1")}[case]
    box = None
    if case.startswith("boxed_"):
        lower, upper = np.full(agg.n, -np.inf), np.full(agg.n, np.inf)
        lower[agg.index_map.path_slice], upper[agg.index_map.path_slice] = BOX
        box = BoxConstraints(lower, upper)
    elif case == "l2_nonneg":
        box = BoxConstraints.nonnegative_paths(agg)
    return loss, box


def measure(nodes: int, case: str, seed: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import flowrec.numerics as numerics
    import flowrec.reconcile as reconcile
    from flowrec.errors import SolverError

    small = instance(30, seed)
    reconcile.reconcile_general(small.y_base, small.agg, *problem(small.agg, case))
    inst = instance(nodes, seed)
    agg = inst.agg
    loss, box = problem(agg, case)
    cg = [0]
    solve = numerics.solve_spd_with_info

    def counted(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        cg[0] += info.iterations
        return x, info

    # The l2 solves call the name bound in reconcile, the Newton systems the
    # one in numerics.
    numerics.solve_spd_with_info = reconcile.solve_spd_with_info = counted
    row = {"paths": agg.n_paths, "edges": len(inst.network.edges)}
    start = time.perf_counter()
    try:
        res = reconcile.reconcile_general(inst.y_base, agg, loss, box=box)
    except SolverError as exc:  # a failed solve is a result of the table
        return dict(row, error=f"{type(exc).__name__}: {exc}",
                    ms=1e3 * (time.perf_counter() - start), cg_iterations=cg[0])
    ms = 1e3 * (time.perf_counter() - start)
    if case == "l1":
        certificate, target = res.stats.duality_gap, GAP_TOL
    else:
        tol = RELAXED_TOL if case == "relaxed" else TOL
        certificate, target = res.stats.gradient_norm, tol * (1.0 + abs(res.loss_value))
    return dict(row, ms=ms, steps=res.stats.iterations, cg_iterations=cg[0],
                objective=res.loss_value, certificate=certificate, target=target)


def run_child(root: str, nodes: int, case: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(nodes), case, str(seed)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child for {root} at {nodes} nodes, {case}, failed:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(done: list[dict]) -> dict:
    """One side's runs of one case: times, and the numbers of its last run."""
    times = [run["ms"] for run in done]
    last = done[-1]
    side = {"ms": times, "median_ms": statistics.median(times), "min_ms": min(times),
            "cg_iterations": last["cg_iterations"]}
    errors = [run["error"] for run in done if "error" in run]
    if errors:
        return dict(side, error=errors[-1], failed=len(errors))
    return dict(side, steps=last["steps"], objective=last["objective"],
                certificate=last["certificate"], target=last["target"],
                certified=all(r["certificate"] <= r["target"] for r in done))


def main() -> int:
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        print(json.dumps(measure(int(sys.argv[2]), sys.argv[3], int(sys.argv[4]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout directory")
    ap.add_argument("change", help="change checkout directory")
    ap.add_argument("--out", default="BENCH_smooth_newton.json",
                    help="JSON file to store the table in")
    ap.add_argument("--cases", default=",".join(CASES),
                    help=f"comma-separated cases out of {','.join(ALL_CASES)}")
    ap.add_argument("--nodes", default=",".join(map(str, NODES)),
                    help="comma-separated network sizes")
    ap.add_argument("--seed", type=int, default=SEED, help="instance seed")
    ap.add_argument("--repeats", type=int, default=REPEATS, help="timed turns per side")
    ap.add_argument("--key", default="smooth_kernels", help="key of the table in FILE")
    args = ap.parse_args()
    cases = args.cases.split(",")
    unknown = sorted(set(cases) - set(ALL_CASES))
    if unknown:
        ap.error(f"unknown cases {unknown}; choose from {','.join(ALL_CASES)}")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    rows = []
    for nodes in map(int, args.nodes.split(",")):
        for case in cases:
            runs = {side: [] for side in roots}
            for k in range(args.repeats):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_child(roots[side], nodes, case, args.seed))
            first = runs["parent"][0]
            row = {"nodes": nodes, "case": case, "paths": first["paths"], "edges": first["edges"]}
            row.update({side: summarise(done) for side, done in runs.items()})
            parent, change = row["parent"], row["change"]
            if "objective" in parent and "objective" in change:
                row["objective_rel_diff"] = (
                    (change["objective"] - parent["objective"]) / abs(parent["objective"]))
            rows.append(row)
            print(f"{nodes} nodes {case}: " + " -> ".join(
                f"{side['median_ms']:.1f} ms, {side.get('steps', 'failed')} steps, "
                f"{side['cg_iterations']} CG" for side in (parent, change))
                + f"; objective {row.get('objective_rel_diff', float('nan')):+.1e} rel")
    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench[args.key] = {
        "description": (
            f"tools/smooth_kernels.py: {args.repeats} alternating turns per side of one timed "
            f"reconcile_general call per case and size, seed {args.seed}, Newton tol {TOL} "
            f"(relaxed {RELAXED_TOL}), path box {list(BOX)}, one thread, each in a fresh "
            f"process; steps = solver iterations, cg_iterations = CG iterations of every "
            f"solve in the call"),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
