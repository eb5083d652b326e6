"""Time the operator's products in two checkouts across network sizes.

Usage, from anywhere:

    python3 tools/operator_products.py PARENT_DIR CHANGE_DIR [--out FILE]

For each size N in ``NODES``, an instance
``GeneratorConfig(nodes=N, seed=4000)`` with about 3N edges
(``density_for_edge_target``) gives the operator S.  A process takes every
product once untimed, so that whatever the operator sets up on first use is
in place, then times ``CALLS`` calls of each of ``normal(v)`` (S^T S v),
``normal(v, c)`` (S^T diag(c) S v), ``restrict(u)`` (S^T u) and ``normal``
on a (n_paths, ``HORIZONS``) block, one product of each kind in turn, and
reports each one's median.  Each checkout runs in a fresh process with
flowrec imported from its ``src`` and every BLAS pool pinned to one thread;
the two checkouts take ``REPEATS`` turns each, alternating which goes
first, so that a change in the machine's speed meets both sides.  Reported
per size and side: every turn's medians and the median over turns, in
microseconds.  With ``--out``, the table is stored under
``"operator_products"`` in FILE, which is created or updated in place.
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
NODES = (30, 100, 300, 1000)
HORIZONS = 24
CALLS = 200
REPEATS = 3
PRODUCTS = ("normal_us", "normal_c_us", "restrict_us", "normal_block_us")


def measure(nodes: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance

    base = GeneratorConfig(nodes=nodes, seed=4000)
    cfg = GeneratorConfig(nodes=nodes, seed=4000, density=density_for_edge_target(base, 3 * nodes))
    agg = generate_instance(cfg, 0).agg
    rng = np.random.default_rng(4000 + nodes)
    v, u = rng.normal(size=agg.n_paths), rng.normal(size=agg.n)
    c, block = rng.uniform(0.5, 2.0, agg.n), rng.normal(size=(agg.n_paths, HORIZONS))
    calls = dict(zip(PRODUCTS, (lambda: agg.normal(v), lambda: agg.normal(v, c),
                                lambda: agg.restrict(u), lambda: agg.normal(block))))
    times = {key: [] for key in PRODUCTS}
    for call in calls.values():
        call()
    for _ in range(CALLS):
        for key, call in calls.items():
            t0 = time.perf_counter()
            call()
            times[key].append(time.perf_counter() - t0)
    row = {"paths": agg.n_paths, "nnz": int(agg.node_edge.nnz)}
    row.update({key: 1e6 * statistics.median(t) for key, t in times.items()})
    return row


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
               "nnz": runs["parent"][0]["nnz"], "horizons": HORIZONS}
        for side, done in runs.items():
            row[side] = {}
            for key in PRODUCTS:
                values = [run[key] for run in done]
                row[side][key] = values
                row[side]["median_" + key] = statistics.median(values)
        rows.append(row)
        print(f"{nodes} nodes: " + ", ".join(
            f"{key[:-3]} {row['parent']['median_' + key]:.1f} -> "
            f"{row['change']['median_' + key]:.1f} us" for key in PRODUCTS))
    if args.out:
        bench = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                bench = json.load(fh)
        bench["operator_products"] = {
            "description": (
                f"tools/operator_products.py: per size, {REPEATS} alternating turns per side, "
                f"each a fresh process (one thread) timing {CALLS} calls of each product after "
                f"one untimed call; normal_block_us is normal on {HORIZONS} columns; "
                "medians in us"),
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
