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
through that checkout's own products with S), and times one solve after an
untimed one.  The checkouts take ``REPEATS`` turns each under the protocol
of ``tools/pairs.py``.  Reported per side: the tolerance, every time, their
median and the operator steps, the largest per-column iteration count (one
column's CG iterations in a lockstep solve, the block's step count in a
block solve).  With ``--out``, the table is stored under ``"scaling"`` in
FILE.
"""

from __future__ import annotations

import sys

import pairs

NODES = (100, 300, 1000, 3000)
HORIZONS = 24
REPEATS = 5


def measure(nodes: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    from flowrec.reconcile import L2_TOL, LossSpec, _l2_solve

    inst = pairs.instance(nodes, 4000)
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


def main() -> int:
    if pairs.child(measure):
        return 0
    args = pairs.parser(__doc__).parse_args()
    roots = pairs.checkouts(args)
    rows = []
    for nodes in NODES:
        runs = pairs.turns(__file__, roots, REPEATS, nodes)
        first = runs["parent"][0]
        row = {"nodes": nodes, "paths": first["paths"], "edges": first["edges"],
               "horizons": HORIZONS}
        for side, done in runs.items():
            row[side] = dict(pairs.medians(done, ["ms"]), steps=done[0]["steps"],
                             tol=done[0]["tol"])
        rows.append(row)
        print(f"{nodes} nodes: {row['parent']['median_ms']:.1f} ms, {row['parent']['steps']} steps"
              f" -> {row['change']['median_ms']:.1f} ms, {row['change']['steps']} steps")
    if args.out:
        pairs.store(args.out, "scaling", roots, (
            f"tools/cg_scaling.py: {REPEATS} alternating turns per side of one timed "
            f"_l2_solve call (S^T Y and one block CG) on an (n, {HORIZONS}) panel per "
            "size, at each side's flowrec.reconcile.L2_TOL (its \"tol\"), one "
            "thread, each in a fresh process; steps = largest per-column iteration count"),
            rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
