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
reports each one's median.  The checkouts take ``REPEATS`` turns each under
the protocol of ``tools/pairs.py``.  Reported per size and side: every
turn's medians and the median over turns, in microseconds.  With
``--out``, the table is stored under ``"operator_products"`` in FILE.
"""

from __future__ import annotations

import statistics
import sys

import pairs

NODES = (30, 100, 300, 1000)
HORIZONS = 24
CALLS = 200
REPEATS = 3
PRODUCTS = ("normal_us", "normal_c_us", "restrict_us", "normal_block_us")


def measure(nodes: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    agg = pairs.instance(nodes, 4000).agg
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


def main() -> int:
    if pairs.child(measure):
        return 0
    args = pairs.parser(__doc__).parse_args()
    roots = pairs.checkouts(args)
    rows = []
    for nodes in NODES:
        runs = pairs.turns(__file__, roots, REPEATS, nodes)
        first = runs["parent"][0]
        row = {"nodes": nodes, "paths": first["paths"], "nnz": first["nnz"], "horizons": HORIZONS}
        row.update({side: pairs.medians(done, PRODUCTS) for side, done in runs.items()})
        rows.append(row)
        print(f"{nodes} nodes: " + ", ".join(
            f"{key[:-3]} {row['parent']['median_' + key]:.1f} -> "
            f"{row['change']['median_' + key]:.1f} us" for key in PRODUCTS))
    if args.out:
        pairs.store(args.out, "operator_products", roots, (
            f"tools/operator_products.py: per size, {REPEATS} alternating turns per side, "
            f"each a fresh process (one thread) timing {CALLS} calls of each product after "
            f"one untimed call; normal_block_us is normal on {HORIZONS} columns; "
            "medians in us"), rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
