"""Time the two edge edits and the operator build of two checkouts on layered
networks of growing size.

Usage, from anywhere:

    python3 tools/edit_scaling.py PARENT_DIR CHANGE_DIR [--out FILE]

For each size P in ``PATHS``, ``layered_network`` from this checkout's
``perfbench/workloads.py`` builds a network with P paths, P/4 nodes and
2170/1200 edges per path (the proportions of ``update-rounds``), from seed
5000 + P.  ``SLOTS`` edges are picked whose removal affects exactly
``AFFECTED`` paths and leaves each of them a route; for each, the network
left by the removal gets a shortcut edge over ``SHORTCUT`` of its paths, as
in ``update-rounds``.  One round times ``remove_edge`` on the base network,
then ``add_edge_update`` on the network that removal returned, for every
slot in turn; a process runs ``ROUNDS`` rounds and reports each edit's
median.  So the affected work is the same at every size and what grows is
everything else.  After the edits, the process times ``ROUNDS * SLOTS``
rebuilds of the base network's operator (the cached ``aggregation`` is
dropped and read again) and reports their median as ``build_us``: the
build a fresh network pays, next to the edits that build their own.  Then
it times as many first uses, each the rebuild plus one ``restrict`` (S^T u),
and reports their median as ``first_use_us``: the build and the first S^T
product, including whatever that product sets up for the operator.
The checkouts take ``REPEATS`` turns each under the protocol of
``tools/pairs.py``.  Reported per size and side: every turn's medians and
the median over turns, in microseconds.  With ``--out``, the table is
stored under ``"edit_scaling"`` in FILE.
"""

from __future__ import annotations

import os
import statistics
import sys

import pairs

PATHS = (300, 1200, 4800)
SLOTS = 7
AFFECTED = 3
SHORTCUT = 3
ROUNDS = 40
REPEATS = 3
EDITS = ("remove_us", "add_us", "build_us", "first_use_us")


def shortcut(net, rng):
    """A new edge (u, w) skipping one hop of some path of ``net``, and
    ``SHORTCUT`` distinct paths rerouted over it, or None."""
    for j in rng.permutation(net.index_map.n_paths).tolist():
        seq = net.path_nodes[j]
        skips = [(u, w) for u, w in zip(seq, seq[2:])
                 if (net.nodes[u], net.nodes[w]) not in net.edge_index]
        if not skips:
            continue
        u, w = skips[int(rng.integers(len(skips)))]
        routes = []
        for path, nodes in zip(net.paths, net.path_nodes):
            if u in nodes and w in nodes and nodes.index(u) < nodes.index(w):
                route = path[: nodes.index(u)] + (len(net.edges),) + path[nodes.index(w):]
                if route not in routes:
                    routes.append(route)
        if len(routes) >= SHORTCUT:
            return (net.nodes[u], net.nodes[w]), routes[:SHORTCUT]
    return None


def measure(paths: int) -> dict:
    """Run inside a child whose ``PYTHONPATH`` is one checkout's ``src``."""
    import time

    import numpy as np

    import flowrec as fr

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                                    "perfbench"))
    from workloads import layered_network

    rng = np.random.default_rng(5000 + paths)
    nodes, edges, path_list = layered_network(rng, paths // 4, round(paths * 2170 / 1200), paths)
    net = fr.Network(nodes, edges, path_list)
    y = net.aggregation.aggregate(rng.uniform(5.0, 15.0, paths))
    slots = []
    for e in rng.permutation(len(edges)).tolist():
        if len(slots) == SLOTS:
            break
        if len(net.paths_through("edge", e)) != AFFECTED:
            continue
        try:
            _, net1, _ = fr.remove_edge(net, y, e)
        except fr.Disconnected:
            continue
        added = shortcut(net1, rng)
        if added is not None:
            slots.append((e, *added))
    if len(slots) != SLOTS:
        raise RuntimeError(f"found {len(slots)} of {SLOTS} slots at {paths} paths")

    remove_s, add_s = [], []
    for _ in range(ROUNDS):
        for e, edge, routes in slots:
            t0 = time.perf_counter()
            _, net1, y1 = fr.remove_edge(net, y, e)
            t1 = time.perf_counter()
            fr.add_edge_update(net1, y1, edge, 10.0, routes)
            t2 = time.perf_counter()
            remove_s.append(t1 - t0)
            add_s.append(t2 - t1)
    build_s = []
    for _ in range(ROUNDS * SLOTS):
        vars(net).pop("aggregation")
        t0 = time.perf_counter()
        net.aggregation
        build_s.append(time.perf_counter() - t0)
    u = rng.uniform(5.0, 15.0, net.index_map.n)
    first_use_s = []
    for _ in range(ROUNDS * SLOTS):
        vars(net).pop("aggregation")
        t0 = time.perf_counter()
        net.aggregation.restrict(u)
        first_use_s.append(time.perf_counter() - t0)
    return {"paths": paths, "nodes": len(nodes), "edges": len(edges),
            "nnz": int(net.aggregation.matrix.nnz),
            "remove_us": 1e6 * statistics.median(remove_s),
            "add_us": 1e6 * statistics.median(add_s),
            "build_us": 1e6 * statistics.median(build_s),
            "first_use_us": 1e6 * statistics.median(first_use_s)}


def main() -> int:
    if pairs.child(measure):
        return 0
    args = pairs.parser(__doc__).parse_args()
    roots = pairs.checkouts(args)
    rows = []
    for paths in PATHS:
        runs = pairs.turns(__file__, roots, REPEATS, paths)
        first = runs["parent"][0]
        row = {key: first[key] for key in ("paths", "nodes", "edges", "nnz")}
        row.update({side: pairs.medians(done, EDITS) for side, done in runs.items()})
        rows.append(row)
        print(f"{paths} paths: " + ", ".join(
            f"{key[:-3].replace('_', ' ')} {row['parent']['median_' + key]:.0f} -> "
            f"{row['change']['median_' + key]:.0f} us" for key in EDITS))
    if args.out:
        pairs.store(args.out, "edit_scaling", roots, (
            f"tools/edit_scaling.py: per layered network size, {REPEATS} alternating turns per "
            f"side, each a fresh process (one thread) timing {ROUNDS} rounds over {SLOTS} "
            f"slots: remove_edge of an edge with {AFFECTED} affected paths, then "
            f"add_edge_update of a shortcut with {SHORTCUT} new paths, then "
            f"{ROUNDS * SLOTS} rebuilds of the base network's operator, then as many "
            f"rebuilds each followed by one restrict (first_use_us); medians in us"), rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
