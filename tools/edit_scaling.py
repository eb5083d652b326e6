"""Time the two edge edits of two checkouts on layered networks of growing size.

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
everything else.  Each checkout runs in a fresh process with flowrec
imported from its ``src`` and every BLAS pool pinned to one thread; the
two checkouts take ``REPEATS`` turns each, alternating which goes first,
so that a change in the machine's speed meets both sides.  Reported per
size and side: every turn's medians and the median over turns, in
microseconds.  With ``--out``, the table is stored under
``"edit_scaling"`` in FILE, which is created or updated in place.
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
PATHS = (300, 1200, 4800)
SLOTS = 7
AFFECTED = 3
SHORTCUT = 3
ROUNDS = 40
REPEATS = 3


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
    return {"paths": paths, "nodes": len(nodes), "edges": len(edges),
            "nnz": int(net.aggregation.matrix.nnz),
            "remove_us": 1e6 * statistics.median(remove_s),
            "add_us": 1e6 * statistics.median(add_s)}


def run_child(root: str, paths: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.abspath(__file__), "--child", str(paths)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child for {root} at {paths} paths failed:\n{done.stderr[-2000:]}")
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
    for paths in PATHS:
        runs = {side: [] for side in roots}
        for k in range(REPEATS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run_child(roots[side], paths))
        first = runs["parent"][0]
        row = {key: first[key] for key in ("paths", "nodes", "edges", "nnz")}
        for side, done in runs.items():
            row[side] = {}
            for key in ("remove_us", "add_us"):
                values = [run[key] for run in done]
                row[side][key] = values
                row[side]["median_" + key] = statistics.median(values)
        rows.append(row)
        p, c = row["parent"], row["change"]
        print(f"{paths} paths: remove {p['median_remove_us']:.0f} -> "
              f"{c['median_remove_us']:.0f} us, add {p['median_add_us']:.0f} -> "
              f"{c['median_add_us']:.0f} us")
    if args.out:
        bench = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                bench = json.load(fh)
        bench["edit_scaling"] = {
            "description": (
                f"tools/edit_scaling.py: per layered network size, {REPEATS} alternating turns per "
                f"side, each a fresh process (one thread) timing {ROUNDS} rounds over {SLOTS} "
                f"slots: remove_edge of an edge with {AFFECTED} affected paths, then "
                f"add_edge_update of a shortcut with {SHORTCUT} new paths; medians in us"),
            "rows": rows,
        }
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
