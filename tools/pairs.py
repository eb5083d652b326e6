"""The protocol that the checkout-pair timing tools share.

Each tool compares two flowrec checkouts, PARENT_DIR and CHANGE_DIR.  One
measurement runs in a fresh process, ``python3 TOOL --child ARG ...``, with
flowrec imported from one checkout's ``src``, ``PYTHONHASHSEED=0`` and every
BLAS pool pinned to one thread.  The two checkouts take turns, the parent
first in even turns and the change first in odd ones, so that a change in
the machine's speed meets both sides.  A tool's table is stored under one
key of a JSON file, created or updated in place, together with the revision
of each checkout.

Only the standard library is imported here; ``instance`` imports flowrec
inside a child.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child(measure) -> bool:
    """In a ``--child`` process, print ``measure``'s row for the child's
    arguments as one JSON line and return True; otherwise return False."""
    if sys.argv[1:2] != ["--child"]:
        return False
    print(json.dumps(measure(*map(json.loads, sys.argv[2:]))))
    return True


def run_child(script: str, root: str, *args) -> dict:
    """The row that ``script``'s ``measure(*args)`` returns in a fresh
    process on checkout ``root``.  The arguments travel as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.abspath(script), "--child", *map(json.dumps, args)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} on {root} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def alternate(repeats: int, run) -> dict[str, list]:
    """``run(side, k)`` for turns k = 0 .. repeats - 1, the parent first in
    even turns and the change first in odd ones; each side's results in
    turn order."""
    runs = {side: [] for side in SIDES}
    for k in range(repeats):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, k))
    return runs


def turns(script: str, roots: dict[str, str], repeats: int, *args) -> dict[str, list]:
    """``run_child(script, root, *args)`` on each side's root, alternating."""
    return alternate(repeats, lambda side, k: run_child(script, roots[side], *args))


def medians(done: list[dict], keys) -> dict:
    """Per key, every run's value and, as ``median_<key>``, their median."""
    table = {}
    for key in keys:
        table[key] = [run[key] for run in done]
        table["median_" + key] = statistics.median(table[key])
    return table


def parser(doc: str, out: str | None = None) -> argparse.ArgumentParser:
    """The two checkouts and ``--out``, described by ``doc``'s first paragraph."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout directory")
    ap.add_argument("change", help="change checkout directory")
    ap.add_argument("--out", default=out, help="JSON file to store the table in")
    return ap


def checkouts(args) -> dict[str, str]:
    """Each side's checkout directory, absolute."""
    return {side: os.path.abspath(getattr(args, side)) for side in SIDES}


def revision(root: str) -> str | None:
    """The checkout's commit, marked ``+dirty`` when its tree has changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def write(path: str, bench: dict) -> None:
    """Write ``bench`` as every BENCH file is written: indent 1, sorted keys."""
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


def store(path: str, key: str, roots: dict[str, str], description: str, rows: list) -> None:
    """Store ``rows`` under ``key`` in the JSON file ``path``, keeping its
    other keys, with the revision of each checkout in ``roots``."""
    bench = {}
    if os.path.exists(path):
        with open(path) as fh:
            bench = json.load(fh)
    bench[key] = {"description": description, "rows": rows,
                  "revisions": {side: revision(root) for side, root in roots.items()}}
    write(path, bench)


def instance(nodes: int, seed: int, density: float | None = None):
    """Instance 0 of ``GeneratorConfig(nodes, seed)`` at ``density``, by
    default at about 3 * nodes edges (``density_for_edge_target``)."""
    from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance

    if density is None:
        density = density_for_edge_target(GeneratorConfig(nodes=nodes, seed=seed), 3 * nodes)
    return generate_instance(GeneratorConfig(nodes=nodes, seed=seed, density=density), 0)
