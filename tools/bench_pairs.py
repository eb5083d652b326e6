"""Alternating parent/change pairs of perfbench runs, summarised in one BENCH file.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME \
        --first-seed N --pairs K --label LABEL [--workload NAME ...]

PARENT_DIR and CHANGE_DIR are two flowrec checkouts, each with its own
``perfbench/`` and ``BENCHMARK.json``.  For every workload, pair k runs
``python3 perfbench/run.py --workload NAME --seed N+k --seconds S --trace 0``
in both checkouts, the parent first in even pairs and the change first in
odd ones; S is ``run_seconds`` from the parent's ``BENCHMARK.json``.  The
script writes ``BENCH_<label>.json`` in the current directory with every
run, each side's quartiles per end-to-end metric, the pairs each side won,
the gain verdict and each metric's median change against its
``BENCHMARK.json`` bound:

* A gain holds when the change wins at least nine tenths of the pairs, ties
  counting for neither side, and its median beats the parent's by more than
  the parent's interquartile range.
* A metric is within its bound when the change's median is worse than the
  parent's by at most ``bound`` (relative).  It is unresolved when either
  side's interquartile range exceeds ``bound`` of its median, unless every
  run of the change beats every run of the parent.

The script reads ``perfbench/`` and ``BENCHMARK.json`` and writes neither;
``run.py`` itself keeps its records under ``.perfbench/`` in each checkout.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


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


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``; its result line and host."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited with {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record_path = os.path.join(root, ".perfbench", f"{workload}-s{seed}-t0.json")
    with open(record_path) as fh:
        record = json.load(fh)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "setup_samples_s": record.get("setup_samples_s"), "host": record["host"]}


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per-metric quartiles, pair wins, gain verdict and bound check for one workload."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_seed.items()) if len(p) == 2]
    out = {"pairs": len(pairs)}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[f"{side}_failed_share"] = failed / attempted if attempted else 0.0
        out[f"{side}_all_correct"] = all(p[side]["correct"] for p in pairs)
    out["failed_share_not_worse"] = out["change_failed_share"] <= out["parent_failed_share"]
    metrics = out["metrics"] = {}
    for metric in spec["end_to_end"] if pairs else ():
        name, lower = metric["name"], metric["better"] == "lower"
        vals = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        qs = {side: quartiles(vals[side]) for side in SIDES}

        def better(a: float, b: float) -> bool:
            return a < b if lower else a > b

        wins = {"change": sum(better(c, p) for p, c in zip(vals["parent"], vals["change"])),
                "parent": sum(better(p, c) for p, c in zip(vals["parent"], vals["change"]))}
        med_p, med_c = qs["parent"][1], qs["change"][1]
        parent_iqr = qs["parent"][2] - qs["parent"][0]
        worse_by = ((med_c - med_p) if lower else (med_p - med_c)) / abs(med_p) if med_p else 0.0
        spread = {side: (qs[side][2] - qs[side][0]) / abs(qs[side][1]) if qs[side][1] else 0.0
                  for side in SIDES}
        separated = (max(vals["change"]) < min(vals["parent"]) if lower
                     else min(vals["change"]) > max(vals["parent"]))
        unresolved = max(spread.values()) > metric["bound"] and not separated
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent_q1_median_q3": qs["parent"], "change_q1_median_q3": qs["change"],
            "median_change_rel": (med_c - med_p) / abs(med_p) if med_p else 0.0,
            "pair_wins": wins,
            "gain": wins["change"] >= 0.9 * len(pairs) and better(med_c, med_p)
            and abs(med_c - med_p) > parent_iqr,
            "iqr_rel": spread,
            "within_bound": worse_by <= metric["bound"],
            "unresolved": unresolved,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent checkout directory")
    ap.add_argument("change", help="change checkout directory")
    ap.add_argument("--workload", action="append", required=True,
                    help="perfbench workload; repeat for several")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2 to give quartiles, got {args.pairs}")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs, summary, host = [], {}, None
    for workload in args.workload:
        mine = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(roots[side], workload, seed, seconds)
                host = run.pop("host")
                run.update(side=side, first=order[0])
                mine.append(run)
                print(f"{workload} seed {seed} {side}: op_s_p50 {run['metrics']['op_s_p50']:.4f} s",
                      file=sys.stderr, flush=True)
        runs += mine
        summary[workload] = summarise(mine, spec)
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    revisions = {side: revision(roots[side]) for side in SIDES}
    bench = {
        "description": (
            f"perfbench/run.py --seconds {seconds} --trace 0, {args.pairs} alternating pairs per "
            f"workload (seeds {seeds}), parent {revisions['parent']} against change "
            f"{revisions['change']}, written by tools/bench_pairs.py"),
        "revisions": revisions,
        "host": host,
        "runs": runs,
        "summary": summary,
    }
    out = f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{workload} {name}: parent {m['parent_q1_median_q3'][1]:.4g} change "
                  f"{m['change_q1_median_q3'][1]:.4g} ({100 * m['median_change_rel']:+.1f} %), "
                  f"change won {m['pair_wins']['change']}/{s['pairs']}, gain {m['gain']}, "
                  f"within bound {m['within_bound']}, unresolved {m['unresolved']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
