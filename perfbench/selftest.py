"""Shows that every output check rejects a corrupted output.

Run from the root of a flowrec checkout:

    python3 perfbench/selftest.py

Each workload runs a few real operations; each case then corrupts one
output (a component nudged, two horizons swapped, a row dropped, a metric
scaled, a verdict changed) and expects the check to reject it, while the
untouched output passes.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from workloads import ReconcileL2H24, SweepNonsmooth, UpdateRounds  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, run, rejected: bool = True) -> None:
    """run() performs the check; ``rejected`` says whether CheckFailed is expected."""
    try:
        outcome = run()
        ok = not rejected
        detail = f"accepted ({outcome!r})"
    except ref.CheckFailed as exc:
        ok = rejected
        detail = f"rejected: {exc}"
    report(name, ok, detail)


def report(name: str, ok: bool, detail: str) -> None:
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.__stdout__, flush=True)


def edit_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def case_h24(workdir: str) -> None:
    w = ReconcileL2H24(3, workdir)
    w.setup()
    code = w.op(0)[2]
    clean = open(w.out).read()

    def corrupted(edit):
        def run():
            with open(w.out, "w") as fh:
                fh.write(clean)
            edit_csv(w.out, edit)
            return w.check(0, code)
        return run

    def nudge(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1e-3)
        return rows

    def swap(rows):
        for r in rows[1:]:
            r[2], r[3] = r[3], r[2]
        return rows

    expect("h24 clean output", corrupted(lambda rows: rows), rejected=False)
    expect("h24 one component nudged", corrupted(nudge))
    expect("h24 two horizons swapped", corrupted(swap))
    expect("h24 one path row dropped", corrupted(lambda rows: rows[:-1]))
    expect("h24 nonzero exit code", lambda: w.check(0, 2))


def case_sweep(workdir: str) -> None:
    w = SweepNonsmooth(5, workdir)
    w.setup()
    code = w.op(0)[2]
    clean = {name: open(os.path.join(w.out, name)).read() for name in ("per_instance.csv", "summary.csv")}

    def corrupted(edit, name="per_instance.csv"):
        def run():
            for fname, text in clean.items():
                with open(os.path.join(w.out, fname), "w") as fh:
                    fh.write(text)
            edit_csv(os.path.join(w.out, name), edit)
            return w.check(0, code)
        return run

    def scale(method: str, prefix: str, factor: float, column: str | None = None):
        def edit(rows):
            header = rows[0]
            for r in rows[1:]:
                if r[header.index("method")] == method:
                    for c, h in enumerate(header):
                        if (column and h == column) or (not column and h.startswith(prefix)):
                            r[c] = repr(float(r[c]) * factor)
            return rows
        return edit

    def set_column(method: str, column: str, value: str):
        def edit(rows):
            header = rows[0]
            for r in rows[1:]:
                if r[header.index("method")] == method:
                    r[header.index(column)] = value
            return rows
        return edit

    expect("sweep clean output", corrupted(lambda rows: rows), rejected=False)
    expect("sweep relaxed rmse_paths off by 1e-4", corrupted(scale("relaxed:0.01", "", 1.0001, "rmse_paths")))
    expect("sweep relaxed metrics scaled by 1.001", corrupted(scale("relaxed:0.01", "mae_", 1.001)))
    expect("sweep l1 marked incoherent", corrupted(set_column("l1", "coherent", "false")))
    expect("sweep l1 MAE below every optimum", corrupted(scale("l1", "mae_", 0.1)))
    expect("sweep l1 MAE above every optimum", corrupted(scale("l1", "mae_", 10.0)))
    expect("sweep huber MAE far off", corrupted(scale("huber:1.0", "mae_", 100.0)))
    expect("sweep instance row dropped", corrupted(lambda rows: rows[:-1]))
    expect("sweep summary mean wrong",
           corrupted(scale("relaxed:0.01", "", 1.01, "rmse_overall_mean"), "summary.csv"))


def case_update(workdir: str) -> None:
    w = UpdateRounds(4, workdir)
    w.setup()
    slot_index = next(k for k, s in enumerate(w.slots)
                      if (w.base.data[-len(w.paths):][[j for j, p in enumerate(w.paths) if s.edge in p]] > 0).all())
    out = w.op(slot_index)[2]
    plan, net1, y1, added, y_hat2, refreshed, batch, verdicts = out
    vp1, ep1 = ref.incidence(list(net1.nodes), list(net1.edges), list(net1.paths))

    def with_(**changes):
        fields = dict(zip(("plan", "net1", "y1", "added", "y_hat2", "refreshed", "batch", "verdicts"), out))
        fields.update(changes)
        return lambda: w.check(slot_index, tuple(fields.values()))

    def vector(v):
        return type(y1)(np.asarray(v, dtype=float))

    nudged = y1.data.copy()
    nudged[0] += 1e-3
    moved = y1.data[-len(net1.paths):].copy()
    moved[0] += 1.0
    s1 = ref.summing_matrix(vp1, ep1)
    one_ulp = added.y_tilde.data.copy()
    first_path = len(added.network.nodes) + len(added.network.edges)
    one_ulp[first_path] = np.nextafter(one_ulp[first_path], np.inf)

    expect("update clean round (returns True: ledger fault)", with_(), rejected=False)
    expect("update removal output nudged", with_(y1=vector(nudged)))
    expect("update rerouted mass lost", with_(y1=vector(s1 @ moved)))
    expect("update squared change above bound (same sign)",
           with_(plan=dataclasses.replace(plan, squared_change=2.0 * plan.bound + 1.0)))
    expect("update old path value moved by one ulp",
           with_(added=dataclasses.replace(added, y_tilde=vector(one_ulp))))
    expect("update refresh not optimal (kept local update)", with_(refreshed=added.y_tilde.data))
    expect("update refresh incoherent", with_(refreshed=y_hat2))
    verdict = type(verdicts[0])
    rerun = [verdict("needs-rereconcile")] * len(verdicts)
    fault = w.check(slot_index, out)
    report("update ledger keeps a beaten vector", fault is True, f"fault counted = {fault}")
    clean = w.check(slot_index, (*out[:-1], rerun))
    report("update ledger asks for every re-solve", clean is False, f"fault counted = {clean}")


def case_declaration() -> None:
    """BENCHMARK.json names exactly the metrics run.py prints."""
    import json

    import run

    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    report("BENCHMARK.json per-layer metrics match run.py", declared == run.PER_LAYER,
           f"{len(declared)} declared, {len(run.PER_LAYER)} printed")
    names = sorted(m["name"] for m in doc["end_to_end"])
    expected = sorted(["setup_s", "op_s_p50", "op_s_p90", "ops_per_s", "cpu_s_per_op", "peak_rss_mb"])
    report("BENCHMARK.json end-to-end metrics match worker.py", names == expected, ", ".join(names))
    report("BENCHMARK.json workloads match workloads.py",
           sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS), "")


def main() -> int:
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "flowrec", "__init__.py")):
        print("run from the root of a flowrec checkout", file=sys.stderr)
        return 2
    base = os.path.join(os.getcwd(), ".perfbench", "selftest")
    sys.stdout = open(os.devnull, "w")  # flowrec's cli prints; results go to sys.__stdout__
    try:
        case_declaration()
        for name, case in (("h24", case_h24), ("sweep", case_sweep), ("update", case_update)):
            os.makedirs(os.path.join(base, name), exist_ok=True)
            case(os.path.join(base, name))
    finally:
        sys.stdout = sys.__stdout__
        shutil.rmtree(base, ignore_errors=True)
    bad = [n for n, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
