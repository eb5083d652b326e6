"""Acceptance suite: nine end-to-end guarantees, one test per criterion.

Each test prints a single ``CRITERION <k> PASS`` line (visible under
``pytest -s``/``-v``) after its assertions succeed.  Random corpora are
seeded, so every run checks the same instances.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from flowrec import (
    FlowAggregationMatrix,
    GeneratorConfig,
    LossSpec,
    Network,
    UpdateLedger,
    UpdateVerdict,
    add_edge_update,
    check_coherence,
    check_data_update,
    coherence_constraints,
    density_for_edge_target,
    fileio,
    generate_instance,
    reconcile_bottom_up,
    reconcile_general,
    reconcile_l1,
    reconcile_l2,
    reconcile_relaxed,
    reconcile_weighted,
    remove_edge,
    run_benchmark,
)
from flowrec.cli import main
from flowrec.errors import Disconnected

from conftest import DISTRIBUTION_FLOWS, coherent_distribution_vector


def _tol(vec):
    return 1e-8 * (1.0 + float(np.max(np.abs(vec))))


# ---------------------------------------------------------------------------
# Shared corpus: 200 seeded instances solved by all five reconcilers.
# Criterion 1 checks coherence and conservation; criterion 3 reuses the
# same results for the optimality certificates.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    densities = (0.0, 0.25, 0.5, 0.75, 1.0)
    huber = LossSpec("huber", delta=1.0)
    entries = []
    start = time.monotonic()
    for k in range(200):
        cfg = GeneratorConfig(
            nodes=8 + (k % 13), instances=1, seed=1000 + k, density=densities[k % 5]
        )
        inst = generate_instance(cfg, 0)
        entries.append(
            {
                "inst": inst,
                "l2": reconcile_l2(inst.y_base, inst.agg),
                "l1": reconcile_l1(inst.y_base, inst.agg),
                "huber": reconcile_general(inst.y_base, inst.agg, huber),
                "bu": reconcile_bottom_up(inst.y_base, inst.agg),
                "relaxed": reconcile_relaxed(inst.y_base, inst.agg, 1e-12),
            }
        )
    elapsed = time.monotonic() - start
    return entries, elapsed


def test_criterion_1_flow_conservation(corpus):
    entries, elapsed = corpus
    for entry in entries:
        inst = entry["inst"]
        net, agg = inst.network, inst.agg
        outputs = {
            "l2": entry["l2"].y_tilde.data,
            "l1": entry["l1"].y_tilde.data,
            "huber": entry["huber"].y_tilde.data,
            "bu": entry["bu"].data,
            "relaxed": entry["relaxed"].y_tilde.data,
        }
        for name, out in outputs.items():
            tol = _tol(out)
            coh = check_coherence(out, agg)
            assert coh.max_node_residual <= tol, (name, coh.max_node_residual)
            assert coh.max_edge_residual <= tol, (name, coh.max_edge_residual)
            balance = np.abs(node_imbalance_by_role(out, net, "intermediate"))
            assert balance.max(initial=0.0) <= tol, (name, balance.max())
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(
        f"CRITERION 1 PASS — 200 instances x 5 methods conserve flow "
        f"(node, edge and intermediate-balance residuals <= 1e-8 scale) "
        f"in {elapsed:.1f}s"
    )


def node_imbalance_by_role(values, net, role):
    from flowrec import node_imbalance

    balance = node_imbalance(values, net)
    mask = np.array([net.roles.get(v) == role for v in net.nodes])
    return balance[mask] if mask.any() else np.zeros(0)


def test_criterion_2_method_equivalence():
    worst = 0.0
    for k in range(100):
        cfg = GeneratorConfig(
            nodes=8 + (k % 43), instances=1, seed=3000 + k, density=(0.0, 0.5, 1.0)[k % 3]
        )
        inst = generate_instance(cfg, 0)
        via_cg = reconcile_l2(inst.y_base, inst.agg).y_tilde.data
        a, c = coherence_constraints(inst.agg)
        via_kkt = reconcile_weighted(inst.y_base.data, a, c, np.eye(inst.agg.n))
        scale = 1.0 + float(np.max(np.abs(via_kkt)))
        worst = max(worst, float(np.max(np.abs(via_cg - via_kkt))) / scale)
        assert worst <= 1e-8, worst

    hand = reconcile_weighted(
        np.array([3.0, 5.0]), np.array([[1.0, 1.0]]), np.array([10.0]), np.diag([1.0, 4.0])
    )
    assert hand == pytest.approx([4.6, 5.4], abs=1e-12)
    print(
        f"CRITERION 2 PASS — iterative and closed-form projections agree to "
        f"{worst:.2e} relative on 100 instances (n <= 50); weighted hand "
        f"example reproduced to 1e-12"
    )


def test_criterion_3_optimality_certificates(corpus):
    entries, _ = corpus
    for entry in entries:
        inst = entry["inst"]
        yhat = inst.y_base.data
        # Orthogonality: the l2 residual must be normal to the coherent subspace.
        res2 = entry["l2"]
        r = yhat - res2.y_tilde.data
        normal = float(np.max(np.abs(inst.agg.matrix.T @ r)))
        assert normal <= 1e-6 * (1.0 + float(np.linalg.norm(yhat)))
        # Linear-programming certificate for the l1 route.
        assert entry["l1"].stats.duality_gap <= 1e-7
        # First-order certificate for the smooth general route.
        res_h = entry["huber"]
        assert res_h.stats.gradient_norm <= 1e-8 * (1.0 + res_h.loss_value)
    print(
        "CRITERION 3 PASS — every instance certifies optimality "
        "(l2 orthogonality, l1 duality gap <= 1e-7, smooth gradient "
        "norm <= 1e-8*(1+loss))"
    )


# ---------------------------------------------------------------------------
# Criterion 4: dynamic updates.
# ---------------------------------------------------------------------------


def _star(k):
    """k parallel two-hop routes s -> m_i -> x, one path per route."""
    nodes = ["s"] + [f"m{i}" for i in range(k)] + ["x", "t"]
    edges = [("s", f"m{i}") for i in range(k)] + [(f"m{i}", "x") for i in range(k)]
    paths = [(i, k + i) for i in range(k)]
    return Network(nodes, edges, paths)


def _add_edge_oracle(init, forecast):
    """Dense KKT solve of min sum (b - init)^2 s.t. sum b = forecast."""
    k = init.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * np.eye(k)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * init, [forecast]])
    return np.linalg.solve(kkt, rhs)[:k]


def test_criterion_4_dynamic_updates():
    rng = np.random.default_rng(77)

    # (a) Edge addition equals the restricted projection oracle.
    for k in (1, 2, 3, 5, 8, 13):
        net = _star(k)
        agg = FlowAggregationMatrix.from_network(net)
        y = agg.aggregate(rng.uniform(1.0, 5.0, size=k))
        init = rng.normal(0.0, 2.0, size=k)
        forecast = float(rng.uniform(3.0, 30.0))
        new_paths = [(i, k + i, 2 * k) for i in range(k)]
        res = add_edge_update(net, y, ("x", "t"), forecast, new_paths, initial_values=init)
        oracle = _add_edge_oracle(init, forecast)
        assert res.y_tilde.data[-k:] == pytest.approx(oracle, abs=1e-8)

    # (b) 500 benign single-component updates are never beaten by more
    # than 1e-9 in loss by a fresh reconciliation.
    trials = 0
    worst_gap = -np.inf
    seed = 0
    while trials < 500:
        cfg = GeneratorConfig(nodes=8 + (seed % 13), instances=1, seed=5000 + seed)
        seed += 1
        inst = generate_instance(cfg, 0)
        base = inst.y_base.data
        rec = reconcile_l2(base, inst.agg).y_tilde.data
        ledger = UpdateLedger(rec, base.copy(), index_map=inst.network.index_map)
        candidates = np.flatnonzero(np.abs(rec - base) > 1e-6)
        rng.shuffle(candidates)
        for x in candidates[:10]:
            gap_dir = np.sign(rec[x] - base[x])
            delta = min(1e-5, 0.45 * abs(rec[x] - base[x]))
            new_value = float(base[x] + gap_dir * delta)
            verdict = check_data_update(ledger, int(x), new_value)
            assert verdict is UpdateVerdict.STILL_OPTIMAL
            base_new = base.copy()
            base_new[x] = new_value
            retained = float(np.sum((rec - base_new) ** 2))
            fresh = reconcile_l2(base_new, inst.agg).loss_value
            gap = retained - fresh
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-9, gap
            trials += 1
            if trials == 500:
                break

    # (c) Removal never redistributes more squared mass than its bound.
    removed = 0
    for k in range(60):
        cfg = GeneratorConfig(nodes=8 + (k % 13), instances=1, seed=7000 + k)
        inst = generate_instance(cfg, 0)
        edge = int(rng.integers(len(inst.network.edges)))
        try:
            plan, _, _ = remove_edge(inst.network, inst.y_true, edge)
        except Disconnected:
            continue
        assert plan.squared_change <= plan.bound + 1e-9
        removed += 1
    assert removed >= 10, removed

    # (d) Edge-addition cost grows linearly with the affected path count.
    # Each round times every size once, so a stretch in which the machine
    # runs slower lands on all sizes alike; the lower quartile over the
    # rounds then takes each size in the same state, where a per-size
    # minimum can pick one size's rare fast call against the others' slow.
    sizes = (10, 50, 100, 200, 500, 1000)
    cases = []
    for k in sizes:
        net = _star(k)
        y = FlowAggregationMatrix.from_network(net).aggregate(np.full(k, 2.0))
        cases.append((net, y, 3.0 * k, [(i, k + i, 2 * k) for i in range(k)]))
    rounds = np.empty((11, len(sizes)))
    for r in range(len(rounds)):
        for j, (net, y, forecast, new_paths) in enumerate(cases):
            t0 = time.monotonic()
            add_edge_update(net, y, ("x", "t"), forecast, new_paths)
            rounds[r, j] = time.monotonic() - t0
    t = np.quantile(rounds, 0.25, axis=0)
    x = np.asarray(sizes, dtype=float)
    pred = np.polyval(np.polyfit(x, t, 1), x)
    r2 = 1.0 - np.sum((t - pred) ** 2) / np.sum((t - t.mean()) ** 2)
    assert r2 >= 0.9, (r2, t)

    print(
        f"CRITERION 4 PASS — additions match the projection oracle to 1e-8; "
        f"500 benign updates beaten by at most {worst_gap:.2e} (<= 1e-9); "
        f"{removed} removals respect the redistribution bound; timing fit "
        f"R^2 = {r2:.3f}"
    )


def test_criterion_5_relaxation_guarantees():
    eps_grid = (1e-3, 1e-2, 1e-1)
    for k in range(100):
        cfg = GeneratorConfig(nodes=8 + (k % 9), instances=1, seed=9000 + k)
        inst = generate_instance(cfg, 0)
        exact = reconcile_l2(inst.y_base, inst.agg).y_tilde.data
        exact_norm = float(np.linalg.norm(exact))
        m = len(inst.network.edges)
        objectives = []
        for eps in eps_grid:
            res = reconcile_relaxed(inst.y_base, inst.agg, eps)
            assert res.stats.max_violation <= eps + 1e-10
            deviation = float(np.linalg.norm(res.y_tilde.data - exact))
            assert deviation <= np.sqrt(eps * m) * exact_norm + 1e-8
            objectives.append(res.loss_value)
        for lo, hi in zip(objectives[1:], objectives[:-1]):
            assert lo <= hi + 1e-9 * (1.0 + abs(hi))
        tiny = reconcile_relaxed(inst.y_base, inst.agg, 1e-12)
        assert float(np.max(np.abs(tiny.y_tilde.data - exact))) <= 1e-6
    print(
        "CRITERION 5 PASS — 100 instances x eps in {1e-3,1e-2,1e-1}: "
        "violations <= eps, deviation <= sqrt(eps*|E|)*||exact||, objective "
        "monotone in eps, eps=1e-12 matches exact to 1e-6"
    )


def test_criterion_6_accuracy_ordering(tmp_path):
    cfg = GeneratorConfig(nodes=50, instances=100)
    report = run_benchmark(cfg, ("base", "bu", "l2"), str(tmp_path / "bench"))
    by_method = {e["method"]: e for e in report.summary}
    l2, base, bu = by_method["l2"], by_method["base"], by_method["bu"]
    assert l2["rmse_overall_mean"] < base["rmse_overall_mean"]
    assert l2["rmse_overall_mean"] < bu["rmse_overall_mean"]
    assert l2["mae_overall_mean"] < base["mae_overall_mean"]
    assert l2["mae_overall_mean"] < bu["mae_overall_mean"]
    ratio = base["rmse_overall_mean"] / l2["rmse_overall_mean"]
    print(
        f"CRITERION 6 PASS — default benchmark (50 nodes, 100 instances, "
        f"5% noise): RMSE l2 {l2['rmse_overall_mean']:.3f} < base "
        f"{base['rmse_overall_mean']:.3f} < bu {bu['rmse_overall_mean']:.3f}, "
        f"same MAE ordering; base/l2 accuracy ratio {ratio:.2f} "
        f"(soft report, not asserted)"
    )


def test_criterion_7_performance_shape():
    start = time.monotonic()

    # Sparse-path route vs dense normal-equation arm on sparse instances.
    cfg0 = GeneratorConfig(nodes=50, instances=1, seed=0)
    dens = density_for_edge_target(cfg0, 150)
    sparse_times, dense_times = [], []
    for k in range(15):
        cfg = GeneratorConfig(nodes=50, instances=1, seed=2000 + k, density=dens)
        inst = generate_instance(cfg, 0)
        assert len(inst.network.edges) <= 3 * 50
        best = np.inf
        for _ in range(3):
            t0 = time.monotonic()
            reconcile_l2(inst.y_base, inst.agg)
            best = min(best, time.monotonic() - t0)
        sparse_times.append(best)
        a, c = coherence_constraints(inst.agg)
        best = np.inf
        for _ in range(3):
            t0 = time.monotonic()
            reconcile_weighted(inst.y_base.data, a, c, np.eye(inst.agg.n))
            best = min(best, time.monotonic() - t0)
        dense_times.append(best)
    ratio = float(np.mean(sparse_times) / np.mean(dense_times))
    assert ratio <= 0.5, ratio

    # Log-log growth of the sparse route stays well under cubic.
    points = []
    for n in (25, 50, 100, 200):
        cfg0 = GeneratorConfig(nodes=n, instances=1, seed=0)
        d = density_for_edge_target(cfg0, 3 * n)
        means = []
        for k in range(5):
            cfg = GeneratorConfig(nodes=n, instances=1, seed=4000 + k, density=d)
            inst = generate_instance(cfg, 0)
            best = np.inf
            for _ in range(3):
                t0 = time.monotonic()
                reconcile_l2(inst.y_base, inst.agg)
                best = min(best, time.monotonic() - t0)
            means.append(best)
        points.append((n, float(np.mean(means))))
    slope = float(
        np.polyfit(np.log([p[0] for p in points]), np.log([p[1] for p in points]), 1)[0]
    )
    assert slope <= 2.5, points

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, elapsed
    print(
        f"CRITERION 7 PASS — sparse/dense mean-time ratio {ratio:.2f} "
        f"(<= 0.5) on m <= 3n instances; log-log slope {slope:.2f} (<= 2.5) "
        f"over n in 25..200; measured in {elapsed:.1f}s (< 600s)"
    )


def test_criterion_8_determinism(tmp_path):
    cfg = GeneratorConfig(nodes=20, instances=20, seed=11)
    run_benchmark(cfg, ("base", "bu", "l2"), str(tmp_path / "one"))
    run_benchmark(cfg, ("base", "bu", "l2"), str(tmp_path / "two"))
    for name in ("per_instance.csv", "summary.csv", "config.json"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, name
    assert (tmp_path / "one" / "timings.csv").exists()  # wall clock, not compared
    print(
        "CRITERION 8 PASS — two identical benchmark runs wrote byte-identical "
        "per_instance.csv, summary.csv and config.json"
    )


def test_criterion_9_end_to_end_store_network(tmp_path, distribution_net, capsys):
    net = distribution_net
    truth = coherent_distribution_vector(net)
    base = truth.copy()
    stores = {"S1": 150.0, "S2": 280.0, "S3": 170.0}  # true 280 / 400 / 250
    for name, bad in stores.items():
        base[net.node_index[name]] = bad

    net_path = tmp_path / "net.json"
    fc_path = tmp_path / "base.csv"
    out = str(tmp_path / "rec.csv")
    fileio.write_network(net, str(net_path))
    fileio.write_forecast(str(fc_path), base, net)
    rc = main(["reconcile", "--network", str(net_path), "--forecast", str(fc_path), "--out", out])
    assert rc == 0
    capsys.readouterr()

    got = fileio.read_forecast(out, net)[0].data
    agg = FlowAggregationMatrix.from_network(net)
    assert check_coherence(got, agg).coherent

    # The S1 aggregate must equal the sum of its two inbound routes, the
    # same relation the true flows satisfy (150 + 130 = 280 there).
    tol = _tol(got)
    imap = net.index_map
    edge_vals = got[imap.edge_slice]
    inflow_s1 = sum(
        edge_vals[e] for e, (_, head) in enumerate(net.edges) if head == "S1"
    )
    assert abs(got[net.node_index["S1"]] - inflow_s1) <= tol

    recovered = {name: got[net.node_index[name]] for name in ("S1", "S2", "S3")}
    diag = json.loads(Path(out + ".diagnostics.json").read_text())
    assert diag["horizons"][0]["coherent"] is True
    print(
        f"CRITERION 9 PASS — store network reconciled coherently end to end; "
        f"S1 node equals its inflow sum ({inflow_s1:.2f}); recovered store "
        f"totals (reported, not asserted): "
        + ", ".join(f"{k}={v:.1f}" for k, v in sorted(recovered.items()))
    )
