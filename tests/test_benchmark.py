"""Tests for instance generation and the comparison harness."""

import json

import numpy as np
import pytest

from flowrec import (
    BadParameter,
    BoxConstraints,
    FlowAggregationMatrix,
    LossSpec,
    Network,
    GeneratorConfig,
    check_coherence,
    density_for_edge_target,
    generate_instance,
    method_callable,
    permitted_edge_count,
    reconcile_general,
    reconcile_l2,
    run_benchmark,
)
from flowrec.benchmark import (
    FLOW_HIGH,
    FLOW_LOW,
    SINK_FRAC,
    SOURCE_FRAC,
    _pair_ranks,
    _pairs_of_ranks,
)


def _listed_candidates_instance(cfg, index):
    """The generator as it was when it listed every candidate pair: edges,
    paths, truth, base forecast and sigma of instance ``index``, drawn from
    the same stream, for comparison with the arithmetic decoding."""
    rng = np.random.default_rng(cfg.seed + index)
    n_src = max(1, round(cfg.nodes * SOURCE_FRAC))
    n_snk = max(1, round(cfg.nodes * SINK_FRAC))
    n_mid = cfg.nodes - n_src - n_snk
    sources = [f"s{i}" for i in range(n_src)]
    mids = [f"m{i}" for i in range(n_mid)]
    sinks = [f"t{i}" for i in range(n_snk)]
    edges, edge_set = [], set()

    def add(t, h):
        if (t, h) not in edge_set:
            edge_set.add((t, h))
            edges.append((t, h))

    for i in range(n_mid - 1):
        add(mids[i], mids[i + 1])
    for s in sources:
        add(s, mids[int(rng.integers(n_mid))])
    for t in sinks:
        add(mids[int(rng.integers(n_mid))], t)
    if not any(e[0] == mids[-1] for e in edge_set if e[1] in sinks):
        add(mids[-1], sinks[int(rng.integers(n_snk))])
    candidates = [(s, m) for s in sources for m in mids if (s, m) not in edge_set]
    candidates += [
        (mids[i], mids[j])
        for i in range(n_mid)
        for j in range(i + 1, n_mid)
        if (mids[i], mids[j]) not in edge_set
    ]
    candidates += [(m, t) for m in mids for t in sinks if (m, t) not in edge_set]
    m_max = permitted_edge_count(cfg)
    u = cfg.density if cfg.density is not None else float(rng.uniform())
    m_target = int(round(cfg.nodes + u * (m_max - cfg.nodes)))
    extra = min(max(m_target - len(edges), 0), len(candidates))
    if extra:
        for k in rng.choice(len(candidates), size=extra, replace=False):
            add(*candidates[int(k)])

    out_edges = {v: [] for v in sources + mids + sinks}
    for i, (t, _) in enumerate(edges):
        out_edges[t].append(i)
    p_target = cfg.max_paths if cfg.max_paths is not None else 4 * cfg.nodes
    paths, seen = [], set()
    for _ in range(50 * p_target):
        if len(paths) >= p_target:
            break
        v, walk = sources[int(rng.integers(n_src))], []
        while len(walk) < cfg.max_hops:
            if not out_edges[v]:
                break
            e = out_edges[v][int(rng.integers(len(out_edges[v])))]
            walk.append(e)
            v = edges[e][1]
            if v in sinks:
                if tuple(walk) not in seen:
                    seen.add(tuple(walk))
                    paths.append(tuple(walk))
                break
    net = Network(sources + mids + sinks, edges, paths)
    flows = rng.uniform(FLOW_LOW, FLOW_HIGH, len(paths))
    y_true = FlowAggregationMatrix.from_network(net).aggregate(flows)
    sigma = cfg.sigma if cfg.sigma is not None else 0.05 * float(np.mean(np.abs(y_true)))
    noise = rng.normal(0.0, sigma, y_true.shape) if sigma > 0 else np.zeros_like(y_true)
    return edges, paths, y_true, y_true + noise, sigma


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(BadParameter):
            GeneratorConfig(nodes=2)
        with pytest.raises(BadParameter):
            GeneratorConfig(instances=0)
        with pytest.raises(BadParameter):
            GeneratorConfig(density=1.5)
        with pytest.raises(BadParameter):
            GeneratorConfig(sigma=-0.1)
        with pytest.raises(BadParameter):
            GeneratorConfig(max_hops=0)


class TestGenerateInstance:
    def test_deterministic_for_a_fixed_seed(self):
        cfg = GeneratorConfig(nodes=15, instances=1, seed=9)
        a = generate_instance(cfg, 0)
        b = generate_instance(cfg, 0)
        assert a.network.edges == b.network.edges
        assert a.network.paths == b.network.paths
        assert np.array_equal(a.y_true.data, b.y_true.data)
        assert np.array_equal(a.y_base.data, b.y_base.data)

    def test_different_indices_differ(self):
        cfg = GeneratorConfig(nodes=15, instances=2, seed=9)
        a = generate_instance(cfg, 0)
        b = generate_instance(cfg, 1)
        assert a.seed != b.seed
        assert (
            a.network.edges != b.network.edges
            or a.network.paths != b.network.paths
            or not np.array_equal(a.y_true.data, b.y_true.data)
        )

    def test_truth_is_coherent_on_every_instance(self):
        cfg = GeneratorConfig(nodes=12, instances=8, seed=3)
        for i in range(cfg.instances):
            inst = generate_instance(cfg, i)
            assert check_coherence(inst.y_true.data, inst.agg, tolerance=1e-9).coherent

    def test_zero_sigma_means_base_equals_truth(self):
        cfg = GeneratorConfig(nodes=12, instances=1, sigma=0.0, seed=4)
        inst = generate_instance(cfg, 0)
        assert np.array_equal(inst.y_base.data, inst.y_true.data)
        assert inst.sigma == 0.0

    def test_default_sigma_is_five_percent_of_mean_truth(self):
        cfg = GeneratorConfig(nodes=12, instances=1, seed=5)
        inst = generate_instance(cfg, 0)
        assert inst.sigma == pytest.approx(0.05 * float(np.mean(np.abs(inst.y_true.data))))

    def test_zero_density_stays_in_the_sparse_band(self):
        for seed in range(10):
            cfg = GeneratorConfig(nodes=20, instances=1, density=0.0, seed=seed)
            inst = generate_instance(cfg, 0)
            m = len(inst.network.edges)
            assert cfg.nodes - 1 <= m <= 2 * cfg.nodes

    def test_full_density_uses_every_permitted_pair(self):
        cfg = GeneratorConfig(nodes=15, instances=1, density=1.0, seed=6)
        inst = generate_instance(cfg, 0)
        assert len(inst.network.edges) == permitted_edge_count(cfg)

    def test_density_metric_matches_the_edge_count(self):
        cfg = GeneratorConfig(nodes=15, instances=1, density=0.5, seed=7)
        inst = generate_instance(cfg, 0)
        n = cfg.nodes
        m = len(inst.network.edges)
        assert inst.density == pytest.approx(2.0 * m / (n * (n - 1)))

    def test_edge_target_round_trip(self):
        cfg_base = GeneratorConfig(nodes=25, instances=1, seed=8)
        target = 3 * cfg_base.nodes
        u = density_for_edge_target(cfg_base, target)
        cfg = GeneratorConfig(nodes=25, instances=1, density=u, seed=8)
        inst = generate_instance(cfg, 0)
        assert abs(len(inst.network.edges) - target) <= 1

    def test_edge_target_clips_to_the_unit_interval(self):
        cfg = GeneratorConfig(nodes=25, instances=1)
        assert density_for_edge_target(cfg, permitted_edge_count(cfg) * 2) == 1.0
        assert density_for_edge_target(cfg, 0) == 0.0

    def test_paths_respect_the_hop_limit(self):
        cfg = GeneratorConfig(nodes=20, instances=1, max_hops=3, seed=10)
        inst = generate_instance(cfg, 0)
        assert inst.max_path_hops <= 3
        assert all(len(p) <= 3 for p in inst.network.paths)

    def test_path_cap_is_respected(self):
        cfg = GeneratorConfig(nodes=20, instances=1, max_paths=5, seed=11)
        inst = generate_instance(cfg, 0)
        assert 1 <= len(inst.network.paths) <= 5

    def test_decoded_candidates_match_the_listed_ones(self):
        # Decoding the k-th candidate by arithmetic must draw the same pairs
        # as indexing the full list did, so every seed gives the same instance.
        for nodes in (3, 4, 7, 12, 25, 60):
            for density in (0.0, 0.2, 1.0, None):
                cfg = GeneratorConfig(nodes=nodes, instances=1, density=density, seed=31 * nodes)
                edges, paths, y_true, y_base, sigma = _listed_candidates_instance(cfg, 2)
                inst = generate_instance(cfg, 2)
                assert list(inst.network.edges) == edges
                assert list(inst.network.paths) == paths
                assert np.array_equal(inst.y_true.data, y_true)
                assert np.array_equal(inst.y_base.data, y_base)
                assert inst.sigma == sigma

    def test_pair_ranks_round_trip_over_every_permitted_pair(self):
        # Rank k is the k-th pair of the listed order: source->mid, mid->mid
        # with i < j, mid->sink, node indices in sources, mids, sinks order.
        for n_src, n_mid, n_snk in ((1, 1, 1), (2, 5, 3), (4, 9, 1)):
            listed = [(s, n_src + m) for s in range(n_src) for m in range(n_mid)]
            listed += [(n_src + i, n_src + j) for i in range(n_mid) for j in range(i + 1, n_mid)]
            listed += [(n_src + m, n_src + n_mid + t) for m in range(n_mid) for t in range(n_snk)]
            ranks = np.arange(len(listed))
            assert list(_pairs_of_ranks(ranks, n_src, n_mid, n_snk)) == listed
            tail, head = np.array(listed).T
            assert np.array_equal(_pair_ranks(tail, head, n_src, n_mid, n_snk), ranks)

    def test_every_path_runs_source_to_sink(self):
        cfg = GeneratorConfig(nodes=15, instances=1, seed=12)
        inst = generate_instance(cfg, 0)
        net = inst.network
        for q in range(len(net.paths)):
            assert net.roles[net.nodes[net.path_origin(q)]] == "source"
            assert net.roles[net.nodes[net.path_destination(q)]] == "sink"


class TestMethodCatalogue:
    def test_unknown_method_rejected(self):
        with pytest.raises(BadParameter):
            method_callable("zig")

    def test_bad_parameter_suffix_rejected(self):
        with pytest.raises(BadParameter):
            method_callable("huber:abc")

    def test_parameterised_methods_run(self):
        cfg = GeneratorConfig(nodes=10, instances=1, seed=13)
        inst = generate_instance(cfg, 0)
        for name in ("base", "bu", "l2", "mint", "mint_nonneg", "l2_dense",
                     "huber:0.5", "relaxed:0.001"):
            out = method_callable(name)(inst)
            assert np.asarray(out).shape == (inst.agg.n,)

    def test_reconciler_arms_are_the_dispatch(self):
        # Every reconciler arm is one reconcile_general call under its loss,
        # so it equals a direct call bitwise.
        cfg = GeneratorConfig(nodes=10, instances=1, seed=13)
        inst = generate_instance(cfg, 0)
        nonneg = BoxConstraints.nonnegative_paths(inst.agg)
        arms = {
            "l2": (LossSpec("l2"), None),
            "mint": (LossSpec("l2"), None),
            "mint_nonneg": (LossSpec("l2"), nonneg),
            "l1": (LossSpec("l1"), None),
            "huber:0.5": (LossSpec("huber", delta=0.5), None),
            "relaxed:0.001": (LossSpec("relaxed", epsilon=0.001), None),
        }
        for name, (loss, box) in arms.items():
            direct = reconcile_general(inst.y_base, inst.agg, loss, box=box).y_tilde.data
            assert np.array_equal(method_callable(name)(inst), direct), name

    def test_dense_arm_agrees_with_the_sparse_solver(self):
        cfg = GeneratorConfig(nodes=10, instances=1, seed=14)
        inst = generate_instance(cfg, 0)
        sparse = method_callable("l2")(inst)
        dense = method_callable("l2_dense")(inst)
        scale = 1.0 + float(np.max(np.abs(sparse)))
        assert np.max(np.abs(sparse - dense)) <= 1e-8 * scale


SMALL = dict(nodes=10, instances=5, seed=21)


class TestRunBenchmark:
    def test_method_list_validation(self):
        cfg = GeneratorConfig(**SMALL)
        with pytest.raises(BadParameter):
            run_benchmark(cfg, methods=())
        with pytest.raises(BadParameter):
            run_benchmark(cfg, methods=("l2", "l2"))
        with pytest.raises(BadParameter):
            run_benchmark(cfg, methods=("zig",))

    def test_report_shape(self):
        cfg = GeneratorConfig(**SMALL)
        report = run_benchmark(cfg, methods=("base", "l2"))
        assert len(report.per_instance) == cfg.instances * 2
        assert len(report.summary) == 2
        assert len(report.timings) == cfg.instances * 2
        assert all(r["wall_time_s"] > 0.0 for r in report.timings if r["method"] == "l2")

    def test_reconciled_rows_are_coherent_and_base_rows_are_not(self):
        cfg = GeneratorConfig(**SMALL)
        report = run_benchmark(cfg, methods=("base", "l2"))
        for row in report.per_instance:
            if row["method"] == "l2":
                assert row["coherent"] is True
            else:
                assert row["coherent"] is False  # Gaussian noise breaks sums

    def test_summary_matches_a_direct_recomputation(self):
        cfg = GeneratorConfig(**SMALL)
        report = run_benchmark(cfg, methods=("base", "l2"))
        for entry in report.summary:
            rows = [r for r in report.per_instance if r["method"] == entry["method"]]
            vals = np.array([r["rmse_overall"] for r in rows])
            assert entry["rmse_overall_mean"] == pytest.approx(float(vals.mean()))
            assert entry["rmse_overall_sd"] == pytest.approx(float(vals.std(ddof=1)))
            assert entry["instances"] == len(rows)

    def test_zero_noise_scores_zero_for_every_coherent_method(self):
        cfg = GeneratorConfig(nodes=10, instances=3, sigma=0.0, seed=22)
        report = run_benchmark(cfg, methods=("base", "bu", "l2"))
        for row in report.per_instance:
            bound = 1e-9
            if row["method"] == "l2":
                # CG stops at a gradient-norm certificate g = 2 ||S^T S (b - b*)||;
                # S^T S has eigenvalues >= 1, so b is within g / 2 of the truth
                # and S b within ||S||_2 g / 2, spread over n components.
                inst = generate_instance(cfg, row["instance"])
                g = reconcile_l2(inst.y_base, inst.agg).stats.gradient_norm
                s_norm = np.linalg.norm(inst.agg.matrix.toarray(), 2)
                bound = s_norm * g / (2.0 * np.sqrt(inst.agg.n))
            assert row["rmse_overall"] <= bound
            assert row["mae_overall"] <= bound

    def test_output_files_are_byte_reproducible(self, tmp_path):
        cfg = GeneratorConfig(**SMALL)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        run_benchmark(cfg, methods=("base", "bu", "l2"), out_dir=str(dir_a))
        run_benchmark(cfg, methods=("base", "bu", "l2"), out_dir=str(dir_b))
        for name in ("per_instance.csv", "summary.csv", "config.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
        # Timings are wall clock: present, same shape, but not compared.
        assert (dir_a / "timings.csv").exists()
        assert len((dir_a / "timings.csv").read_text().splitlines()) == len(
            (dir_b / "timings.csv").read_text().splitlines()
        )

    def test_shrinking_rerun_equals_a_fresh_run(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        methods = ("base", "bu", "l2")
        run_benchmark(GeneratorConfig(nodes=10, instances=3, seed=21), methods, str(reused))
        small = GeneratorConfig(nodes=10, instances=1, seed=21)
        run_benchmark(small, methods, str(reused))
        run_benchmark(small, methods, str(fresh))
        # timings.csv holds wall times and is not compared.
        for name in ("per_instance.csv", "summary.csv", "config.json"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_config_json_layout(self, tmp_path):
        cfg = GeneratorConfig(**SMALL)
        run_benchmark(cfg, methods=("base", "l2"), out_dir=str(tmp_path))
        expected = {
            "nodes": 10, "instances": 5, "density": None, "sigma": None,
            "max_paths": None, "max_hops": 8, "seed": 21,
            "methods": ["base", "l2"],
        }
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "config.json").read_text() == text

    def test_least_squares_beats_base_and_bottom_up_on_the_small_run(self):
        cfg = GeneratorConfig(nodes=12, instances=10, seed=23)
        report = run_benchmark(cfg, methods=("base", "bu", "l2"))
        by_method = {e["method"]: e for e in report.summary}
        assert by_method["l2"]["rmse_overall_mean"] < by_method["base"]["rmse_overall_mean"]
        assert by_method["l2"]["rmse_overall_mean"] < by_method["bu"]["rmse_overall_mean"]
        assert by_method["l2"]["mae_overall_mean"] < by_method["base"]["mae_overall_mean"]
        assert by_method["l2"]["mae_overall_mean"] < by_method["bu"]["mae_overall_mean"]
