"""Component vectors and coherence measurement."""

import numpy as np
import pytest

from flowrec import (
    BadParameter,
    DimensionMismatch,
    FlowAggregationMatrix,
    ForecastVector,
    check_coherence,
    default_tolerance,
    node_imbalance,
)

from conftest import (
    DISTRIBUTION_FLOWS,
    DISTRIBUTION_NODE_TOTALS,
    coherent_distribution_vector,
    random_instance,
)


class TestContainers:
    def test_forecast_vector_validation(self):
        v = ForecastVector(np.arange(3.0), horizon=2)
        assert len(v) == 3 and v.horizon == 2
        with pytest.raises(BadParameter):
            ForecastVector(np.array([1.0, np.nan]))
        with pytest.raises(BadParameter):
            ForecastVector(np.array([np.inf]))
        with pytest.raises(DimensionMismatch):
            ForecastVector(np.ones((2, 2)))
        with pytest.raises(BadParameter):
            ForecastVector(np.ones(2), horizon=0)


class TestCoherence:
    def test_aggregated_vector_is_exactly_coherent(self, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        report = check_coherence(y, parallel_agg, tolerance=0.0)
        assert report.coherent
        assert report.max_node_residual == 0.0
        assert report.max_edge_residual == 0.0

    def test_parallel_totals_by_hand(self, parallel_agg):
        # Path values 3 and 5: shared endpoints carry the sum, middles their own.
        y = ForecastVector(parallel_agg.aggregate(np.array([3.0, 5.0])))
        s, a, b, t = y.data[:4]
        assert (s, a, b, t) == (8.0, 3.0, 5.0, 8.0)
        assert y.data[4:8].tolist() == [3.0, 3.0, 5.0, 5.0]

    def test_store_network_inflows(self, distribution_net):
        y = coherent_distribution_vector(distribution_net)
        report = check_coherence(y, FlowAggregationMatrix.from_network(distribution_net))
        assert report.coherent
        for name, total in DISTRIBUTION_NODE_TOTALS.items():
            assert y[distribution_net.node_index[name]] == total
        # S1 receives 150 + 130 and its node value matches that sum exactly.
        s1 = distribution_net.node_index["S1"]
        assert y[s1] == DISTRIBUTION_FLOWS[0] + DISTRIBUTION_FLOWS[2] == 280.0

    def test_zero_bottom_gives_zero_vector(self, chain_agg):
        y = ForecastVector(chain_agg.aggregate(np.zeros(1)))
        assert np.array_equal(y.data, np.zeros(6))

    def test_single_path_perturbation_shows_up_everywhere_it_touches(self, chain_agg):
        # Chain with one path: bump the path value by delta and every node and
        # edge residual becomes exactly delta.
        delta = 0.25
        y = chain_agg.aggregate(np.array([4.0]))
        y[-1] += delta
        report = check_coherence(y, chain_agg, tolerance=1e-12)
        assert not report.coherent
        assert report.max_node_residual == pytest.approx(delta, abs=0)
        assert report.max_edge_residual == pytest.approx(delta, abs=0)
        assert np.allclose(report.node_residuals, delta)

    def test_tolerance_scales_with_magnitude(self):
        assert default_tolerance(np.array([0.0])) == pytest.approx(1e-8)
        assert default_tolerance(np.array([99.0])) == pytest.approx(1e-6, rel=1e-6)

    def test_dimension_mismatch(self, chain_agg):
        with pytest.raises(DimensionMismatch):
            check_coherence(np.ones(5), chain_agg)

    def test_random_aggregates_stay_coherent(self):
        for seed in range(5):
            inst = random_instance(nodes=12, seed=seed)
            rng = np.random.default_rng(seed)
            b = rng.normal(size=inst.agg.n_paths)
            report = check_coherence(inst.agg.aggregate(b), inst.agg, tolerance=0.0)
            assert report.max_node_residual <= np.finfo(float).eps * inst.agg.n * 8
            assert report.max_edge_residual <= np.finfo(float).eps * inst.agg.n * 8

    def test_a_block_gives_each_columns_vector_report(self):
        inst = random_instance(nodes=15, seed=7)
        rng = np.random.default_rng(7)
        block = inst.agg.aggregate(rng.normal(size=inst.agg.n_paths))[:, None] * [1.0, 1e3, 0.0]
        block[:, 0] += rng.normal(scale=1e-6, size=inst.agg.n)
        block[:, 2] += rng.normal(size=inst.agg.n)
        for tolerance in (None, 1e-3):
            reports = check_coherence(block, inst.agg, tolerance=tolerance)
            assert isinstance(reports, list) and len(reports) == 3
            for h, report in enumerate(reports):
                single = check_coherence(block[:, h].copy(), inst.agg, tolerance=tolerance)
                assert report.coherent == single.coherent
                assert report.tolerance == single.tolerance
                assert report.max_node_residual == single.max_node_residual
                assert report.max_edge_residual == single.max_edge_residual
                assert np.array_equal(report.node_residuals, single.node_residuals)
                assert np.array_equal(report.edge_residuals, single.edge_residuals)
        assert [r.coherent for r in check_coherence(block, inst.agg)] == [False, True, False]
        bad = block.copy()
        bad[0, 1] = np.nan
        with pytest.raises(BadParameter):
            check_coherence(bad, inst.agg)

    def test_block_tolerance_is_one_per_column(self):
        block = np.array([[0.0, 99.0], [-2.0, 1.0]])
        assert default_tolerance(block) == pytest.approx([3e-8, 1e-6], rel=1e-6)


class TestNodeImbalance:
    def test_interior_nodes_balance(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        bal = node_imbalance(y, parallel_net)
        # a and b pass flow through; s only emits, t only absorbs.
        assert bal[parallel_net.node_index["a"]] == 0.0
        assert bal[parallel_net.node_index["b"]] == 0.0
        assert bal[parallel_net.node_index["s"]] == -8.0
        assert bal[parallel_net.node_index["t"]] == 8.0
