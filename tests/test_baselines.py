"""Tests for the reference reconcilers and the accuracy metrics."""

import numpy as np
import pytest

from flowrec import (
    DimensionMismatch,
    FlowAggregationMatrix,
    check_coherence,
    evaluate,
    reconcile_bottom_up,
    reconcile_l2,
    reconcile_mint_ols,
)

from conftest import DISTRIBUTION_FLOWS, coherent_distribution_vector, random_instance


class TestBottomUp:
    def test_store_total_rebuilt_from_path_flows(self, distribution_net):
        # Three deliveries of 150, 150 and 100 into the second store must
        # aggregate to 400 no matter what the node block claimed.
        agg = FlowAggregationMatrix.from_network(distribution_net)
        y = coherent_distribution_vector(distribution_net)
        y[: len(distribution_net.nodes)] = 0.0  # garbage in the node block
        out = reconcile_bottom_up(y, agg)
        s2 = distribution_net.node_index["S2"]
        assert out.data[s2] == pytest.approx(400.0)

    def test_coherent_input_passes_through(self, distribution_net):
        agg = FlowAggregationMatrix.from_network(distribution_net)
        y = coherent_distribution_vector(distribution_net)
        out = reconcile_bottom_up(y, agg)
        assert out.data == pytest.approx(y, abs=1e-12)

    def test_path_block_is_never_modified(self, distribution_net):
        agg = FlowAggregationMatrix.from_network(distribution_net)
        y = coherent_distribution_vector(distribution_net)
        y[:17] += np.arange(17.0)  # perturb nodes and edges only
        out = reconcile_bottom_up(y, agg)
        assert out.data[agg.index_map.path_slice] == pytest.approx(
            DISTRIBUTION_FLOWS, abs=0.0
        )

    def test_output_exactly_coherent_on_random_noise(self):
        inst = random_instance(nodes=12, seed=300)
        out = reconcile_bottom_up(inst.y_base.data, inst.agg)
        report = check_coherence(out.data, inst.agg, tolerance=1e-10)
        assert report.coherent


class TestOlsProjection:
    def test_matches_least_squares_reconciler(self):
        inst = random_instance(nodes=12, seed=310)
        via_projection = reconcile_mint_ols(inst.y_base.data, inst.agg)
        via_l2 = reconcile_l2(inst.y_base.data, inst.agg)
        assert via_projection.data == pytest.approx(via_l2.y_tilde.data, abs=1e-12)

    def test_nonnegative_answer_is_coherent(self, parallel_agg):
        # A coherent vector with one negative path.  Clamping the l2 answer
        # would zero the negative entries but leave the positive aggregates,
        # so the source node would no longer equal the sum of its paths; the
        # exact nonnegative reconciliation moves the whole answer instead.
        # With S^T S = [[6, 2], [2, 6]] and S^T y = [-2, 26], the first path
        # sits on its bound and the second solves 6 b = 26.
        y = parallel_agg.aggregate(np.array([-2.0, 5.0]))
        out = reconcile_mint_ols(y, parallel_agg, nonneg=True).data
        assert out.min() >= 0.0
        assert check_coherence(out, parallel_agg).coherent
        b = out[parallel_agg.index_map.path_slice]
        assert b == pytest.approx([0.0, 13.0 / 3.0], abs=1e-8)
        # The projected-gradient certificate of the box b >= 0, recomputed.
        s = parallel_agg.matrix
        grad = 2.0 * (s.T @ (s @ b - y))
        loss = float(np.sum((out - y) ** 2))
        assert np.linalg.norm(b - np.maximum(b - grad, 0.0)) <= 1e-8 * (1.0 + loss)

    def test_clamp_is_a_no_op_on_nonnegative_answers(self):
        inst = random_instance(nodes=12, seed=320)
        plain = reconcile_mint_ols(inst.y_base.data, inst.agg)
        assert plain.data.min() >= 0.0  # this seed yields a nonnegative answer
        nonneg = reconcile_mint_ols(inst.y_base.data, inst.agg, nonneg=True)
        # No bound is active, so both answers solve the same normal
        # equations, each to its gradient-norm certificate g: S^T S has
        # eigenvalues >= 1, which puts b within g / 2 of the optimum and
        # S b within ||S||_2 g / 2.
        s = inst.agg.matrix
        y = inst.y_base.data
        paths = inst.agg.index_map.path_slice
        certificates = [
            float(np.linalg.norm(2.0 * (s.T @ (s @ v.data[paths] - y)))) for v in (plain, nonneg)
        ]
        assert certificates[1] <= 1e-8 * (1.0 + float(np.sum((nonneg.data - y) ** 2)))
        s_norm = np.linalg.norm(s.toarray(), 2)
        assert np.linalg.norm(nonneg.data - plain.data) <= s_norm * sum(certificates) / 2.0


class TestEvaluate:
    def test_perfect_forecast_scores_zero(self):
        inst = random_instance(nodes=10, seed=330)
        report = evaluate(inst.y_true, inst.y_true, inst.agg.index_map)
        for metrics in (report.rmse, report.mae):
            assert metrics.overall == 0.0
            assert metrics.nodes == 0.0
            assert metrics.edges == 0.0
            assert metrics.paths == 0.0

    def test_constant_offset_scores_the_offset(self):
        inst = random_instance(nodes=10, seed=331)
        shifted = inst.y_true.data + 2.5
        report = evaluate(shifted, inst.y_true, inst.agg.index_map)
        for metrics in (report.rmse, report.mae):
            assert metrics.overall == pytest.approx(2.5)
            assert metrics.nodes == pytest.approx(2.5)
            assert metrics.edges == pytest.approx(2.5)
            assert metrics.paths == pytest.approx(2.5)

    def test_against_plain_loop_accumulation(self):
        # Independent oracle: per-block metrics via explicit loops.
        inst = random_instance(nodes=10, seed=332)
        rng = np.random.default_rng(1)
        noisy = inst.y_true.data + rng.normal(size=inst.agg.n)
        report = evaluate(noisy, inst.y_true, inst.agg.index_map)
        imap = inst.agg.index_map
        blocks = {
            "nodes": range(imap.n_nodes),
            "edges": range(imap.n_nodes, imap.n_nodes + imap.n_edges),
            "paths": range(imap.n_nodes + imap.n_edges, imap.n),
            "overall": range(imap.n),
        }
        for name, idx in blocks.items():
            sq = sum((noisy[i] - inst.y_true.data[i]) ** 2 for i in idx)
            ab = sum(abs(noisy[i] - inst.y_true.data[i]) for i in idx)
            count = len(idx)
            assert getattr(report.rmse, name) == pytest.approx(np.sqrt(sq / count))
            assert getattr(report.mae, name) == pytest.approx(ab / count)

    def test_block_metric_ignores_error_placement_within_the_block(self, parallel_agg):
        imap = parallel_agg.index_map
        truth = parallel_agg.aggregate(np.array([3.0, 5.0]))
        a = truth.copy()
        a[0] += 2.0  # error on the first node
        b = truth.copy()
        b[2] += 2.0  # same-size error on another node
        ra = evaluate(a, truth, imap)
        rb = evaluate(b, truth, imap)
        assert ra.rmse.nodes == pytest.approx(rb.rmse.nodes)
        assert ra.mae.nodes == pytest.approx(rb.mae.nodes)

    def test_shape_mismatch_rejected(self, parallel_agg):
        truth = parallel_agg.aggregate(np.array([3.0, 5.0]))
        with pytest.raises(DimensionMismatch):
            evaluate(truth[:-1], truth, parallel_agg.index_map)
        with pytest.raises(DimensionMismatch):
            evaluate(truth, truth[:-1], parallel_agg.index_map)
