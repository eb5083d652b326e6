"""Tests for tolerance-relaxed reconciliation."""

import numpy as np
import pytest

from flowrec import (
    BadParameter,
    BoxConstraints,
    ForecastVector,
    GeneratorConfig,
    NoConvergence,
    LossSpec,
    generate_instance,
    reconcile_general,
    reconcile_l2,
    reconcile_relaxed,
)
from flowrec.reconcile import RELAXED_TOL, _band_parts, _minimize_path_loss

from conftest import node_edge_blocks, random_instance

EPSILONS = (1e-3, 1e-2, 1e-1)

# 30-node instances on which a first-order solver needed over 10,000 steps.
HEAVY_TAIL_SEEDS = (24000086, 105001425, 105000591, 24000399)


def relaxed_gradient(agg, yhat, eps, p):
    """Gradient in the path values of the relaxed objective, from its definition.

    The objective is ||VP p - y_nodes||^2 + ||shrink(EP p - y_edges)||^2
    + ||p - y_paths||^2, where shrink moves each edge residual toward zero
    by eps and stops there.
    """
    imap = agg.index_map
    y = np.asarray(getattr(yhat, "data", yhat), dtype=float)
    vp, ep = node_edge_blocks(agg)
    r_edges = ep @ p - y[imap.edge_slice]
    shrunk = np.sign(r_edges) * np.maximum(np.abs(r_edges) - eps, 0.0)
    return 2.0 * (
        vp.T @ (vp @ p - y[imap.node_slice])
        + ep.T @ shrunk
        + (p - y[imap.path_slice])
    )


class TestRelaxed:
    def test_coherent_input_is_untouched(self, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        for eps in (0.0, 1e-3, 1.0):
            result = reconcile_relaxed(y, parallel_agg, eps)
            assert result.y_tilde.data == pytest.approx(y, abs=1e-9)
            assert result.loss_value <= 1e-15
            assert result.stats.max_violation <= eps + 1e-12

    def test_zero_tolerance_reproduces_least_squares(self):
        inst = random_instance(nodes=10, seed=5)
        exact = reconcile_l2(inst.y_base.data, inst.agg)
        result = reconcile_relaxed(inst.y_base.data, inst.agg, 0.0)
        assert np.linalg.norm(result.y_tilde.data - exact.y_tilde.data) <= 1e-9
        assert result.loss_value == pytest.approx(exact.loss_value, rel=1e-9)

    def test_tiny_tolerance_stays_close_to_exact(self):
        inst = random_instance(nodes=10, seed=6)
        exact = reconcile_l2(inst.y_base.data, inst.agg)
        result = reconcile_relaxed(inst.y_base.data, inst.agg, 1e-12)
        assert np.linalg.norm(result.y_tilde.data - exact.y_tilde.data) <= 1e-6

    def test_in_band_edge_forecast_is_kept_at_zero_cost(self, chain_agg):
        # The first edge reads 4.05 against path flow 4; with a band of
        # width 0.1 the discrepancy is admissible and nothing moves.
        y = chain_agg.aggregate(np.array([4.0]))
        y[3] = 4.05
        result = reconcile_relaxed(y, chain_agg, 0.1)
        assert result.loss_value <= 1e-15
        assert result.y_tilde.data == pytest.approx(y, abs=1e-9)
        assert result.y_tilde.data[3] == pytest.approx(4.05)

    def test_out_of_band_edge_clamps_to_the_boundary(self, chain_agg):
        # Edge reads 4.5, band width 0.1: stationarity of
        # 4 (p-4)^2 + (4.4-p)^2 gives p = 4.08 and objective 0.128
        # (the second edge's discrepancy 0.08 stays inside its own band).
        y = chain_agg.aggregate(np.array([4.0]))
        y[3] = 4.5
        result = reconcile_relaxed(y, chain_agg, 0.1)
        assert result.b_tilde == pytest.approx([4.08], abs=1e-8)
        assert result.loss_value == pytest.approx(0.128, abs=1e-8)
        assert result.stats.max_violation <= 0.1 + 1e-12
        assert result.stats.max_violation == pytest.approx(0.1, abs=1e-9)

    def test_out_of_band_optimum_against_grid_scan(self, chain_agg):
        y = chain_agg.aggregate(np.array([4.0]))
        y[3] = 4.5
        eps = 0.1

        def shrink(u):
            return np.maximum(np.abs(u) - eps, 0.0)

        grid = np.arange(3.5, 5.0, 1e-6)
        objective = (
            4.0 * (grid - 4.0) ** 2
            + shrink(grid - 4.5) ** 2
            + shrink(grid - 4.0) ** 2
        )
        best = grid[np.argmin(objective)]
        result = reconcile_relaxed(y, chain_agg, eps)
        assert abs(result.b_tilde[0] - best) <= 1e-5

    def test_violations_respect_the_band_on_random_instances(self):
        for seed, eps in enumerate(EPSILONS):
            inst = random_instance(nodes=12, seed=seed + 200)
            result = reconcile_relaxed(inst.y_base.data, inst.agg, eps)
            assert result.stats.max_violation <= eps + 1e-10
            assert result.coherence.edge_residuals.shape == (len(inst.network.edges),)
            # Node values are rebuilt from path values, so node residuals
            # vanish no matter the band width.
            imap = inst.agg.index_map
            nodes = result.y_tilde.data[imap.node_slice]
            paths = result.y_tilde.data[imap.path_slice]
            assert nodes == pytest.approx(node_edge_blocks(inst.agg)[0] @ paths, abs=1e-12)
            grad = relaxed_gradient(inst.agg, inst.y_base, eps, result.b_tilde)
            assert float(np.linalg.norm(grad)) <= 1e-10 * (1.0 + result.loss_value)
            assert result.stats.gradient_norm <= 1e-10 * (1.0 + result.loss_value)

    def test_deviation_bound_on_random_instances(self):
        for seed in range(4):
            inst = random_instance(nodes=12, seed=seed + 210)
            exact = reconcile_l2(inst.y_base.data, inst.agg)
            norm_exact = float(np.linalg.norm(exact.y_tilde.data))
            m = len(inst.network.edges)
            for eps in EPSILONS:
                result = reconcile_relaxed(inst.y_base.data, inst.agg, eps)
                deviation = np.linalg.norm(result.y_tilde.data - exact.y_tilde.data)
                assert deviation <= np.sqrt(eps * m) * norm_exact + 1e-8

    def test_objective_never_increases_with_the_band_width(self):
        inst = random_instance(nodes=12, seed=220)
        exact = reconcile_l2(inst.y_base.data, inst.agg)
        previous = None
        for eps in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            result = reconcile_relaxed(inst.y_base.data, inst.agg, eps)
            # Wider bands only enlarge the feasible set.
            assert result.loss_value <= exact.loss_value + 1e-9
            if previous is not None:
                assert result.loss_value <= previous + 1e-9
            previous = result.loss_value

    def test_keeps_horizon_and_origin(self, chain_agg):
        y = chain_agg.aggregate(np.array([4.0]))
        y[1] = 10.0
        result = reconcile_relaxed(ForecastVector(y, horizon=3), chain_agg, 1e-3)
        assert result.y_tilde.horizon == 3

    def test_negative_or_nonfinite_band_rejected(self, chain_agg):
        y = chain_agg.aggregate(np.array([4.0]))
        with pytest.raises(BadParameter):
            reconcile_relaxed(y, chain_agg, -1e-3)
        with pytest.raises(BadParameter):
            reconcile_relaxed(y, chain_agg, np.nan)
        # The band relaxes the unweighted, unboxed l2 loss only.
        with pytest.raises(BadParameter):
            LossSpec("relaxed", epsilon=0.1, weights=np.ones(6))
        with pytest.raises(BadParameter):
            reconcile_general(y, chain_agg, LossSpec("relaxed", epsilon=0.1),
                              box=BoxConstraints.unbounded(6))
        # Huber's corner, like the band, must be finite.
        with pytest.raises(BadParameter):
            LossSpec("huber", delta=np.inf)

    def test_budget_exhaustion_raises(self, chain_agg):
        # The budget is the kernel's; one step from the base path values
        # does not reach the relaxed optimum.
        y = chain_agg.aggregate(np.array([4.0]))
        y[1] = 10.0
        imap = chain_agg.index_map
        parts = _band_parts(1e-3, imap)
        with pytest.raises(NoConvergence):
            _minimize_path_loss(
                y, chain_agg, np.ones(imap.n), parts, y[imap.path_slice], None,
                RELAXED_TOL, max_iter=1,
            )

    def test_heavy_tail_instances_finish_in_few_newton_steps(self):
        for seed in HEAVY_TAIL_SEEDS:
            cfg = GeneratorConfig(nodes=30, density=0.2, seed=seed, instances=1)
            inst = generate_instance(cfg, 0)
            result = reconcile_relaxed(inst.y_base, inst.agg, 0.01)
            assert result.stats.iterations <= 20, (seed, result.stats.iterations)
            grad = relaxed_gradient(inst.agg, inst.y_base, 0.01, result.b_tilde)
            norm = float(np.linalg.norm(grad))
            assert norm <= 1e-10 * (1.0 + result.loss_value), (seed, norm)
            assert result.stats.gradient_norm == pytest.approx(norm, rel=1e-6, abs=1e-11)
            assert result.stats.refine_rounds >= 1
