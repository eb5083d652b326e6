"""Tests for the exact reconcilers: quadratic, weighted, absolute-deviation, general."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import flowrec.reconcile
from flowrec import (
    BadParameter,
    BoxConstraints,
    FlowAggregationMatrix,
    ForecastVector,
    Infeasible,
    LossSpec,
    Network,
    NonSmoothLoss,
    NotPositiveDefinite,
    RankDeficient,
    check_coherence,
    coherence_constraints,
    evaluate_loss,
    reconcile_general,
    reconcile_l1,
    reconcile_l2,
    reconcile_relaxed,
    reconcile_weighted,
)
from flowrec.benchmark import GeneratorConfig, density_for_edge_target, generate_instance
from flowrec.numerics import SparseSpd, solve_lp

from conftest import coherent_distribution_vector, random_instance


def newton_from(yhat, agg, loss, start):
    """The Newton kernel of a smooth ``loss`` run from path values ``start``;
    the dispatch always starts it from the plain l2 answer."""
    w = loss.resolved_weights(agg.n)
    parts = flowrec.reconcile._smooth_parts(loss, w, agg.index_map)
    return flowrec.reconcile._minimize_path_loss(
        yhat, agg, w, parts, start, None, flowrec.reconcile.NEWTON_TOL
    )


def row_form_l1_optimum(yhat, s, box):
    """min sum |S b - yhat| over S b in the box, in the "<=" row form.

    A reference for ``reconcile_l1``'s split form: one slack per component
    bounds its adjustment on both sides, rows [S -I; -S -I] over [b; slack]
    with right-hand side [yhat; -yhat], plus one row per finite box bound,
    solved by linprog.
    """
    n, k = s.shape
    eye = sp.identity(n, format="csr")
    blocks, rhs = [[s, -eye], [-s, -eye]], [yhat, -yhat]
    if box is not None:
        for sign, bound in ((1.0, box.upper), (-1.0, box.lower)):
            rows = np.flatnonzero(np.isfinite(bound))
            blocks.append([sign * s[rows], sp.csr_matrix((rows.size, n))])
            rhs.append(sign * bound[rows])
    res = linprog(
        np.concatenate([np.zeros(k), np.ones(n)]),
        A_ub=sp.bmat(blocks, format="csr"),
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * k + [(0, None)] * n,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def chain_outlier_vector(chain_agg):
    """All components 4 except the middle node, which reads 10."""
    y = np.full(6, 4.0)
    y[1] = 10.0  # components are ordered s, a, t, then edges, then the path
    return y


# ---------------------------------------------------------------------------
# Weighted projection: hand-checkable closed forms.
# ---------------------------------------------------------------------------


class TestWeightedProjection:
    def test_two_variable_sum_constraint(self):
        # minimize (x1-3)^2 + 4*(x2-5)^2 subject to x1+x2 = 10.
        a = np.array([[1.0, 1.0]])
        c = np.array([10.0])
        w = np.diag([1.0, 4.0])
        x = reconcile_weighted(np.array([3.0, 5.0]), a, c, w)
        assert x == pytest.approx([4.6, 5.4], abs=1e-12)

    def test_two_variable_stationarity(self):
        # At the optimum the weighted residual must lie in the row space of A.
        a = np.array([[1.0, 1.0]])
        c = np.array([10.0])
        w = np.diag([1.0, 4.0])
        yhat = np.array([3.0, 5.0])
        x = reconcile_weighted(yhat, a, c, w)
        grad = 2.0 * w @ (x - yhat)
        lam, residual, *_ = np.linalg.lstsq(a.T, grad, rcond=None)
        assert np.linalg.norm(a.T @ lam - grad) <= 1e-10

    def test_identity_weight_splits_correction_evenly(self):
        a = np.array([[1.0, 1.0]])
        c = np.array([10.0])
        x = reconcile_weighted(np.array([3.0, 5.0]), a, c, np.eye(2))
        assert x == pytest.approx([4.0, 6.0], abs=1e-12)

    def test_satisfied_constraints_leave_input_unchanged(self):
        a = np.array([[1.0, 1.0]])
        c = np.array([8.0])
        x = reconcile_weighted(np.array([3.0, 5.0]), a, c, np.eye(2))
        assert x == pytest.approx([3.0, 5.0], abs=1e-12)

    def test_scaling_all_weights_does_not_move_the_answer(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 5))
        c = rng.normal(size=2)
        d = rng.uniform(0.5, 3.0, size=5)
        yhat = rng.normal(size=5)
        x1 = reconcile_weighted(yhat, a, c, np.diag(d))
        x2 = reconcile_weighted(yhat, a, c, np.diag(7.3 * d))
        assert x1 == pytest.approx(x2, abs=1e-9)

    def test_vector_weights_mean_a_diagonal_matrix(self):
        a = np.array([[1.0, 1.0]])
        c = np.array([10.0])
        x_vec = reconcile_weighted(np.array([3.0, 5.0]), a, c, np.array([1.0, 4.0]))
        x_mat = reconcile_weighted(np.array([3.0, 5.0]), a, c, np.diag([1.0, 4.0]))
        assert x_vec == pytest.approx(x_mat, abs=1e-14)

    def test_indefinite_weight_matrix_rejected(self):
        a = np.array([[1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            reconcile_weighted(np.array([3.0, 5.0]), a, np.array([10.0]), np.diag([1.0, -4.0]))

    def test_dependent_inconsistent_constraints_rejected(self):
        # The second row contradicts twice the first, so no point satisfies both.
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient):
            reconcile_weighted(np.array([3.0, 5.0]), a, np.array([10.0, 30.0]), np.eye(2))


# ---------------------------------------------------------------------------
# Quadratic reconciliation on networks.
# ---------------------------------------------------------------------------


class TestQuadratic:
    def test_coherent_input_is_a_fixed_point(self, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        result = reconcile_l2(y, parallel_agg)
        assert result.y_tilde.data == pytest.approx(y, abs=1e-10)
        assert result.loss_value <= 1e-18
        assert result.coherence.coherent

    def test_perturbed_source_matches_dense_least_squares(self, parallel_agg):
        # Dense least-squares oracle, computed independently of the solver:
        # s-node bumped from 8 to 11 gives path values (3.375, 5.375).
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        y[0] = 11.0
        result = reconcile_l2(y, parallel_agg)
        dense = parallel_agg.matrix.toarray()
        b_oracle, *_ = np.linalg.lstsq(dense, y, rcond=None)
        assert b_oracle == pytest.approx([3.375, 5.375], abs=1e-12)
        assert result.b_tilde == pytest.approx(b_oracle, abs=1e-9)
        assert result.loss_value == pytest.approx(6.75, abs=1e-9)
        # The correction must cost less than the raw perturbation.
        assert result.loss_value < 9.0

    def test_chain_outlier_spreads_to_five(self, chain_agg):
        y = chain_outlier_vector(chain_agg)
        result = reconcile_l2(y, chain_agg)
        # Single bottom value b minimizing 5*(b-4)^2 + (b-10)^2 is the mean 5.
        assert result.b_tilde == pytest.approx([5.0], abs=1e-9)

    def test_idempotent(self, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        y[0] = 11.0
        once = reconcile_l2(y, parallel_agg)
        twice = reconcile_l2(once.y_tilde.data, parallel_agg)
        assert twice.y_tilde.data == pytest.approx(once.y_tilde.data, abs=1e-9)

    def test_residual_orthogonal_to_aggregate_columns(self):
        for seed in range(5):
            inst = random_instance(nodes=12, seed=seed)
            result = reconcile_l2(inst.y_base.data, inst.agg)
            residual = inst.y_base.data - result.y_tilde.data
            projected = inst.agg.matrix.T @ residual
            assert np.max(np.abs(projected)) <= 1e-6 * np.linalg.norm(inst.y_base.data)

    def test_random_coherent_probes_never_beat_the_optimum(self):
        inst = random_instance(nodes=10, seed=3)
        result = reconcile_l2(inst.y_base.data, inst.agg)
        rng = np.random.default_rng(11)
        for _ in range(20):
            probe_b = result.b_tilde + rng.normal(scale=0.3, size=result.b_tilde.size)
            probe_loss = float(np.sum((inst.agg.aggregate(probe_b) - inst.y_base.data) ** 2))
            assert result.loss_value <= probe_loss + 1e-12

    def test_agrees_with_identity_weighted_projection(self):
        for seed in range(5):
            inst = random_instance(nodes=10, seed=seed + 20)
            via_cg = reconcile_l2(inst.y_base.data, inst.agg)
            a, c = coherence_constraints(inst.agg)
            via_kkt = reconcile_weighted(inst.y_base.data, a, c, np.eye(inst.agg.n))
            scale = 1.0 + np.linalg.norm(via_cg.y_tilde.data, np.inf)
            assert np.max(np.abs(via_cg.y_tilde.data - via_kkt)) <= 1e-8 * scale

    def test_forecast_vector_input_accepted(self, chain_agg):
        vec = ForecastVector(chain_outlier_vector(chain_agg), horizon=2)
        result = reconcile_l2(vec, chain_agg)
        assert result.y_tilde.horizon == 2
        assert result.b_tilde == pytest.approx([5.0], abs=1e-9)

    def test_distribution_network_stays_put(self, distribution_net):
        agg = FlowAggregationMatrix.from_network(distribution_net)
        y = coherent_distribution_vector(distribution_net)
        result = reconcile_l2(y, agg)
        assert result.y_tilde.data == pytest.approx(y, abs=1e-9)


# ---------------------------------------------------------------------------
# Absolute-deviation reconciliation.
# ---------------------------------------------------------------------------


class TestAbsoluteDeviation:
    def test_coherent_input_has_zero_objective(self, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        result = reconcile_l1(y, parallel_agg)
        assert result.loss_value <= 1e-9
        assert result.y_tilde.data == pytest.approx(y, abs=1e-8)

    def test_chain_outlier_snaps_to_median(self, chain_agg):
        # Objective 5|b-4| + |b-10| is minimized at b = 4 with value 6;
        # the quadratic answer (5) costs 5+5=10 here, so the two must differ.
        y = chain_outlier_vector(chain_agg)
        result = reconcile_l1(y, chain_agg)
        assert result.b_tilde == pytest.approx([4.0], abs=1e-9)
        assert result.loss_value == pytest.approx(6.0, abs=1e-9)
        assert result.stats.duality_gap <= 1e-7

    def test_chain_outlier_objective_by_scan(self, chain_agg):
        # Independent 1-d scan over candidate bottom values.
        y = chain_outlier_vector(chain_agg)
        grid = np.arange(2.0, 12.0, 1e-4)
        objectives = 5.0 * np.abs(grid - 4.0) + np.abs(grid - 10.0)
        best = grid[np.argmin(objectives)]
        result = reconcile_l1(y, chain_agg)
        assert abs(result.b_tilde[0] - best) <= 1e-3

    def test_weighted_outlier_moves_to_the_heavy_component(self, chain_agg):
        # Putting weight 10 on the outlier node flips the argmin to 10:
        # slope of 10|b-10| + 5|b-4| is -5 everywhere left of 10.
        y = chain_outlier_vector(chain_agg)
        weights = np.ones(6)
        weights[1] = 10.0
        result = reconcile_l1(y, chain_agg, weights=weights)
        assert result.b_tilde == pytest.approx([10.0], abs=1e-9)
        assert result.loss_value == pytest.approx(30.0, abs=1e-7)

    def test_box_caps_the_path_value(self, chain_agg):
        # Coherent all-fours chain with the middle node capped at 3: the
        # single path must drop to 3, and every component pays |4-3| = 1.
        y = np.full(6, 4.0)
        upper = np.full(6, np.inf)
        upper[1] = 3.0  # the middle node
        box = BoxConstraints(lower=np.full(6, -np.inf), upper=upper)
        result = reconcile_l1(y, chain_agg, box=box)
        assert result.b_tilde == pytest.approx([3.0], abs=1e-9)
        assert result.loss_value == pytest.approx(6.0, abs=1e-9)

    def test_box_floor_lifts_the_path_value(self, chain_agg):
        # The mirror case: the middle node held at or above 5 lifts the path.
        y = np.full(6, 4.0)
        lower = np.full(6, -np.inf)
        lower[1] = 5.0
        box = BoxConstraints(lower=lower, upper=np.full(6, np.inf))
        result = reconcile_l1(y, chain_agg, box=box)
        assert result.b_tilde == pytest.approx([5.0], abs=1e-9)
        assert result.loss_value == pytest.approx(6.0, abs=1e-9)

    def test_conflicting_box_raises(self, chain_agg):
        # Capping one node below 3 while forcing another above 5 cannot be
        # met by a single path value.
        y = np.full(6, 4.0)
        upper = np.full(6, np.inf)
        upper[1] = 3.0
        lower = np.full(6, -np.inf)
        lower[0] = 5.0
        box = BoxConstraints(lower=lower, upper=upper)
        with pytest.raises(Infeasible):
            reconcile_l1(y, chain_agg, box=box)

    @pytest.mark.parametrize(
        "middle, lower, upper, b, loss",
        [(10.0, 2.0, 3.0, 3.0, 12.0), (-2.0, 5.0, 6.0, 5.0, 12.0), (10.0, 2.0, 12.0, 4.0, 6.0)],
        ids=["forecast-above-upper", "forecast-below-lower", "forecast-inside"],
    )
    def test_two_sided_box_on_the_outlier(self, chain_agg, middle, lower, upper, b, loss):
        # All components 4 except the middle node, which is boxed on both
        # sides; the objective is 5|b-4| + |b-middle| over b in [lower, upper].
        y = np.full(6, 4.0)
        y[1] = middle
        lo = np.full(6, -np.inf)
        hi = np.full(6, np.inf)
        lo[1], hi[1] = lower, upper
        result = reconcile_l1(y, chain_agg, box=BoxConstraints(lower=lo, upper=hi))
        assert result.b_tilde == pytest.approx([b], abs=1e-9)
        assert result.loss_value == pytest.approx(loss, abs=1e-9)
        assert result.stats.duality_gap <= 1e-7

    def test_matches_the_row_form_lp_with_and_without_a_box(self):
        binding = 0
        for seed in range(10):
            inst = random_instance(nodes=12, seed=seed + 700)
            n = inst.agg.n
            rng = np.random.default_rng(seed)
            truth = inst.y_true.data
            box = BoxConstraints(
                lower=np.where(rng.random(n) < 0.3, truth - 0.25, -np.inf),
                upper=np.where(rng.random(n) < 0.3, truth + 0.25, np.inf),
            )
            free = None
            for bx in (None, box):
                result = reconcile_l1(inst.y_base.data, inst.agg, box=bx)
                f = row_form_l1_optimum(inst.y_base.data, inst.agg.matrix, bx)
                assert abs(result.loss_value - f) <= 1e-9 * (1 + f)
                assert result.stats.duality_gap <= 1e-7
                if bx is None:
                    free = f
            binding += f > free + 1e-9
        assert binding >= 3  # the boxes must bite, or the box cases test nothing

    def test_a_box_adds_no_row(self, monkeypatch):
        inst = random_instance(nodes=10, seed=41)
        n, k = inst.agg.n, inst.agg.n_paths
        shapes = []

        def spy(c, a_eq, *args, **kwargs):
            shapes.append(a_eq.shape)
            return solve_lp(c, a_eq, *args, **kwargs)

        monkeypatch.setattr(flowrec.reconcile, "solve_lp", spy)
        truth = inst.y_true.data
        reconcile_l1(inst.y_base.data, inst.agg, box=BoxConstraints(truth - 0.5, truth + 0.5))
        # One row per node and edge (the path rows fix b), 2n split parts.
        assert shapes == [(n - k, 2 * n)]

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "boxed"])
    def test_matches_the_full_split_form_lp_on_small_instances(self, boxed):
        # The reference keeps every row of S b - p + q = yhat over [b; p; q]
        # and states a box as rows on S b, not as bounds on p and q.
        binding = 0
        for seed in range(555000, 555020):
            inst = generate_instance(GeneratorConfig(nodes=30, density=0.2, seed=seed), 0)
            agg, y, truth = inst.agg, inst.y_base.data, inst.y_true.data
            s = agg.matrix
            n, k = s.shape
            box = BoxConstraints(truth - 0.5, truth + 0.5) if boxed else None
            rows = {}
            if boxed:
                zeros = sp.csr_matrix((n, 2 * n))
                rows = dict(
                    A_ub=sp.bmat([[s, zeros], [-s, zeros]], format="csr"),
                    b_ub=np.concatenate([box.upper, -box.lower]),
                )
            eye = sp.identity(n, format="csr")
            ref = linprog(
                np.concatenate([np.zeros(k), np.ones(2 * n)]),
                A_eq=sp.hstack([s, -eye, eye], format="csr"),
                b_eq=y,
                bounds=[(None, None)] * k + [(0, None)] * (2 * n),
                method="highs",
                **rows,
            )
            assert ref.status == 0, ref.message
            result = reconcile_l1(y, agg, box=box)
            lifted = s @ result.b_tilde
            assert result.loss_value == pytest.approx(ref.fun, rel=1e-12, abs=0.0), seed
            assert float(np.abs(lifted - y).sum()) == pytest.approx(ref.fun, rel=1e-12, abs=0.0)
            assert result.stats.duality_gap <= 1e-7
            if boxed:
                assert np.all(lifted <= box.upper + 1e-9) and np.all(lifted >= box.lower - 1e-9)
                binding += ref.fun > reconcile_l1(y, agg).loss_value * (1.0 + 1e-9)
        assert not boxed or binding >= 10  # the boxes must bite

    def test_huge_finite_forecast_is_a_bad_parameter(self, chain_agg):
        # HiGHS reads 1e20 as infinite and reports a model error.  With no
        # box the LP is always feasible, so this is bad input, not an
        # infeasible problem.
        y = np.full(6, 4.0)
        y[1] = 1e20
        with pytest.raises(BadParameter, match="1e20"):
            reconcile_l1(y, chain_agg)

    def test_crossed_bounds_rejected_at_construction(self):
        with pytest.raises(BadParameter):
            BoxConstraints(lower=np.array([5.0]), upper=np.array([3.0]))

    @pytest.mark.parametrize(
        "lower, upper", [(np.inf, np.inf), (-np.inf, -np.inf)], ids=["lower-inf", "upper-minus-inf"]
    )
    def test_bound_no_value_meets_rejected_at_construction(self, lower, upper):
        with pytest.raises(BadParameter):
            BoxConstraints(lower=np.array([0.0, lower]), upper=np.array([1.0, upper]))

    def test_two_path_instance_matches_breakpoint_enumeration(self, parallel_agg):
        # With piecewise-linear objectives the optimum sits on a breakpoint
        # grid; enumerating candidate coordinates from the data is exact.
        yhat = np.array([10.0, 2.0, 6.0, 7.0, 3.0, 1.0, 5.0, 6.0, 2.0, 4.0])
        dense = parallel_agg.matrix.toarray()
        candidates1 = sorted(set(np.concatenate([yhat, [0.0]])))
        best_val, best_b = None, None
        for b1 in candidates1:
            for b2 in candidates1:
                val = float(np.sum(np.abs(dense @ np.array([b1, b2]) - yhat)))
                if best_val is None or val < best_val - 1e-12:
                    best_val, best_b = val, (b1, b2)
        result = reconcile_l1(yhat, parallel_agg)
        assert result.loss_value == pytest.approx(best_val, abs=1e-7)
        assert result.stats.duality_gap <= 1e-7

    def test_random_instances_coherent_with_certified_gap(self):
        for seed in range(3):
            inst = random_instance(nodes=8, seed=seed + 40)
            result = reconcile_l1(inst.y_base.data, inst.agg)
            assert result.coherence.coherent
            assert result.stats.duality_gap <= 1e-7


# ---------------------------------------------------------------------------
# General losses via smooth minimization.
# ---------------------------------------------------------------------------


class TestGeneralLoss:
    def test_l2_route_matches_dedicated_solver(self):
        inst = random_instance(nodes=10, seed=60)
        direct = reconcile_l2(inst.y_base.data, inst.agg)
        general = reconcile_general(inst.y_base.data, inst.agg, LossSpec(kind="l2"))
        assert general.y_tilde.data == pytest.approx(direct.y_tilde.data, rel=1e-8, abs=1e-8)

    def test_weighted_l2_matches_the_dense_weighted_projection(self):
        # The CLI's --weights route.  Route one: CG on S^T W S applied
        # through S.  Route two: the dense closed-form projection.
        rng = np.random.default_rng(64)
        for seed in range(20):
            inst = random_instance(nodes=10, seed=seed + 640)
            w = rng.uniform(0.2, 5.0, size=inst.agg.n)
            general = reconcile_general(inst.y_base.data, inst.agg, LossSpec("l2", weights=w))
            a, c = coherence_constraints(inst.agg)
            via_kkt = reconcile_weighted(inst.y_base.data, a, c, w)
            assert general.stats.method == "general:l2"
            scale = 1.0 + np.linalg.norm(via_kkt, np.inf)
            assert np.max(np.abs(general.y_tilde.data - via_kkt)) <= 1e-8 * scale

    def test_huber_outlier_lands_between_mean_and_median(self, chain_agg):
        y = chain_outlier_vector(chain_agg)
        result = reconcile_general(y, chain_agg, LossSpec(kind="huber", delta=1.0))
        # Stationarity of 5*huber(b-4) + huber(b-10) with unit slope on the
        # outlier arm: 5*(b-4) = 1, so b = 4.2.
        assert result.b_tilde == pytest.approx([4.2], abs=1e-5)
        assert 4.0 < result.b_tilde[0] < 5.0

    def test_huber_outlier_against_grid_scan(self, chain_agg):
        y = chain_outlier_vector(chain_agg)
        delta = 1.0

        def huber_scalar(u):
            u = np.abs(u)
            return np.where(u <= delta, 0.5 * u * u, delta * u - 0.5 * delta * delta)

        grid = np.arange(3.5, 6.0, 1e-5)
        objective = 5.0 * huber_scalar(grid - 4.0) + huber_scalar(grid - 10.0)
        best = grid[np.argmin(objective)]
        result = reconcile_general(y, chain_agg, LossSpec(kind="huber", delta=1.0))
        assert abs(result.b_tilde[0] - best) <= 1e-4

    def test_huber_with_large_threshold_is_quadratic(self):
        inst = random_instance(nodes=10, seed=61)
        quad = reconcile_l2(inst.y_base.data, inst.agg)
        huber = reconcile_general(inst.y_base.data, inst.agg, LossSpec(kind="huber", delta=1e6))
        assert huber.y_tilde.data == pytest.approx(quad.y_tilde.data, abs=1e-6)

    def test_custom_quartic_against_grid_refinement(self, parallel_agg):
        yhat = np.array([10.0, 2.0, 6.0, 7.0, 3.0, 1.0, 5.0, 6.0, 2.0, 4.0])
        loss = LossSpec(kind="custom", f=lambda u: u**4, f_prime=lambda u: 4.0 * u**3)
        result = reconcile_general(yhat, parallel_agg, loss)
        dense = parallel_agg.matrix.toarray()

        def objective(b1, b2):
            return float(np.sum((dense @ np.array([b1, b2]) - yhat) ** 4))

        # Coarse-to-fine grid search; five rounds bring the grid resolution
        # to about 3e-4, well inside the 1e-3 comparison budget.
        lo1, hi1, lo2, hi2 = 0.0, 12.0, 0.0, 12.0
        for _ in range(5):
            g1 = np.linspace(lo1, hi1, 61)
            g2 = np.linspace(lo2, hi2, 61)
            vals = [(objective(b1, b2), b1, b2) for b1 in g1 for b2 in g2]
            _, c1, c2 = min(vals)
            span1, span2 = (hi1 - lo1) / 10.0, (hi2 - lo2) / 10.0
            lo1, hi1 = c1 - span1, c1 + span1
            lo2, hi2 = c2 - span2, c2 + span2
        assert abs(result.b_tilde[0] - c1) <= 1e-3
        assert abs(result.b_tilde[1] - c2) <= 1e-3

    def test_gradient_norm_reported_small(self):
        inst = random_instance(nodes=10, seed=62)
        result = reconcile_general(inst.y_base.data, inst.agg, LossSpec(kind="huber", delta=2.0))
        assert result.stats.gradient_norm <= 1e-6 * (1.0 + result.loss_value)

    def test_huber_from_a_start_with_a_singular_quadratic_zone(self):
        # Starting 50 above every base path value puts every residual beyond
        # delta, so the quadratic-zone Hessian S^T diag(w [|r| <= delta]) S
        # is zero at the start; the run must still meet criterion 3's
        # certificate and reach the loss of the dispatch's l2 start.
        inst = random_instance(nodes=12, seed=63)
        loss = LossSpec(kind="huber", delta=1.0)
        imap = inst.agg.index_map
        start = inst.y_base.data[imap.path_slice] + 50.0
        assert np.all(np.abs(inst.agg.matrix @ start - inst.y_base.data) > loss.delta)
        far = newton_from(inst.y_base.data, inst.agg, loss, start)
        near = reconcile_general(inst.y_base.data, inst.agg, loss)
        assert far.gradient_norm <= 1e-8 * (1.0 + far.value)
        r = inst.agg.matrix @ far.x - inst.y_base.data
        grad = inst.agg.matrix.T @ np.clip(r, -loss.delta, loss.delta)
        assert float(np.linalg.norm(grad)) <= 1e-8 * (1.0 + far.value)
        assert far.value == pytest.approx(near.loss_value, rel=1e-9)

    @pytest.mark.parametrize("delta", [1.0, 0.1])
    def test_huber_meets_its_certificate_on_small_instances(self, delta):
        loss = LossSpec(kind="huber", delta=delta)
        for seed in range(555000, 555020):
            inst = generate_instance(GeneratorConfig(nodes=30, density=0.2, seed=seed), 0)
            result = reconcile_general(inst.y_base.data, inst.agg, loss)
            r = inst.agg.matrix @ result.b_tilde - inst.y_base.data
            grad = inst.agg.matrix.T @ np.clip(r, -delta, delta)
            assert float(np.linalg.norm(grad)) <= 1e-8 * (1.0 + result.loss_value), seed

    def test_huber_small_delta_converges_at_1000_nodes(self):
        # From the base path values this ran out of its 200 Newton steps
        # (stationarity norm 6.6e-2 against a target of 9.4e-6).  A still
        # smaller delta, 0.03, fails at this size from either start.
        base = GeneratorConfig(nodes=1000, seed=4000)
        cfg = GeneratorConfig(
            nodes=1000, seed=4000, density=density_for_edge_target(base, 3000)
        )
        inst = generate_instance(cfg, 0)
        result = reconcile_general(inst.y_base.data, inst.agg, LossSpec("huber", delta=0.1))
        assert result.stats.gradient_norm <= 1e-8 * (1.0 + result.loss_value)

    def test_two_starts_reach_the_same_optimum(self, parallel_agg):
        yhat = np.array([10.0, 2.0, 6.0, 7.0, 3.0, 1.0, 5.0, 6.0, 2.0, 4.0])
        loss = LossSpec(kind="huber", delta=1.5)
        from_zero = newton_from(yhat, parallel_agg, loss, np.zeros(2))
        from_far = newton_from(yhat, parallel_agg, loss, np.array([50.0, -20.0]))
        assert from_zero.x == pytest.approx(from_far.x, abs=1e-6)

    def test_box_clamps_path_components(self, chain_agg):
        y = np.full(6, 4.0)
        upper = np.full(6, np.inf)
        upper[5] = 3.0  # the sole path component sits last in the stack
        box = BoxConstraints(lower=np.full(6, -np.inf), upper=upper)
        result = reconcile_general(y, chain_agg, LossSpec(kind="huber", delta=1.0), box=box)
        assert result.b_tilde[0] <= 3.0 + 1e-9
        assert result.b_tilde == pytest.approx([3.0], abs=1e-6)

    def test_box_on_aggregate_components_rejected(self, chain_agg):
        upper = np.full(6, np.inf)
        upper[1] = 3.0  # a node bound, which the projected solver cannot honor
        box = BoxConstraints(lower=np.full(6, -np.inf), upper=upper)
        with pytest.raises(BadParameter):
            reconcile_general(np.full(6, 4.0), chain_agg, LossSpec(kind="huber", delta=1.0), box=box)

    def test_absolute_loss_runs_the_lp(self):
        inst = random_instance(nodes=12, seed=65)
        y = inst.y_base.data
        w = np.linspace(0.5, 2.0, inst.agg.n)
        box = BoxConstraints(inst.y_true.data - 1.0, inst.y_true.data + 1.0)
        for weights, bounds in ((None, None), (w, box)):
            via_dispatch = reconcile_general(y, inst.agg, LossSpec("l1", weights=weights), box=bounds)
            direct = reconcile_l1(y, inst.agg, box=bounds, weights=weights)
            assert np.array_equal(via_dispatch.y_tilde.data, direct.y_tilde.data)
            assert np.array_equal(via_dispatch.b_tilde, direct.b_tilde)
            assert via_dispatch.loss_value == direct.loss_value
            assert via_dispatch.stats.method == direct.stats.method == "l1"
            assert via_dispatch.stats.duality_gap == direct.stats.duality_gap

    def test_kinked_custom_loss_is_rejected(self, chain_agg):
        loss = LossSpec(
            kind="custom",
            f=lambda u: np.abs(u),
            f_prime=lambda u: np.where(u >= 0, 1.0, -1.0),
        )
        with pytest.raises(NonSmoothLoss):
            reconcile_general(np.full(6, 4.0), chain_agg, loss)

    def test_evaluate_loss_matches_manual_sums(self):
        y = np.array([1.0, 2.0])
        target = np.array([0.0, 0.0])
        assert evaluate_loss(LossSpec(kind="l2"), target, y) == pytest.approx(5.0)
        assert evaluate_loss(LossSpec(kind="l1"), target, y) == pytest.approx(3.0)
        # huber(1)=0.5, huber(2)=1.5 at delta=1.
        assert evaluate_loss(LossSpec(kind="huber", delta=1.0), target, y) == pytest.approx(2.0)


class TestSmoothDenseReference:
    """The Newton kernel against scipy's L-BFGS-B on objectives written out here.

    Each of 20 seeded instances gets random weights and a box on its path
    components between the 30th and 70th percentiles of the base path
    values.  The reference minimises the same weighted objective over the
    path values with dense S, under the same bounds.
    """

    @staticmethod
    def parts(kind, w):
        """Dense (value, slope) of the weighted loss in the signed residual r."""
        if kind == "l2":
            return lambda r: w @ (r * r), lambda r: 2.0 * w * r
        if kind == "huber":
            value = lambda r: w @ np.where(np.abs(r) <= 1.0, 0.5 * r * r, np.abs(r) - 0.5)
            return value, lambda r: w * np.clip(r, -1.0, 1.0)
        return lambda r: w @ r**4, lambda r: 4.0 * w * r**3

    @pytest.mark.parametrize(
        "kind, boxed",
        [("l2", True), ("huber", True), ("quartic", True), ("quartic", False)],
    )
    def test_matches_lbfgsb_with_a_recomputed_certificate(self, kind, boxed):
        from scipy.optimize import minimize

        rng = np.random.default_rng(7100)
        specs = {
            "l2": lambda w: LossSpec("l2", weights=w),
            "huber": lambda w: LossSpec("huber", weights=w, delta=1.0),
            "quartic": lambda w: LossSpec(
                "custom", weights=w, f=lambda u: u**4, f_prime=lambda u: 4.0 * u**3
            ),
        }
        for seed in range(7100, 7120):
            inst = random_instance(nodes=12, seed=seed)
            agg, y = inst.agg, inst.y_base.data
            imap = agg.index_map
            w = rng.uniform(0.5, 2.0, size=agg.n)
            lo, hi = np.full(agg.n, -np.inf), np.full(agg.n, np.inf)
            base_paths = y[imap.path_slice]
            lo[imap.path_slice], hi[imap.path_slice] = np.percentile(base_paths, [30, 70])
            box = BoxConstraints(lo, hi) if boxed else None
            result = reconcile_general(y, agg, specs[kind](w), box=box)

            dense = agg.matrix.toarray()
            value, slope = self.parts(kind, w)
            bounds = list(zip(lo[imap.path_slice], hi[imap.path_slice])) if boxed else None
            ref = minimize(
                lambda b: (value(dense @ b - y), dense.T @ slope(dense @ b - y)),
                np.clip(base_paths, lo[imap.path_slice], hi[imap.path_slice]),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20_000},
            )
            b = result.b_tilde
            ours = value(dense @ b - y)
            assert ours == pytest.approx(result.loss_value, rel=1e-12)
            assert abs(ours - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun)), seed

            grad = dense.T @ slope(dense @ b - y)
            if boxed:
                low, high = lo[imap.path_slice], hi[imap.path_slice]
                assert np.all((low <= b) & (b <= high))
                assert np.count_nonzero((b == low) | (b == high)) >= 3, seed
                certificate = float(np.linalg.norm(b - np.clip(b - grad, low, high)))
            else:
                certificate = float(np.linalg.norm(grad))
            target = 1e-8 * (1.0 + result.loss_value)
            assert certificate == pytest.approx(result.stats.gradient_norm, rel=1e-6, abs=1e-3 * target)
            assert certificate <= 1.001 * target, seed


# ---------------------------------------------------------------------------
# Flow conservation of reconciled outputs.
# ---------------------------------------------------------------------------


class TestConservation:
    def test_intermediate_nodes_balance_after_reconciliation(self):
        from flowrec import node_imbalance

        inst = random_instance(nodes=12, seed=70)
        net = inst.network
        result = reconcile_l2(inst.y_base.data, inst.agg)
        imbalance = node_imbalance(result.y_tilde.data, net)
        for name in net.nodes:
            if net.roles.get(name) == "intermediate":
                assert abs(imbalance[net.node_index[name]]) <= 1e-7


# ---------------------------------------------------------------------------
# Matrix-free solves: no solver assembles a matrix for CG.
# ---------------------------------------------------------------------------


class TestMatrixFree:
    def test_solvers_never_build_a_checked_matrix(self, monkeypatch):
        # SparseSpd is the checked wrapper for explicit matrices from
        # outside; the normal-equation operator and the Huber and relaxed
        # generalised Hessians must reach CG as products through S instead.
        def refuse(self, matrix):
            raise AssertionError("a solver assembled an explicit matrix for CG")

        monkeypatch.setattr(SparseSpd, "__init__", refuse)
        inst = random_instance(nodes=12, seed=66)
        y = inst.y_base.data
        w = np.linspace(0.5, 2.0, inst.agg.n)
        assert reconcile_l2(y, inst.agg).stats.iterations >= 1
        assert reconcile_general(y, inst.agg, LossSpec("l2", weights=w)).stats.iterations >= 1
        huber = reconcile_general(y, inst.agg, LossSpec("huber", delta=1.0))
        assert huber.stats.gradient_norm <= 1e-8 * (1.0 + huber.loss_value)
        relaxed = reconcile_relaxed(y, inst.agg, 0.01)
        assert relaxed.stats.gradient_norm <= 1e-10 * (1.0 + relaxed.loss_value)


# ---------------------------------------------------------------------------
# One packager: every route scores and checks its answer the same way.
# ---------------------------------------------------------------------------


class TestPackagedResults:
    def test_every_route_reports_its_own_loss_and_coherence(self):
        inst = random_instance(nodes=12, seed=71)
        agg, y = inst.agg, inst.y_base.data
        n = agg.n
        l2 = LossSpec("l2")
        weighted = LossSpec("l2", weights=np.linspace(0.5, 2.0, n))
        huber = LossSpec("huber", delta=1.0)
        quartic = LossSpec("custom", f=lambda u: u**4, f_prime=lambda u: 4.0 * u**3)
        relaxed = LossSpec("relaxed", epsilon=0.05)
        box = BoxConstraints(inst.y_true.data - 1.0, inst.y_true.data + 1.0)
        nonneg = BoxConstraints.nonnegative_paths(agg)
        panel = np.column_stack([y, 1.1 * y, y[::-1]])
        cases = [
            (l2, y, reconcile_l2(y, agg)),
            (weighted, y, reconcile_general(y, agg, weighted)),
            (LossSpec("l1"), y, reconcile_l1(y, agg, box=box)),
            (huber, y, reconcile_general(y, agg, huber)),
            (quartic, y, reconcile_general(y, agg, quartic)),
            (relaxed, y, reconcile_relaxed(y, agg, 0.05)),
            (l2, y, reconcile_general(y, agg, l2, box=nonneg)),
        ]
        cases += [
            (l2, panel[:, k], res) for k, res in enumerate(reconcile_general(panel, agg, l2))
        ]
        # Off the l2 normal equations a panel is solved one column at a time:
        # the k-th result is bitwise its one-column call, with horizon k + 1.
        for loss, bounds in ((LossSpec("l1"), box), (huber, None), (quartic, None), (relaxed, None)):
            solved = reconcile_general(panel, agg, loss, box=bounds)
            assert len(solved) == panel.shape[1]
            for k, res in enumerate(solved):
                single = reconcile_general(panel[:, k].copy(), agg, loss, box=bounds)
                assert np.array_equal(res.y_tilde.data, single.y_tilde.data), (loss.kind, k)
                assert np.array_equal(res.b_tilde, single.b_tilde), (loss.kind, k)
                assert res.loss_value == single.loss_value, (loss.kind, k)
                assert res.stats.iterations == single.stats.iterations, (loss.kind, k)
                assert res.y_tilde.horizon == k + 1
                cases.append((loss, panel[:, k], res))
        for loss, yhat, res in cases:
            method = res.stats.method
            expected = evaluate_loss(loss, yhat, res.y_tilde)
            assert res.loss_value == pytest.approx(expected, rel=1e-12, abs=0.0), method
            report = check_coherence(res.y_tilde, agg)
            assert res.coherence.coherent == report.coherent, method
            assert res.coherence.tolerance == report.tolerance, method
            assert res.coherence.max_node_residual == report.max_node_residual, method
            assert res.coherence.max_edge_residual == report.max_edge_residual, method
            assert np.array_equal(res.coherence.node_residuals, report.node_residuals), method
            assert np.array_equal(res.coherence.edge_residuals, report.edge_residuals), method

    def test_newton_panels_give_each_column_its_one_column_loss(self):
        inst = generate_instance(GeneratorConfig(nodes=30, density=0.2, seed=555000), 0)
        agg, y = inst.agg, inst.y_base.data
        rng = np.random.default_rng(5)
        panel = y[:, None] + rng.normal(0.0, 1.0, (agg.n, 5))
        for loss, tol in ((LossSpec("huber", delta=1.0), flowrec.reconcile.NEWTON_TOL),
                          (LossSpec("relaxed", epsilon=0.01), flowrec.reconcile.RELAXED_TOL)):
            for k, res in enumerate(reconcile_general(panel, agg, loss)):
                single = reconcile_general(panel[:, k].copy(), agg, loss)
                assert res.loss_value == pytest.approx(single.loss_value, rel=1e-10), (loss.kind, k)
                assert res.stats.gradient_norm <= tol * (1.0 + res.loss_value), (loss.kind, k)

    @pytest.mark.parametrize(
        "loss",
        [LossSpec("l2"), LossSpec("l1"), LossSpec("huber", delta=1.0),
         LossSpec("relaxed", epsilon=0.05)],
        ids=["l2", "l1", "huber", "relaxed"],
    )
    def test_empty_panel_gives_no_results(self, chain_agg, loss):
        assert reconcile_general(np.zeros((chain_agg.n, 0)), chain_agg, loss) == []
