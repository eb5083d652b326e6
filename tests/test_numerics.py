"""Numerical kernels: sparse SPD solve, LP solve, semismooth Newton."""

import numpy as np
import pytest
import scipy.sparse as sp

from flowrec.errors import (
    BadParameter,
    CyclingDetected,
    DimensionMismatch,
    Infeasible,
    NoConvergence,
    NotPositiveDefinite,
    Unbounded,
)
from flowrec.numerics import (
    SparseSpd,
    minimize_smooth_convex,
    solve_lp,
    solve_spd_with_info,
)

from conftest import random_instance


def spd_from(matrix):
    return SparseSpd(sp.csr_matrix(np.asarray(matrix, dtype=float)))


class TestSolveSpd:
    def test_identity_returns_rhs(self):
        rhs = np.array([3.0, -1.0, 2.0])
        x = solve_spd_with_info(spd_from(np.eye(3)), rhs)[0]
        assert np.allclose(x, rhs, atol=1e-12)

    def test_diagonal_divides(self):
        d = np.array([2.0, 5.0, 0.5])
        x = solve_spd_with_info(spd_from(np.diag(d)), np.array([4.0, 10.0, 1.0]))[0]
        assert np.allclose(x, [2.0, 2.0, 2.0], atol=1e-12)

    def test_matches_dense_elimination_on_random_spd(self):
        # Route one: conjugate gradient.  Route two: dense LU elimination.
        rng = np.random.default_rng(11)
        for trial in range(10):
            a = rng.normal(size=(8, 8))
            m = a @ a.T + np.eye(8)
            rhs = rng.normal(size=8)
            x_cg, info = solve_spd_with_info(spd_from(m), rhs, tol=1e-12)
            x_dense = np.linalg.solve(m, rhs)
            assert np.allclose(x_cg, x_dense, atol=1e-8)
            assert np.linalg.norm(m @ x_cg - rhs) <= 1e-10 * np.linalg.norm(rhs)
            assert info.iterations >= 1

    def test_callable_operator_matches_the_matrix(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(8, 8))
        m = a @ a.T + np.eye(8)
        rhs = rng.normal(size=8)
        x_op, info_op = solve_spd_with_info(lambda v: m @ v, rhs, tol=1e-12)
        x_mat, info_mat = solve_spd_with_info(spd_from(m), rhs, tol=1e-12)
        assert np.allclose(x_op, x_mat, atol=1e-10)
        assert np.linalg.norm(m @ x_op - rhs) <= 1e-12 * np.linalg.norm(rhs)
        assert info_op.iterations == info_mat.iterations

    def test_callable_operator_keeps_the_curvature_and_shape_checks(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd_with_info(lambda v: np.array([1.0, -1.0]) * v, np.ones(2))
        # A callable takes its dimension from the rhs, and an (n, H) block
        # is a valid rhs, so only a rhs that is neither vector nor block is
        # a shape error here.
        with pytest.raises(DimensionMismatch):
            solve_spd_with_info(lambda v: v, np.ones((2, 1, 1)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            spd_from([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd_with_info(spd_from(np.diag([1.0, -1.0])), np.ones(2))

    def test_iteration_budget_enforced(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(30, 30))
        m = a @ a.T + np.eye(30)
        with pytest.raises(NoConvergence):
            solve_spd_with_info(spd_from(m), rng.normal(size=30), tol=1e-14, max_iter=1)


def _random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + np.eye(n)


class TestSolveSpdBlock:
    """An (n, H) right-hand side: one block CG, each column on its own contract."""

    def test_each_column_matches_its_vector_solve(self):
        # One Krylov space serves every column, so a column is no longer
        # bitwise its vector solve; it meets its own target, and both
        # answers lie within target / lambda_min of the solution.
        rng = np.random.default_rng(21)
        a = sp.random(60, 40, density=0.1, random_state=21, format="csr")
        m = (a.T @ a + sp.identity(40)).tocsr()
        lam_min = np.linalg.eigvalsh(m.toarray()).min()
        # Columns of very different scale and difficulty.
        rhs = rng.normal(size=(40, 5)) * np.array([1e-3, 1.0, 1e3, 1.0, 1.0])
        rhs[:, 3] = m @ np.eye(40)[0]
        tol = 1e-10
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=tol)
        assert x.shape == rhs.shape
        assert len(info.columns) == 5
        for h in range(5):
            target = tol * np.linalg.norm(rhs[:, h])
            residual = np.linalg.norm(m @ x[:, h] - rhs[:, h])
            assert residual <= target
            assert info.columns[h].residual_norm == pytest.approx(residual, rel=1e-3, abs=1e-3 * target)
            assert info.columns[h].iterations == info.iterations
            x_h = solve_spd_with_info(lambda v: m @ v, rhs[:, h], tol=tol)[0]
            assert np.linalg.norm(x[:, h] - x_h) <= 2 * target / lam_min
        assert isinstance(info.iterations, int)
        assert 1 <= info.iterations < 40
        assert isinstance(info.residual_norm, float)
        assert info.residual_norm == max(c.residual_norm for c in info.columns)

    def test_dense_callable_meets_each_column_tolerance(self):
        rng = np.random.default_rng(25)
        m = _random_spd(rng, 30)
        rhs = rng.normal(size=(30, 4)) * np.array([1e-3, 1.0, 1e3, 1.0])
        tol = 1e-10
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=tol)
        for h in range(4):
            target = tol * np.linalg.norm(rhs[:, h])
            residual = np.linalg.norm(m @ x[:, h] - rhs[:, h])
            assert residual <= target
            assert info.columns[h].residual_norm == pytest.approx(residual, rel=1e-3, abs=1e-3 * target)
            # Each answer lies within target / lambda_min of the solution.
            x_h = solve_spd_with_info(lambda v: m @ v, rhs[:, h], tol=tol)[0]
            assert np.linalg.norm(x[:, h] - x_h) <= 2 * target / np.linalg.eigvalsh(m).min()

    def test_explicit_matrix_block(self):
        rng = np.random.default_rng(22)
        m = _random_spd(rng, 8)
        rhs = rng.normal(size=(8, 3))
        x, info = solve_spd_with_info(spd_from(m), rhs, tol=1e-12)
        assert np.allclose(x, np.linalg.solve(m, rhs), atol=1e-8)
        assert all(c.iterations >= 1 for c in info.columns)

    def test_zero_column_returns_zeros_and_does_not_stall_the_others(self):
        rng = np.random.default_rng(23)
        m = _random_spd(rng, 20)
        rhs = rng.normal(size=(20, 3))
        rhs[:, 1] = 0.0
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=1e-10)
        assert np.array_equal(x[:, 1], np.zeros(20))
        assert info.columns[1].iterations == 0
        assert info.columns[1].residual_norm == 0.0
        for h in (0, 2):
            assert np.linalg.norm(m @ x[:, h] - rhs[:, h]) <= 1e-10 * np.linalg.norm(rhs[:, h])
            assert info.columns[h].iterations >= 1

    def test_indefinite_operator_raises(self):
        d = np.array([1.0, 2.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            solve_spd_with_info(lambda v: d[:, None] * v, np.ones((3, 2)))
        with pytest.raises(NotPositiveDefinite):
            solve_spd_with_info(spd_from(np.diag(d)), np.ones((3, 2)))

    def test_iteration_budget_enforced(self):
        rng = np.random.default_rng(0)
        m = _random_spd(rng, 30)
        with pytest.raises(NoConvergence):
            solve_spd_with_info(spd_from(m), rng.normal(size=(30, 4)), tol=1e-14, max_iter=1)

    def test_wrong_number_of_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_spd_with_info(spd_from(np.eye(3)), np.ones((4, 2)))

    def test_columns_that_rederive_their_residual_still_match(self):
        # At tol = 2e-15 the recurrence residuals fall below their targets
        # before the true ones do, so the first recheck fails and the block
        # restarts from its re-derived residuals before it passes.  Every
        # operator product beyond the block steps is one explicit recheck.
        # The vector loop stalls at that tolerance and is run at 3e-15; the
        # two answers lie within the sum of their targets / lambda_min.
        a = sp.random(60, 40, density=0.1, random_state=1, format="csr")
        m = (a.T @ a + 1e-2 * sp.identity(40)).tocsr()
        lam_min = np.linalg.eigvalsh(m.toarray()).min()
        rhs = np.random.default_rng(1).normal(size=(40, 4))
        calls = []
        x, info = solve_spd_with_info(lambda v: calls.append(1) or m @ v, rhs, tol=2e-15)
        assert len(calls) - info.iterations >= 2  # more than one recheck
        for h in range(4):
            b_norm = np.linalg.norm(rhs[:, h])
            assert np.linalg.norm(m @ x[:, h] - rhs[:, h]) <= 2e-15 * b_norm
            assert info.columns[h].iterations == info.iterations
            x_h = solve_spd_with_info(lambda v: m @ v, rhs[:, h], tol=3e-15)[0]
            assert np.linalg.norm(x[:, h] - x_h) <= (2e-15 + 3e-15) * b_norm / lam_min

    def test_more_columns_than_rows_converge_in_one_step(self):
        # Nine right-hand sides span at most R^5: rank deflation keeps five
        # directions, and one step over the whole space solves every column.
        rng = np.random.default_rng(26)
        m = _random_spd(rng, 5)
        rhs = rng.normal(size=(5, 9))
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=1e-10)
        assert info.iterations == 1
        for h in range(9):
            assert np.linalg.norm(m @ x[:, h] - rhs[:, h]) <= 1e-10 * np.linalg.norm(rhs[:, h])

    def test_duplicate_and_scaled_duplicate_columns(self):
        rng = np.random.default_rng(27)
        a = sp.random(80, 50, density=0.08, random_state=27, format="csr")
        m = (a.T @ a + sp.identity(50)).tocsr()
        lam_min = np.linalg.eigvalsh(m.toarray()).min()
        b0, b1 = rng.normal(size=50), rng.normal(size=50)
        rhs = np.column_stack([b0, b0, 3.0 * b0, -2e-3 * b0, b1, b1 + b0])
        tol = 1e-10
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=tol)
        for h in range(rhs.shape[1]):
            target = tol * np.linalg.norm(rhs[:, h])
            assert np.linalg.norm(m @ x[:, h] - rhs[:, h]) <= target
        # A copy and the scaled first answer each lie within the copy's
        # target / lambda_min of its solution.
        for h, factor in ((1, 1.0), (2, 3.0), (3, -2e-3)):
            bound = 2 * tol * np.linalg.norm(rhs[:, h]) / lam_min
            assert np.linalg.norm(x[:, h] - factor * x[:, 0]) <= bound
        assert info.iterations < 50
        # Copies of an eigenvector are exactly dependent: without rank
        # deflation P^T M P would be singular.
        d = np.arange(1.0, 7.0)
        rhs = np.zeros((6, 3))
        rhs[0] = [1.0, 1.0, 2.0]
        x, info = solve_spd_with_info(lambda v: d[:, None] * v, rhs, tol=1e-10)
        assert info.iterations == 1
        assert np.allclose(x, rhs, rtol=1e-15, atol=0.0)

    def test_nearly_dependent_columns_of_an_ill_conditioned_operator(self):
        # Twelve horizons of one forecast, rescaled and noisy, under weights
        # spanning six decades: the residual columns grow nearly dependent,
        # and dropping every direction within 1e-6 of the others stalls the
        # solve (no convergence within 10 n steps).
        inst = random_instance(nodes=30, seed=32, density=0.2)
        agg = inst.agg
        rng = np.random.default_rng(32)
        w = 10.0 ** rng.uniform(-3, 3, agg.n)
        y = inst.y_base.data[:, None] * rng.uniform(0.5, 2, 12) + rng.normal(0, 1, (agg.n, 12))
        rhs = agg.restrict(w[:, None] * y)
        x, info = solve_spd_with_info(lambda v: agg.normal(v, w), rhs, tol=1e-10)
        for h in range(12):
            target = 1e-10 * np.linalg.norm(rhs[:, h])
            assert np.linalg.norm(agg.normal(x[:, h], w) - rhs[:, h]) <= target
        assert info.iterations <= 2 * agg.n_paths

    def test_directions_closer_than_a_gram_matrix_resolves_are_kept(self):
        # Fifteen noisy horizons under weights spanning eight decades; each
        # column's vector solve converges.  A block that drops every
        # direction within 1e-7 of the others, the most a Gram matrix of Z
        # resolves, runs out of its 10 n steps here.  Distances measured by
        # QR down to 1e-10 keep those directions, and the block converges
        # within n steps.
        inst = random_instance(nodes=18, seed=44, density=0.33)
        agg = inst.agg
        rng = np.random.default_rng(44)
        w = 10.0 ** rng.uniform(-4, 4, agg.n)
        y = inst.y_base.data[:, None] * rng.uniform(0.5, 2, 15) + rng.normal(0, 1, (agg.n, 15))
        rhs = agg.restrict(w[:, None] * y)
        x, info = solve_spd_with_info(lambda v: agg.normal(v, w), rhs, tol=1e-10)
        for h in range(15):
            target = 1e-10 * np.linalg.norm(rhs[:, h])
            assert np.linalg.norm(agg.normal(x[:, h], w) - rhs[:, h]) <= target
            solve_spd_with_info(lambda v: agg.normal(v, w), rhs[:, h], tol=1e-10)
        assert info.iterations <= agg.n_paths

    def test_columns_scaled_1e3_apart_each_meet_their_own_target(self):
        a = sp.random(90, 60, density=0.05, random_state=28, format="csr")
        m = (a.T @ a + 0.1 * sp.identity(60)).tocsr()
        scales = np.array([1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
        rhs = np.random.default_rng(28).normal(size=(60, 7)) * scales
        x, info = solve_spd_with_info(lambda v: m @ v, rhs, tol=1e-11)
        for h in range(7):
            target = 1e-11 * np.linalg.norm(rhs[:, h])
            residual = np.linalg.norm(m @ x[:, h] - rhs[:, h])
            assert residual <= target
            assert info.columns[h].residual_norm <= target

    def test_an_all_zero_block_takes_no_step(self):
        calls = []
        x, info = solve_spd_with_info(lambda v: calls.append(1) or v, np.zeros((4, 3)))
        assert np.array_equal(x, np.zeros((4, 3)))
        assert (info.iterations, info.residual_norm, calls) == (0, 0.0, [])
        assert all(c.iterations == 0 and c.residual_norm == 0.0 for c in info.columns)

    def test_one_column_block_runs_the_vector_loop(self):
        rng = np.random.default_rng(29)
        m = _random_spd(rng, 20)
        b = rng.normal(size=20)
        x, info = solve_spd_with_info(lambda v: m @ v, b[:, None], tol=1e-10)
        x_v, info_v = solve_spd_with_info(lambda v: m @ v, b, tol=1e-10)
        assert x.shape == (20, 1)
        assert np.array_equal(x[:, 0], x_v)
        assert (info.iterations, info.residual_norm) == (info_v.iterations, info_v.residual_norm)
        assert info.columns == (info_v,)

    def test_vector_rhs_is_untouched_by_the_block_path(self):
        # The vector loop is the one the package shipped before block solves;
        # this is that loop written out, to compare bitwise.
        def reference_cg(mat, b, tol):
            x = np.zeros_like(b)
            r = b.copy()
            p = r.copy()
            rs = float(r @ r)
            target = tol * float(np.linalg.norm(b))
            it = 0
            while np.sqrt(rs) > target:
                ap = mat @ p
                alpha = rs / float(p @ ap)
                x += alpha * p
                r -= alpha * ap
                rs_new = float(r @ r)
                p = r + (rs_new / rs) * p
                rs = rs_new
                it += 1
            return x, it

        rng = np.random.default_rng(24)
        m = _random_spd(rng, 25)
        b = rng.normal(size=25)
        x, info = solve_spd_with_info(lambda v: m @ v, b, tol=1e-10)
        x_ref, it_ref = reference_cg(m, b, 1e-10)
        assert np.array_equal(x, x_ref)
        assert info.iterations == it_ref
        assert info.columns == ()


def _with_slacks(c, a_ub, b_ub, lower):
    """solve_lp arguments for min c @ x s.t. a_ub @ x <= b_ub, x >= lower.

    Each row gets its own slack column, bounded below at 0, so the row
    reads a_ub[i] @ x + s_i == b_ub[i].
    """
    a_ub = np.asarray(a_ub, dtype=float)
    nr, nv = a_ub.shape
    return dict(
        c=np.concatenate([c, np.zeros(nr)]),
        a_eq=np.hstack([a_ub, np.eye(nr)]),
        b_eq=np.asarray(b_ub, dtype=float),
        lower=np.concatenate([lower, np.zeros(nr)]),
        upper=np.full(nv + nr, np.inf),
    )


class TestSolveLp:
    def test_single_lower_bounded_variable(self):
        # x >= 3 as the row -x <= -3.
        sol = solve_lp(**_with_slacks(np.array([1.0]), [[-1.0]], [-3.0], np.array([0.0])))
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.duality_gap <= 1e-7

    def test_absolute_value_gadget(self):
        # min s subject to s >= 5 - y and s >= y - 5 with y free.
        sol = solve_lp(
            **_with_slacks(
                np.array([0.0, 1.0]),
                [[-1.0, -1.0], [1.0, -1.0]],
                [-5.0, 5.0],
                np.array([-np.inf, 0.0]),
            )
        )
        assert sol.x[0] == pytest.approx(5.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-9)
        assert sol.duality_gap <= 1e-7

    def test_equality_rows(self):
        # x1 + x2 = 4 and x1 - x2 = 0.
        sol = solve_lp(
            c=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, -1.0]]),
            b_eq=np.array([4.0, 0.0]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        assert np.allclose(sol.x, [2.0, 2.0], atol=1e-9)

    def test_redundant_rows_are_tolerated(self):
        # Three equalities, two of them repeats of the first.
        sol = solve_lp(
            c=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
            b_eq=np.array([4.0, 4.0, 8.0]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        assert sol.objective == pytest.approx(4.0, abs=1e-9)
        assert sol.duality_gap <= 1e-7

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp(**_with_slacks(np.array([-1.0]), [[-1.0]], [0.0], np.array([0.0])))

    def test_infeasible(self):
        # x <= -1 and x >= 1.
        with pytest.raises(Infeasible):
            solve_lp(**_with_slacks(np.array([1.0]), [[1.0], [-1.0]], [-1.0, -1.0], np.array([-np.inf])))

    def test_cycling_prone_degenerate_problem(self):
        # Degenerate instance known to cycle under naive pivoting; the
        # solver must still terminate at objective -1/20.
        sol = solve_lp(**_DEGENERATE_LP)
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)
        assert sol.duality_gap <= 1e-7
        assert sol.dual_infeasibility <= 1e-7

    def test_two_path_deviation_minimisation_matches_breakpoint_oracle(self):
        # Choose bottom values (b1, b2) minimising the total absolute gap to
        # target component values.  Component i carries coefficients s[i] and
        # target yhat[i].  Route one: the LP on the slack formulation.
        # Route two: an optimum of a piecewise-linear function lies where two
        # component hyperplanes intersect, so enumerate all candidate pairs.
        s = np.array(
            [
                [1, 1], [1, 0], [0, 1], [1, 1],
                [1, 0], [1, 0], [0, 1], [0, 1],
                [1, 0], [0, 1],
            ],
            dtype=float,
        )
        yhat = np.array([10.0, 2.0, 6.0, 7.0, 3.0, 1.0, 5.0, 6.0, 2.0, 4.0])
        n = len(yhat)

        rows, rhs = [], []
        for i in range(n):
            # slack_i >= yhat_i - s[i] b  and  slack_i >= s[i] b - yhat_i
            row = np.zeros(2 + n)
            row[:2] = s[i]
            row[2 + i] = -1.0
            rows.append(row), rhs.append(yhat[i])
            row = np.zeros(2 + n)
            row[:2] = -s[i]
            row[2 + i] = -1.0
            rows.append(row), rhs.append(-yhat[i])
        sol = solve_lp(
            **_with_slacks(
                np.concatenate([np.zeros(2), np.ones(n)]),
                np.vstack(rows),
                rhs,
                np.concatenate([np.full(2, -np.inf), np.zeros(n)]),
            )
        )

        def objective(point):
            return np.abs(s @ point - yhat).sum()

        candidates = []
        for i in range(n):
            for j in range(i + 1, n):
                m = np.array([s[i], s[j]])
                if abs(np.linalg.det(m)) > 1e-12:
                    candidates.append(np.linalg.solve(m, [yhat[i], yhat[j]]))
        oracle = min(objective(p) for p in candidates)
        assert oracle == pytest.approx(8.0)
        assert sol.objective == pytest.approx(oracle, abs=1e-9)
        assert sol.duality_gap <= 1e-7

    def test_sparse_matrix_matches_dense(self):
        kwargs = _with_slacks(
            np.array([0.0, 1.0]), [[-1.0, -1.0], [1.0, -1.0]], [-5.0, 5.0], np.array([-np.inf, 0.0])
        )
        dense = solve_lp(**kwargs)
        sparse = solve_lp(**dict(kwargs, a_eq=sp.csr_matrix(kwargs["a_eq"])))
        assert np.allclose(sparse.x, dense.x, atol=1e-12)
        assert sparse.duality_gap <= 1e-7

    def test_pivot_budget_enforced(self):
        with pytest.raises(CyclingDetected):
            solve_lp(**_DEGENERATE_LP, max_pivots=0)

    @pytest.mark.parametrize(
        "field, value",
        [("c", np.zeros(3)), ("b_eq", np.zeros(2)), ("lower", np.zeros(2)), ("upper", np.zeros(2))],
    )
    def test_rejects_inconsistent_shapes(self, field, value):
        kwargs = dict(_DEGENERATE_LP, **{field: value})
        with pytest.raises(DimensionMismatch):
            solve_lp(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nan_or_plus_inf_lower_bound(self, bad):
        lower = _DEGENERATE_LP["lower"].copy()
        lower[2] = bad
        with pytest.raises(BadParameter):
            solve_lp(**dict(_DEGENERATE_LP, lower=lower))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0], ids=["nan", "minus-inf", "below-lower"])
    def test_rejects_upper_bound_no_value_meets(self, bad):
        upper = _DEGENERATE_LP["upper"].copy()
        upper[2] = bad
        with pytest.raises(BadParameter):
            solve_lp(**dict(_DEGENERATE_LP, upper=upper))

    @pytest.mark.parametrize(
        "field, value", [("c", 1e20), ("c", -1e20), ("b_eq", 1e20), ("lower", -1e20), ("upper", 1e20)]
    )
    def test_rejects_entries_highs_reads_as_infinite(self, field, value):
        # HiGHS reads |v| >= 1e20 as infinite and answers "model error",
        # which must not pass for infeasibility.
        values = _DEGENERATE_LP[field].copy()
        values[0] = value
        with pytest.raises(BadParameter, match="1e20"):
            solve_lp(**dict(_DEGENERATE_LP, **{field: values}))

    def _tampered(self, monkeypatch, tamper, **lp):
        """solve_lp through the real linprog with its result edited by ``tamper``."""
        import scipy.optimize

        real = scipy.optimize.linprog

        def fake(*args, **kwargs):
            res = real(*args, **kwargs)
            tamper(res)
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", fake)
        try:
            return solve_lp(**lp)
        finally:
            monkeypatch.undo()

    def test_certificate_is_recomputed_not_trusted(self, monkeypatch):
        # min x subject to x >= 3.
        lp = _with_slacks(np.array([1.0]), [[-1.0]], [-3.0], np.array([0.0]))
        honest = self._tampered(monkeypatch, lambda res: None, **lp)
        assert honest.duality_gap <= 1e-7
        assert honest.dual_infeasibility <= 1e-7

        def move_x(res):
            res.x = res.x + 1.0  # one above the optimum

        assert self._tampered(monkeypatch, move_x, **lp).duality_gap > 1e-7

        def flip_duals(res):
            res.eqlin.marginals = -res.eqlin.marginals

        assert self._tampered(monkeypatch, flip_duals, **lp).dual_infeasibility > 0

    def test_certificate_counts_active_upper_bounds(self, monkeypatch):
        # min -x subject to x + s = 10, 0 <= x <= 3, s >= 0: x stops at its
        # upper bound 3, the row dual is 0, and the dual objective -3 comes
        # from the term u_x * min(r_x, 0) alone.
        lp = dict(
            c=np.array([-1.0, 0.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([10.0]),
            lower=np.zeros(2),
            upper=np.array([3.0, np.inf]),
        )
        honest = self._tampered(monkeypatch, lambda res: None, **lp)
        assert honest.x == pytest.approx([3.0, 7.0], abs=1e-9)
        assert honest.objective == pytest.approx(-3.0, abs=1e-9)
        assert honest.duality_gap <= 1e-7
        assert honest.dual_infeasibility <= 1e-7

        def move_x(res):
            res.x = res.x + np.array([-1.0, 1.0])  # feasible, one below the optimum

        assert self._tampered(monkeypatch, move_x, **lp).duality_gap > 1e-7

        def shift_duals(res):
            res.eqlin.marginals = res.eqlin.marginals - 2.0  # sign-feasible, not optimal

        shifted = self._tampered(monkeypatch, shift_duals, **lp)
        assert shifted.dual_infeasibility <= 1e-7
        assert shifted.duality_gap > 1e-7

    @pytest.mark.parametrize("dual, expected", [(0.5, 0.5), (2.0, 1.0)], ids=["positive", "negative"])
    def test_free_variable_reduced_cost_is_dual_infeasible(self, monkeypatch, dual, expected):
        # min x subject to x - s = 3, x free, s >= 0: the row dual is 1 and
        # x's reduced cost 1 - y vanishes.  Any other dual leaves a nonzero
        # reduced cost on the free variable, of either sign.
        lp = dict(
            c=np.array([1.0, 0.0]),
            a_eq=np.array([[1.0, -1.0]]),
            b_eq=np.array([3.0]),
            lower=np.array([-np.inf, 0.0]),
            upper=np.full(2, np.inf),
        )
        honest = self._tampered(monkeypatch, lambda res: None, **lp)
        assert honest.dual_infeasibility <= 1e-7

        def set_dual(res):
            res.eqlin.marginals = np.array([dual])

        tampered = self._tampered(monkeypatch, set_dual, **lp)
        assert tampered.dual_infeasibility == pytest.approx(expected)


# Degenerate instance known to cycle under naive pivoting; optimum -1/20.
# Its three "<=" rows carry the slack columns 4-6.
_DEGENERATE_LP = _with_slacks(
    np.array([-0.75, 150.0, -0.02, 6.0]),
    [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [0.0, 0.0, 1.0],
    np.zeros(4),
)


class TestMinimizeSmoothConvex:
    def test_quadratic_reaches_center(self):
        c = np.array([2.0, -3.0, 0.5])

        def fun(x):
            d = x - c
            return float(d @ d), 2.0 * d

        res = minimize_smooth_convex(fun, lambda x: lambda v: 2.0 * v, np.zeros(3), tol=1e-10)
        assert np.allclose(res.x, c, atol=1e-8)
        assert res.gradient_norm <= 1e-10 * (1 + abs(res.value))

    def test_two_target_corner_loss_flat_valley(self):
        # Pull toward 0 and 10 with corner parameter 1: the objective is
        # flat between the corners with value 9, so any stationary point in
        # [1, 9] is optimal; the symmetric start must not move.
        def huber(u):
            u = abs(u)
            return 0.5 * u * u if u <= 1 else u - 0.5

        def slope(v):
            return np.clip(v, -1.0, 1.0)

        def fun(x):
            v = float(x[0])
            return huber(v) + huber(v - 10.0), np.array([slope(v) + slope(v - 10.0)])

        def hessian(x):
            v = float(x[0])
            curvature = float(abs(v) <= 1.0) + float(abs(v - 10.0) <= 1.0)
            return lambda d: curvature * d

        res = minimize_smooth_convex(fun, hessian, np.array([5.0]), tol=1e-10)
        assert res.x[0] == pytest.approx(5.0, abs=0)
        assert res.iterations == 0
        res = minimize_smooth_convex(fun, hessian, np.array([0.0]), tol=1e-10)
        assert res.value == pytest.approx(9.0, abs=1e-9)
        assert 1.0 - 1e-6 <= res.x[0] <= 9.0 + 1e-6

    def test_quartic_matches_closed_form(self):
        # Newton steps shrink the quartic's offset by a third each, so the
        # flat basin no longer needs a loose target or a large budget.
        def fun(x):
            return float((x[0] - 3) ** 4 + (x[1] + 1) ** 2), np.array(
                [4 * (x[0] - 3) ** 3, 2 * (x[1] + 1)]
            )

        def hessian(x):
            diag = np.array([12.0 * (x[0] - 3) ** 2, 2.0])
            return lambda v: diag * v

        res = minimize_smooth_convex(fun, hessian, np.zeros(2), tol=1e-10)
        assert res.x[1] == pytest.approx(-1.0, abs=1e-9)
        assert abs(res.x[0] - 3.0) < 1e-3
        assert res.gradient_norm <= 1e-10 * (1 + res.value)
        assert res.iterations <= 40

    def test_projection_clamps_to_box(self):
        c = np.array([2.0, -3.0])

        def fun(x):
            d = x - c
            return float(d @ d), 2.0 * d

        res = minimize_smooth_convex(
            fun, lambda x: lambda v: 2.0 * v, np.zeros(2), tol=1e-10,
            bounds=(np.zeros(2), np.ones(2)),
        )
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-9)
        # The certificate is the projected-gradient norm, 0 at the corner.
        _, g = fun(res.x)
        assert res.gradient_norm == pytest.approx(
            np.linalg.norm(res.x - np.clip(res.x - g, 0.0, 1.0)), abs=1e-12
        )

    def test_budget_exhaustion_raises(self):
        # A quadratic is solved in one exact step, so use the slow quartic.
        def fun(x):
            d = x - 5.0
            return float((d**4).sum()), 4.0 * d**3

        def hessian(x):
            diag = 12.0 * (x - 5.0) ** 2
            return lambda v: diag * v

        with pytest.raises(NoConvergence):
            minimize_smooth_convex(fun, hessian, np.zeros(1), tol=1e-12, max_iter=3)

    def test_quadratic_converges_in_few_steps(self):
        a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        c = np.array([1.0, -2.0])

        def fun(x):
            return float(0.5 * x @ (a @ x) - c @ x), a @ x - c

        h = lambda v: a @ v
        res = minimize_smooth_convex(fun, lambda x: h, np.zeros(2), tol=1e-12)
        assert res.x == pytest.approx(np.linalg.solve(a.toarray(), c), abs=1e-10)
        assert res.iterations <= 6

    def test_piecewise_quadratic_from_the_linear_zone(self):
        # Huber pulls toward 0 and 10 plus a small quadratic toward 3.  The
        # Huber terms are linear far from their centres, so at the start
        # x = 40 only the quadratic's curvature 0.1 is left.
        def fun(x):
            v = float(x[0])
            slope = np.clip(v, -1.0, 1.0) + np.clip(v - 10.0, -1.0, 1.0)
            huber = sum(0.5 * u * u if abs(u) <= 1 else abs(u) - 0.5 for u in (v, v - 10.0))
            return huber + 0.05 * (v - 3.0) ** 2, np.array([slope + 0.1 * (v - 3.0)])

        def hessian(x):
            v = float(x[0])
            curvature = float(abs(v) <= 1.0) + float(abs(v - 10.0) <= 1.0)
            return lambda d: (curvature + 0.1) * d

        assert hessian(np.array([40.0]))(np.ones(1))[0] == pytest.approx(0.1)
        res = minimize_smooth_convex(fun, hessian, np.array([40.0]), tol=1e-12)
        assert res.x[0] == pytest.approx(3.0, abs=1e-10)
        assert res.gradient_norm <= 1e-12 * (1.0 + res.value)


class TestMinimizeSemismoothNewton:
    """The kernel's Newton steps on a Hessian given through S, as the Huber
    route supplies it."""

    def test_budget_exhaustion_raises(self):
        a = sp.identity(3, format="csr")

        def fun(x):
            d = x - 100.0
            return float(d @ d), 2.0 * d

        with pytest.raises(NoConvergence):
            minimize_smooth_convex(
                fun, lambda x: lambda v: 2.0 * (a @ v), np.zeros(3), tol=1e-14, max_iter=1
            )
