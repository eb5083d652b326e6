"""Numerical kernels shared by the reconcilers.

Three routines live here and nothing else in the package does heavy
numerics itself:

* :func:`solve_spd_with_info`, a conjugate-gradient solve for symmetric
  positive definite systems that sees the system only through a matrix-
  vector product.  The reconcilers hand it the aggregation operator's
  product v -> S^T diag(c) S v (:meth:`FlowAggregationMatrix.normal`,
  S = [M; I] with the identity block applied exactly), so the
  normal-equation matrix and the generalised Hessians are applied, never
  formed.  Their eigenvalues sit at or above the weight of the identity
  block, so plain CG needs no preconditioning.  The right-hand
  side may be a vector or an (n, H) block of H of them; a block of two or
  more runs block CG over one shared Krylov space, one operator product on
  a block per step, and its :class:`SpdSolveInfo` counts those steps and
  carries one entry per column.
  :class:`SparseSpd` wraps an explicit matrix handed in from outside and
  checks its symmetry; operators built here are symmetric by construction
  and skip that check.
* :func:`solve_lp`, a sparse linear program in one form, min c @ x
  subject to a_eq @ x == b_eq and lower <= x <= upper, solved by HiGHS's
  dual revised simplex (``scipy.optimize.linprog(method="highs")``).  The
  strong-duality gap and dual infeasibility are recomputed here from the
  returned duals so callers can certify optimality.
* :func:`minimize_smooth_convex`, damped semismooth Newton steps on a
  generalised Hessian, projected Newton steps on a box, for every smooth
  loss: squared under a box, Huber, custom and the epsilon-relaxed band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import (
    BadParameter,
    CyclingDetected,
    DimensionMismatch,
    Infeasible,
    NoConvergence,
    NotPositiveDefinite,
    SolveFailure,
    Unbounded,
)

# Symmetry tolerance and line-search constants used across the kernels.
_SYM_RTOL = 1e-12
# Block CG drops a search direction whose distance from the span of those
# kept is below this fraction of its own length.  Every direction dropped
# costs conjugacy, so the threshold sits as low as the QR that measures
# the distances allows, well above its rounding error of about 1e-15.  A
# Gram matrix resolves distances only down to about the square root of
# the rounding level; it serves while every direction is at least
# _GRAM_RTOL from the others.
_DEFLATE_RTOL = 1e-10
_GRAM_RTOL = 1e-7
# HiGHS treats any value of this magnitude or more as infinite.
_HIGHS_INF = 1e20
_ARMIJO_C = 1e-4
_BACKTRACK_SHRINK = 0.5


class SparseSpd:
    """An explicit sparse matrix asserted symmetric and expected positive definite.

    This is the checked form for matrices handed in from outside; the
    operators the package builds are symmetric by construction and reach
    :func:`solve_spd_with_info` as plain callables.  Symmetry is checked on
    construction (1e-12 relative).  Positive definiteness is not factorised
    up front; the CG solve raises :class:`NotPositiveDefinite` the moment
    it meets a direction of nonpositive curvature.
    """

    def __init__(self, matrix):
        m = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(np.asarray(matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
        scale = float(np.abs(m.data).max()) if m.nnz else 0.0
        skew = m - m.T
        asym = float(np.abs(skew.data).max()) if skew.nnz else 0.0
        if asym > _SYM_RTOL * max(1.0, scale):
            raise NotPositiveDefinite(
                f"matrix is not symmetric: max |M - M^T| = {asym:.3e} at scale {scale:.3e}"
            )
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


@dataclass
class SpdSolveInfo:
    """How a conjugate-gradient solve ended.

    ``iterations`` counts operator steps: CG iterations for a vector, block
    steps for an (n, H) right-hand side.  ``residual_norm`` is the explicit
    final residual, for a block the largest over its columns.  ``columns``
    then holds one :class:`SpdSolveInfo` per column, in column order: each
    nonzero column carries the block's step count and its own explicit
    residual, a zero column 0 and 0.0.  It is empty for a vector solve.
    """

    iterations: int
    residual_norm: float
    columns: tuple["SpdSolveInfo", ...] = ()


def solve_spd_with_info(
    operator, rhs, tol: float = 1e-10, max_iter: int | None = None
) -> tuple[np.ndarray, SpdSolveInfo]:
    """Solve M x = rhs for symmetric positive definite M by conjugate gradient.

    An (n, H) right-hand side with H >= 2 solves the H systems M x_h = rhs_h
    by block CG over one shared Krylov space (:func:`_block_cg`), one
    operator product on a block per step.  Each column keeps the contract
    of a vector solve: its own target tol * ||rhs_h||, the explicit
    residual recheck, the curvature check and the step budget.  An (n, 1)
    right-hand side runs the vector loop on its one column.

    Args:
        operator: a callable v -> M v, trusted to be symmetric, or an
            explicit matrix (a :class:`SparseSpd`, or anything convertible
            to one, which checks its symmetry).  For an (n, H) rhs the
            callable receives (n, k) blocks, 1 <= k <= H.
        rhs: right-hand side, shape (n,) or (n, H).
        tol: accept x_h once ||M x_h - rhs_h|| <= tol * ||rhs_h||.  The
            final residual is recomputed explicitly, not trusted from the
            recurrence.
        max_iter: budget of iterations (vector) or block steps, default
            10 * n.

    Returns:
        The solution, shaped like ``rhs``, and its :class:`SpdSolveInfo`.

    Raises:
        NotPositiveDefinite: nonpositive curvature encountered, or an
            explicit matrix that is not symmetric.
        NoConvergence: budget exhausted before the tolerance was met.
        DimensionMismatch: rhs is not (n,) or (n, H).
    """
    b = np.asarray(rhs, dtype=float)
    if callable(operator):
        matvec, dim = operator, (b.shape[0] if b.ndim else 0)
    else:
        m = operator if isinstance(operator, SparseSpd) else SparseSpd(operator)
        matvec, dim = m.matvec, m.dim
    if b.ndim not in (1, 2) or b.shape[0] != dim:
        raise DimensionMismatch(f"rhs shape {b.shape} does not match dimension {dim}")
    if max_iter is None:
        max_iter = max(1, 10 * dim)
    if b.ndim == 1:
        return _cg(matvec, b, tol, max_iter)
    if b.shape[1] == 1:
        x, info = _cg(lambda v: matvec(v[:, None])[:, 0], b[:, 0], tol, max_iter)
        return x[:, None], SpdSolveInfo(info.iterations, info.residual_norm, (info,))
    return _block_cg(matvec, b, tol, max_iter)


def _cg(matvec, b: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, SpdSolveInfo]:
    """The vector loop of :func:`solve_spd_with_info`."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), SpdSolveInfo(0, 0.0)
    target = tol * b_norm

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    work = np.empty_like(b)  # one buffer for the scaled updates, not one per step
    rs = float(r @ r)
    iterations = 0
    verifications = 2  # recurrence drift guard: re-derive the residual at most twice

    while True:
        if math.sqrt(rs) <= target:
            true_r = b - matvec(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= target:
                return x, SpdSolveInfo(iterations, true_norm)
            if verifications == 0:
                raise NoConvergence(
                    f"conjugate gradient stalled at residual {true_norm:.3e} "
                    f"(target {target:.3e}) after {iterations} iterations"
                )
            verifications -= 1
            r = true_r
            p = r.copy()
            rs = float(r @ r)
        if iterations >= max_iter:
            raise NoConvergence(
                f"conjugate gradient exceeded {max_iter} iterations "
                f"(residual {np.sqrt(rs):.3e}, target {target:.3e})"
            )
        ap = matvec(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            raise NotPositiveDefinite(
                f"direction of nonpositive curvature (p^T M p = {p_ap:.3e})"
            )
        alpha = rs / p_ap
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(ap, alpha, out=work)
        rs_new = float(r @ r)
        p *= rs_new / rs
        p += r
        rs = rs_new
        iterations += 1


def _block_cg(matvec, b: np.ndarray, tol: float, max_iter: int):
    """Breakdown-free block CG over the columns of b; see :func:`solve_spd_with_info`.

    Block CG (O'Leary, Linear Algebra Appl. 29, 1980) searches one Krylov
    space for all columns.  The iteration runs on the columns of b scaled
    to unit norm, so every column's target is tol.  Each step makes the
    residual block R M-conjugate to the previous search block P
    (Z = R + P beta with beta = -(P^T M P)^-1 (M P)^T R) and takes an
    orthonormal basis of Z as the new P (:func:`_search_basis`).  That
    basis leaves out each column of Z within _DEFLATE_RTOL of the span of
    those kept, judged at the column's own length, however short; this
    rank deflation (Ji & Li, BIT 57, 2017) keeps P^T M P invertible when
    columns repeat or H > n.  Every column stays in R, also once it meets
    its target, so each step's search space is built from the whole
    block, and every nonzero column moves by alpha = (P^T M P)^-1 P^T R.
    Besides the products with the n-row blocks, and a Householder QR of Z
    in the steps where a column nears the span of the others, all dense
    work is on r x r matrices, r <= H.

    Once every recurrence residual meets its target, the residual block of
    the unscaled problem is recomputed explicitly and decides the stop; a
    failed recheck restarts from the explicit residuals, at most twice.
    """
    h = b.shape[1]
    b_norms = np.linalg.norm(b, axis=0)
    live = np.flatnonzero(b_norms > 0.0)  # a zero column is solved by x = 0
    x_out = np.zeros_like(b)
    residuals = np.zeros(h)
    scale = b_norms[live]
    bl = b[:, live]
    targets = tol * scale
    x = np.zeros_like(bl)
    r = bl / scale
    work = np.empty_like(x)  # one n-row buffer for Z and the updates, not one per product
    res = np.ones(live.size)
    p = q = c_inv = None  # the last search block, M p and (p^T M p)^-1
    tri = np.tri(h)  # masks the triangle LAPACK leaves unreferenced
    steps = 0
    verifications = 2  # recurrence drift guard, as in the vector loop

    while live.size:
        if np.all(res <= tol):
            x_live = x * scale
            true_r = bl - matvec(x_live)
            true_res = np.sqrt(np.einsum("ij,ij->j", true_r, true_r))
            if np.all(true_res <= targets):
                x_out[:, live] = x_live
                residuals[live] = true_res
                break
            if verifications == 0:
                k = int(np.argmax(true_res / targets))
                raise NoConvergence(
                    f"block conjugate gradient stalled on column {live[k]} at residual "
                    f"{true_res[k]:.3e} (target {targets[k]:.3e}) after {steps} steps"
                )
            verifications -= 1
            r, res = true_r / scale, true_res / scale
            p = None
        if steps >= max_iter:
            k = int(np.argmax(res))
            raise NoConvergence(
                f"block conjugate gradient exceeded {max_iter} steps on column {live[k]} "
                f"(residual {res[k] * scale[k]:.3e}, target {targets[k]:.3e})"
            )
        if p is None:
            z = r
        else:
            z = np.matmul(p, c_inv @ -(q.T @ r), out=work)
            z += r
        p = z @ _search_basis(z, tri)
        rank = p.shape[1]
        q = matvec(p)
        chol, info = lapack.dpotrf(p.T @ q, lower=1)
        if info != 0:
            raise NotPositiveDefinite(
                "search block of nonpositive curvature (smallest eigenvalue of "
                f"P^T M P = {np.linalg.eigvalsh(p.T @ q).min():.3e})"
            )
        half = lapack.dtrtri(chol, lower=1)[0] * tri[:rank, :rank]
        c_inv = half.T @ half  # (P^T M P)^-1
        alpha = c_inv @ (p.T @ r)
        x += np.matmul(p, alpha, out=work)
        r -= np.matmul(q, alpha, out=work)
        res = np.sqrt(np.einsum("ij,ij->j", r, r))
        steps += 1

    columns = tuple(
        SpdSolveInfo(steps if b_norms[k] > 0.0 else 0, float(residuals[k])) for k in range(h)
    )
    return x_out, SpdSolveInfo(steps, float(residuals.max(initial=0.0)), columns)


def _search_basis(z: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """The (k, r) matrix B for which Z B is an orthonormal basis of Z's columns.

    Each column of Z is judged at its own length: one whose distance from
    the span of those kept is below _DEFLATE_RTOL of its length is left
    out.  Pivoted Cholesky of the scaled Gram matrix D^-1 Z^T Z D^-1 = L L^T,
    with D the column lengths, is the cheap route; it resolves distances
    only down to _GRAM_RTOL, since the Gram matrix squares them, so when a
    column falls that close to the others the basis comes from a Householder
    QR of Z instead.  ``tri`` is np.tri(k) or larger.
    """
    k = z.shape[1]
    gram = z.T @ z
    lengths = np.sqrt(gram.diagonal())
    lengths[lengths == 0.0] = 1.0
    scaled = gram / lengths / lengths[:, None]
    fac, piv, rank, _ = lapack.dpstrf(scaled, tol=_GRAM_RTOL**2, lower=1)
    if rank == k:
        # Z D^-1 Pi = P L^T with Pi the pivot order.
        inverse = lapack.dtrtri(fac, lower=1)[0].T * tri[:k, :k].T
    else:
        # Z D^-1 = Q R with Q never formed, and R Pi = Q2 R2 pivoted, so that
        # Z D^-1 Pi = (Q Q2) R2 and |R2_jj| is the distance of the j-th
        # pivoted column from the span of those before it.  Householder QR
        # is backward stable column by column, so R D^-1 is the factor of
        # the scaled columns.
        fac, piv = lapack.dgeqp3(np.linalg.qr(z, mode="r") / lengths)[:2]
        rank = int(np.count_nonzero(np.abs(fac.diagonal()) > _DEFLATE_RTOL))
        inverse = lapack.dtrtri(fac[:rank, :rank])[0] * tri[:rank, :rank].T
    kept = piv[:rank] - 1
    basis = np.zeros((k, rank))
    basis[kept] = inverse / lengths[kept, None]
    return basis


# --- linear programming -------------------------------------------------------


@dataclass
class LpSolution:
    """Optimal point plus the optimality certificate recomputed from the duals."""

    x: np.ndarray
    objective: float
    duality_gap: float
    dual_infeasibility: float
    iterations: int


def solve_lp(c, a_eq, b_eq, lower, upper, max_pivots: int = 100_000) -> LpSolution:
    """Minimise c @ x subject to a_eq @ x == b_eq and lower <= x <= upper, and certify it.

    HiGHS's dual revised simplex (``scipy.optimize.linprog(method="highs")``)
    solves the LP in sparse form.  The solver's status is not taken on
    trust: the reduced costs r = c - a_eq^T y are recomputed here from the
    free-signed row duals y it returns, and the certificate is derived from
    them.  ``dual_infeasibility`` is the worst sign violation (a positive
    reduced cost on a variable with no lower bound, a negative one on a
    variable with no upper bound) and ``duality_gap`` is
    |c@x - (b_eq@y + sum l_j max(r_j, 0) + sum u_j min(r_j, 0))| over the
    finite bounds; a gap above ~1e-7 means the answer should not be trusted.
    HiGHS runs with its presolve on: on the l1 LPs, turning it off was
    faster at 30 nodes but slower at 1000.

    Args:
        c: objective coefficients, length nv.
        a_eq: constraint matrix, shape (nr, nv), dense or scipy sparse.  An
            inequality row is passed as an equality with a slack column.
        b_eq: right-hand sides, length nr.
        lower: per-variable lower bound, length nv; -inf leaves it open.
        upper: per-variable upper bound, length nv; +inf leaves it open.
        max_pivots: simplex iteration budget.

    Raises:
        DimensionMismatch (inconsistent shapes), BadParameter (a NaN bound,
        a lower bound of +inf, an upper bound of -inf, lower > upper, or an
        entry of c, b_eq or a finite bound at or above 1e20 in magnitude,
        which HiGHS would read as infinite), Infeasible, Unbounded,
        CyclingDetected (budget exhausted), SolveFailure (any other solver
        outcome).
    """
    from scipy.optimize import linprog  # ~0.2 s to import; only LP callers pay it

    c = np.asarray(c, dtype=float)
    a = sp.csr_matrix(a_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    lb = np.asarray(lower, dtype=float)
    ub = np.asarray(upper, dtype=float)
    nr, nv = a.shape
    if c.shape != (nv,) or b.shape != (nr,) or lb.shape != (nv,) or ub.shape != (nv,):
        raise DimensionMismatch(
            f"inconsistent LP shapes: a_eq {a.shape}, c {c.shape}, "
            f"b_eq {b.shape}, lower {lb.shape}, upper {ub.shape}"
        )
    if np.any(np.isnan(lb) | np.isnan(ub) | (lb == np.inf) | (ub == -np.inf)):
        raise BadParameter("lower bounds must be finite or -inf, upper bounds finite or +inf")
    if np.any(lb > ub):
        raise BadParameter("some variable has lower > upper")
    has_lb = np.isfinite(lb)
    has_ub = np.isfinite(ub)
    if not np.all(np.abs(np.concatenate([c, b, lb[has_lb], ub[has_ub]])) < _HIGHS_INF):
        raise BadParameter(
            "c, b_eq and the finite bounds must be finite and below 1e20 in "
            "magnitude; HiGHS reads larger values as infinite"
        )

    res = linprog(
        c,
        A_eq=a,
        b_eq=b,
        bounds=np.column_stack([lb, ub]),
        method="highs",
        options={"maxiter": max_pivots},
    )
    if res.status == 1:
        raise CyclingDetected(f"LP solver exceeded {max_pivots} pivots: {res.message}")
    if res.status == 2:
        raise Infeasible(f"no feasible point: {res.message}")
    if res.status == 3:
        raise Unbounded(f"objective is unbounded below: {res.message}")
    if res.status != 0:
        raise SolveFailure(f"LP solver failed: {res.message}")

    y = np.asarray(res.eqlin.marginals, dtype=float)
    x = np.asarray(res.x, dtype=float)
    reduced = c - a.T @ y
    up = np.maximum(reduced, 0.0)
    down = np.minimum(reduced, 0.0)
    dual_infeas = max(
        float(np.max(up[~has_lb], initial=0.0)),
        float(np.max(-down[~has_ub], initial=0.0)),
    )
    objective = float(c @ x)
    dual_obj = float(b @ y + lb[has_lb] @ up[has_lb] + ub[has_ub] @ down[has_ub])
    return LpSolution(
        x=x,
        objective=objective,
        duality_gap=abs(objective - dual_obj),
        dual_infeasibility=dual_infeas,
        iterations=int(res.nit),
    )


# --- smooth minimisation ------------------------------------------------------


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    gradient_norm: float
    iterations: int


def minimize_smooth_convex(
    fun, hessian, x0: np.ndarray, tol: float = 1e-8, max_iter: int = 200, bounds=None
) -> MinimizeResult:
    """Damped semismooth Newton with Armijo backtracking for a convex C1 objective.

    Each step solves (H + mu I) d = -g, where H is the generalised Hessian
    and the shift mu = min(1, crit / sqrt(1 + |f|)), crit the stationarity
    norm below, keeps the system definite where H is singular.  The shift
    is proportional to crit, as in Levenberg-Marquardt (Yamashita &
    Fukushima, Computing Suppl. 15, 2001), and scaled like the stopping
    test, so it falls below 1 once crit is small against sqrt(1 + |f|),
    not only once crit < 1.  CG stops at the relative residual
    min(0.1, sqrt(crit / (1 + |f|))), a forcing term that tightens near the
    optimum (Qi & Sun, Math. Prog. 1993; Li, Sun & Toh, SIOPT 2018).

    With ``bounds`` the steps are projected Newton steps (Bertsekas, SIAM
    J. Control Optim. 20(2), 1982).  A coordinate within
    eps = min(crit, 1e-3) of a bound, with the gradient pushing it out, is
    held: it steps by -g.  The Newton system is solved on the other, free
    coordinates only, and Armijo backtracking runs along the projection
    arc P(x + t d), with the predicted decrease g^T (P(x + t d) - x).

    Near the optimum the change in f falls below its rounding error; a
    trial whose f is within 1e-12 (1 + |f|) of the current one is accepted
    only if it shrinks the stationarity norm, and Armijo decides the rest
    (Hager & Zhang, SIOPT 2005).

    Args:
        fun: callable x -> (value, gradient).
        hessian: callable x -> the symmetric positive semidefinite
            generalised Hessian at x, as a callable v -> H v (trusted
            symmetric).
        x0: starting point; projected onto the box first.
        tol: stop once the stationarity norm is <= tol * (1 + |value|).
            Unconstrained, that norm is ||gradient||; on a box it is the
            projected-gradient norm ||x - P(x - gradient)||.
        max_iter: Newton-step budget.
        bounds: optional (lower, upper) arrays; -inf/+inf leave a side open.

    Raises:
        NoConvergence: budget exhausted, or the line search failed, with the
            criterion unmet.  A failed line search raises however close the
            norm is to its target: every returned answer meets the criterion.
    """
    x = np.asarray(x0, dtype=float).copy()
    if bounds is None:
        project = None
    else:
        lower, upper = (np.asarray(v, dtype=float) for v in bounds)

        def project(v):
            return np.clip(v, lower, upper)

        x = project(x)

    def stationarity(x, g) -> float:
        return float(np.linalg.norm(g if project is None else x - project(x - g)))

    f, g = fun(x)
    for it in range(max_iter + 1):
        crit = stationarity(x, g)
        target = tol * (1.0 + abs(f))
        if crit <= target:
            return MinimizeResult(x, float(f), crit, it)
        if it == max_iter:
            raise NoConvergence(
                f"semismooth Newton used all {max_iter} steps, stationarity norm "
                f"{crit:.3e} above target {target:.3e}"
            )
        apply_h = hessian(x)
        mu = min(1.0, crit / float(np.sqrt(1.0 + abs(f))))
        forcing = min(0.1, float(np.sqrt(crit / (1.0 + abs(f)))))
        if project is None:
            d, _ = solve_spd_with_info(lambda v: apply_h(v) + mu * v, -g, tol=forcing)
        else:
            eps = min(crit, 1e-3)
            held = ((x - lower <= eps) & (g > 0.0)) | ((upper - x <= eps) & (g < 0.0))
            free = ~held
            # The masked system is mu I on the held coordinates, where its
            # right-hand side is zero, so CG's iterates stay on the free ones.
            d, _ = solve_spd_with_info(
                lambda v: free * apply_h(free * v) + mu * v, -g * free, tol=forcing
            )
            d[held] = -g[held]
        slope = float(g @ d)
        step = 1.0
        for _ in range(60):
            x_trial = x + step * d
            if project is None:
                decrease = step * slope
            else:
                x_trial = project(x_trial)
                decrease = float(g @ (x_trial - x))
            f_trial, g_trial = fun(x_trial)
            if abs(f_trial - f) <= 1e-12 * (1.0 + abs(f)):
                accept = stationarity(x_trial, g_trial) < crit
            else:
                # A bent projection arc can predict no decrease; off a box
                # step * slope < 0 always.
                accept = decrease < 0.0 and f_trial <= f + _ARMIJO_C * decrease
            if accept:
                x, f, g = x_trial, f_trial, g_trial
                break
            step *= _BACKTRACK_SHRINK
        else:
            raise NoConvergence(
                f"Newton line search failed at step {it} with stationarity norm {crit:.3e}"
            )
