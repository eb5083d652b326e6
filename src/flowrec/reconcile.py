"""Exact reconciliation of component forecasts onto the coherent subspace.

Every solver here returns a vector of the form ``S b`` for some vector of
path values ``b``, which makes the output coherent by construction.  What
differs is the objective:

* :func:`reconcile_l2` minimises the sum of squared adjustments via the
  normal equations over path values, solved by conjugate gradient that
  applies S^T S as two products, with S and the network's cached S^T, and
  never forms it.
  The ``general:l2`` route of :func:`reconcile_general` also takes an
  (n, H) block of forecasts: one block CG over a shared Krylov space
  solves all H columns, one product lifts them and one check measures
  their coherence.  It returns one result per column, with the block's
  step count, that column's gradient-norm certificate (twice its explicit
  CG residual, as for a vector) and an equal share of the block's wall
  time.  Each column meets its own certificate but is no longer bitwise
  equal to a one-column solve.
* :func:`reconcile_weighted` is the closed-form solution of the generic
  weighted projection under explicit linear constraints, computed densely.
* :func:`reconcile_l1` minimises the (weighted) sum of absolute
  adjustments as a linear program with one equality row per component,
  the adjustment split into its positive and negative parts.
* :func:`reconcile_general` handles smooth symmetric losses: l2 without a
  box by the normal equations, and l2 under a box, Huber and custom losses
  by one damped semismooth Newton kernel, with projected Newton steps on a
  box of path components.

Every smooth loss reaches that kernel through one objective and Hessian
builder, :func:`_minimize_path_loss`, given the loss's (f, f', c) triple.
The relaxed reconciler of :mod:`flowrec.relaxed` is one more triple on
that route: a per-edge dead zone, f(u) = (u - band)_+^2 with band epsilon
on edges and 0 elsewhere.  Every route, the relaxed one included, builds
its result in :func:`_package`, which scores the answer under its loss and
checks its coherence.

A root-mean-square objective shares its minimiser with the mean-square
one, so no separate solver exists for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (
    BadParameter,
    DimensionMismatch,
    NonSmoothLoss,
    NotPositiveDefinite,
    RankDeficient,
)
from .network import FlowAggregationMatrix
from .numerics import minimize_smooth_convex, solve_lp, solve_spd_with_info
from .series import (
    CoherenceReport,
    ForecastVector,
    check_coherence,
    _as_component_vector,
    _vector_like,
)

LOSS_KINDS = ("l2", "l1", "huber", "custom")


@dataclass(frozen=True)
class LossSpec:
    """Which penalty to apply to per-component adjustments.

    Args:
        kind: one of ``l2``, ``l1``, ``huber``, ``custom``.
        weights: optional nonnegative per-component weights (default all 1).
        delta: Huber corner parameter, required for ``huber``.
        f: for ``custom``, vectorised penalty on nonnegative residual
            magnitudes with f(0) = 0.
        f_prime: derivative of ``f``; must satisfy f'(0) = 0, otherwise the
            loss is not differentiable as a function of the signed residual
            and only the LP route can handle it.
    """

    kind: str
    weights: np.ndarray | None = None
    delta: float | None = None
    f: object = None
    f_prime: object = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise BadParameter(f"loss kind {self.kind!r} not in {LOSS_KINDS}")
        if self.kind == "huber":
            if self.delta is None or not self.delta > 0:
                raise BadParameter(f"huber needs delta > 0, got {self.delta!r}")
        if self.kind == "custom" and (self.f is None or self.f_prime is None):
            raise BadParameter("custom loss needs both f and f_prime")

    def resolved_weights(self, n: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(n)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise DimensionMismatch(f"weights shape {w.shape}, expected ({n},)")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise BadParameter("weights must be finite and nonnegative")
        return w


@dataclass
class BoxConstraints:
    """Per-component bounds on the reconciled vector.

    A lower bound of -inf or an upper bound of +inf leaves that side open.
    A lower bound of +inf or an upper bound of -inf admits no value and is
    refused with :class:`BadParameter`.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise DimensionMismatch("box bounds must be two equal-length vectors")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise BadParameter("box bounds must not contain NaN")
        if np.any(self.lower == np.inf) or np.any(self.upper == -np.inf):
            raise BadParameter("box has a lower bound of +inf or an upper bound of -inf")
        if np.any(self.lower > self.upper):
            raise BadParameter("box has lower > upper for some component")

    @classmethod
    def unbounded(cls, n: int) -> "BoxConstraints":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))


@dataclass
class SolverStats:
    """How the answer was produced: counts, timing, and certificates.

    Only the relaxed solver fills ``max_violation`` (its band certificate)
    and ``refine_rounds`` (the band patterns its Newton steps met).
    """

    method: str
    iterations: int
    wall_time_s: float
    duality_gap: float | None = None
    gradient_norm: float | None = None
    max_violation: float | None = None
    refine_rounds: int | None = None


@dataclass
class ReconciliationResult:
    """A reconciled vector, the path values generating it, and provenance.

    The relaxed solver's edge values may sit up to epsilon off their path
    sums; every other vector is coherent.
    """

    y_tilde: ForecastVector
    b_tilde: np.ndarray
    loss_value: float
    coherence: CoherenceReport
    stats: SolverStats

    # Read-only views of the stats: the benchmark's tracer reads both
    # counts off the relaxed result.
    @property
    def iterations(self) -> int:
        return self.stats.iterations

    @property
    def refine_rounds(self) -> int | None:
        return self.stats.refine_rounds


def huber_value(u: np.ndarray, delta: float) -> np.ndarray:
    """Quadratic inside the corner, linear outside, C1 at the seam."""
    u = np.asarray(u, dtype=float)
    return np.where(u <= delta, 0.5 * u * u, delta * u - 0.5 * delta * delta)


def huber_slope(u: np.ndarray, delta: float) -> np.ndarray:
    return np.minimum(np.asarray(u, dtype=float), delta)


def _score(loss: LossSpec, yhat: np.ndarray, y: np.ndarray):
    """sum_i w_i f(|y_i - yhat_i|): a scalar for vectors, one value per
    column for (n, H) panels."""
    r = np.abs(y - yhat)
    w = loss.resolved_weights(r.shape[0])
    if loss.kind == "l2":
        return w @ (r * r)
    if loss.kind == "l1":
        return w @ r
    if loss.kind == "huber":
        return w @ huber_value(r, loss.delta)
    return w @ np.asarray(loss.f(r), dtype=float)


def evaluate_loss(loss: LossSpec, yhat, y) -> float:
    """Weighted objective value sum_i w_i f(|y_i - yhat_i|)."""
    a = np.asarray(getattr(yhat, "data", yhat), dtype=float)
    b = np.asarray(getattr(y, "data", y), dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    return float(_score(loss, a, b))


def _package(
    yhat, y: np.ndarray, lifted: np.ndarray, b: np.ndarray, agg: FlowAggregationMatrix,
    loss: LossSpec, stats,
):
    """The one place a result is built: score the lifted stack against the
    base forecasts ``y`` under ``loss`` and check its coherence.

    ``lifted`` is S b for every exact route; the relaxed route passes its
    stack with the edges clamped into their bands.  An (n,) vector gives
    one result, with the horizon of ``yhat``.  An (n, H) panel, with H
    columns of path values and a list of H stats, gives a list of H
    results in column order, the k-th with horizon k + 1; its losses come
    from one vectorised pass and its reports from one check.
    """
    losses = _score(loss, y, lifted)
    reports = check_coherence(lifted, agg)
    if lifted.ndim == 1:
        return ReconciliationResult(_vector_like(lifted, yhat), b, float(losses), reports, stats)
    return [
        ReconciliationResult(
            ForecastVector(col, horizon=k + 1), b[:, k], float(losses[k]), reports[k], stats[k]
        )
        for k, col in enumerate(lifted.T)
    ]


def _l2_solve(
    y: np.ndarray, agg: FlowAggregationMatrix, loss: LossSpec, method: str, tol: float, t0: float
):
    """Solve the weighted normal equations S^T W S b = S^T W y.

    CG applies S^T W S as v -> S^T (w * (S v)), or S^T (S v) without
    weights, so the Gram matrix, several times denser than S, is never
    formed.  A vector y gives b and its stats; an (n, H) block y, solved by
    one block CG, gives B and one stats per column, each with the block's
    step count, its column's gradient-norm certificate (twice its explicit
    CG residual) and an equal share of the block's wall time.
    """
    s, st = agg.matrix, agg.matrix_t
    if loss.weights is None:
        rhs, matvec = st @ y, lambda v: st @ (s @ v)
    else:
        w = loss.resolved_weights(agg.n)
        wy = w if y.ndim == 1 else w[:, None]
        rhs, matvec = st @ (wy * y), lambda v: st @ (wy * (s @ v))
    b, info = solve_spd_with_info(matvec, rhs, tol=tol)
    wall = time.perf_counter() - t0
    if y.ndim == 1:
        return b, SolverStats(method, info.iterations, wall, gradient_norm=2.0 * info.residual_norm)
    share = wall / y.shape[1]
    return b, [
        SolverStats(method, col.iterations, share, gradient_norm=2.0 * col.residual_norm)
        for col in info.columns
    ]


def reconcile_l2(yhat, agg: FlowAggregationMatrix, tol: float = 1e-12) -> ReconciliationResult:
    """Least-squares reconciliation: the orthogonal projection onto the
    coherent subspace, computed over path values.

    The normal-equation matrix S^T S is the path Gram matrix plus identity,
    so it is positive definite with eigenvalues >= 1 and conjugate gradient
    converges unconditionally.  It is applied through S, never formed.

    Args:
        yhat: base forecasts, one per component.
        agg: aggregation operator of the network.
        tol: relative residual tolerance for the inner solve.
    """
    t0 = time.perf_counter()
    y = _as_component_vector(yhat, agg.n)
    loss = LossSpec("l2")
    b, stats = _l2_solve(y, agg, loss, "l2", tol, t0)
    return _package(yhat, y, agg.matrix @ b, b, agg, loss, stats)


def coherence_constraints(agg: FlowAggregationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Dense (A, c) with A y = c holding exactly for coherent vectors.

    A stacks an identity over the node and edge blocks against the negated
    aggregation columns of the path block, so A has full row rank no matter
    the network.
    """
    imap = agg.index_map
    k = imap.n_nodes + imap.n_edges
    a = np.zeros((k, imap.n))
    a[:, :k] = np.eye(k)
    a[: imap.n_nodes, imap.path_slice] = -agg.vp.toarray()
    a[imap.n_nodes :, imap.path_slice] = -agg.ep.toarray()
    return a, np.zeros(k)


def reconcile_weighted(yhat, a: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Closed-form minimiser of (y - yhat)' W (y - yhat) subject to A y = c.

    Everything here is dense on purpose: this is the textbook
    constrained-projection formula, used both as an independent reference
    for the sparse solvers and as the deliberately unstructured comparison
    arm in benchmarks.  Scaling W by any positive scalar leaves the result
    unchanged.

    Args:
        yhat: base forecasts.
        a: constraint matrix with full row rank, shape (k, n).
        c: constraint targets, length k.
        w: symmetric positive definite weight matrix, shape (n, n), or a
            length-n vector of diagonal weights.

    Raises:
        NotPositiveDefinite: w is not symmetric positive definite.
        RankDeficient: the constraint rows are linearly dependent.
    """
    y = np.asarray(getattr(yhat, "data", yhat), dtype=float)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = np.diag(w)
    n = y.shape[0]
    if a.shape[1] != n or c.shape[0] != a.shape[0] or w.shape != (n, n):
        raise DimensionMismatch(
            f"shapes do not line up: yhat {y.shape}, a {a.shape}, c {c.shape}, w {w.shape}"
        )
    scale = float(np.abs(w).max())
    if scale <= 0 or np.abs(w - w.T).max() > 1e-12 * max(1.0, scale):
        raise NotPositiveDefinite("weight matrix is not symmetric")
    try:
        w_chol = scipy.linalg.cho_factor(w, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"weight matrix is not positive definite: {exc}") from exc
    # X = W^{-1} A^T, then the multiplier system (A W^{-1} A^T) l = A yhat - c.
    x = scipy.linalg.cho_solve(w_chol, a.T, check_finite=False)
    m = a @ x
    try:
        m_chol = scipy.linalg.cho_factor(m, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficient(f"constraint matrix is rank deficient: {exc}") from exc
    lam = scipy.linalg.cho_solve(m_chol, a @ y - c, check_finite=False)
    out = y - x @ lam
    # A numerically singular system can slip through the factorization; the
    # solve is only trusted if the constraints actually hold afterwards.
    residual = float(np.max(np.abs(a @ out - c)))
    if residual > 1e-6 * (1.0 + float(np.max(np.abs(c))) + float(np.max(np.abs(a @ y)))):
        raise RankDeficient(
            "constraint rows are linearly dependent or inconsistent "
            f"(post-solve residual {residual:.3e})"
        )
    return out


def reconcile_l1(
    yhat,
    agg: FlowAggregationMatrix,
    box: BoxConstraints | None = None,
    weights: np.ndarray | None = None,
) -> ReconciliationResult:
    """Least-absolute-deviation reconciliation as a linear program.

    The adjustment of each component is split into its positive and
    negative parts p_i, q_i >= 0, one equality row per component:
    ``S b - p + q = yhat`` over the variables ``[b; p; q]``, with b free
    and cost ``w`` on both p and q, so at an optimum at most one of each
    positively weighted pair is nonzero.  A box [l, u] on S b becomes bounds on the split
    parts, p in [max(l - yhat, 0), max(u - yhat, 0)] and q in
    [max(yhat - u, 0), max(yhat - l, 0)]: every z = S b in [l, u] is
    reached with p = (z - yhat)^+, q = (yhat - z)^+, and every (p, q) in
    those bounds gives a z in [l, u].  So a box adds no row.  HiGHS solves
    the LP, and the strong-duality gap that :func:`solve_lp` recomputes
    from the returned duals is carried in ``stats.duality_gap``.
    """
    t0 = time.perf_counter()
    y = _as_component_vector(yhat, agg.n)
    n = agg.n
    np_ = agg.n_paths
    loss = LossSpec("l1", weights=weights)
    w = loss.resolved_weights(n)
    if box is None:
        box = BoxConstraints.unbounded(n)
    elif box.lower.shape != (n,):
        raise DimensionMismatch(f"box bounds must have length {n}")

    eye = sp.identity(n, format="csr")
    a_eq = sp.hstack([agg.matrix, -eye, eye], format="csr")
    cost = np.concatenate([np.zeros(np_), w, w])
    lower = np.concatenate(
        [np.full(np_, -np.inf), np.maximum(box.lower - y, 0.0), np.maximum(y - box.upper, 0.0)]
    )
    upper = np.concatenate(
        [np.full(np_, np.inf), np.maximum(box.upper - y, 0.0), np.maximum(y - box.lower, 0.0)]
    )
    sol = solve_lp(cost, a_eq, y, lower, upper)
    b = sol.x[:np_]
    wall = time.perf_counter() - t0
    stats = SolverStats(
        method="l1",
        iterations=sol.iterations,
        wall_time_s=wall,
        duality_gap=sol.duality_gap,
    )
    return _package(yhat, y, agg.matrix @ b, b, agg, loss, stats)


def _smooth_parts(loss: LossSpec, w: np.ndarray):
    """(f, f', c) of a smooth loss; c(|r|) weighs its generalised Hessian
    S^T diag(c) S.  A custom loss gets the IRLS weights w f'(u) / u (0 at
    u = 0), which need no second derivative; for f(u) = u^p they are the
    Newton curvature divided by p - 1."""
    if loss.kind == "l2":
        two_w = 2.0 * w
        return (lambda u: u * u), (lambda u: 2.0 * u), (lambda u: two_w)
    if loss.kind == "huber":
        d = float(loss.delta)
        return (lambda u: huber_value(u, d)), (lambda u: huber_slope(u, d)), (lambda u: w * (u <= d))

    def curvature(u: np.ndarray) -> np.ndarray:
        slope = np.asarray(loss.f_prime(u), dtype=float)
        return w * np.divide(slope, u, out=np.zeros_like(u), where=u > 0.0)

    return loss.f, loss.f_prime, curvature


def _minimize_path_loss(y, agg: FlowAggregationMatrix, w, parts, b0, bounds, tol, max_iter):
    """Minimise sum_i w_i f(|(S b - y)_i|) over path values b on the one
    Newton kernel, :func:`minimize_smooth_convex`.

    ``parts`` is the (f, f', c) triple of the loss: the gradient is
    S^T (w f'(|r|) sign(r)) and the generalised Hessian S^T diag(c(|r|)) S,
    applied through S and the network's cached S^T and never formed.
    """
    f, f_prime, curvature = parts
    s, st = agg.matrix, agg.matrix_t

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        r = s @ b - y
        mag = np.abs(r)
        value = float(w @ np.asarray(f(mag), dtype=float))
        grad = st @ (w * np.asarray(f_prime(mag), dtype=float) * np.sign(r))
        return value, grad

    def hessian(b: np.ndarray):
        c = curvature(np.abs(s @ b - y))
        return lambda v: st @ (c * (s @ v))

    return minimize_smooth_convex(objective, hessian, b0, tol=tol, max_iter=max_iter, bounds=bounds)


def reconcile_general(
    yhat,
    agg: FlowAggregationMatrix,
    loss: LossSpec,
    box: BoxConstraints | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
    start: np.ndarray | None = None,
) -> ReconciliationResult | list[ReconciliationResult]:
    """Reconcile under any smooth symmetric loss on the adjustments.

    The objective sum_i w_i f(|(S b)_i - yhat_i|) is differentiable in b
    exactly when f'(0) = 0; the absolute loss fails that and is rejected
    with :class:`NonSmoothLoss` (use :func:`reconcile_l1`).  Plain l2
    without a box is routed through the normal equations; ``yhat`` may
    then also be an (n, H) block of H forecasts (horizons), solved as one
    block CG and returned as a list of H results in column order, the h-th
    with horizon h + 1.  Every other smooth loss (l2 under a box, Huber,
    custom) runs the one damped semismooth Newton kernel,
    :func:`minimize_smooth_convex`, on the generalised Hessian
    S^T diag(c) S, applied through S and never formed, with c = 2w for l2,
    w [|r_i| <= delta] for Huber and the IRLS weights w f'(|r_i|) / |r_i|
    for a custom loss.  It starts from ``start``, else the base path
    values, and ``max_iter`` bounds its Newton steps.  The certificate is
    the gradient norm, or under a box the projected-gradient norm.

    Box constraints are honoured by projected Newton steps, which are exact
    only where bounds touch path components (those coordinates are the
    optimisation variables themselves); finite bounds on node or edge
    components are rejected here and belong to the LP route.
    """
    t0 = time.perf_counter()
    n = agg.n
    y = np.asarray(getattr(yhat, "data", yhat), dtype=float)
    if y.ndim == 2 and y.shape[0] == n:
        if loss.kind != "l2" or box is not None:
            raise DimensionMismatch(
                f"an ({n}, H) block is reconciled only under l2 without a box; "
                "pass its columns one at a time"
            )
        if not np.all(np.isfinite(y)):
            raise BadParameter("component block contains NaN or infinite entries")
    else:
        y = _as_component_vector(y, n)
    w = loss.resolved_weights(n)

    if loss.kind == "l1":
        raise NonSmoothLoss(
            "the absolute loss is not differentiable at zero adjustment; "
            "use reconcile_l1"
        )
    if loss.kind == "custom":
        slope0 = float(np.asarray(loss.f_prime(np.zeros(1)))[0])
        if abs(slope0) > 1e-12:
            raise NonSmoothLoss(
                f"custom loss has f'(0) = {slope0:.3e}; a nonzero slope at zero "
                "makes the objective nonsmooth, use reconcile_l1"
            )

    bounds = None
    if box is not None:
        if box.lower.shape != (n,):
            raise DimensionMismatch(f"box bounds must have length {n}")
        imap = agg.index_map
        off_path = slice(0, imap.n_nodes + imap.n_edges)
        if np.any(np.isfinite(box.lower[off_path])) or np.any(
            np.isfinite(box.upper[off_path])
        ):
            raise BadParameter(
                "smooth-loss reconciliation supports box bounds on path "
                "components only; bounds on aggregated components need reconcile_l1"
            )
        bounds = (box.lower[imap.path_slice], box.upper[imap.path_slice])

    if loss.kind == "l2" and box is None:
        b, stats = _l2_solve(y, agg, loss, "general:l2", min(tol, 1e-10), t0)
        return _package(yhat, y, agg.matrix @ b, b, agg, loss, stats)

    b0 = np.asarray(start, dtype=float) if start is not None else y[agg.index_map.path_slice].copy()
    if b0.shape != (agg.n_paths,):
        raise DimensionMismatch(f"start must hold {agg.n_paths} path values")
    res = _minimize_path_loss(y, agg, w, _smooth_parts(loss, w), b0, bounds, tol, max_iter)
    wall = time.perf_counter() - t0
    stats = SolverStats(
        f"general:{loss.kind}", res.iterations, wall, gradient_norm=res.gradient_norm
    )
    return _package(yhat, y, agg.matrix @ res.x, res.x, agg, loss, stats)
