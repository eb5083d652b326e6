"""Reconciliation of component forecasts onto the coherent subspace.

Every answer is ``S b`` for some vector of path values ``b``, which makes
it coherent by construction; only the relaxed loss then lets its edge
values sit in a band.  :func:`reconcile_general` is the one dispatch: it
takes an (n,) vector or an (n, H) panel of forecasts and picks the solver
for the loss.

* l2 without a box: conjugate gradient on the normal equations over path
  values, applied through S and never formed, to :data:`L2_TOL`; a panel
  is one block CG over a shared Krylov space.
* l1: one linear program on HiGHS, one row per node and edge.
* Huber, custom losses, l2 under a box and the relaxed loss: one damped
  semismooth Newton kernel, given the loss's (f, f', c) triple and
  started from the plain l2 answer.

:func:`reconcile_l2`, :func:`reconcile_l1` and
:func:`flowrec.relaxed.reconcile_relaxed` are one-line calls into it, and
every route builds its result in :func:`_package`, which scores the answer
under its loss and checks its coherence.  :func:`reconcile_weighted` is the
dense closed-form weighted projection, kept as an independent reference.
A root-mean-square objective shares its minimiser with the mean-square
one, so no separate solver exists for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

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

LOSS_KINDS = ("l2", "l1", "huber", "custom", "relaxed")

# CG tolerance of every l2 solve without a box, vector or panel.
L2_TOL = 1e-10
# Newton tolerance, relative to 1 + objective, of every other smooth loss,
# and of the relaxed one.
NEWTON_TOL = 1e-8
RELAXED_TOL = 1e-10


@dataclass(frozen=True)
class LossSpec:
    """Which penalty to apply to per-component adjustments.

    Args:
        kind: one of ``l2``, ``l1``, ``huber``, ``custom``, ``relaxed``.
        weights: optional nonnegative per-component weights (default all 1);
            the relaxed loss takes none.
        delta: Huber corner parameter, required for ``huber``.
        epsilon: half-width of each edge's band, required for ``relaxed``:
            the squared adjustment, with every edge value free to sit up to
            epsilon off its path sum.
        f: for ``custom``, vectorised penalty on nonnegative residual
            magnitudes with f(0) = 0.
        f_prime: derivative of ``f``; must satisfy f'(0) = 0, otherwise the
            loss is not differentiable as a function of the signed residual
            and only the LP route can handle it.
    """

    kind: str
    weights: np.ndarray | None = None
    delta: float | None = None
    epsilon: float | None = None
    f: object = None
    f_prime: object = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise BadParameter(f"loss kind {self.kind!r} not in {LOSS_KINDS}")
        if self.kind == "huber":
            if self.delta is None or not np.isfinite(self.delta) or self.delta <= 0:
                raise BadParameter(f"huber needs a finite delta > 0, got {self.delta!r}")
        if self.kind == "relaxed":
            if self.epsilon is None or not np.isfinite(self.epsilon) or self.epsilon < 0:
                raise BadParameter(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
            if self.weights is not None:
                raise BadParameter("epsilon relaxes the unweighted l2 loss; drop the weights")
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

    @classmethod
    def nonnegative_paths(cls, agg: FlowAggregationMatrix) -> "BoxConstraints":
        """b >= 0 on every path value and no other bound.  S is 0/1, so
        every component of S b is then nonnegative too."""
        box = cls.unbounded(agg.n)
        box.lower[agg.index_map.path_slice] = 0.0
        return box


@dataclass
class SolverStats:
    """How the answer was produced: counts, timing, and certificates.

    Only the relaxed loss fills ``max_violation`` (its band certificate)
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

    Under the relaxed loss the edge values may sit up to epsilon off their
    path sums; every other vector is coherent.
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
    if loss.kind in ("l2", "relaxed"):
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


def _l2_solve(y: np.ndarray, agg: FlowAggregationMatrix, loss: LossSpec, t0: float):
    """Solve the weighted normal equations S^T W S b = S^T W y to :data:`L2_TOL`.

    CG applies S^T W S through the operator's :meth:`~FlowAggregationMatrix.normal`,
    M^T (w_NE * M v) + w_P * v with S = [M; I], or M^T M v + v without
    weights, so the Gram matrix, several times denser than S, is never
    formed.  A vector y gives b and its stats; an (n, H) block y, solved by
    one block CG, gives B and one stats per column, each with the block's
    step count, its column's gradient-norm certificate (twice its explicit
    CG residual) and an equal share of the block's wall time.
    """
    if loss.weights is None:
        rhs, matvec = agg.restrict(y), agg.normal
    else:
        w = loss.resolved_weights(agg.n)
        wy = w if y.ndim == 1 else w[:, None]
        rhs, matvec = agg.restrict(wy * y), partial(agg.normal, c=w)
    b, info = solve_spd_with_info(matvec, rhs, tol=L2_TOL)
    wall = time.perf_counter() - t0
    if y.ndim == 1:
        return b, SolverStats(
            "general:l2", info.iterations, wall, gradient_norm=2.0 * info.residual_norm
        )
    share = wall / y.shape[1]
    return b, [
        SolverStats("general:l2", col.iterations, share, gradient_norm=2.0 * col.residual_norm)
        for col in info.columns
    ]


def reconcile_l2(yhat, agg: FlowAggregationMatrix) -> ReconciliationResult:
    """Least-squares reconciliation: the orthogonal projection onto the
    coherent subspace, computed over path values.

    The normal-equation matrix S^T S is the path Gram matrix plus identity,
    so it is positive definite with eigenvalues >= 1 and conjugate gradient
    converges unconditionally.  It is applied through S, never formed.
    This is :func:`reconcile_general` under plain l2.
    """
    return _dispatch(yhat, agg, LossSpec("l2"))


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
    a[:, imap.path_slice] = -agg.node_edge.toarray()
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
    """Least-absolute-deviation reconciliation as a linear program: this is
    :func:`reconcile_general` under the (weighted) l1 loss, see
    :func:`_l1_solve`."""
    return _dispatch(yhat, agg, LossSpec("l1", weights=weights), box=box)


def _l1_solve(y: np.ndarray, agg: FlowAggregationMatrix, w: np.ndarray, box, t0: float):
    """Minimise sum_i w_i |(S b - y)_i| as one linear program.

    The adjustment of each component is split into its positive and
    negative parts p_i, q_i >= 0, with cost ``w`` on both, so at an optimum
    at most one of each positively weighted pair is nonzero.  S stacks the
    node and edge rows M over an identity on the paths, so the path rows
    of S b - p + q = y fix b = y_P + p_P - q_P; substituting it leaves one
    equality row per node and edge, M (p_P - q_P) - p_NE + q_NE =
    y_NE - M y_P, over the 2n variables ``[p; q]``.  A box [l, u] on S b
    becomes bounds on the split parts, p in [max(l - y, 0), max(u - y, 0)]
    and q in [max(y - u, 0), max(y - l, 0)]: every z = S b in [l, u] is
    reached with p = (z - y)^+, q = (y - z)^+, and every (p, q) in those
    bounds gives a z in [l, u].  So a box adds no row.  HiGHS solves the
    LP, and the strong-duality gap that :func:`solve_lp` recomputes from
    the returned duals is carried in ``stats.duality_gap``.
    """
    n = agg.n
    path = agg.index_map.path_slice
    k = n - agg.n_paths
    if box is None:
        box = BoxConstraints.unbounded(n)
    m = agg.node_edge
    eye = sp.identity(k, format="csr")
    a_eq = sp.hstack([-eye, m, eye, -m], format="csr")
    rhs = y[:k] - m @ y[path]
    cost = np.concatenate([w, w])
    lower = np.concatenate([np.maximum(box.lower - y, 0.0), np.maximum(y - box.upper, 0.0)])
    upper = np.concatenate([np.maximum(box.upper - y, 0.0), np.maximum(y - box.lower, 0.0)])
    sol = solve_lp(cost, a_eq, rhs, lower, upper)
    wall = time.perf_counter() - t0
    b = y[path] + sol.x[k:n] - sol.x[n + k :]
    return b, SolverStats("l1", sol.iterations, wall, duality_gap=sol.duality_gap)


def _smooth_parts(loss: LossSpec, w: np.ndarray, imap):
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
    if loss.kind == "relaxed":
        return _band_parts(float(loss.epsilon), imap)

    def curvature(u: np.ndarray) -> np.ndarray:
        slope = np.asarray(loss.f_prime(u), dtype=float)
        return w * np.divide(slope, u, out=np.zeros_like(u), where=u > 0.0)

    return loss.f, loss.f_prime, curvature


def _band_parts(epsilon: float, imap):
    """(f, f', c) of the relaxed loss: the squared distance of each
    residual to its band, f(u) = (u - band)_+^2 with band epsilon on edges
    and 0 on nodes and paths.

    For fixed path values the best admissible edge value is the base
    forecast clamped into the band, which leaves exactly this dead zone.
    The curvature is 2 except on the edges inside their band (u > band
    alone would also zero a node or path residual of 0); ``c.rounds``
    counts the changes of that band pattern.
    """
    edges = imap.edge_slice
    band = np.zeros(imap.n)
    band[edges] = epsilon

    def excess(u: np.ndarray) -> np.ndarray:
        return np.maximum(u - band, 0.0)

    def curvature(u: np.ndarray) -> np.ndarray:
        active = u[edges] > epsilon
        if curvature.pattern is None or not np.array_equal(active, curvature.pattern):
            curvature.rounds, curvature.pattern = curvature.rounds + 1, active
        c = np.full(imap.n, 2.0)
        c[edges] = 2.0 * active
        return c

    curvature.rounds, curvature.pattern = 0, None
    return (lambda u: excess(u) ** 2), (lambda u: 2.0 * excess(u)), curvature


def _minimize_path_loss(y, agg: FlowAggregationMatrix, w, parts, b0, bounds, tol, max_iter=200):
    """Minimise sum_i w_i f(|(S b - y)_i|) over path values b on the one
    Newton kernel, :func:`minimize_smooth_convex`.

    ``parts`` is the (f, f', c) triple of the loss: with r = S b - y the
    gradient is S^T (w f'(|r|) sign(r)) and the generalised Hessian
    S^T diag(c(|r|)) S, each applied through the operator
    (:meth:`~FlowAggregationMatrix.lift`, :meth:`~FlowAggregationMatrix.restrict`,
    :meth:`~FlowAggregationMatrix.normal`) and never formed.  The kernel
    asks for the Hessian at the point it last evaluated, so ``hessian``
    reuses that evaluation's r.
    """
    f, f_prime, curvature = parts
    last_b = last_r = None  # the last objective call's point and its r

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal last_b, last_r
        r = agg.lift(b)
        r -= y
        last_b, last_r = b, r
        mag = np.abs(r)
        value = float(w @ np.asarray(f(mag), dtype=float))
        grad = agg.restrict(w * np.asarray(f_prime(mag), dtype=float) * np.sign(r))
        return value, grad

    def hessian(b: np.ndarray):
        r = last_r if b is last_b else agg.lift(b) - y
        return partial(agg.normal, c=curvature(np.abs(r)))

    return minimize_smooth_convex(objective, hessian, b0, tol=tol, max_iter=max_iter, bounds=bounds)


def _solve_column(yhat, y, agg: FlowAggregationMatrix, loss, box, bounds):
    """The result of one column off the l2 normal equations: the LP for l1,
    the Newton kernel, from the column's plain l2 answer, for every other
    loss."""
    t0 = time.perf_counter()
    w = loss.resolved_weights(agg.n)
    if loss.kind == "l1":
        b, stats = _l1_solve(y, agg, w, box, t0)
        return _package(yhat, y, agg.lift(b), b, agg, loss, stats)
    imap = agg.index_map
    parts = _smooth_parts(loss, w, imap)
    tol = RELAXED_TOL if loss.kind == "relaxed" else NEWTON_TOL
    # S^T S >= I, so the unweighted l2 start exists whatever the weights;
    # the kernel projects it onto a path box.
    b0, _ = _l2_solve(y, agg, LossSpec("l2"), t0)
    res = _minimize_path_loss(y, agg, w, parts, b0, bounds, tol)
    method = f"relaxed:{loss.epsilon}" if loss.kind == "relaxed" else f"general:{loss.kind}"
    stats = SolverStats(
        method, res.iterations, time.perf_counter() - t0, gradient_norm=res.gradient_norm
    )
    if loss.kind != "relaxed":
        return _package(yhat, y, agg.lift(res.x), res.x, agg, loss, stats)
    # Node values from the path values, edge forecasts clamped into their bands.
    p, eps, edges = res.x, loss.epsilon, imap.edge_slice
    lifted = agg.lift(p)
    edge_sums = lifted[edges]
    lifted[edges] = np.clip(y[edges], edge_sums - eps, edge_sums + eps)
    stats.refine_rounds = parts[2].rounds
    result = _package(yhat, y, lifted, p, agg, loss, stats)
    stats.max_violation = result.coherence.max_edge_residual
    return result


def reconcile_general(
    yhat,
    agg: FlowAggregationMatrix,
    loss: LossSpec,
    box: BoxConstraints | None = None,
) -> ReconciliationResult | list[ReconciliationResult]:
    """Reconcile under any loss: the one dispatch.

    ``yhat`` is one forecast vector, or an (n, H) panel of H horizons that
    gives a list of H results, the k-th with horizon k + 1.  l2 without a
    box solves a panel as one block CG, so a column is not bitwise its
    one-column solve, but each meets its own certificate.  Every other
    route solves the columns one at a time: l1 as a linear program (see
    :func:`_l1_solve`), with a box on any component, and the other losses
    on the Newton kernel, :func:`minimize_smooth_convex`, with generalised
    Hessian S^T diag(c) S: c = 2w for l2, w [|r_i| <= delta] for Huber, the
    IRLS weights w f'(|r_i|) / |r_i| for a custom loss and 2 off the
    in-band edges for the relaxed one.  Newton starts from the column's
    unweighted l2 answer (one CG solve, projected onto a path box), takes
    at most 200 steps, and stops once the gradient norm, or
    under a box the projected-gradient norm, is at most
    :data:`NEWTON_TOL` (:data:`RELAXED_TOL` for relaxed) times
    (1 + objective).  Its box acts on path components only, by projected
    Newton steps; a finite node or edge bound belongs to l1, and the
    relaxed loss takes no box.  The relaxed answer clamps the base edge
    forecasts into their bands, and ``stats.max_violation`` is its largest
    |path sum - edge value|.

    A custom loss needs f'(0) = 0 and otherwise raises
    :class:`NonSmoothLoss`: the objective is then not differentiable in b.
    """
    return _dispatch(yhat, agg, loss, box)


def _dispatch(yhat, agg, loss, box=None):
    """The body of :func:`reconcile_general`.  The named reconcilers call it
    directly, so that a traced call of one of them records one span."""
    t0 = time.perf_counter()
    n = agg.n
    y = _as_component_vector(yhat, n, panel=True)
    panel = y.ndim == 2
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
        if loss.kind == "relaxed":
            raise BadParameter("epsilon relaxes the l2 loss without box bounds; drop the box")
        if loss.kind != "l1":
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

    if panel and y.shape[1] == 0:
        return []
    if loss.kind == "l2" and box is None:
        b, stats = _l2_solve(y, agg, loss, t0)
        return _package(yhat, y, agg.lift(b), b, agg, loss, stats)
    if not panel:
        return _solve_column(yhat, y, agg, loss, box, bounds)
    return [
        _solve_column(ForecastVector(col, horizon=k + 1), col, agg, loss, box, bounds)
        for k, col in enumerate(np.ascontiguousarray(y.T))
    ]
