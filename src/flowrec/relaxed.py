"""Reconciliation with a per-edge tolerance instead of exact edge coherence.

Giving every edge a slack band of width epsilon around the sum of its
paths' values buys accuracy: the base edge forecast can be kept wherever
it already sits within the band.  Node values stay exact by construction
(they are recomputed from path values), so only edge constraints carry
slack.  As epsilon shrinks to zero the solution converges to the exact
least-squares reconciliation.

The solver optimises over path values only.  For a fixed path vector the
best admissible edge value has a closed form (clamp the base forecast into
the band), which turns the problem into an unconstrained, continuously
differentiable, strongly convex and piecewise-quadratic minimisation.
Damped semismooth Newton steps solve it; the generalised Hessian is the
normal-equation operator of the edges outside their band,
2 S^T D S with D = diag([1; a; 1]) and a marking those edges, applied
through S and the network's cached S^T without being formed (two sparse
products per CG step), so a few steps end it once that band pattern
settles.

The answer is the :class:`ReconciliationResult` every reconciler returns;
its coherence report's edge residuals are the band violations.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import BadParameter
from .network import FlowAggregationMatrix
from .numerics import minimize_smooth_convex
from .reconcile import ReconciliationResult, SolverStats
from .series import _as_component_vector, _vector_like, check_coherence


def reconcile_relaxed(
    yhat,
    agg: FlowAggregationMatrix,
    epsilon: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> ReconciliationResult:
    """Minimise the squared adjustment subject to per-edge slack epsilon.

    ``y_tilde`` stacks the node values of ``b_tilde``, the base edge
    forecasts clamped into their bands and ``b_tilde``; ``loss_value`` is
    its squared distance to ``yhat``.  ``stats.max_violation``, the largest
    |path sum - edge value|, is at most epsilon up to rounding.

    Args:
        yhat: base forecasts for every component.
        agg: aggregation operator of the network.
        epsilon: half-width of the admissible band per edge, >= 0.
        tol: declare convergence once the gradient norm in the path values
            is at most tol * (1 + objective).
        max_iter: Newton-step budget.

    Raises:
        BadParameter: epsilon negative or not finite.
        NoConvergence: Newton-step budget exhausted.
    """
    t0 = time.perf_counter()
    if not np.isfinite(epsilon) or epsilon < 0:
        raise BadParameter(f"epsilon must be finite and >= 0, got {epsilon!r}")
    imap = agg.index_map
    y = _as_component_vector(yhat, imap.n)
    y_edges = y[imap.edge_slice]
    y_paths = y[imap.path_slice]
    s, st = agg.matrix, agg.matrix_t
    edges = imap.edge_slice

    def objective(p: np.ndarray) -> tuple[float, np.ndarray]:
        # r = [r_nodes; r_edges shrunk by the band; r_paths], so grad = 2 S^T r.
        r = s @ p - y
        r_edges = r[edges]
        r[edges] = np.sign(r_edges) * np.maximum(np.abs(r_edges) - epsilon, 0.0)
        return float(r @ r), 2.0 * (st @ r)

    # Edges outside their band add a quadratic term; those inside add none.
    patterns: list[np.ndarray] = []

    def hessian(p: np.ndarray):
        active = np.abs(agg.ep @ p - y_edges) > epsilon
        if not patterns or not np.array_equal(active, patterns[-1]):
            patterns.append(active)
        d = np.ones(imap.n)
        d[edges] = active
        return lambda v: 2.0 * (st @ (d * (s @ v)))

    res = minimize_smooth_convex(objective, hessian, y_paths, tol=tol, max_iter=max_iter)
    p = res.x

    edge_sums = agg.ep @ p
    e_vals = np.clip(y_edges, edge_sums - epsilon, edge_sums + epsilon)
    out = np.concatenate([agg.vp @ p, e_vals, p])
    coherence = check_coherence(out, agg)
    stats = SolverStats(
        method=f"relaxed:{epsilon}",
        iterations=res.iterations,
        wall_time_s=time.perf_counter() - t0,
        gradient_norm=res.gradient_norm,
        max_violation=coherence.max_edge_residual,
        refine_rounds=len(patterns),
    )
    return ReconciliationResult(
        y_tilde=_vector_like(out, yhat),
        b_tilde=p,
        loss_value=float(np.sum((out - y) ** 2)),
        coherence=coherence,
        stats=stats,
    )


__all__ = ["reconcile_relaxed"]
