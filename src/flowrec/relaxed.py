"""Reconciliation with a per-edge tolerance instead of exact edge coherence.

Giving every edge a slack band of width epsilon around the sum of its
paths' values buys accuracy: the base edge forecast can be kept wherever
it already sits within the band.  Node values stay exact by construction
(they are recomputed from path values), so only edge constraints carry
slack.  As epsilon shrinks to zero the solution converges to the exact
least-squares reconciliation.

The solver optimises over path values only.  For a fixed path vector the
best admissible edge value has a closed form (clamp the base forecast into
the band), which leaves the squared distance of each residual to an
interval: a per-edge dead zone f(u) = (u - band)_+^2 with band = epsilon
on edges and 0 on nodes and paths.  That loss is continuously
differentiable, strongly convex and piecewise quadratic in the path
values, so it runs on the smooth route every reconciler shares: the one
damped semismooth Newton kernel, with curvature 2 on every node and path
residual and on the edges outside their band, 0 on those inside.  A few
steps end it once that band pattern settles.

The answer is the :class:`ReconciliationResult` every reconciler returns;
its coherence report's edge residuals are the band violations.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import BadParameter
from .network import FlowAggregationMatrix
from .reconcile import LossSpec, ReconciliationResult, SolverStats, _minimize_path_loss, _package
from .series import _as_component_vector


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
    edges = imap.edge_slice
    band = np.zeros(imap.n)
    band[edges] = epsilon

    def excess(u: np.ndarray) -> np.ndarray:
        return np.maximum(u - band, 0.0)

    # Curvature 2 everywhere except on the edges inside their band; u > band
    # alone would also zero a node or path residual of exactly 0.  Count
    # each change of that band pattern.
    rounds, pattern = 0, None

    def curvature(u: np.ndarray) -> np.ndarray:
        nonlocal rounds, pattern
        active = u[edges] > epsilon
        if pattern is None or not np.array_equal(active, pattern):
            rounds, pattern = rounds + 1, active
        c = np.full(imap.n, 2.0)
        c[edges] = 2.0 * active
        return c

    parts = (lambda u: excess(u) ** 2), (lambda u: 2.0 * excess(u)), curvature
    b0 = y[imap.path_slice]
    res = _minimize_path_loss(y, agg, np.ones(imap.n), parts, b0, None, tol, max_iter)
    p = res.x

    edge_sums = agg.ep @ p
    e_vals = np.clip(y[edges], edge_sums - epsilon, edge_sums + epsilon)
    out = np.concatenate([agg.vp @ p, e_vals, p])
    stats = SolverStats(
        method=f"relaxed:{epsilon}",
        iterations=res.iterations,
        wall_time_s=time.perf_counter() - t0,
        gradient_norm=res.gradient_norm,
        refine_rounds=rounds,
    )
    result = _package(yhat, y, out, p, agg, LossSpec("l2"), stats)
    stats.max_violation = result.coherence.max_edge_residual
    return result


__all__ = ["reconcile_relaxed"]
