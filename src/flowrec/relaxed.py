"""Reconciliation with a per-edge tolerance instead of exact edge coherence.

Giving every edge a slack band of width epsilon around the sum of its
paths' values buys accuracy: the base edge forecast can be kept wherever
it already sits within the band.  Node values stay exact by construction
(they are recomputed from path values), so only edge constraints carry
slack.  As epsilon shrinks to zero the solution converges to the exact
least-squares reconciliation.

This is the loss kind ``LossSpec("relaxed", epsilon=...)`` of the one
dispatch, :func:`flowrec.reconcile.reconcile_general`, which holds the
solver: for fixed path values the best admissible edge value is the base
forecast clamped into its band, which leaves a per-edge dead zone
f(u) = (u - band)_+^2 on the shared damped semismooth Newton kernel.
"""

from __future__ import annotations

from .network import FlowAggregationMatrix
from .reconcile import LossSpec, ReconciliationResult, _dispatch


def reconcile_relaxed(yhat, agg: FlowAggregationMatrix, epsilon: float) -> ReconciliationResult:
    """Minimise the squared adjustment subject to per-edge slack epsilon.

    ``y_tilde`` stacks the node values of ``b_tilde``, the base edge
    forecasts clamped into their bands and ``b_tilde``; ``loss_value`` is
    its squared distance to ``yhat``.  ``stats.max_violation``, the largest
    |path sum - edge value|, is at most epsilon up to rounding.  Newton
    stops once the gradient norm in the path values is at most
    :data:`flowrec.reconcile.RELAXED_TOL` times (1 + objective), within
    200 steps.

    Args:
        yhat: base forecasts for every component.
        agg: aggregation operator of the network.
        epsilon: half-width of the admissible band per edge, >= 0.

    Raises:
        BadParameter: epsilon negative or not finite.
        NoConvergence: Newton-step budget exhausted.
    """
    return _dispatch(yhat, agg, LossSpec("relaxed", epsilon=epsilon))


__all__ = ["reconcile_relaxed"]
