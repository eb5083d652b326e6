"""Vectors aligned to a network's component layout.

A :class:`ForecastVector` carries one value per component in canonical
[nodes; edges; paths] order.  Coherence checking lives here too: it
measures how far a vector is from the aggregation-consistent subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .network import FlowAggregationMatrix, IndexMap


def _as_component_vector(values, n: int) -> np.ndarray:
    data = np.asarray(getattr(values, "data", values), dtype=float)
    if data.shape != (n,):
        raise DimensionMismatch(f"expected a vector of {n} components, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise BadParameter("component vector contains NaN or infinite entries")
    return data


def _vector_like(data, like) -> "ForecastVector":
    """``data`` as a ForecastVector with the horizon and origin of ``like``
    (1 and None when ``like`` is a bare array)."""
    return ForecastVector(
        data, horizon=getattr(like, "horizon", 1), origin=getattr(like, "origin", None)
    )


@dataclass
class ForecastVector:
    """One value per network component.

    Args:
        data: length-n float array in canonical [nodes; edges; paths] order.
        horizon: steps ahead this vector refers to (1 = next step).
        origin: the caller's label for where the forecast came from, or
            None; reconcilers and edge edits carry it through unchanged.
    """

    data: np.ndarray
    horizon: int = 1
    origin: int | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 1:
            raise DimensionMismatch(f"forecast data must be 1-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise BadParameter("forecast contains NaN or infinite entries")
        if self.horizon < 1:
            raise BadParameter(f"horizon must be >= 1, got {self.horizon}")

    def __len__(self) -> int:
        return self.data.shape[0]


@dataclass
class CoherenceReport:
    """Result of checking a vector against the aggregation structure.

    ``coherent`` is true when both residual maxima are at or below the
    tolerance the check ran with.
    """

    coherent: bool
    max_node_residual: float
    max_edge_residual: float
    tolerance: float
    node_residuals: np.ndarray = field(repr=False)
    edge_residuals: np.ndarray = field(repr=False)


def default_tolerance(values: np.ndarray) -> float:
    """Coherence tolerance scaled to the data: 1e-8 * (1 + max |value|)."""
    values = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return 1e-8 * (1.0 + scale)


def check_coherence(
    values, agg: FlowAggregationMatrix, tolerance: float | None = None
) -> CoherenceReport:
    """Measure how far a stacked vector is from aggregation consistency.

    For every node the residual is |sum of path values through it - node
    value|, and likewise per edge.  The vector is coherent when no residual
    exceeds the tolerance (default :func:`default_tolerance` of the data).

    Args:
        values: ForecastVector or length-n array.
        agg: aggregation operator for the same network.
        tolerance: absolute residual bound; None picks the scaled default.
    """
    imap = agg.index_map
    y = _as_component_vector(values, imap.n)
    if tolerance is None:
        tolerance = default_tolerance(y)
    y_nodes = y[imap.node_slice]
    y_edges = y[imap.edge_slice]
    y_paths = y[imap.path_slice]
    node_res = np.abs(agg.vp @ y_paths - y_nodes)
    edge_res = np.abs(agg.ep @ y_paths - y_edges)
    max_node = float(node_res.max()) if node_res.size else 0.0
    max_edge = float(edge_res.max()) if edge_res.size else 0.0
    return CoherenceReport(
        coherent=bool(max_node <= tolerance and max_edge <= tolerance),
        max_node_residual=max_node,
        max_edge_residual=max_edge,
        tolerance=float(tolerance),
        node_residuals=node_res,
        edge_residuals=edge_res,
    )


def node_imbalance(values, net) -> np.ndarray:
    """Per-node inflow minus outflow over the edge level.

    For a coherent vector this equals the net amount the node injects into
    (negative) or absorbs from (positive) the routed flows, and is exactly
    zero at nodes that are interior to every path touching them.  Exposed
    as a diagnostic; nothing in the solvers constrains it.
    """
    imap: IndexMap = net.index_map
    y = _as_component_vector(values, imap.n)
    edge_vals = y[imap.edge_slice]
    balance = np.zeros(imap.n_nodes)
    for e, (t, h) in enumerate(net.edges):
        balance[net.node_index[h]] += edge_vals[e]
        balance[net.node_index[t]] -= edge_vals[e]
    return balance
