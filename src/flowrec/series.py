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


def _as_component_vector(values, n: int, panel: bool = False) -> np.ndarray:
    """``values`` (a ForecastVector or an array) as a finite length-n float
    vector, or with ``panel`` also as a finite (n, H) panel."""
    data = np.asarray(getattr(values, "data", values), dtype=float)
    block = panel and data.ndim == 2 and data.shape[0] == n
    if not block and data.shape != (n,):
        raise DimensionMismatch(f"expected a vector of {n} components, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        kind = "block" if block else "vector"
        raise BadParameter(f"component {kind} contains NaN or infinite entries")
    return data


def _vector_like(data, like) -> "ForecastVector":
    """``data`` as a ForecastVector with the horizon of ``like`` (1 when
    ``like`` is a bare array)."""
    return ForecastVector(data, horizon=getattr(like, "horizon", 1))


@dataclass
class ForecastVector:
    """One value per network component.

    Args:
        data: length-n float array in canonical [nodes; edges; paths] order.
        horizon: steps ahead this vector refers to (1 = next step);
            reconcilers and edge edits carry it through unchanged.
    """

    data: np.ndarray
    horizon: int = 1

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


def default_tolerance(values: np.ndarray):
    """Coherence tolerance scaled to the data: 1e-8 * (1 + max |value|).

    For an (n, H) block, an array of H tolerances, one per column.
    """
    values = np.asarray(values, dtype=float)
    tolerance = 1e-8 * (1.0 + np.abs(values).max(axis=0, initial=0.0))
    return float(tolerance) if values.ndim < 2 else tolerance


def check_coherence(
    values, agg: FlowAggregationMatrix, tolerance: float | None = None
) -> CoherenceReport | list[CoherenceReport]:
    """Measure how far a stacked vector is from aggregation consistency.

    For every node the residual is |sum of path values through it - node
    value|, and likewise per edge.  The vector is coherent when no residual
    exceeds the tolerance (default :func:`default_tolerance` of the data).

    An (n, H) block of H vectors is checked in one product per level and
    gives a list of H reports in column order, each with its column's
    default tolerance; a vector is its one-column case and gives one report.

    Args:
        values: ForecastVector, length-n array or (n, H) array.
        agg: aggregation operator for the same network.
        tolerance: absolute residual bound; None picks the scaled default.
    """
    imap = agg.index_map
    y = _as_component_vector(values, imap.n, panel=True)
    block = y.ndim == 2
    # The same code serves a vector and a block; residuals are laid out one
    # row per column for the reports.
    h = y.shape[1] if block else 1
    res = np.abs(agg.lift(y[imap.path_slice]) - y)
    node_res = res[imap.node_slice].T.reshape(h, imap.n_nodes)
    edge_res = res[imap.edge_slice].T.reshape(h, imap.n_edges)
    max_node = node_res.max(axis=1, initial=0.0)
    max_edge = edge_res.max(axis=1, initial=0.0)
    if tolerance is None:
        tolerances = np.atleast_1d(default_tolerance(y))
    else:
        tolerances = np.full(h, float(tolerance))
    reports = [
        CoherenceReport(
            coherent=bool(mn <= tol and me <= tol),
            max_node_residual=float(mn),
            max_edge_residual=float(me),
            tolerance=float(tol),
            node_residuals=nr,
            edge_residuals=er,
        )
        for mn, me, tol, nr, er in zip(max_node, max_edge, tolerances, node_res, edge_res)
    ]
    return reports if block else reports[0]


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
