"""Reference reconcilers and accuracy metrics.

Bottom-up is the classical baseline: trust the path forecasts, overwrite
everything above them by aggregation.  The ordinary-least-squares
projector is algebraically the same answer as the sparse least-squares
reconciler and is kept as a separately-named entry point because
benchmark tables traditionally list it as its own method, optionally
constrained to nonnegative values: the exact nonnegative least-squares
reconciliation (Wickramasuriya, Turlach & Hyndman, Statistics and
Computing 30, 2020), the path box b >= 0 on the one dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .network import FlowAggregationMatrix, IndexMap
from .reconcile import BoxConstraints, LossSpec, reconcile_general
from .series import ForecastVector, _as_component_vector


def reconcile_bottom_up(yhat, agg: FlowAggregationMatrix) -> ForecastVector:
    """Keep the path forecasts, rebuild nodes and edges by summation.

    Base noise on paths accumulates into the aggregates, so upper-level
    accuracy usually degrades relative to the base forecasts; the output
    is nevertheless exactly coherent.
    """
    y = _as_component_vector(yhat, agg.n)
    return ForecastVector(agg.aggregate(y[agg.index_map.path_slice]))


def reconcile_mint_ols(
    yhat, agg: FlowAggregationMatrix, nonneg: bool = False
) -> ForecastVector:
    """Identity-weighted projection onto the coherent subspace.

    With identity weighting the trace-minimising projector reduces to
    ordinary least squares over path values, so this shares its answer
    with the sparse least-squares reconciler.  ``nonneg`` minimises the
    same squared adjustment over nonnegative path values, b >= 0; S is 0/1,
    so every component of the answer is then nonnegative, and the answer
    stays coherent.
    """
    box = BoxConstraints.nonnegative_paths(agg) if nonneg else None
    return reconcile_general(yhat, agg, LossSpec("l2"), box=box).y_tilde


@dataclass
class LevelMetrics:
    """One accuracy number per component block plus the pooled value."""

    overall: float
    nodes: float
    edges: float
    paths: float


@dataclass
class MetricsReport:
    rmse: LevelMetrics
    mae: LevelMetrics


def _level_metric(err: np.ndarray, imap: IndexMap, kind: str) -> LevelMetrics:
    def pooled(x: np.ndarray) -> float:
        if x.size == 0:
            return 0.0
        if kind == "rmse":
            return float(np.sqrt(np.mean(x * x)))
        return float(np.mean(np.abs(x)))

    return LevelMetrics(
        overall=pooled(err),
        nodes=pooled(err[imap.node_slice]),
        edges=pooled(err[imap.edge_slice]),
        paths=pooled(err[imap.path_slice]),
    )


def evaluate(y, truth, index_map: IndexMap) -> MetricsReport:
    """Root-mean-square and mean-absolute error against the truth.

    Both metrics are reported per block (nodes, edges, paths) and pooled
    over the full component vector.
    """
    a = np.asarray(getattr(y, "data", y), dtype=float)
    t = np.asarray(getattr(truth, "data", truth), dtype=float)
    if a.shape != t.shape or a.shape != (index_map.n,):
        raise DimensionMismatch(
            f"evaluate needs two vectors of length {index_map.n}, "
            f"got {a.shape} and {t.shape}"
        )
    err = a - t
    return MetricsReport(
        rmse=_level_metric(err, index_map, "rmse"),
        mae=_level_metric(err, index_map, "mae"),
    )
