"""Coherent forecast reconciliation on flow networks.

Forecasts over a flow network live on three levels at once — nodes,
edges, paths — and independent per-component forecasts rarely add up.
This package projects them back onto the aggregation-consistent subspace
under a choice of loss, keeps reconciliations up to date as the network
or its inputs change, and benchmarks the methods on random instances.
"""

from .baselines import (
    LevelMetrics,
    MetricsReport,
    evaluate,
    reconcile_bottom_up,
    reconcile_mint_ols,
)
from .benchmark import (
    DEFAULT_METHODS,
    BenchmarkInstance,
    BenchmarkReport,
    GeneratorConfig,
    density_for_edge_target,
    generate_instance,
    method_callable,
    permitted_edge_count,
    run_benchmark,
)
from .dynamic import (
    EdgeAdditionResult,
    RemovalPlan,
    UpdateLedger,
    UpdateRecord,
    UpdateVerdict,
    add_edge_update,
    apply_monotone_sequence,
    check_data_update,
    remove_edge,
)
from .errors import (
    BadParameter,
    BrokenPath,
    CyclingDetected,
    DanglingEdge,
    DimensionMismatch,
    Disconnected,
    DuplicateId,
    EdgeExists,
    FlowRecError,
    Infeasible,
    InfeasibleTopology,
    IoFailure,
    NoAffectedPaths,
    NoConvergence,
    NonSmoothLoss,
    NotPositiveDefinite,
    RankDeficient,
    SolveFailure,
    SolverError,
    Unbounded,
    UnknownComponent,
    UnknownEdge,
    UnknownIndex,
    ValidationError,
)
from .fileio import (
    component_ids,
    component_index,
    edge_id,
    jsonable,
    read_box,
    read_forecast,
    read_network,
    read_weights,
    write_diagnostics,
    write_forecast,
    write_network,
)
from .network import NODE_ROLES, FlowAggregationMatrix, IndexMap, Network
from .reconcile import (
    BoxConstraints,
    LossSpec,
    ReconciliationResult,
    SolverStats,
    coherence_constraints,
    evaluate_loss,
    huber_value,
    reconcile_general,
    reconcile_l1,
    reconcile_l2,
    reconcile_weighted,
)
from .relaxed import reconcile_relaxed
from .series import (
    CoherenceReport,
    ForecastVector,
    check_coherence,
    default_tolerance,
    node_imbalance,
)

__version__ = "0.1.0"
