"""Local updates to an existing reconciliation without a full re-solve.

Three situations are covered:

* a new edge opens and flow must be routed onto paths that use it
  (:func:`add_edge_update`);
* a single base forecast component changes and we want a constant-time
  check of whether the old reconciliation can be kept
  (:func:`check_data_update`, :func:`apply_monotone_sequence`).  Under
  l2, the ledger's default, the kept vector stands while the forecast's
  squared move is at most ``L2_KEEP_TOL * (1 + kept loss)``, which bounds
  what a fresh solve could gain; under l1, while each move goes strictly
  toward the kept value, which keeps it exactly optimal;
* an edge disappears and its flow has to be rerouted along surviving
  routes (:func:`remove_edge`).

Both edge edits derive the updated network from the current one
(``Network._edit``) instead of rebuilding it: only the path tables are
spliced out of the current ones' arrays, and the edited network's operator
is built from them on first use, by the same builder as a fresh network's.
Python work is spent on the affected and new paths only (and on the
rerouting search); the rest is vectorised array work: O(nnz) to splice the
path tables and to build the operator, one O(nnz) coherence pass on the
prior vector and one O(nnz) lift of the updated path values through the new
operator.  The edited network's ``paths``, ``path_nodes`` and
``edge_index`` are built only if something reads them.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadParameter,
    DanglingEdge,
    Disconnected,
    EdgeExists,
    NoAffectedPaths,
    UnknownComponent,
    UnknownEdge,
    ValidationError,
)
from .network import IndexMap, Network, _integer
from .series import ForecastVector, check_coherence, _as_component_vector, _vector_like


# --- edge addition ------------------------------------------------------------


@dataclass
class EdgeAdditionResult:
    """Updated structure and values after opening one new edge.

    ``affected_paths`` indexes into the updated network's path list; the
    new paths absorb the edge forecast in equal shares on top of their
    initial values, and every pre-existing path keeps its value bit for
    bit.
    """

    network: Network
    y_tilde: ForecastVector
    delta: float
    per_path_adjustment: float
    affected_paths: tuple[int, ...]


def _require_coherent(y: np.ndarray, net: Network) -> None:
    report = check_coherence(y, net.aggregation)
    if not report.coherent:
        raise ValidationError(
            "prior vector is not coherent "
            f"(max node residual {report.max_node_residual:.3e}, "
            f"max edge residual {report.max_edge_residual:.3e})"
        )


def add_edge_update(
    net: Network,
    y_tilde,
    edge: tuple[str, str],
    edge_forecast: float,
    new_paths,
    initial_values=None,
) -> EdgeAdditionResult:
    """Open a new edge and spread its forecast over the paths that use it.

    The shortfall between the edge forecast and what the supplied paths
    already carry is split equally: with k new paths each gains
    (forecast - sum of initial values) / k, which is the minimum-movement
    adjustment meeting the edge total under any symmetric penalty.  The
    returned vector is the updated operator applied to the path values,
    the kept ones followed by the new ones, so it is exactly S·b.

    Args:
        net: current network; must not already contain ``edge``.
        y_tilde: current coherent vector for ``net``.
        edge: (tail, head) node names of the edge to add.  The new edge
            receives index ``len(net.edges)``.
        edge_forecast: base forecast for the new edge.
        new_paths: sequences of edge indices in the updated indexing, each
            containing the new edge.  Routing through a new edge is a
            modelling decision, so the caller supplies these explicitly.
        initial_values: starting value per new path (default all zero, the
            natural choice for genuinely new routes).

    ``y_tilde`` must be coherent for ``net`` (else :class:`ValidationError`).
    Every argument is checked before the edit, so a refused call builds
    nothing.  The updated network and its operator are derived from
    ``net``'s; only the new paths are validated, by the constructor's rules.
    The returned vector keeps the horizon of ``y_tilde``.
    """
    imap = net.index_map
    y = _as_component_vector(y_tilde, imap.n)
    tail, head = str(edge[0]), str(edge[1])
    if tail not in net.node_index or head not in net.node_index:
        raise DanglingEdge(f"edge ({tail!r}, {head!r}) references an undeclared node")
    if net.find_edge(tail, head) is not None:
        raise EdgeExists(f"edge ({tail!r}, {head!r}) is already present")
    if not np.isfinite(edge_forecast):
        raise BadParameter("edge forecast must be finite")

    paths = tuple(tuple(int(e) for e in p) for p in new_paths)
    if len(paths) == 0:
        raise NoAffectedPaths("adding an edge needs at least one path using it")
    new_edge_idx = len(net.edges)
    for i, p in enumerate(paths):
        if new_edge_idx not in p:
            raise BadParameter(f"new path {i} does not use the added edge")

    k = len(paths)
    if initial_values is None:
        init = np.zeros(k)
    else:
        init = np.asarray(initial_values, dtype=float)
        if init.shape != (k,):
            raise BadParameter(f"initial_values must have length {k}")
        if not np.all(np.isfinite(init)):
            raise BadParameter("initial_values must be finite")

    _require_coherent(y, net)
    updated = net._edit(add=(tail, head), new_paths=paths)

    delta = float(edge_forecast) - float(init.sum())
    adjustment = delta / k
    values = init + adjustment

    out = updated.aggregation.aggregate(np.concatenate([y[imap.path_slice], values]))

    return EdgeAdditionResult(
        network=updated,
        y_tilde=_vector_like(out, y_tilde),
        delta=delta,
        per_path_adjustment=adjustment,
        affected_paths=tuple(range(imap.n_paths, imap.n_paths + k)),
    )


# --- single-component data updates ---------------------------------------------


class UpdateVerdict(str, Enum):
    STILL_OPTIMAL = "still-optimal"
    NEEDS_RERECONCILE = "needs-rereconcile"


#: Under l2 a kept reconciliation stays ``still-optimal`` while a fresh
#: solve would beat it by at most ``L2_KEEP_TOL * (1 + kept loss)``.
L2_KEEP_TOL = 1e-9

LEDGER_LOSSES = ("l2", "l1")


@dataclass
class UpdateRecord:
    component: int
    old_value: float
    new_value: float
    verdict: UpdateVerdict


@dataclass
class UpdateLedger:
    """Tracks a reconciliation as single-component data updates arrive.

    ``reconciled`` is frozen at creation and must be the ``loss``
    reconciliation (``"l2"``, the package default, or ``"l1"``) of
    ``forecast`` as given; ``forecast`` then mutates as updates are applied.
    ``valid`` stays true while every applied update passed
    :func:`check_data_update`, the regime in which ``reconciled`` is kept.
    ``tolerance`` is the loss excess the l2 rule allows,
    ``L2_KEEP_TOL * (1 + kept loss)``, the kept loss being the squared
    distance from ``reconciled`` to the forecast at creation.
    """

    reconciled: np.ndarray
    forecast: np.ndarray
    index_map: IndexMap | None = None
    loss: str = "l2"
    records: list[UpdateRecord] = field(default_factory=list)
    valid: bool = True
    first_invalid: int | None = None
    tolerance: float = field(init=False)
    # The forecast at creation, and the squared distance from it to ``forecast``.
    _start: np.ndarray = field(init=False, repr=False)
    _moved: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        self.reconciled = np.asarray(self.reconciled, dtype=float).copy()
        self.forecast = np.asarray(self.forecast, dtype=float).copy()
        if self.reconciled.shape != self.forecast.shape or self.reconciled.ndim != 1:
            raise BadParameter("ledger needs two equal-length vectors")
        if self.loss not in LEDGER_LOSSES:
            raise BadParameter(f"ledger loss must be one of {LEDGER_LOSSES}, got {self.loss!r}")
        self._start = self.forecast.copy()
        self.tolerance = L2_KEEP_TOL * (1.0 + float(np.sum((self.reconciled - self.forecast) ** 2)))

    def resolve(self, component) -> int:
        if isinstance(component, tuple) and len(component) == 2:
            if self.index_map is None:
                raise UnknownComponent("ledger has no index map to resolve (kind, index)")
            return self.index_map.global_index(*component)
        x = _integer(component, UnknownComponent, "component")
        if not 0 <= x < self.reconciled.shape[0]:
            raise UnknownComponent(
                f"component {x} out of range [0, {self.reconciled.shape[0]})"
            )
        return x

    def _moved_after(self, x: int, value: float) -> float:
        """Squared distance from the creation forecast once component x holds ``value``."""
        start = self._start.item(x)
        new, old = value - start, self.forecast.item(x) - start
        return self._moved + new * new - old * old


def check_data_update(ledger: UpdateLedger, component, new_value: float) -> UpdateVerdict:
    """Constant-time test of whether one changed input forecast lets the
    kept reconciliation stand; only the one component is read.

    Under ``ledger.loss == "l1"`` the verdict is ``still-optimal`` when the
    new value lies strictly closer to the reconciled value than the current
    one does; ties and moves away give ``needs-rereconcile``.  The kept
    vector then stays exactly optimal.

    Under l2 (the default) the direction does not matter.  Once the
    forecast has moved by a vector d from the one the ledger was created
    with, a fresh solve beats the kept vector by exactly |P d|^2 <= |d|^2 in
    loss, P being the l2 projection (one component moved by delta gives
    delta^2 * P_xx, with 0 <= P_xx <= 1).  So the verdict is
    ``still-optimal`` when |d|^2 after this update, the moves applied
    before it (:func:`apply_monotone_sequence`) included, is at most
    ``ledger.tolerance``: the kept vector then loses to a fresh solve by no
    more than that.
    """
    x = ledger.resolve(component)
    value = float(new_value)
    if not math.isfinite(value):
        raise BadParameter("updated value must be finite")
    if ledger.loss == "l2":
        keep = ledger._moved_after(x, value) <= ledger.tolerance
    else:
        kept = ledger.reconciled.item(x)
        keep = abs(kept - value) < abs(kept - ledger.forecast.item(x))
    return UpdateVerdict.STILL_OPTIMAL if keep else UpdateVerdict.NEEDS_RERECONCILE


def apply_monotone_sequence(ledger: UpdateLedger, updates) -> UpdateLedger:
    """Apply a sequence of (component, new value) updates to the ledger.

    Every update is recorded and written into the tracked forecast (the
    data really did change), but validity survives only while each check
    passes; the first failure index is kept for reporting.  Under l2 each
    check sees the forecast's whole move since the ledger was created.
    """
    for component, new_value in updates:
        x = ledger.resolve(component)
        verdict = check_data_update(ledger, x, new_value)
        value = float(new_value)
        ledger.records.append(UpdateRecord(x, ledger.forecast.item(x), value, verdict))
        ledger._moved = ledger._moved_after(x, value)
        ledger.forecast[x] = value
        if verdict is UpdateVerdict.NEEDS_RERECONCILE and ledger.valid:
            ledger.valid = False
            ledger.first_invalid = len(ledger.records) - 1
    return ledger


# --- edge removal ---------------------------------------------------------------


@dataclass
class RemovalPlan:
    """What happened when an edge was removed.

    ``squared_change`` is the redistribution magnitude: the sum over
    replacement routes of the squared flow mass moved onto each.  ``bound``
    is (sum over affected paths of |value|)^2; by the triangle inequality
    redistribution never exceeds it, whatever the signs, with equality when
    a single replacement route receives values of one sign.
    """

    removed_edge: int
    affected_paths: tuple[int, ...]
    phi: dict[int, tuple[int, ...]]
    target_paths: dict[int, int]
    squared_change: float
    bound: float


def _shortest_route(
    net: Network, banned_edge: int, origin: int, targets: set[int]
) -> dict[int, int]:
    """Hop-shortest search from origin avoiding one edge.

    Unit edge weights make breadth-first order optimal.  Returns the
    parent edge per reached node; ties break toward lower edge indices
    for determinism.  A parent is fixed when its node is discovered, so
    the search stops as soon as every node in ``targets`` has one.
    """
    parent: dict[int, int] = {origin: -1}
    missing = targets - {origin}
    queue = deque([origin])
    while queue and missing:
        v = queue.popleft()
        for e in net.out_edges(v):
            if e == banned_edge:
                continue
            w = net.node_index[net.edges[e][1]]
            if w not in parent:
                parent[w] = e
                queue.append(w)
                missing.discard(w)
                if not missing:
                    break
    return parent


def _route_edges(net: Network, parent: dict[int, int], origin: int, dest: int) -> tuple[int, ...]:
    route = []
    v = dest
    while v != origin:
        e = parent[v]
        route.append(e)
        v = net.node_index[net.edges[e][0]]
    return tuple(reversed(route))


def remove_edge(net: Network, y_tilde, edge) -> tuple[RemovalPlan, Network, ForecastVector]:
    """Delete an edge and reroute the flow of every path that used it.

    Each affected path's value moves onto the hop-shortest surviving route
    between the same origin and destination: onto an existing path when one
    matches that route, otherwise onto a newly created path (several
    affected paths can land on the same route; their flows sum).  Affected
    paths disappear from the path list; surviving paths keep their order
    and new routes follow them.  The updated network and its operator are
    derived from ``net``'s, and the returned vector, which keeps the
    horizon of ``y_tilde``, is that operator applied to the
    updated path values.

    Args:
        net: current network.
        y_tilde: current coherent vector for ``net``.
        edge: edge index, or (tail, head) node names of the edge to remove.

    Returns:
        (plan, updated network, updated vector); see :class:`RemovalPlan`.

    Raises:
        UnknownEdge: the edge does not exist, or ``edge`` is neither an
            integer nor a 2-tuple.
        ValidationError: ``y_tilde`` is not coherent for ``net``.
        Disconnected: some affected origin-destination pair has no
            surviving route.
    """
    imap = net.index_map
    y = _as_component_vector(y_tilde, imap.n)
    if isinstance(edge, tuple) and len(edge) == 2:
        tail, head = str(edge[0]), str(edge[1])
        e_star = net.find_edge(tail, head)
        if e_star is None:
            raise UnknownEdge(f"edge ({tail!r}, {head!r}) does not exist")
    else:
        e_star = _integer(edge, UnknownEdge, "edge index")
        if not 0 <= e_star < len(net.edges):
            raise UnknownEdge(f"edge index {e_star} out of range [0, {len(net.edges)})")

    _require_coherent(y, net)

    affected = net.paths_through("edge", e_star)
    path_vals = y[imap.path_slice]

    # Hop-shortest replacement route per affected origin-destination pair:
    # one search per origin, stopped once all of its destinations are reached.
    targets: dict[int, set[int]] = {}
    for q in affected:
        targets.setdefault(net.path_origin(q), set()).add(net.path_destination(q))
    searches = {o: _shortest_route(net, e_star, o, dests) for o, dests in targets.items()}
    phi: dict[int, tuple[int, ...]] = {}
    for q in affected:
        origin = net.path_origin(q)
        dest = net.path_destination(q)
        parent = searches[origin]
        if dest not in parent:
            raise Disconnected(
                f"removing edge {e_star} leaves no route from "
                f"{net.nodes[origin]!r} to {net.nodes[dest]!r}"
            )
        phi[q] = _route_edges(net, parent, origin, dest)

    # Sum rerouted mass per distinct replacement route.
    mass: dict[tuple[int, ...], float] = {}
    for q in affected:
        mass[phi[q]] = mass.get(phi[q], 0.0) + float(path_vals[q])

    old_to_new_edge = lambda e: e if e < e_star else e - 1
    n_kept = imap.n_paths - len(affected)
    values = np.delete(path_vals, list(affected))
    route_of_path: dict[tuple[int, ...], int] = {}
    new_routes: list[tuple[int, ...]] = []
    new_flows: list[float] = []
    for route, flow in mass.items():
        match = net.find_path(route)
        if match is not None:
            route_of_path[route] = match - bisect(affected, match)
            values[route_of_path[route]] += flow
        elif flow != 0.0:
            route_of_path[route] = n_kept + len(new_routes)
            new_routes.append(tuple(old_to_new_edge(e) for e in route))
            new_flows.append(flow)
    target_paths = {
        q: route_of_path[phi[q]] for q in affected if phi[q] in route_of_path
    }

    updated = net._edit(remove=e_star, new_paths=tuple(new_routes))
    out = updated.aggregation.aggregate(np.concatenate([values, new_flows]))

    squared_change = float(sum(m * m for m in mass.values()))
    total = float(sum(abs(path_vals[q]) for q in affected))
    plan = RemovalPlan(
        removed_edge=e_star,
        affected_paths=tuple(affected),
        phi={q: tuple(old_to_new_edge(e) for e in phi[q]) for q in affected},
        target_paths=target_paths,
        squared_change=squared_change,
        bound=total * total,
    )
    return plan, updated, _vector_like(out, y_tilde)
