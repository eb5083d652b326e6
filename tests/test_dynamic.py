"""Tests for local updates: edge addition, data-update checks, edge removal."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from flowrec import (
    BadParameter,
    BrokenPath,
    DanglingEdge,
    Disconnected,
    DuplicateId,
    EdgeExists,
    FlowAggregationMatrix,
    ForecastVector,
    Network,
    NoAffectedPaths,
    UnknownComponent,
    UnknownEdge,
    UpdateLedger,
    UpdateRecord,
    UpdateVerdict,
    ValidationError,
    add_edge_update,
    apply_monotone_sequence,
    check_coherence,
    check_data_update,
    reconcile_l1,
    reconcile_l2,
    remove_edge,
)

from conftest import random_instance


@pytest.fixture
def fan_net():
    """Three two-hop routes from s meeting at x, one of them already a path."""
    return Network(
        ["s", "m1", "m2", "m3", "x", "t"],
        [("s", "m1"), ("s", "m2"), ("s", "m3"), ("m1", "x"), ("m2", "x"), ("m3", "x")],
        [(0, 3)],
    )


@pytest.fixture
def fan_vector(fan_net):
    agg = FlowAggregationMatrix.from_network(fan_net)
    return agg.aggregate(np.array([5.0]))


FAN_NEW_PATHS = [(0, 3, 6), (1, 4, 6), (2, 5, 6)]


# ---------------------------------------------------------------------------
# Edge addition.
# ---------------------------------------------------------------------------


class TestAddEdge:
    def test_equal_split_of_the_shortfall(self, fan_net, fan_vector):
        result = add_edge_update(
            fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, initial_values=[1.0, 1.0, 1.0]
        )
        assert result.delta == pytest.approx(6.0)
        assert result.per_path_adjustment == pytest.approx(2.0)
        assert result.affected_paths == (1, 2, 3)
        expected = np.array(
            [14.0, 8.0, 3.0, 3.0, 14.0, 9.0]  # nodes s, m1, m2, m3, x, t
            + [8.0, 3.0, 3.0, 8.0, 3.0, 3.0, 9.0]  # edges, the new edge last
            + [5.0, 3.0, 3.0, 3.0]  # paths, pre-existing first
        )
        assert result.y_tilde.data == pytest.approx(expected, abs=1e-12)

    def test_updated_vector_is_coherent(self, fan_net, fan_vector):
        result = add_edge_update(
            fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, initial_values=[1.0, 1.0, 1.0]
        )
        agg = FlowAggregationMatrix.from_network(result.network)
        assert check_coherence(result.y_tilde.data, agg).coherent

    def test_matches_restricted_projection_oracle(self, fan_net, fan_vector):
        # Independent route: minimizing sum (b_p - init_p)^2 subject to
        # sum b_p = forecast is a tiny equality-constrained projection whose
        # KKT system can be solved densely.
        init = np.array([0.0, 1.0, 5.0])
        result = add_edge_update(
            fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, initial_values=init
        )
        k = init.size
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * np.eye(k)
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([2.0 * init, [9.0]])
        b_oracle = np.linalg.solve(kkt, rhs)[:k]
        assert result.y_tilde.data[-k:] == pytest.approx(b_oracle, abs=1e-8)

    def test_default_initial_values_are_zero(self, fan_net, fan_vector):
        result = add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS)
        assert result.delta == pytest.approx(9.0)
        assert result.y_tilde.data[-3:] == pytest.approx([3.0, 3.0, 3.0])

    def test_existing_paths_kept_bit_for_bit(self, fan_net, fan_vector):
        result = add_edge_update(
            fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, initial_values=[1.0, 1.0, 1.0]
        )
        imap = result.network.index_map
        assert result.y_tilde.data[imap.path_slice][0] == 5.0

    def test_new_edge_gets_the_next_index(self, fan_net, fan_vector):
        result = add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS)
        assert result.network.edges[6] == ("x", "t")
        assert result.network.edge_index[("x", "t")] == 6

    def test_existing_edge_rejected(self, fan_net, fan_vector):
        with pytest.raises(EdgeExists):
            add_edge_update(fan_net, fan_vector, ("s", "m1"), 9.0, [(0,)])

    def test_undeclared_node_rejected(self, fan_net, fan_vector):
        with pytest.raises(DanglingEdge):
            add_edge_update(fan_net, fan_vector, ("x", "zz"), 9.0, [(6,)])

    def test_no_paths_rejected(self, fan_net, fan_vector):
        with pytest.raises(NoAffectedPaths):
            add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, [])

    def test_path_missing_the_new_edge_rejected(self, fan_net, fan_vector):
        with pytest.raises(BadParameter):
            add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, [(0, 3)])

    def test_disconnected_edge_sequence_rejected(self, fan_net, fan_vector):
        with pytest.raises(BrokenPath):
            add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, [(1, 3, 6)])

    def test_path_errors_name_the_new_path(self, fan_net, fan_vector):
        cases = [
            ([(1, 3, 6)], r"^new path 0 breaks at position 1: edge 3 starts at 'm1', "
                          r"previous edge ends at 'm2'$"),
            ([(0, 3, 6), (9, 6)], r"^new path 1 uses edge index 9, valid range is \[0, 7\)$"),
        ]
        for new_paths, message in cases:
            with pytest.raises(BrokenPath, match=message):
                add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, new_paths)
        net = Network(["s", "a", "t"], [("s", "a"), ("a", "s"), ("a", "t")], [(0, 2)])
        y = FlowAggregationMatrix.from_network(net).aggregate(np.array([1.0]))
        with pytest.raises(BrokenPath, match=r"^new path 0 revisits node 's'$"):
            add_edge_update(net, y, ("t", "s"), 1.0, [(0, 2, 3, 0)])
        with pytest.raises(BrokenPath, match=r"^path 1 revisits node 's'$"):
            Network(["s", "a"], [("s", "a"), ("a", "s")], [(0,), (0, 1)])

    def test_keeps_horizon_and_origin(self, fan_net, fan_vector):
        prior = ForecastVector(fan_vector, horizon=3)
        result = add_edge_update(fan_net, prior, ("x", "t"), 9.0, FAN_NEW_PATHS)
        assert result.y_tilde.horizon == 3

    def test_output_is_the_lift_of_its_path_values(self, fan_net, fan_vector):
        # Coherent only within the default tolerance: node s is 1e-9 off.
        prior = fan_vector.copy()
        prior[fan_net.node_index["s"]] += 1e-9
        result = add_edge_update(fan_net, prior, ("x", "t"), 9.0, FAN_NEW_PATHS)
        agg = FlowAggregationMatrix.from_network(result.network)
        assert check_coherence(result.y_tilde, agg, tolerance=0.0).coherent
        kept = result.y_tilde.data[agg.index_map.path_slice][: len(fan_net.paths)]
        assert np.array_equal(kept, prior[fan_net.index_map.path_slice])

    def test_duplicate_paths_rejected(self, fan_net, fan_vector):
        with pytest.raises(DuplicateId):
            add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, [(0, 3, 6), (0, 3, 6)])

    def test_incoherent_prior_rejected(self, fan_net, fan_vector):
        bad = fan_vector.copy()
        bad[0] += 1.0
        with pytest.raises(ValidationError):
            add_edge_update(fan_net, bad, ("x", "t"), 9.0, FAN_NEW_PATHS)

    def test_refused_calls_do_no_edit_work(self, fan_net, fan_vector, monkeypatch):
        def edit(*args, **kwargs):
            raise AssertionError("edited before validating")

        monkeypatch.setattr(Network, "_edit", edit)
        bad = fan_vector.copy()
        bad[0] += 1.0
        with pytest.raises(ValidationError):
            add_edge_update(fan_net, bad, ("x", "t"), 9.0, FAN_NEW_PATHS)
        for init in ([1.0], [1.0, np.nan, 1.0]):
            with pytest.raises(BadParameter):
                add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, init)

    def test_nonfinite_forecast_rejected(self, fan_net, fan_vector):
        with pytest.raises(BadParameter):
            add_edge_update(fan_net, fan_vector, ("x", "t"), np.nan, FAN_NEW_PATHS)

    def test_wrong_initial_length_rejected(self, fan_net, fan_vector):
        with pytest.raises(BadParameter):
            add_edge_update(
                fan_net, fan_vector, ("x", "t"), 9.0, FAN_NEW_PATHS, initial_values=[1.0]
            )


# ---------------------------------------------------------------------------
# Single-component data updates.
# ---------------------------------------------------------------------------


def toy_ledger():
    """An l1 ledger: its verdict follows the direction of each move."""
    return UpdateLedger(
        reconciled=np.array([10.0, 6.0]), forecast=np.array([8.0, 6.0]), loss="l1"
    )


class TestDataUpdates:
    def test_move_toward_keeps_the_reconciliation(self):
        assert check_data_update(toy_ledger(), 0, 9.0) is UpdateVerdict.STILL_OPTIMAL

    def test_move_away_requires_a_resolve(self):
        assert check_data_update(toy_ledger(), 0, 12.0) is UpdateVerdict.NEEDS_RERECONCILE

    def test_equal_distance_is_not_strictly_closer(self):
        # |10-12| equals |10-8|, so the strict comparison must fail.
        assert check_data_update(toy_ledger(), 0, 12.0) is UpdateVerdict.NEEDS_RERECONCILE
        assert check_data_update(toy_ledger(), 0, 8.0) is UpdateVerdict.NEEDS_RERECONCILE

    def test_nonfinite_update_rejected(self):
        with pytest.raises(BadParameter):
            check_data_update(toy_ledger(), 0, np.inf)

    def test_unknown_component_rejected(self):
        with pytest.raises(UnknownComponent):
            check_data_update(toy_ledger(), 7, 9.0)

    def test_kind_index_pairs_resolve_through_the_index_map(self, chain_net):
        ledger = UpdateLedger(
            reconciled=np.zeros(6), forecast=np.ones(6), index_map=chain_net.index_map
        )
        assert ledger.resolve(("edge", 1)) == 4
        with pytest.raises(UnknownComponent):
            UpdateLedger(reconciled=np.zeros(6), forecast=np.ones(6)).resolve(("edge", 1))

    def test_quadratic_retained_solution_nearly_matches_a_fresh_solve(self, chain_agg):
        # For a projection, re-solving after moving one input by delta can
        # improve the objective by at most delta^2, so tiny moves toward the
        # reconciled value are safe to absorb.
        y = np.full(6, 4.0)
        y[1] = 10.0
        result = reconcile_l2(y, chain_agg)
        ledger = UpdateLedger(result.y_tilde.data, y, index_map=chain_agg.index_map)
        delta = 1e-5
        y_new = y.copy()
        y_new[1] -= delta  # toward the reconciled value 5
        assert check_data_update(ledger, 1, y_new[1]) is UpdateVerdict.STILL_OPTIMAL
        fresh = reconcile_l2(y_new, chain_agg)
        retained_loss = float(np.sum((result.y_tilde.data - y_new) ** 2))
        assert retained_loss - fresh.loss_value >= -1e-12
        assert retained_loss - fresh.loss_value <= delta**2 + 1e-12

    def test_absolute_retained_solution_stays_exactly_optimal(self, chain_agg):
        # Sliding the outlier toward its reconciled value without crossing
        # any other component leaves the piecewise-linear optimum unchanged.
        y = np.full(6, 4.0)
        y[1] = 10.0
        result = reconcile_l1(y, chain_agg)
        assert result.b_tilde == pytest.approx([4.0], abs=1e-9)
        for t in (0.1, 0.5, 0.9):
            y_new = y.copy()
            y_new[1] = 10.0 + t * (4.0 - 10.0)
            fresh = reconcile_l1(y_new, chain_agg)
            retained_loss = float(np.sum(np.abs(result.y_tilde.data - y_new)))
            assert fresh.b_tilde == pytest.approx(result.b_tilde, abs=1e-9)
            assert retained_loss == pytest.approx(fresh.loss_value, abs=1e-9)

    def test_monotone_sequence_records_and_latches(self):
        ledger = toy_ledger()
        out = apply_monotone_sequence(
            ledger, [(0, 9.0), (0, 9.5), (0, 3.0), (0, 9.9)]
        )
        assert out is ledger
        assert [r.verdict for r in ledger.records] == [
            UpdateVerdict.STILL_OPTIMAL,
            UpdateVerdict.STILL_OPTIMAL,
            UpdateVerdict.NEEDS_RERECONCILE,
            UpdateVerdict.STILL_OPTIMAL,
        ]
        assert ledger.valid is False
        assert ledger.first_invalid == 2
        assert ledger.forecast[0] == 9.9

    def test_monotone_sequence_all_valid(self):
        ledger = apply_monotone_sequence(toy_ledger(), [(0, 9.0), (0, 9.5)])
        assert ledger.valid is True
        assert ledger.first_invalid is None
        assert len(ledger.records) == 2
        assert ledger.records[0] == UpdateRecord(0, 8.0, 9.0, UpdateVerdict.STILL_OPTIMAL)

    def test_ledger_shape_mismatch_rejected(self):
        with pytest.raises(BadParameter):
            UpdateLedger(reconciled=np.zeros(3), forecast=np.zeros(4))

    def test_unknown_ledger_loss_rejected(self):
        with pytest.raises(BadParameter):
            UpdateLedger(reconciled=np.zeros(3), forecast=np.zeros(3), loss="huber")

    def test_every_l2_keep_verdict_holds_against_a_fresh_solve(self):
        kept = 0
        for seed in range(4):
            inst = random_instance(nodes=12, seed=300 + seed)
            base = inst.y_base.data
            rec = reconcile_l2(base, inst.agg).y_tilde.data
            ledger = UpdateLedger(rec, base, index_map=inst.agg.index_map)
            assert ledger.loss == "l2"
            gap = rec - base
            paths = inst.agg.index_map.path_slice
            worst = paths.start + int(np.argmax(np.abs(gap[paths])))
            halfway = (worst, float(base[worst] + 0.5 * gap[worst]))
            rng = np.random.default_rng(seed)
            probes = [halfway]
            for x in rng.choice(base.shape[0], size=12, replace=False).tolist():
                for factor in (-1e-3, 1e-6, 1e-5, 1e-4, 0.5, 2.0):
                    probes.append((x, float(base[x] + factor * gap[x])))
            for x, value in probes:
                verdict = check_data_update(ledger, x, value)
                moved = base.copy()
                moved[x] = value
                retained = float(np.sum((rec - moved) ** 2))
                excess = retained - reconcile_l2(moved, inst.agg).loss_value
                if verdict is UpdateVerdict.STILL_OPTIMAL:
                    kept += 1
                    assert excess <= ledger.tolerance, (seed, x, value)
                if (x, value) == halfway:
                    # A fresh solve beats the kept vector here, though the
                    # move is toward it: the l1 rule would keep it.
                    assert verdict is UpdateVerdict.NEEDS_RERECONCILE
                    assert excess > ledger.tolerance
                    l1 = UpdateLedger(rec, base, loss="l1")
                    assert check_data_update(l1, x, value) is UpdateVerdict.STILL_OPTIMAL
        assert kept >= 20  # the rule must keep something to be tested

    def test_l2_moves_add_up_over_a_sequence(self):
        inst = random_instance(nodes=12, seed=310)
        base = inst.y_base.data
        rec = reconcile_l2(base, inst.agg).y_tilde.data
        ledger = UpdateLedger(rec, base)
        step = float(np.sqrt(0.3 * ledger.tolerance))
        xs = [0, 3, 5, 7, 9]
        # Component 0 moves out and back: its net move is zero.
        updates = [(0, base[0] + step), (0, float(base[0]))]
        updates += [(x, float(base[x] + step)) for x in xs[1:]]
        apply_monotone_sequence(ledger, updates)
        verdicts = [r.verdict for r in ledger.records]
        keep, rerun = UpdateVerdict.STILL_OPTIMAL, UpdateVerdict.NEEDS_RERECONCILE
        # Squared moves 0.3, 0, 0.3, 0.6, 0.9, 1.2 times the tolerance.
        assert verdicts == [keep, keep, keep, keep, keep, rerun]
        assert ledger.first_invalid == 5
        moved = base.copy()
        for x, value in updates[:5]:
            moved[x] = value
        retained = float(np.sum((rec - moved) ** 2))
        assert retained - reconcile_l2(moved, inst.agg).loss_value <= ledger.tolerance


# ---------------------------------------------------------------------------
# Edge removal.
# ---------------------------------------------------------------------------


class TestRemoveEdge:
    def test_parallel_flow_merges_onto_the_survivor(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        plan, updated, y_new = remove_edge(parallel_net, y, ("a", "t"))
        assert plan.removed_edge == 1
        assert plan.affected_paths == (0,)
        assert plan.phi == {0: (1, 2)}  # the surviving s->b->t route, reindexed
        assert plan.target_paths == {0: 0}
        assert plan.squared_change == pytest.approx(9.0)
        assert plan.bound == pytest.approx(9.0)
        assert updated.paths == ((1, 2),)
        expected = np.array([8.0, 0.0, 8.0, 8.0, 0.0, 8.0, 8.0, 8.0])
        assert y_new.data == pytest.approx(expected, abs=1e-12)

    def test_single_route_saturates_the_bound(self, parallel_net, parallel_agg):
        # With one replacement route the squared change equals the squared
        # total mass, so the inequality is tight.
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        plan, _, _ = remove_edge(parallel_net, y, ("a", "t"))
        assert plan.squared_change == pytest.approx(plan.bound)

    def test_replacement_route_created_when_no_path_matches(self):
        net = Network(["s", "a", "t"], [("s", "a"), ("a", "t"), ("s", "t")], [(0, 1)])
        agg = FlowAggregationMatrix.from_network(net)
        y = agg.aggregate(np.array([4.0]))
        plan, updated, y_new = remove_edge(net, y, 1)
        assert plan.phi == {0: (1,)}
        assert updated.paths == ((1,),)
        assert plan.squared_change == pytest.approx(16.0)
        assert plan.bound == pytest.approx(16.0)
        assert y_new.data == pytest.approx([4.0, 0.0, 4.0, 0.0, 4.0, 4.0], abs=1e-12)

    def test_bound_holds_for_mixed_sign_rerouted_values(self):
        # Removing s->a reroutes s->a->t onto s->b->t and s->a->u onto
        # s->b->u.  Values +3 and -3 cancel in the signed total, yet each
        # route receives 3 in magnitude: the squared change is 18, the
        # squared signed total 0 and the squared magnitude sum 36.
        net = Network(
            ["s", "a", "b", "t", "u"],
            [("s", "a"), ("a", "t"), ("a", "u"), ("s", "b"), ("b", "t"), ("b", "u")],
            [(0, 1), (0, 2), (3, 4), (3, 5)],
        )
        agg = FlowAggregationMatrix.from_network(net)
        values = np.array([3.0, -3.0, 1.0, 1.0])
        plan, _, y_new = remove_edge(net, agg.aggregate(values), ("s", "a"))
        assert plan.affected_paths == (0, 1)
        assert plan.squared_change == pytest.approx(18.0)
        assert plan.squared_change > values[:2].sum() ** 2
        assert plan.bound == pytest.approx(36.0)
        assert plan.squared_change <= plan.bound
        assert y_new.data[-2:] == pytest.approx([4.0, -2.0])

    def test_zero_flow_removal_changes_nothing_downstream(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([0.0, 5.0]))
        plan, updated, y_new = remove_edge(parallel_net, y, ("a", "t"))
        assert plan.squared_change == 0.0
        assert plan.bound == 0.0
        assert y_new.data == pytest.approx([5.0, 0.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0])

    def test_total_flow_is_conserved(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        _, updated, y_new = remove_edge(parallel_net, y, ("a", "t"))
        imap_old = parallel_net.index_map
        imap_new = updated.index_map
        assert float(np.sum(y_new.data[imap_new.path_slice])) == pytest.approx(
            float(np.sum(y[imap_old.path_slice]))
        )

    def test_keeps_horizon_and_origin(self, parallel_net, parallel_agg):
        prior = ForecastVector(parallel_agg.aggregate(np.array([3.0, 5.0])), horizon=3)
        _, _, y_new = remove_edge(parallel_net, prior, ("a", "t"))
        assert y_new.horizon == 3

    def test_disconnection_raises(self, chain_net, chain_agg):
        y = chain_agg.aggregate(np.array([4.0]))
        with pytest.raises(Disconnected):
            remove_edge(chain_net, y, ("a", "t"))

    def test_unknown_edge_rejected(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        with pytest.raises(UnknownEdge):
            remove_edge(parallel_net, y, ("a", "b"))
        with pytest.raises(UnknownEdge):
            remove_edge(parallel_net, y, 99)

    def test_incoherent_prior_rejected(self, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        y[0] += 1.0
        with pytest.raises(ValidationError):
            remove_edge(parallel_net, y, ("a", "t"))

    def test_random_instances_stay_coherent_and_bounded(self):
        tried = removed = 0
        for seed in range(6):
            inst = random_instance(nodes=10, seed=seed + 100)
            result = reconcile_l2(inst.y_base.data, inst.agg)
            net = inst.network
            for e in range(len(net.edges)):
                if not net.paths_through("edge", e):
                    continue
                tried += 1
                try:
                    plan, updated, y_new = remove_edge(net, result.y_tilde.data, e)
                except Disconnected:
                    continue
                removed += 1
                agg_new = FlowAggregationMatrix.from_network(updated)
                assert check_coherence(y_new.data, agg_new).coherent
                assert plan.squared_change <= plan.bound + 1e-9
                break  # one removal per instance keeps the test quick
        assert removed >= 3  # the property must actually have been exercised


# ---------------------------------------------------------------------------
# Edits equal rebuilds.
# ---------------------------------------------------------------------------


def layered_network(seed, n_nodes=300, n_edges=2170, n_paths=1200):
    """The benchmark's layered network (its ``update-rounds`` workload)."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(perfbench) / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    nodes, edges, paths = module.layered_network(
        np.random.default_rng(seed), n_nodes, n_edges, n_paths
    )
    return Network(nodes, edges, paths)


def incidence_tables(net):
    """Paths through each node and each edge, by a loop over the path list."""
    node_paths = [[] for _ in net.nodes]
    edge_paths = [[] for _ in net.edges]
    for j, path in enumerate(net.paths):
        for e in path:
            edge_paths[e].append(j)
        for v in net.path_nodes[j]:
            node_paths[v].append(j)
    return [tuple(p) for p in node_paths], [tuple(p) for p in edge_paths]


VIEWS = ("paths", "path_nodes", "edge_index")


def assert_equals_rebuild(net, edges, paths):
    """``net``, fresh from an edit, carries ``edges`` and ``paths`` and equals
    a from-scratch build."""
    # The edit built none of the views; the path count comes from the arrays.
    assert not set(VIEWS) & vars(net).keys()
    index_map = net.index_map
    fresh = Network(net.nodes, edges, paths, net.roles)
    agg, ref = FlowAggregationMatrix.from_network(net), FlowAggregationMatrix.from_network(fresh)
    assert FlowAggregationMatrix.from_network(net) is agg
    assert net.aggregation is agg
    assert index_map == fresh.index_map == agg.index_map == ref.index_map
    assert net.nodes == fresh.nodes and net.roles == fresh.roles
    assert net.edges == fresh.edges
    assert net._edge_ends.dtype == fresh._edge_ends.dtype
    assert np.array_equal(net._edge_ends, fresh._edge_ends)
    assert net.paths == fresh.paths
    assert net.path_nodes == fresh.path_nodes
    assert net.node_index == fresh.node_index
    assert net.edge_index == fresh.edge_index
    for name in ("vp", "ep", "matrix", "matrix_t"):
        got, want = getattr(agg, name), getattr(ref, name)
        assert got.format == want.format == "csr"
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)
    node_paths, edge_paths = incidence_tables(fresh)
    assert [net.paths_through("node", v) for v in range(len(net.nodes))] == node_paths
    assert [net.paths_through("edge", e) for e in range(len(net.edges))] == edge_paths
    assert [fresh.paths_through("node", v) for v in range(len(net.nodes))] == node_paths
    assert [fresh.paths_through("edge", e) for e in range(len(net.edges))] == edge_paths


def removal_reference(net, plan, y):
    """Edges and paths after ``remove_edge``: surviving paths renumbered in
    order, then each new replacement route with nonzero flow."""
    e_star = plan.removed_edge
    renumber = lambda p: tuple(e - (e > e_star) for e in p)
    edges = net.edges[:e_star] + net.edges[e_star + 1 :]
    paths = [renumber(p) for p in net.paths if e_star not in p]
    path_vals = y[net.index_map.path_slice]
    mass = {}
    for q in plan.affected_paths:
        mass[plan.phi[q]] = mass.get(plan.phi[q], 0.0) + float(path_vals[q])
    paths += [r for r, flow in mass.items() if r not in paths and flow != 0.0]
    return edges, tuple(paths)


def shortcut(net, rng):
    """A new edge (u, w) skipping one hop of some path, and up to three
    distinct paths rerouted over it."""
    for j in rng.permutation(len(net.paths)).tolist():
        seq = net.path_nodes[j]
        skips = [(u, w) for u, w in zip(seq, seq[2:])
                 if (net.nodes[u], net.nodes[w]) not in net.edge_index]
        if not skips:
            continue
        u, w = skips[int(rng.integers(len(skips)))]
        new_edge = len(net.edges)
        routes = []
        for path, nodes in zip(net.paths, net.path_nodes):
            if u in nodes and w in nodes and nodes.index(u) < nodes.index(w):
                route = path[: nodes.index(u)] + (new_edge,) + path[nodes.index(w) :]
                if route not in routes:
                    routes.append(route)
            if len(routes) == 3:
                break
        return (net.nodes[u], net.nodes[w]), routes
    raise AssertionError("every two-hop stretch already has a direct edge")


def remove_one(net, y, rng):
    for e in rng.permutation(len(net.edges)).tolist():
        if not net.paths_through("edge", e):
            continue
        try:
            plan, updated, y_new = remove_edge(net, y, e)
        except Disconnected:
            continue
        edges, paths = removal_reference(net, plan, y)
        assert_equals_rebuild(updated, edges, paths)
        return updated, y_new.data
    raise AssertionError("no removable edge")


def add_one(net, y, rng):
    edge, routes = shortcut(net, rng)
    result = add_edge_update(net, y, edge, 10.0, routes)
    assert_equals_rebuild(result.network, net.edges + (edge,), net.paths + tuple(routes))
    return result.network, result.y_tilde.data


class TestEditEqualsRebuild:
    def test_generated_instances(self):
        for seed in (1, 2, 3, 4, 5, 6):
            inst = random_instance(nodes=12 + seed, seed=900 + seed)
            rng = np.random.default_rng(seed)
            y = inst.y_true.data
            net1, y1 = remove_one(inst.network, y, rng)
            add_one(inst.network, y, rng)
            # Chained: remove, then add on the result, then remove on that.
            net2, y2 = add_one(net1, y1, rng)
            remove_one(net2, y2, rng)

    def test_layered_benchmark_network(self):
        for seed in (1, 2):
            net = layered_network(seed)
            rng = np.random.default_rng(seed)
            y = net.aggregation.aggregate(rng.uniform(5.0, 15.0, len(net.paths)))
            net1, y1 = remove_one(net, y, rng)
            net2, y2 = add_one(net1, y1, rng)
            remove_one(net2, y2, rng)

    def test_alternating_chain_on_the_layered_network(self):
        # Each edit starts from the last one's network: 12 steps, every one
        # equal to a fresh build.
        net = layered_network(3)
        rng = np.random.default_rng(3)
        y = net.aggregation.aggregate(rng.uniform(5.0, 15.0, net.index_map.n_paths))
        for step in range(12):
            edit = remove_one if step % 2 == 0 else add_one
            net, y = edit(net, y, rng)
            assert check_coherence(y, net.aggregation).coherent

    def test_removal_on_an_edited_network_whose_tables_were_never_read(self):
        net = layered_network(4)
        rng = np.random.default_rng(4)
        y = net.aggregation.aggregate(rng.uniform(5.0, 15.0, net.index_map.n_paths))
        edge, routes = shortcut(net, rng)
        added = add_edge_update(net, y, edge, 10.0, routes)
        net1, y1 = added.network, added.y_tilde.data
        for e in rng.permutation(len(net1.edges)).tolist():
            if not net1.paths_through("edge", e):
                continue
            try:
                plan, net2, _ = remove_edge(net1, y1, e)
            except Disconnected:
                continue
            break
        # Neither the removal nor its parent's edit read a view of net1.
        assert not set(VIEWS) & vars(net1).keys()
        edges, paths = removal_reference(net1, plan, y1)
        assert_equals_rebuild(net2, edges, paths)

    def test_removal_with_no_affected_path(self, distribution_net):
        y = FlowAggregationMatrix.from_network(distribution_net).aggregate(np.arange(1.0, 8.0))
        net = Network(
            distribution_net.nodes, distribution_net.edges + (("T", "RA"),), distribution_net.paths
        )
        y = np.insert(y, len(net.nodes) + 7, 0.0)
        plan, updated, _ = remove_edge(net, y, ("T", "RA"))
        assert plan.affected_paths == ()
        assert_equals_rebuild(updated, distribution_net.edges, distribution_net.paths)

    def test_edit_refuses_a_repeated_path(self, parallel_net):
        with pytest.raises(DuplicateId, match="^new path 0 repeats a path of the network$"):
            parallel_net._edit(add=("a", "b"), new_paths=((0, 1),))
        with pytest.raises(DuplicateId, match="^new path 1 repeats a path of the network$"):
            parallel_net._edit(add=("a", "b"), new_paths=((0, 4, 3), (0, 4, 3)))
