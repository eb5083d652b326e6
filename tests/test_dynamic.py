"""Tests for local updates: edge addition, data-update checks, edge removal."""

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

    def test_duplicate_paths_rejected(self, fan_net, fan_vector):
        with pytest.raises(DuplicateId):
            add_edge_update(fan_net, fan_vector, ("x", "t"), 9.0, [(0, 3, 6), (0, 3, 6)])

    def test_incoherent_prior_rejected(self, fan_net, fan_vector):
        bad = fan_vector.copy()
        bad[0] += 1.0
        with pytest.raises(ValidationError):
            add_edge_update(fan_net, bad, ("x", "t"), 9.0, FAN_NEW_PATHS)

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
    return UpdateLedger(reconciled=np.array([10.0, 6.0]), forecast=np.array([8.0, 6.0]))


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
        ledger = UpdateLedger.from_reconciliation(result, y, index_map=chain_agg.index_map)
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