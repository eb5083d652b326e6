"""End-to-end tests of the command-line entry point.

Every test drives ``flowrec.cli.main`` with real files in a temp directory
and checks the exit code, the files written, and what lands on stdout or
stderr.  Numerical answers are cross-checked against the library routines
the commands wrap.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowrec
from flowrec import (
    BoxConstraints,
    FlowAggregationMatrix,
    Network,
    LossSpec,
    check_coherence,
    fileio,
    reconcile_general,
    reconcile_l1,
    reconcile_l2,
    reconcile_relaxed,
)
from flowrec.cli import main

from conftest import random_instance
from test_dynamic import FAN_NEW_PATHS, fan_net, fan_vector  # noqa: F401

CHAIN_BASE = np.array([3.0, 5.0, 4.0, 2.0, 6.0, 4.0])


def stage(tmp_path, net, vectors, name="base.csv"):
    """Write a network and forecast to disk, returning their paths."""
    net_path = tmp_path / "net.json"
    fc_path = tmp_path / name
    fileio.write_network(net, str(net_path))
    fileio.write_forecast(str(fc_path), vectors, net)
    return str(net_path), str(fc_path)


def read_out(out_path, net):
    return [v.data for v in fileio.read_forecast(out_path, net)]


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# reconcile
# ---------------------------------------------------------------------------


class TestReconcile:
    def test_l2_matches_the_library_route(self, tmp_path, chain_net, chain_agg, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        out = str(tmp_path / "rec.csv")
        rc = main(["reconcile", "--network", net_path, "--forecast", fc_path, "--out", out])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        got = read_out(out, chain_net)[0]
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        same_route = reconcile_general(vec, chain_agg, LossSpec("l2")).y_tilde.data
        assert np.array_equal(got, same_route)
        # Second, independently configured solver for the same projection.
        direct = reconcile_l2(vec, chain_agg).y_tilde.data
        assert got == pytest.approx(direct, rel=1e-8, abs=1e-8)
        assert check_coherence(got, chain_agg).coherent

    def test_coherent_input_passes_through(self, tmp_path, chain_net, chain_agg):
        y = chain_agg.aggregate(np.array([4.0]))
        net_path, fc_path = stage(tmp_path, chain_net, y)
        out = str(tmp_path / "rec.csv")
        assert main(["reconcile", "--network", net_path, "--forecast", fc_path, "--out", out]) == 0
        got = read_out(out, chain_net)[0]
        assert got == pytest.approx(y, abs=1e-9)
        diag = read_json(out + ".diagnostics.json")
        assert diag["horizons"][0]["loss_value"] == pytest.approx(0.0, abs=1e-12)
        assert diag["horizons"][0]["coherent"] is True
        assert diag["horizons"][0]["pre_max_node_residual"] == pytest.approx(0.0, abs=1e-12)

    def test_multi_horizon_columns_are_reconciled_independently(
        self, tmp_path, chain_net, chain_agg
    ):
        cols = [CHAIN_BASE, CHAIN_BASE + 1.5]
        net_path, fc_path = stage(tmp_path, chain_net, cols)
        out = str(tmp_path / "rec.csv")
        assert main(["reconcile", "--network", net_path, "--forecast", fc_path, "--out", out]) == 0
        got = read_out(out, chain_net)
        assert len(got) == 2
        for col, res in zip(cols, got):
            expect = reconcile_general(col, chain_agg, LossSpec("l2")).y_tilde.data
            assert res == pytest.approx(expect, abs=1e-12)
        diag = read_json(out + ".diagnostics.json")
        assert [h["horizon"] for h in diag["horizons"]] == [1, 2]

    def test_weighted_multi_horizon_l2_matches_the_per_column_route(self, tmp_path):
        # The CLI solves every horizon in one block CG; each column must agree
        # with its own library solve as closely as the two certificates allow,
        # and carry its own certificate.
        inst = random_instance(nodes=30, seed=606, density=0.2)
        net, agg = inst.network, inst.agg
        rng = np.random.default_rng(606)
        cols = [inst.y_base.data * rng.uniform(0.5, 2.0) for _ in range(6)]
        w = rng.uniform(0.2, 5.0, agg.n)
        net_path, fc_path = stage(tmp_path, net, cols)
        w_path = str(tmp_path / "w.csv")
        fileio.write_forecast(w_path, w, net)
        out = str(tmp_path / "rec.csv")
        rc = main(["reconcile", "--network", net_path, "--forecast", fc_path,
                   "--weights", w_path, "--out", out])
        assert rc == 0
        got = read_out(out, net)
        horizons = read_json(out + ".diagnostics.json")["horizons"]
        assert len(got) == len(horizons) == 6
        s = agg.matrix
        dense = s.toarray()
        # A gradient-norm certificate g = 2 ||S^T W S b - S^T W yhat|| puts b
        # within g / (2 lambda_min(S^T W S)) of the optimum, and S b within
        # ||S||_2 times that; two answers are apart by at most the sum.
        lam_min = np.linalg.eigvalsh(dense.T @ (w[:, None] * dense)).min()
        s_norm = np.linalg.norm(dense, 2)
        for col, res, diag in zip(cols, got, horizons):
            single = reconcile_general(col, agg, LossSpec("l2", weights=w))
            bound = s_norm * (diag["gradient_norm"] + single.stats.gradient_norm) / (2 * lam_min)
            assert np.linalg.norm(res - single.y_tilde.data) <= bound
            # The certificate is 2 ||S^T W (yhat - y)||, recomputed here from the
            # written output; the two differ only by rounding (about 1e-6 relative).
            gradient = 2.0 * np.linalg.norm(s.T @ (w * (col - res)))
            assert diag["gradient_norm"] == pytest.approx(gradient, rel=1e-4)
            assert diag["iterations"] >= 1

    def test_each_of_24_horizons_meets_its_own_certificate(self, tmp_path):
        # One block CG serves all 24 horizons, whose scales span 1e-2 to 1e2;
        # each written answer must meet its own gradient target
        # 2 ||S^T W (yhat_h - y_h)|| <= 2 tol ||S^T W yhat_h||, tol = 1e-10,
        # recomputed here from the CSV, up to the rounding of the lift.
        inst = random_instance(nodes=30, seed=607, density=0.2)
        net, agg = inst.network, inst.agg
        rng = np.random.default_rng(607)
        scales = np.logspace(-2, 2, 24)
        cols = [inst.y_base.data * c + rng.normal(0.0, c, agg.n) for c in scales]
        w = rng.uniform(0.2, 5.0, agg.n)
        net_path, fc_path = stage(tmp_path, net, cols)
        w_path = str(tmp_path / "w.csv")
        fileio.write_forecast(w_path, w, net)
        out = str(tmp_path / "rec.csv")
        rc = main(["reconcile", "--network", net_path, "--forecast", fc_path,
                   "--weights", w_path, "--out", out])
        assert rc == 0
        got = read_out(out, net)
        horizons = read_json(out + ".diagnostics.json")["horizons"]
        assert len(got) == len(horizons) == 24
        st = agg.matrix.T
        steps = {diag["iterations"] for diag in horizons}
        assert len(steps) == 1 and steps.pop() >= 1
        for col, res, diag in zip(cols, got, horizons):
            target = 2e-10 * np.linalg.norm(st @ (w * col))
            slack = 1e-13 * np.linalg.norm(st @ (w * np.abs(res)))
            assert 2.0 * np.linalg.norm(st @ (w * (col - res))) <= target + slack
            assert diag["gradient_norm"] <= target
            assert diag["coherent"] is True

    def test_l1_matches_the_library_route(self, tmp_path, chain_net, chain_agg):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        out = str(tmp_path / "rec.csv")
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "l1", "--out", out]
        )
        assert rc == 0
        got = read_out(out, chain_net)[0]
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        expect = reconcile_l1(vec, chain_agg).y_tilde.data
        assert np.array_equal(got, expect)
        diag = read_json(out + ".diagnostics.json")
        assert diag["horizons"][0]["duality_gap"] <= 1e-7

    def test_huber_delta_is_forwarded(self, tmp_path, chain_net, chain_agg):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        out = str(tmp_path / "rec.csv")
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "huber:1.0", "--out", out]
        )
        assert rc == 0
        got = read_out(out, chain_net)[0]
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        expect = reconcile_general(vec, chain_agg, LossSpec("huber", delta=1.0)).y_tilde.data
        assert np.array_equal(got, expect)

    def test_weights_file_is_forwarded(self, tmp_path, chain_net, chain_agg):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        w = np.array([1.0, 10.0, 1.0, 1.0, 1.0, 1.0])
        w_path = tmp_path / "w.csv"
        fileio.write_forecast(str(w_path), w, chain_net)
        out = str(tmp_path / "rec.csv")
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--weights", str(w_path), "--out", out]
        )
        assert rc == 0
        got = read_out(out, chain_net)[0]
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        expect = reconcile_general(vec, chain_agg, LossSpec("l2", weights=w)).y_tilde.data
        assert np.array_equal(got, expect)
        unweighted = reconcile_general(vec, chain_agg, LossSpec("l2")).y_tilde.data
        assert not np.allclose(got, unweighted)

    def test_box_file_is_forwarded(self, tmp_path, chain_net, chain_agg):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        box_path = tmp_path / "box.csv"
        box_path.write_text("kind,id,lower,upper\npath,P0,,3.5\n")
        out = str(tmp_path / "rec.csv")
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--box", str(box_path), "--out", out]
        )
        assert rc == 0
        got = read_out(out, chain_net)[0]
        assert got[5] <= 3.5 + 1e-9
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        upper = np.full(6, np.inf)
        upper[5] = 3.5
        box = BoxConstraints(np.full(6, -np.inf), upper)
        expect = reconcile_general(vec, chain_agg, LossSpec("l2"), box=box).y_tilde.data
        assert np.array_equal(got, expect)

    def test_epsilon_switches_to_the_relaxed_solver(self, tmp_path, chain_net, chain_agg):
        base = np.array([4.0, 4.0, 4.0, 4.5, 4.0, 4.0])
        net_path, fc_path = stage(tmp_path, chain_net, base)
        out = str(tmp_path / "rec.csv")
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--epsilon", "0.1", "--out", out]
        )
        assert rc == 0
        got = read_out(out, chain_net)[0]
        vec = fileio.read_forecast(fc_path, chain_net)[0]
        expect = reconcile_relaxed(vec, chain_agg, 0.1).y_tilde.data
        assert np.array_equal(got, expect)
        diag = read_json(out + ".diagnostics.json")["horizons"][0]
        assert diag["method"] == "relaxed:0.1"
        assert diag["max_violation"] <= 0.1 + 1e-10
        assert diag["gradient_norm"] <= 1e-10 * (1.0 + diag["loss_value"])

    @pytest.mark.parametrize(
        "route, extra, certificates",
        [
            ("l2", [], {"gradient_norm"}),
            ("l1", ["--loss", "l1"], {"duality_gap"}),
            ("huber", ["--loss", "huber:1.0"], {"gradient_norm"}),
            ("l2-box", ["--box"], {"gradient_norm"}),
            ("relaxed", ["--epsilon", "0.1"], {"max_violation", "gradient_norm"}),
        ],
        ids=["l2", "l1", "huber", "l2-box", "relaxed"],
    )
    def test_sidecar_keys_per_route(self, tmp_path, route, extra, certificates):
        # Every horizon carries the same core keys plus exactly the
        # certificates its solver produces, none of them null.
        inst = random_instance(nodes=12, seed=77)
        cols = [inst.y_base.data, inst.y_base.data * 1.2]
        if route != "l2":
            cols = cols[:1]
        net_path, fc_path = stage(tmp_path, inst.network, cols)
        if extra == ["--box"]:
            box_path = tmp_path / "box.csv"
            box_path.write_text("kind,id,lower,upper\npath,P0,,1.0\n")
            extra = ["--box", str(box_path)]
        out = str(tmp_path / "rec.csv")
        rc = main(["reconcile", "--network", net_path, "--forecast", fc_path,
                   *extra, "--out", out])
        assert rc == 0
        horizons = read_json(out + ".diagnostics.json")["horizons"]
        assert len(horizons) == len(cols)
        core = {
            "method", "loss_value", "iterations", "wall_time_s", "horizon",
            "pre_max_node_residual", "pre_max_edge_residual",
            "post_max_node_residual", "post_max_edge_residual", "coherent",
        }
        for h, diag in enumerate(horizons, start=1):
            assert set(diag) == core | certificates
            assert all(value is not None for value in diag.values())
            assert diag["horizon"] == h
            if route == "relaxed":
                assert diag["max_violation"] == diag["post_max_edge_residual"]
                # The clamp puts edges on the band boundary, up to rounding.
                assert diag["max_violation"] <= 0.1 + 1e-10


class TestReconcileErrors:
    def test_missing_network_file(self, tmp_path, chain_net, capsys):
        _, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        rc = main(
            ["reconcile", "--network", str(tmp_path / "nope.json"),
             "--forecast", fc_path, "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_value_reports_the_row(self, tmp_path, chain_net, capsys):
        net_path = tmp_path / "net.json"
        fileio.write_network(chain_net, str(net_path))
        fc_path = tmp_path / "bad.csv"
        fc_path.write_text(
            "kind,id,value\n"
            "node,s,3.0\n"
            "node,a,oops\n"
            "node,t,4.0\n"
            "edge,s->a,2.0\n"
            "edge,a->t,6.0\n"
            "path,P0,4.0\n"
        )
        rc = main(
            ["reconcile", "--network", str(net_path), "--forecast", str(fc_path),
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    @pytest.mark.parametrize(
        "row", ["node,a,inf,", "path,P0,inf,", "path,P0,,-inf"],
        ids=["node-lower-inf", "path-lower-inf", "path-upper-minus-inf"],
    )
    def test_bound_no_value_meets_exit_2(self, tmp_path, chain_net, capsys, loss, row):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        box_path = tmp_path / "box.csv"
        box_path.write_text(f"kind,id,lower,upper\n{row}\n")
        out = tmp_path / "o.csv"
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", loss, "--box", str(box_path), "--out", str(out)]
        )
        assert rc == 2
        assert "inf" in capsys.readouterr().err
        assert not out.exists()

    def test_l1_entry_highs_reads_as_infinite_exit_2(self, tmp_path, chain_net, capsys):
        # A finite forecast of 1e20 is bad input (HiGHS would read it as
        # infinite), not an infeasible LP (exit 3).
        base = CHAIN_BASE.copy()
        base[1] = 1e20
        net_path, fc_path = stage(tmp_path, chain_net, base)
        out = tmp_path / "o.csv"
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "l1", "--out", str(out)]
        )
        assert rc == 2
        assert "1e20" in capsys.readouterr().err
        assert not out.exists()

    def test_colliding_edge_ids_exit_2(self, tmp_path, capsys):
        net = Network(["a->b", "c", "a", "b->c"], [("a->b", "c"), ("a", "b->c")], [(0,), (1,)])
        net_path = tmp_path / "net.json"
        fileio.write_network(net, str(net_path))
        rc = main(
            ["reconcile", "--network", str(net_path), "--forecast", str(tmp_path / "f.csv"),
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "a->b->c" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_loss_name(self, tmp_path, chain_net, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "l3", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "l3" in capsys.readouterr().err

    def test_bad_huber_delta(self, tmp_path, chain_net, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "huber:wide", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "huber" in capsys.readouterr().err

    def test_infinite_huber_delta_is_refused(self, tmp_path, chain_net, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--loss", "huber:inf", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "finite delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ("--loss", "l1"),
            ("--epsilon", "-0.5"),
        ],
    )
    def test_epsilon_conflicts(self, tmp_path, chain_net, extra, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        argv = ["reconcile", "--network", net_path, "--forecast", fc_path,
                "--out", str(tmp_path / "o.csv"), "--epsilon", "0.1"]
        argv += list(extra)
        rc = main(argv)
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    def test_epsilon_with_weights_rejected(self, tmp_path, chain_net, capsys):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        w_path = tmp_path / "w.csv"
        fileio.write_forecast(str(w_path), np.ones(6), chain_net)
        rc = main(
            ["reconcile", "--network", net_path, "--forecast", fc_path,
             "--epsilon", "0.1", "--weights", str(w_path),
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        import flowrec.cli

        builds = []
        build = flowrec.cli.build_parser
        monkeypatch.setattr(flowrec.cli, "build_parser", lambda: builds.append(1) or build())
        flowrec.cli._parser.cache_clear()
        try:
            for _ in range(3):
                with pytest.raises(SystemExit) as exc:
                    main(["reconcile"])
                assert exc.value.code == 2
        finally:
            flowrec.cli._parser.cache_clear()
        assert builds == [1]
        capsys.readouterr()

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconcile"])
        assert exc.value.code == 2
        capsys.readouterr()  # swallow argparse usage text


# ---------------------------------------------------------------------------
# update add-edge / remove-edge / check-update
# ---------------------------------------------------------------------------


class TestAddEdgeCli:
    def test_equal_split_round_trip(self, tmp_path, fan_net, fan_vector, capsys):
        net_path, fc_path = stage(tmp_path, fan_net, fan_vector, name="rec.csv")
        out = str(tmp_path / "updated.csv")
        out_net = str(tmp_path / "updated.json")
        rc = main(
            ["update", "add-edge", "--network", net_path, "--reconciled", fc_path,
             "--tail", "x", "--head", "t", "--forecast-value", "9",
             "--path", "0,3,6", "--path", "1,4,6", "--path", "2,5,6",
             "--initial-values", "1,1,1",
             "--out", out, "--out-network", out_net]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out

        updated = fileio.read_network(out_net)
        assert updated.edges[6] == ("x", "t")
        assert len(updated.paths) == 4

        got = read_out(out, updated)[0]
        expected = np.array(
            [14.0, 8.0, 3.0, 3.0, 14.0, 9.0]
            + [8.0, 3.0, 3.0, 8.0, 3.0, 3.0, 9.0]
            + [5.0, 3.0, 3.0, 3.0]
        )
        assert got == pytest.approx(expected, abs=1e-12)
        assert check_coherence(got, FlowAggregationMatrix.from_network(updated)).coherent

        plan = read_json(out + ".plan.json")
        assert plan["operation"] == "add-edge"
        assert plan["edge"] == ["x", "t"]
        assert plan["delta"] == pytest.approx(6.0)
        assert plan["per_path_adjustment"] == pytest.approx(2.0)
        assert plan["affected_paths"] == [1, 2, 3]

    def test_bad_path_list(self, tmp_path, fan_net, fan_vector, capsys):
        net_path, fc_path = stage(tmp_path, fan_net, fan_vector, name="rec.csv")
        rc = main(
            ["update", "add-edge", "--network", net_path, "--reconciled", fc_path,
             "--tail", "x", "--head", "t", "--forecast-value", "9",
             "--path", "0,up,6",
             "--out", str(tmp_path / "o.csv"), "--out-network", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert "--path" in capsys.readouterr().err

    def test_existing_edge(self, tmp_path, fan_net, fan_vector, capsys):
        net_path, fc_path = stage(tmp_path, fan_net, fan_vector, name="rec.csv")
        rc = main(
            ["update", "add-edge", "--network", net_path, "--reconciled", fc_path,
             "--tail", "s", "--head", "m1", "--forecast-value", "9",
             "--path", "0,3",
             "--out", str(tmp_path / "o.csv"), "--out-network", str(tmp_path / "o.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRemoveEdgeCli:
    def test_reroute_merges_onto_the_parallel_route(self, tmp_path, parallel_net, parallel_agg):
        y = parallel_agg.aggregate(np.array([3.0, 5.0]))
        net_path, fc_path = stage(tmp_path, parallel_net, y, name="rec.csv")
        out = str(tmp_path / "updated.csv")
        out_net = str(tmp_path / "updated.json")
        rc = main(
            ["update", "remove-edge", "--network", net_path, "--reconciled", fc_path,
             "--tail", "a", "--head", "t", "--out", out, "--out-network", out_net]
        )
        assert rc == 0
        updated = fileio.read_network(out_net)
        assert updated.edges == (("s", "a"), ("s", "b"), ("b", "t"))
        assert updated.paths == ((1, 2),)
        got = read_out(out, updated)[0]
        assert got == pytest.approx([8.0, 0.0, 8.0, 8.0, 0.0, 8.0, 8.0, 8.0], abs=1e-12)

        plan = read_json(out + ".plan.json")
        assert plan["operation"] == "remove-edge"
        assert plan["removed_edge"] == 1
        assert plan["affected_paths"] == [0]
        assert plan["replacement_routes"] == {"0": [1, 2]}
        assert plan["target_paths"] == {"0": 0}
        assert plan["squared_change"] == pytest.approx(9.0)
        assert plan["bound"] == pytest.approx(9.0)

    def test_disconnection_exits_4(self, tmp_path, chain_net, chain_agg, capsys):
        y = chain_agg.aggregate(np.array([4.0]))
        net_path, fc_path = stage(tmp_path, chain_net, y, name="rec.csv")
        rc = main(
            ["update", "remove-edge", "--network", net_path, "--reconciled", fc_path,
             "--tail", "s", "--head", "a",
             "--out", str(tmp_path / "o.csv"), "--out-network", str(tmp_path / "o.json")]
        )
        assert rc == 4
        assert capsys.readouterr().err.startswith("error:")


class TestCheckUpdateCli:
    @pytest.fixture
    def staged(self, tmp_path, chain_net, chain_agg):
        net_path, fc_path = stage(tmp_path, chain_net, CHAIN_BASE)
        rec = reconcile_l2(CHAIN_BASE, chain_agg).y_tilde.data
        rec_path = tmp_path / "rec.csv"
        fileio.write_forecast(str(rec_path), rec, chain_net)
        return net_path, fc_path, str(rec_path), rec

    def test_move_toward_the_kept_value_is_benign(self, staged, capsys):
        net_path, fc_path, rec_path, rec = staged
        base, kept = CHAIN_BASE[1], rec[1]
        assert abs(kept - base) > 1e-6  # the probe must have room to move
        halfway = float(base + 0.5 * (kept - base))
        rc = main(
            ["update", "check-update", "--network", net_path, "--reconciled", rec_path,
             "--forecast", fc_path, "--kind", "node", "--id", "a",
             "--value", repr(halfway)]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "still-optimal"

    def test_move_away_needs_a_rereconcile(self, staged, capsys):
        net_path, fc_path, rec_path, rec = staged
        base, kept = CHAIN_BASE[3], rec[3]
        away = float(base - (kept - base))
        rc = main(
            ["update", "check-update", "--network", net_path, "--reconciled", rec_path,
             "--forecast", fc_path, "--kind", "edge", "--id", "s->a",
             "--value", repr(away)]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "needs-rereconcile"

    def test_unknown_component(self, staged, capsys):
        net_path, fc_path, rec_path, _ = staged
        rc = main(
            ["update", "check-update", "--network", net_path, "--reconciled", rec_path,
             "--forecast", fc_path, "--kind", "path", "--id", "P9", "--value", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_ascii_digit_path_id_exits_2(self, staged, capsys):
        net_path, fc_path, rec_path, _ = staged
        rc = main(
            ["update", "check-update", "--network", net_path, "--reconciled", rec_path,
             "--forecast", fc_path, "--kind", "path", "--id", "P²", "--value", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: no path with id 'P²'\n"


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


class TestBenchmarkCli:
    def test_same_seed_twice_writes_identical_metrics(self, tmp_path, capsys):
        args = ["benchmark", "--nodes", "8", "--instances", "3",
                "--methods", "base,l2", "--seed", "7", "--out-dir"]
        assert main(args + [str(tmp_path / "run1")]) == 0
        out = capsys.readouterr().out
        assert "base: rmse" in out and "l2: rmse" in out
        assert main(args + [str(tmp_path / "run2")]) == 0
        for name in ("per_instance.csv", "summary.csv", "config.json"):
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, name

    def test_unknown_method(self, tmp_path, capsys):
        rc = main(
            ["benchmark", "--nodes", "8", "--instances", "2",
             "--methods", "nope", "--out-dir", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "nope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_rewritten_outputs_are_never_opened_truncating(tmp_path, monkeypatch, chain_net, capsys):
    # Truncating an existing file (O_TRUNC, or open(path, "w")) and renaming
    # over it both make ext4 flush the file when it is closed; outputs are
    # overwritten in place instead.
    net, fc = stage(tmp_path, chain_net, [CHAIN_BASE, CHAIN_BASE + 1.0])
    inside = str(tmp_path)
    truncating: list[tuple] = []
    real_open, real_os_open = open, os.open

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and str(file).startswith(inside) and "w" in mode:
            truncating.append(("open", str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        if str(path).startswith(inside) and flags & os.O_TRUNC:
            truncating.append(("os.open", str(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    def no_rename(src, dst, *args, **kwargs):
        truncating.append(("rename", str(src), str(dst)))

    monkeypatch.setattr("builtins.open", spy_open)
    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(os, "replace", no_rename)
    monkeypatch.setattr(os, "rename", no_rename)
    out = str(tmp_path / "rec.csv")
    bench = ["benchmark", "--nodes", "8", "--instances", "2", "--methods", "base,l2",
             "--seed", "3", "--out-dir", str(tmp_path / "bench")]
    for _ in range(2):
        assert main(["reconcile", "--network", net, "--forecast", fc, "--out", out]) == 0
        assert main(bench) == 0
    monkeypatch.undo()
    assert truncating == []
    assert len(read_out(out, chain_net)) == 2
    assert len(read_json(out + ".diagnostics.json")["horizons"]) == 2
    assert sorted(os.listdir(tmp_path / "bench")) == [
        "config.json", "per_instance.csv", "summary.csv", "timings.csv"]


def test_console_script_points_at_main():
    # The promise lives in pyproject.toml, which the checkout always holds;
    # installed metadata exists only after an install and is checked when
    # present.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    from importlib.metadata import EntryPoint, PackageNotFoundError, distribution

    import flowrec.cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("flowrec") == "flowrec.cli:main"
    declared = EntryPoint(name="flowrec", value=scripts["flowrec"], group="console_scripts")
    assert declared.load() is flowrec.cli.main

    try:
        dist = distribution("flowrec")
    except PackageNotFoundError:
        return
    installed = [
        ep for ep in dist.entry_points if ep.group == "console_scripts" and ep.name == "flowrec"
    ]
    assert [ep.value for ep in installed] == [declared.value]


def test_importing_the_cli_loads_no_scipy_solvers():
    # HiGHS and scipy's sparse solvers are imported lazily, which keeps
    # the start-up of every flowrec command short.
    src = str(Path(flowrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, flowrec.cli; "
        "print(','.join(m for m in ('scipy.optimize', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
