"""Tests for the on-disk formats: network JSON and the CSV panels."""

import csv
import errno
import io
import json
import os
import stat

import numpy as np
import pytest

from flowrec import (
    DuplicateId,
    ForecastVector,
    IoFailure,
    Network,
    UnknownComponent,
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

from flowrec.fileio import open_output

from conftest import coherent_distribution_vector


class TestNetworkJson:
    def test_round_trip(self, tmp_path, distribution_net):
        p = tmp_path / "net.json"
        write_network(distribution_net, str(p))
        loaded = read_network(str(p))
        assert loaded.nodes == distribution_net.nodes
        assert loaded.edges == distribution_net.edges
        assert loaded.paths == distribution_net.paths

    def test_round_trip_with_roles(self, tmp_path):
        net = Network(
            ["s", "a", "t"],
            [("s", "a"), ("a", "t")],
            [(0, 1)],
            roles={"s": "source", "t": "sink", "a": "intermediate"},
        )
        p = tmp_path / "net.json"
        write_network(net, str(p))
        loaded = read_network(str(p))
        assert loaded.roles == net.roles

    def test_write_is_byte_stable(self, tmp_path, distribution_net):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_network(distribution_net, str(p1))
        write_network(read_network(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_network(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(IoFailure):
            read_network(str(p))

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nodes": ["a"], "edges": []}))
        with pytest.raises(IoFailure):
            read_network(str(p))

    def test_malformed_edges(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nodes": ["a", "b"], "edges": [["a"]], "paths": []}))
        with pytest.raises(IoFailure):
            read_network(str(p))


class TestComponentIds:
    def test_canonical_order(self, chain_net):
        assert component_ids(chain_net) == ["s", "a", "t", "s->a", "a->t", "P0"]

    def test_edge_id_format(self):
        assert edge_id(("W1", "S2")) == "W1->S2"

    def test_component_index_resolves_every_id(self, distribution_net):
        ids = component_ids(distribution_net)
        kinds = (
            ["node"] * len(distribution_net.nodes)
            + ["edge"] * len(distribution_net.edges)
            + ["path"] * len(distribution_net.paths)
        )
        for expected, (kind, ident) in enumerate(zip(kinds, ids)):
            assert component_index(distribution_net, kind, ident) == expected

    def test_unknown_ids_rejected(self, chain_net):
        with pytest.raises(UnknownComponent):
            component_index(chain_net, "node", "zz")
        with pytest.raises(UnknownComponent):
            component_index(chain_net, "edge", "s->t")
        with pytest.raises(UnknownComponent):
            component_index(chain_net, "path", "P9")
        with pytest.raises(UnknownComponent):
            component_index(chain_net, "blob", "s")

    def test_path_ids_are_the_readers_ids(self, distribution_net):
        # str.isdigit accepts all three and int() reads two of them, but no
        # CSV reader does: P01 is not P1, and only ASCII digits name a path.
        for ident in ("P²", "P01", "P٢"):
            with pytest.raises(UnknownComponent, match=f"^no path with id '{ident}'$"):
                component_index(distribution_net, "path", ident)

    def test_colliding_edge_ids_are_refused_before_any_file_is_touched(self, tmp_path):
        # Node names may contain "->": both edges spell the id a->b->c.
        net = Network(["a->b", "c", "a", "b->c"], [("a->b", "c"), ("a", "b->c")], [(0,), (1,)])
        both = r"\('a->b', 'c'\) and \('a', 'b->c'\)"
        absent = tmp_path / "absent.csv"
        with pytest.raises(DuplicateId, match=both):
            write_forecast(str(absent), np.zeros(8), net)
        assert not absent.exists()
        # The file does not exist, so reaching it would raise IoFailure.
        for read in (read_forecast, read_weights, read_box):
            with pytest.raises(DuplicateId, match=both):
                read(str(absent), net)
        with pytest.raises(DuplicateId, match=both):
            component_ids(net)
        with pytest.raises(DuplicateId, match=both):
            component_index(net, "edge", "a->b->c")


class TestForecastCsv:
    def test_round_trip_single_horizon(self, tmp_path, distribution_net):
        y = coherent_distribution_vector(distribution_net)
        p = tmp_path / "f.csv"
        write_forecast(str(p), y, distribution_net)
        vectors = read_forecast(str(p), distribution_net)
        assert len(vectors) == 1
        assert np.array_equal(vectors[0].data, y)

    def test_round_trip_is_byte_stable(self, tmp_path, distribution_net):
        rng = np.random.default_rng(0)
        y = rng.normal(size=len(component_ids(distribution_net)))
        p1 = tmp_path / "f1.csv"
        p2 = tmp_path / "f2.csv"
        write_forecast(str(p1), y, distribution_net)
        write_forecast(str(p2), read_forecast(str(p1), distribution_net)[0], distribution_net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multi_horizon_round_trip(self, tmp_path, parallel_net):
        n = len(component_ids(parallel_net))
        cols = [np.arange(n, dtype=float) + 10 * h for h in range(3)]
        p = tmp_path / "multi.csv"
        write_forecast(str(p), cols, parallel_net)
        header = p.read_text().splitlines()[0]
        assert header == "kind,id,value1,value2,value3"
        vectors = read_forecast(str(p), parallel_net)
        assert [v.horizon for v in vectors] == [1, 2, 3]
        for h, v in enumerate(vectors):
            assert np.array_equal(v.data, cols[h])

    def test_row_order_does_not_matter(self, tmp_path, chain_net):
        p = tmp_path / "f.csv"
        write_forecast(str(p), np.arange(6.0), chain_net)
        lines = p.read_text().splitlines()
        shuffled = [lines[0]] + lines[1:][::-1]
        p.write_text("\n".join(shuffled) + "\n")
        assert np.array_equal(read_forecast(str(p), chain_net)[0].data, np.arange(6.0))

    def test_wrong_length_rejected_at_write(self, tmp_path, chain_net):
        with pytest.raises(IoFailure):
            write_forecast(str(tmp_path / "f.csv"), np.arange(5.0), chain_net)

    def test_bad_header(self, tmp_path, chain_net):
        p = tmp_path / "f.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(IoFailure, match="row 1"):
            read_forecast(str(p), chain_net)

    def test_empty_file(self, tmp_path, chain_net):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(IoFailure, match="empty"):
            read_forecast(str(p), chain_net)

    # Each row-error test runs over one and three horizons (a loop, so the
    # test ids stay as they were).  A bad value sits in the last column, so
    # the bulk parse must still trace it to its row.

    def test_wrong_field_count_reports_the_row(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[3] = "node,t"
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 4"):
                read_forecast(p, chain_net)

    def test_unknown_component_reports_the_row(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[2] = f"node,zz,{_values(horizons)}"
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 3"):
                read_forecast(p, chain_net)

    def test_unknown_kind_reports_the_row(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[5] = f"blob,s->a,{_values(horizons)}"
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 6"):
                read_forecast(p, chain_net)

    def test_duplicate_component_reports_the_row(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[6] = lines[1]
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 7.*duplicate"):
                read_forecast(p, chain_net)

    def test_non_number_reports_the_row(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[2] = f"node,a,{_values(horizons, last='abc')}"
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 3.*not a number"):
                read_forecast(p, chain_net)

    def test_non_finite_rejected(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            lines[2] = f"node,a,{_values(horizons, last='nan')}"
            _save(p, lines)
            with pytest.raises(IoFailure, match="row 3.*not finite"):
                read_forecast(p, chain_net)

    def test_missing_component_named_in_the_error(self, tmp_path, chain_net):
        for horizons in ROW_ERROR_HORIZONS:
            p, lines = _forecast_lines(tmp_path, chain_net, horizons)
            del lines[2]  # drop node a
            _save(p, lines)
            with pytest.raises(IoFailure, match="missing.*'a'"):
                read_forecast(p, chain_net)

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        name = 'a,"b"'
        net = Network(["s", name, "t"], [("s", name), (name, "t")], [(0, 1)])
        y = np.array([1.5, 2.5, -3.0, 4.0, 5.0, 6.0])
        p = tmp_path / "f.csv"
        write_forecast(str(p), y, net)
        assert np.array_equal(read_forecast(str(p), net)[0].data, y)
        assert p.read_text() == _csv_writer_text(net, [y])

    def test_24_horizons_write_read_write_is_byte_identical(self, tmp_path, distribution_net):
        rng = np.random.default_rng(5)
        n = len(component_ids(distribution_net))
        # Magnitudes from 1e-9 to 1e9, plus a negative zero, stress repr.
        cols = [rng.normal(size=n) * 10.0 ** rng.uniform(-9, 9, size=n) for _ in range(24)]
        cols[0][0] = -0.0
        p1 = tmp_path / "f1.csv"
        p2 = tmp_path / "f2.csv"
        write_forecast(str(p1), cols, distribution_net)
        back = read_forecast(str(p1), distribution_net)
        assert len(back) == 24
        write_forecast(str(p2), back, distribution_net)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text() == _csv_writer_text(distribution_net, cols)


ROW_ERROR_HORIZONS = (1, 3)


def _forecast_lines(tmp_path, net, horizons):
    """A valid forecast CSV with ``horizons`` columns, and its lines."""
    n = len(component_ids(net))
    p = tmp_path / f"f{horizons}.csv"
    write_forecast(str(p), [np.arange(n, dtype=float) + h for h in range(horizons)], net)
    return str(p), p.read_text().splitlines()


def _save(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _values(horizons, last="1.0"):
    """Value cells for one row, ``last`` in the last column."""
    return ",".join(["1.0"] * (horizons - 1) + [last])


def _csv_writer_text(net, cols):
    """The forecast CSV as csv.writer writes it, one cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["value"] if len(cols) == 1 else [f"value{h}" for h in range(1, len(cols) + 1)]
    writer.writerow(["kind", "id", *header])
    kinds = ["node"] * len(net.nodes) + ["edge"] * len(net.edges) + ["path"] * len(net.paths)
    for i, (kind, ident) in enumerate(zip(kinds, component_ids(net))):
        writer.writerow([kind, ident, *[repr(float(c[i])) for c in cols]])
    return buf.getvalue()


class TestWeightsAndBox:
    def test_weights_round_trip(self, tmp_path, chain_net):
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        p = tmp_path / "w.csv"
        write_forecast(str(p), w, chain_net)
        assert np.array_equal(read_weights(str(p), chain_net), w)

    def test_negative_weights_rejected(self, tmp_path, chain_net):
        w = np.array([1.0, -2.0, 3.0, 4.0, 5.0, 6.0])
        p = tmp_path / "w.csv"
        write_forecast(str(p), w, chain_net)
        with pytest.raises(IoFailure, match="nonnegative"):
            read_weights(str(p), chain_net)

    def test_multi_column_weights_rejected(self, tmp_path, chain_net):
        p = tmp_path / "w.csv"
        write_forecast(str(p), [np.arange(6.0), np.arange(6.0)], chain_net)
        with pytest.raises(IoFailure, match="single value column"):
            read_weights(str(p), chain_net)

    def test_box_subset_rows_with_open_sides(self, tmp_path, chain_net):
        p = tmp_path / "box.csv"
        p.write_text(
            "kind,id,lower,upper\n"
            "node,a,,3.0\n"
            "path,P0,1.0,\n"
        )
        box = read_box(str(p), chain_net)
        assert box.upper[1] == 3.0
        assert box.lower[1] == -np.inf
        assert box.lower[5] == 1.0
        assert box.upper[5] == np.inf
        assert np.all(box.lower[[0, 2, 3, 4]] == -np.inf)
        assert np.all(box.upper[[0, 2, 3, 4]] == np.inf)

    def test_box_bad_header(self, tmp_path, chain_net):
        p = tmp_path / "box.csv"
        p.write_text("kind,id,lo,hi\nnode,a,0,1\n")
        with pytest.raises(IoFailure, match="row 1"):
            read_box(str(p), chain_net)

    def test_box_duplicate_rejected(self, tmp_path, chain_net):
        p = tmp_path / "box.csv"
        p.write_text("kind,id,lower,upper\nnode,a,,3.0\nnode,a,1.0,\n")
        with pytest.raises(IoFailure, match="row 3.*duplicate"):
            read_box(str(p), chain_net)

    def test_box_unknown_component_rejected(self, tmp_path, chain_net):
        p = tmp_path / "box.csv"
        p.write_text("kind,id,lower,upper\nnode,zz,,3.0\n")
        with pytest.raises(IoFailure, match="row 2"):
            read_box(str(p), chain_net)

    def test_box_non_number_rejected(self, tmp_path, chain_net):
        p = tmp_path / "box.csv"
        p.write_text("kind,id,lower,upper\nnode,a,abc,\n")
        with pytest.raises(IoFailure, match="not a number"):
            read_box(str(p), chain_net)


class TestDiagnostics:
    def test_numpy_types_become_plain_json(self, tmp_path):
        payload = {
            "coherent": np.bool_(True),
            "values": np.array([1.5, 2.5]),
            "count": np.int64(3),
            "loss": np.float64(0.25),
            "nested": {"flag": False, "items": (1, 2)},
        }
        p = tmp_path / "diag.json"
        write_diagnostics(str(p), payload)
        loaded = json.loads(p.read_text())
        assert loaded["coherent"] is True
        assert loaded["values"] == [1.5, 2.5]
        assert loaded["count"] == 3
        assert loaded["loss"] == 0.25
        assert loaded["nested"] == {"flag": False, "items": [1, 2]}

    def test_bools_stay_bools_not_ints(self):
        out = jsonable({"a": True, "b": np.bool_(False), "c": 1})
        assert out["a"] is True
        assert out["b"] is False
        assert out["c"] == 1 and not isinstance(out["c"], bool)

    def test_forecast_vector_metadata_survives_reconstruction(self):
        v = ForecastVector(np.array([1.0, 2.0]), horizon=3)
        assert v.horizon == 3


class TestOutputFiles:
    """Every writer overwrites in place; the result equals a fresh write."""

    def test_non_regular_targets_are_written(self, distribution_net):
        # /dev/null cannot be truncated; the writers must not try.
        write_network(distribution_net, os.devnull)
        write_forecast(os.devnull, np.zeros(distribution_net.index_map.n), distribution_net)
        write_diagnostics(os.devnull, {"horizons": [{"coherent": True}]})

    @pytest.mark.parametrize("case", ["forecast", "network", "diagnostics"])
    def test_shrinking_rewrite_equals_a_fresh_write(self, tmp_path, case, parallel_net,
                                                     distribution_net, chain_net):
        n = parallel_net.index_map.n
        writes = {
            "forecast": (
                lambda p: write_forecast(p, [np.arange(n) + h / 3 for h in range(3)], parallel_net),
                lambda p: write_forecast(p, np.arange(n) / 7, parallel_net),
            ),
            "network": (
                lambda p: write_network(distribution_net, p),
                lambda p: write_network(chain_net, p),
            ),
            "diagnostics": (
                lambda p: write_diagnostics(p, {"horizons": [{"loss": 0.5 * h} for h in range(9)]}),
                lambda p: write_diagnostics(p, {"horizons": [{"loss": 0.25}]}),
            ),
        }
        larger, smaller = writes[case]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        larger(str(reused))
        big = reused.stat().st_size
        smaller(str(reused))
        smaller(str(fresh))
        assert reused.read_bytes() == fresh.read_bytes()
        assert reused.stat().st_size < big

    def test_rewrite_keeps_inode_mode_and_hard_links(self, tmp_path, distribution_net, chain_net):
        p = tmp_path / "net.json"
        write_network(distribution_net, str(p))
        os.chmod(p, 0o640)
        link = tmp_path / "hard.json"
        os.link(p, link)
        inode = p.stat().st_ino
        write_network(chain_net, str(p))
        assert p.stat().st_ino == inode
        assert stat.S_IMODE(p.stat().st_mode) == 0o640
        assert link.read_bytes() == p.read_bytes()
        assert read_network(str(link)).paths == chain_net.paths

    def test_symlinked_output_stays_a_link(self, tmp_path, chain_net):
        target = tmp_path / "target.csv"
        target.write_text("stale content that is longer than the new file\n" * 50)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_forecast(str(link), np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), chain_net)
        assert link.is_symlink()
        fresh = tmp_path / "fresh.csv"
        write_forecast(str(fresh), np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), chain_net)
        assert target.read_bytes() == fresh.read_bytes()

    def test_failed_write_leaves_an_empty_file(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old bytes " * 100)
        with pytest.raises(IoFailure, match="cannot write"):
            with open_output(str(p)) as fh:
                fh.write("new")
                raise OSError(errno.ENOSPC, "No space left on device")
        assert p.read_bytes() == b""

    def test_failed_serialisation_leaves_an_empty_file(self, tmp_path):
        p = tmp_path / "diag.json"
        write_diagnostics(str(p), {"horizons": list(range(500))})
        with pytest.raises(TypeError):
            write_diagnostics(str(p), {"a": 1, "b": object()})
        assert p.read_bytes() == b""

    def test_unopenable_path_raises_io_failure(self, tmp_path, chain_net):
        with pytest.raises(IoFailure, match="cannot write"):
            write_network(chain_net, str(tmp_path / "no" / "such" / "dir.json"))
