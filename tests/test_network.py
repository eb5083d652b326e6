"""Network structure, index mapping, and the sparse aggregation operator."""

import numpy as np
import pytest

from flowrec import (
    BrokenPath,
    DanglingEdge,
    DimensionMismatch,
    DuplicateId,
    IndexMap,
    Network,
    UnknownIndex,
    ValidationError,
)

from conftest import random_instance


class TestNetworkValidation:
    def test_chain_is_valid(self, chain_net):
        assert len(chain_net.nodes) == 3
        assert len(chain_net.edges) == 2
        assert chain_net.paths == ((0, 1),)

    def test_distribution_network_is_valid(self, distribution_net):
        assert len(distribution_net.nodes) == 10
        assert len(distribution_net.edges) == 7
        assert len(distribution_net.paths) == 7

    def test_reversed_path_breaks_chaining(self):
        with pytest.raises(BrokenPath):
            Network(["s", "a", "t"], [("s", "a"), ("a", "t")], [(1, 0)])

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdge):
            Network(["s", "a"], [("s", "x")], [])

    def test_duplicate_node(self):
        with pytest.raises(DuplicateId):
            Network(["s", "s"], [], [])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateId):
            Network(["s", "a"], [("s", "a"), ("s", "a")], [])

    def test_duplicate_path(self):
        with pytest.raises(DuplicateId):
            Network(["s", "a"], [("s", "a")], [(0,), (0,)])

    def test_empty_path(self):
        with pytest.raises(BrokenPath):
            Network(["s", "a"], [("s", "a")], [()])

    def test_path_with_bad_edge_index(self):
        with pytest.raises(BrokenPath):
            Network(["s", "a"], [("s", "a")], [(1,)])

    def test_path_revisiting_a_node(self):
        # s -> a -> s revisits s.
        with pytest.raises(BrokenPath):
            Network(["s", "a"], [("s", "a"), ("a", "s")], [(0, 1)])

    def test_role_validation(self):
        Network(["s", "a"], [("s", "a")], [], roles={"s": "source", "a": "sink"})
        with pytest.raises(ValidationError):
            Network(["s", "a"], [("s", "a")], [], roles={"s": "hub"})
        with pytest.raises(DanglingEdge):
            Network(["s", "a"], [("s", "a")], [], roles={"x": "source"})

    def test_path_node_sequence(self, parallel_net):
        assert parallel_net.path_nodes[0] == (0, 1, 3)  # s, a, t
        assert parallel_net.path_nodes[1] == (0, 2, 3)  # s, b, t
        assert parallel_net.path_origin(1) == 0
        assert parallel_net.path_destination(1) == 3

    def test_path_node_sequences_match_the_per_path_walk(self):
        # path_nodes is built array-at-a-time; walking each path edge by edge
        # must give the same tuples of Python ints.
        for seed, nodes, density in ((1, 5, 0.0), (2, 12, 0.2), (3, 30, 0.5), (4, 60, 1.0)):
            net = random_instance(nodes=nodes, seed=seed, density=density).network
            walked = tuple(
                (net.node_index[net.edges[p[0]][0]], *(net.node_index[net.edges[e][1]] for e in p))
                for p in net.paths
            )
            assert net.path_nodes == walked
            assert all(type(v) is int for seq in net.path_nodes for v in seq)
        assert Network(["s", "t"], [("s", "t")], []).path_nodes == ()


class TestIndexMap:
    def test_block_layout(self):
        imap = IndexMap(3, 2, 1)
        assert imap.n == 6
        assert imap.node_slice == slice(0, 3)
        assert imap.edge_slice == slice(3, 5)
        assert imap.path_slice == slice(5, 6)

    def test_round_trip_is_bijective(self):
        imap = IndexMap(4, 7, 5)
        seen = set()
        for kind, count in (("node", 4), ("edge", 7), ("path", 5)):
            for local in range(count):
                g = imap.global_index(kind, local)
                assert imap.component(g) == (kind, local)
                seen.add(g)
        assert seen == set(range(imap.n))

    def test_out_of_range(self):
        imap = IndexMap(2, 2, 2)
        with pytest.raises(UnknownIndex):
            imap.global_index("node", 2)
        with pytest.raises(UnknownIndex):
            imap.global_index("route", 0)
        with pytest.raises(UnknownIndex):
            imap.component(6)


class TestAggregationMatrix:
    def test_chain_incidence_columns(self, chain_agg):
        assert chain_agg.vp.toarray().tolist() == [[1.0], [1.0], [1.0]]
        assert chain_agg.ep.toarray().tolist() == [[1.0], [1.0]]

    def test_parallel_incidence_rows(self, parallel_agg):
        vp = parallel_agg.vp.toarray()
        assert vp[0].tolist() == [1.0, 1.0]  # s on both paths
        assert vp[1].tolist() == [1.0, 0.0]  # a only on path 0
        assert vp[2].tolist() == [0.0, 1.0]  # b only on path 1
        assert vp[3].tolist() == [1.0, 1.0]  # t on both paths

    def test_identity_block_present(self, parallel_agg):
        p = parallel_agg.n_paths
        bottom = parallel_agg.matrix.toarray()[-p:]
        assert np.array_equal(bottom, np.eye(p))

    def test_column_sums_match_path_lengths(self):
        # Independent recount: walk each path and tally nodes/edges by hand.
        inst = random_instance(nodes=10, seed=4)
        net, agg = inst.network, inst.agg
        ep = agg.ep.toarray()
        vp = agg.vp.toarray()
        for j, path in enumerate(net.paths):
            assert ep[:, j].sum() == len(path)
            assert vp[:, j].sum() == len(path) + 1
            for e in path:
                assert ep[e, j] == 1.0

    def test_aggregate_rejects_wrong_length(self, chain_agg):
        with pytest.raises(DimensionMismatch):
            chain_agg.aggregate(np.ones(3))


class TestPathsThrough:
    def test_chain_edge(self, chain_net):
        assert chain_net.paths_through("edge", 0) == (0,)

    def test_store_node_collects_all_inbound_routes(self, distribution_net):
        s2 = distribution_net.node_index["S2"]
        # Routes over the edges into S2: indices 1, 3, 4.
        assert distribution_net.paths_through("node", s2) == (1, 3, 4)

    def test_matches_incidence_matrix_scan(self):
        inst = random_instance(nodes=10, seed=7)
        net, agg = inst.network, inst.agg
        vp = agg.vp.toarray()
        ep = agg.ep.toarray()
        for v in range(len(net.nodes)):
            assert net.paths_through("node", v) == tuple(np.flatnonzero(vp[v]))
        for e in range(len(net.edges)):
            assert net.paths_through("edge", e) == tuple(np.flatnonzero(ep[e]))

    def test_unknown_index(self, chain_net):
        with pytest.raises(UnknownIndex):
            chain_net.paths_through("edge", 5)
        with pytest.raises(UnknownIndex):
            chain_net.paths_through("path", 0)


class TestLookups:
    def test_edges_paths_and_out_edges_match_a_scan(self):
        # Each table is read off the index arrays; a loop over the Python
        # tuples is the reference.
        for seed, nodes, density in ((1, 5, 0.0), (2, 12, 0.2), (3, 30, 0.5)):
            net = random_instance(nodes=nodes, seed=seed, density=density).network
            for v in range(len(net.nodes)):
                scan = tuple(i for i, (t, _) in enumerate(net.edges) if net.node_index[t] == v)
                assert net.out_edges(v) == scan
                assert all(type(e) is int for e in net.out_edges(v))
            for i, (t, h) in enumerate(net.edges):
                assert net.find_edge(t, h) == i
                assert net.find_edge(h, t) == net.edge_index.get((h, t))
            for j, path in enumerate(net.paths):
                assert net.find_path(path) == j
                assert net.find_path(path + path) is None
        assert Network(["s", "t"], [("s", "t")], []).find_edge("s", "x") is None
