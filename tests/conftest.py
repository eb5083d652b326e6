"""Shared fixtures: small hand-checkable networks and a random-instance helper."""

import numpy as np
import pytest

from flowrec import FlowAggregationMatrix, GeneratorConfig, Network, generate_instance


@pytest.fixture
def chain_net():
    """s -> a -> t with the single path over both edges."""
    return Network(["s", "a", "t"], [("s", "a"), ("a", "t")], [(0, 1)])


@pytest.fixture
def chain_agg(chain_net):
    return FlowAggregationMatrix.from_network(chain_net)


@pytest.fixture
def parallel_net():
    """Two parallel routes s -> a -> t and s -> b -> t."""
    return Network(
        ["s", "a", "b", "t"],
        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")],
        [(0, 1), (2, 3)],
    )


@pytest.fixture
def parallel_agg(parallel_net):
    return FlowAggregationMatrix.from_network(parallel_net)


@pytest.fixture
def distribution_net():
    """Ten-node warehouse/store network with seven single-edge routes.

    Three hierarchy nodes (T, RA, RB) carry no flow edges, so no path
    covers them; their coherent value is zero.
    """
    nodes = ["T", "RA", "RB", "W1", "D1", "D2", "W2", "S1", "S2", "S3"]
    edges = [
        ("W1", "S1"),
        ("W1", "S2"),
        ("D1", "S1"),
        ("D1", "S2"),
        ("D2", "S2"),
        ("D2", "S3"),
        ("W2", "S3"),
    ]
    paths = [(e,) for e in range(7)]
    return Network(nodes, edges, paths)


# Flow values on the seven routes of distribution_net, in edge order.
DISTRIBUTION_FLOWS = np.array([150.0, 150.0, 130.0, 150.0, 100.0, 80.0, 170.0])
# Node totals implied by those flows, in node order (hierarchy nodes carry 0).
DISTRIBUTION_NODE_TOTALS = {
    "W1": 300.0,
    "D1": 280.0,
    "D2": 180.0,
    "W2": 170.0,
    "S1": 280.0,
    "S2": 400.0,
    "S3": 250.0,
    "T": 0.0,
    "RA": 0.0,
    "RB": 0.0,
}


def coherent_distribution_vector(net):
    """The stacked coherent vector carrying DISTRIBUTION_FLOWS."""
    agg = FlowAggregationMatrix.from_network(net)
    return agg.aggregate(DISTRIBUTION_FLOWS)


def random_instance(nodes=10, seed=0, **kwargs):
    """One deterministic generated instance for property-style tests."""
    cfg = GeneratorConfig(nodes=nodes, instances=1, seed=seed, **kwargs)
    return generate_instance(cfg, 0)


def node_edge_blocks(agg):
    """The node rows and the edge rows of the operator's node/edge block,
    the path-node and path-edge incidence matrices."""
    m, n_nodes = agg.node_edge, agg.index_map.n_nodes
    return m[:n_nodes], m[n_nodes:]
