"""Flow network structure and the sparse aggregation operator built from it.

A network is a directed graph together with an explicit list of simple
directed paths.  Forecasts live on three levels at once (nodes, edges,
paths) and are stacked into one vector in the canonical component order

    [all nodes] ++ [all edges] ++ [all paths]

A vector is *coherent* when every node value equals the sum of the path
values routed through that node and every edge value equals the sum of the
path values using that edge.  The :class:`FlowAggregationMatrix` materialises
that linear map sparsely; multiplying it by a vector of path values produces
the full coherent stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    BrokenPath,
    DanglingEdge,
    DuplicateId,
    UnknownIndex,
    ValidationError,
)

NODE_ROLES = ("source", "sink", "intermediate")


@dataclass(frozen=True)
class IndexMap:
    """Translates between (kind, local index) pairs and global positions.

    The global layout is fixed: nodes first, then edges, then paths.
    """

    n_nodes: int
    n_edges: int
    n_paths: int

    @property
    def n(self) -> int:
        """Total number of components."""
        return self.n_nodes + self.n_edges + self.n_paths

    @property
    def node_slice(self) -> slice:
        return slice(0, self.n_nodes)

    @property
    def edge_slice(self) -> slice:
        return slice(self.n_nodes, self.n_nodes + self.n_edges)

    @property
    def path_slice(self) -> slice:
        return slice(self.n_nodes + self.n_edges, self.n)

    def global_index(self, kind: str, local: int) -> int:
        """Map a (kind, local) reference to its position in the stacked vector.

        Raises:
            UnknownIndex: if ``kind`` is not node/edge/path or ``local`` is
                out of range for that block.
        """
        counts = {"node": self.n_nodes, "edge": self.n_edges, "path": self.n_paths}
        if kind not in counts:
            raise UnknownIndex(f"unknown component kind {kind!r}")
        if not 0 <= local < counts[kind]:
            raise UnknownIndex(f"{kind} index {local} out of range [0, {counts[kind]})")
        offset = {"node": 0, "edge": self.n_nodes, "path": self.n_nodes + self.n_edges}
        return offset[kind] + local

    def component(self, global_index: int) -> tuple[str, int]:
        """Inverse of :meth:`global_index`."""
        if not 0 <= global_index < self.n:
            raise UnknownIndex(f"component index {global_index} out of range [0, {self.n})")
        if global_index < self.n_nodes:
            return "node", global_index
        if global_index < self.n_nodes + self.n_edges:
            return "edge", global_index - self.n_nodes
        return "path", global_index - self.n_nodes - self.n_edges


class Network:
    """A validated directed flow network with an explicit path list.

    Args:
        nodes: node names, unique, order defines node indices.
        edges: (tail, head) node-name pairs, unique, order defines edge
            indices.
        paths: sequences of edge indices.  Each path must chain head to
            tail, visit no node twice, and be nonempty.
        roles: optional per-node tag, one of ``source``, ``sink``,
            ``intermediate``.  Nodes may be left untagged.

    Raises:
        DuplicateId, DanglingEdge, BrokenPath, ValidationError.
    """

    def __init__(
        self,
        nodes: list[str] | tuple[str, ...],
        edges: list[tuple[str, str]],
        paths: list[tuple[int, ...]] | None = None,
        roles: dict[str, str] | None = None,
    ):
        self.nodes = tuple(str(v) for v in nodes)
        self.edges = tuple((str(t), str(h)) for t, h in edges)
        self.paths = tuple(tuple(int(e) for e in p) for p in (paths or ()))
        self.roles = dict(roles or {})
        self._validate()
        self._build_derived()

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            seen, dup = set(), None
            for v in self.nodes:
                if v in seen:
                    dup = v
                    break
                seen.add(v)
            raise DuplicateId(f"duplicate node name {dup!r}")
        node_set = set(self.nodes)
        for t, h in self.edges:
            if t not in node_set or h not in node_set:
                raise DanglingEdge(f"edge ({t!r}, {h!r}) references an undeclared node")
        if len(set(self.edges)) != len(self.edges):
            raise DuplicateId("duplicate edge (tail, head) pair")
        for j, path in enumerate(self.paths):
            self._validate_path(j, path)
        if len(set(self.paths)) != len(self.paths):
            raise DuplicateId("two paths share the same edge sequence")
        for name, role in self.roles.items():
            if name not in node_set:
                raise DanglingEdge(f"role given for undeclared node {name!r}")
            if role not in NODE_ROLES:
                raise ValidationError(f"role {role!r} for node {name!r} not in {NODE_ROLES}")

    def _validate_path(self, j: int, path: tuple[int, ...]) -> None:
        if len(path) == 0:
            raise BrokenPath(f"path {j} is empty")
        m = len(self.edges)
        for e in path:
            if not 0 <= e < m:
                raise BrokenPath(f"path {j} uses edge index {e}, valid range is [0, {m})")
        visited = [self.edges[path[0]][0]]
        for k, e in enumerate(path):
            tail, head = self.edges[e]
            if tail != visited[-1]:
                raise BrokenPath(
                    f"path {j} breaks at position {k}: edge {e} starts at {tail!r}, "
                    f"previous edge ends at {visited[-1]!r}"
                )
            if head in visited:
                raise BrokenPath(f"path {j} revisits node {head!r}")
            visited.append(head)

    # -- derived structure -----------------------------------------------------

    def _build_derived(self) -> None:
        self.node_index = {v: i for i, v in enumerate(self.nodes)}
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.path_nodes: tuple[tuple[int, ...], ...] = tuple(
            self._path_node_indices(p) for p in self.paths
        )
        node_paths: list[list[int]] = [[] for _ in self.nodes]
        edge_paths: list[list[int]] = [[] for _ in self.edges]
        for j, path in enumerate(self.paths):
            for e in path:
                edge_paths[e].append(j)
            for v in self.path_nodes[j]:
                node_paths[v].append(j)
        self._node_paths = tuple(tuple(ps) for ps in node_paths)
        self._edge_paths = tuple(tuple(ps) for ps in edge_paths)

    def _path_node_indices(self, path: tuple[int, ...]) -> tuple[int, ...]:
        seq = [self.node_index[self.edges[path[0]][0]]]
        seq.extend(self.node_index[self.edges[e][1]] for e in path)
        return tuple(seq)

    # -- queries ---------------------------------------------------------------

    @property
    def index_map(self) -> IndexMap:
        return IndexMap(len(self.nodes), len(self.edges), len(self.paths))

    def path_origin(self, j: int) -> int:
        """Node index where path ``j`` starts."""
        return self.path_nodes[j][0]

    def path_destination(self, j: int) -> int:
        """Node index where path ``j`` ends."""
        return self.path_nodes[j][-1]

    def paths_through(self, kind: str, index: int) -> tuple[int, ...]:
        """All path indices that traverse the given node or use the given edge.

        Args:
            kind: ``"node"`` or ``"edge"``.
            index: local index within that block.
        """
        if kind == "node":
            table = self._node_paths
        elif kind == "edge":
            table = self._edge_paths
        else:
            raise UnknownIndex(f"paths_through expects kind node or edge, got {kind!r}")
        if not 0 <= index < len(table):
            raise UnknownIndex(f"{kind} index {index} out of range [0, {len(table)})")
        return table[index]

    def out_edges(self, node: int) -> tuple[int, ...]:
        """Edge indices leaving ``node``, in edge order."""
        if not hasattr(self, "_out_edges"):
            outs: list[list[int]] = [[] for _ in self.nodes]
            for i, (t, _) in enumerate(self.edges):
                outs[self.node_index[t]].append(i)
            self._out_edges = tuple(tuple(o) for o in outs)
        return self._out_edges[node]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Network(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"paths={len(self.paths)})"
        )


class FlowAggregationMatrix:
    """Sparse map from path values to the full [nodes; edges; paths] stack.

    Attributes:
        vp: CSR matrix, shape (n_nodes, n_paths).  vp[v, j] is 1 when path j
            passes through node v, so each column carries (length + 1) ones.
        ep: CSR matrix, shape (n_edges, n_paths).  ep[e, j] is 1 when path j
            uses edge e.
        matrix: CSR stack [vp; ep; I], shape (n, n_paths).  Full column rank
            by construction thanks to the identity block.
        matrix_t: CSR copy of ``matrix.T``, built on first use and kept:
            a product with it is faster than with the CSC view
            ``matrix.T``, and the copy costs about ten products.
        index_map: the component layout this matrix aggregates into.
    """

    def __init__(self, vp: sp.csr_matrix, ep: sp.csr_matrix, index_map: IndexMap):
        self.vp = vp
        self.ep = ep
        self.index_map = index_map
        eye = sp.identity(index_map.n_paths, format="csr")
        self.matrix = sp.vstack([vp, ep, eye], format="csr")

    @classmethod
    def from_network(cls, net: Network) -> "FlowAggregationMatrix":
        imap = net.index_map
        v_rows, v_cols = [], []
        e_rows, e_cols = [], []
        for j, path in enumerate(net.paths):
            for v in net.path_nodes[j]:
                v_rows.append(v)
                v_cols.append(j)
            for e in path:
                e_rows.append(e)
                e_cols.append(j)
        shape_v = (imap.n_nodes, imap.n_paths)
        shape_e = (imap.n_edges, imap.n_paths)
        vp = sp.csr_matrix(
            (np.ones(len(v_rows)), (v_rows, v_cols)), shape=shape_v
        )
        ep = sp.csr_matrix(
            (np.ones(len(e_rows)), (e_rows, e_cols)), shape=shape_e
        )
        return cls(vp, ep, imap)

    @cached_property
    def matrix_t(self) -> sp.csr_matrix:
        # Lazy: callers that build an operator only to edit or check it
        # never pay for the copy.
        return self.matrix.T.tocsr()

    @property
    def n(self) -> int:
        return self.index_map.n

    @property
    def n_paths(self) -> int:
        return self.index_map.n_paths

    def aggregate(self, path_values: np.ndarray) -> np.ndarray:
        """Lift a vector of path values to the full coherent stack."""
        b = np.asarray(path_values, dtype=float)
        if b.shape != (self.index_map.n_paths,):
            from .errors import DimensionMismatch

            raise DimensionMismatch(
                f"expected {self.index_map.n_paths} path values, got shape {b.shape}"
            )
        return self.matrix @ b

    def uncovered_nodes(self) -> np.ndarray:
        """Node indices no path passes through (their coherent value is 0)."""
        counts = np.asarray(self.vp.sum(axis=1)).ravel()
        return np.flatnonzero(counts == 0)

    def uncovered_edges(self) -> np.ndarray:
        """Edge indices no path uses (their coherent value is 0)."""
        counts = np.asarray(self.ep.sum(axis=1)).ravel()
        return np.flatnonzero(counts == 0)
