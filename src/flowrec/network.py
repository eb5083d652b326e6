"""Flow network structure and the sparse aggregation operator built from it.

A network is a directed graph together with an explicit list of simple
directed paths.  Forecasts live on three levels at once (nodes, edges,
paths) and are stacked into one vector in the canonical component order

    [all nodes] ++ [all edges] ++ [all paths]

A vector is *coherent* when every node value equals the sum of the path
values routed through that node and every edge value equals the sum of the
path values using that edge.  The :class:`FlowAggregationMatrix` materialises
that linear map sparsely; multiplying it by a vector of path values produces
the full coherent stack.  A network owns its operator (:attr:`Network.aggregation`):
it is built once, array-at-a-time, and shared by every caller, so it is
read-only.  Local edits (:meth:`Network._edit`) derive the edited network and
its operator from the parent's instead of rebuilding either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress

import numpy as np
import scipy.sparse as sp

from .errors import (
    BrokenPath,
    DanglingEdge,
    DimensionMismatch,
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

    The constructor is the only full build: it validates everything and
    derives the lookup tables.  The aggregation operator is built on first
    use and kept (:attr:`aggregation`).  Treat a network and its operator
    as immutable: the operator is shared by every caller and by the
    networks that edits derive from this one.

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
            self._validate_path(path, f"path {j}")
        if len(set(self.paths)) != len(self.paths):
            raise DuplicateId("two paths share the same edge sequence")
        for name, role in self.roles.items():
            if name not in node_set:
                raise DanglingEdge(f"role given for undeclared node {name!r}")
            if role not in NODE_ROLES:
                raise ValidationError(f"role {role!r} for node {name!r} not in {NODE_ROLES}")

    def _validate_path(self, path: tuple[int, ...], label: str) -> None:
        """Check one path against this network's edges; ``label`` names it in errors."""
        if len(path) == 0:
            raise BrokenPath(f"{label} is empty")
        m = len(self.edges)
        for e in path:
            if not 0 <= e < m:
                raise BrokenPath(f"{label} uses edge index {e}, valid range is [0, {m})")
        visited = [self.edges[path[0]][0]]
        for k, e in enumerate(path):
            tail, head = self.edges[e]
            if tail != visited[-1]:
                raise BrokenPath(
                    f"{label} breaks at position {k}: edge {e} starts at {tail!r}, "
                    f"previous edge ends at {visited[-1]!r}"
                )
            if head in visited:
                raise BrokenPath(f"{label} revisits node {head!r}")
            visited.append(head)

    # -- derived structure -----------------------------------------------------

    def _build_derived(self) -> None:
        self.node_index = {v: i for i, v in enumerate(self.nodes)}
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        # Row e holds the node indices of edge e's tail and head.
        self._edge_ends = np.fromiter(
            map(self.node_index.__getitem__, chain.from_iterable(self.edges)),
            dtype=np.intp,
            count=2 * len(self.edges),
        ).reshape(-1, 2)
        self.path_nodes: tuple[tuple[int, ...], ...] = self._node_sequences(self.paths)

    @cached_property
    def aggregation(self) -> "FlowAggregationMatrix":
        """The network's aggregation operator, built on first use and kept.

        Shared by every caller (:meth:`FlowAggregationMatrix.from_network`
        returns it), so read-only.
        """
        vp = _incidence(*_columns(self.path_nodes), len(self.nodes))
        ep = _incidence(*_columns(self.paths), len(self.edges))
        return FlowAggregationMatrix(vp, ep, self.index_map)

    def _edit(
        self,
        remove: int | None = None,
        add: tuple[str, str] | None = None,
        new_paths: tuple[tuple[int, ...], ...] = (),
    ) -> "Network":
        """This network with edge ``remove`` and every path through it
        deleted, edge ``add`` appended, and ``new_paths`` appended after the
        surviving paths.

        ``new_paths`` are in the edited edge numbering: edges after
        ``remove`` move down by one and ``add`` takes the last index.  The
        caller checks ``remove`` and ``add`` themselves; the new paths are
        validated here, by the same rules as in the constructor, and must
        not repeat a path.  Node indices and the surviving paths' node
        sequences are reused, and the operator is derived from this one's:
        the surviving columns are kept, the removed edge's row (empty once
        its paths are gone) is dropped, and columns for the new paths are
        appended.  The Python work is one pass over the new paths, one
        over the surviving paths (renumbering, duplicate check) and one
        over the edges after ``remove``; the operator costs O(nnz)
        vectorised work, with no per-entry Python loop.

        Returns:
            the edited network, with :attr:`aggregation` already set.
        """
        parent = self.aggregation
        m = len(self.edges)
        keep = np.ones(len(self.paths), dtype=bool)
        edges, paths, path_nodes = self.edges, self.paths, self.path_nodes
        edge_index = dict(self.edge_index)
        edge_ends = self._edge_ends
        start = m
        if remove is not None:
            keep[list(self.paths_through("edge", remove))] = False
            edges = edges[:remove] + edges[remove + 1 :]
            del edge_index[self.edges[remove]]
            edge_ends = np.delete(edge_ends, remove, axis=0)
            shift = [*range(remove), -1, *range(remove, m - 1)].__getitem__
            paths = tuple(tuple(map(shift, p)) for p in compress(paths, keep))
            path_nodes = tuple(compress(path_nodes, keep))
            start = remove
        if add is not None:
            edges = edges + (add,)
            edge_ends = np.vstack([edge_ends, [self.node_index[v] for v in add]])
        edge_index.update(zip(edges[start:], range(start, len(edges))))

        net = Network.__new__(Network)
        net.nodes, net.edges, net.roles = self.nodes, edges, dict(self.roles)
        net.node_index, net.edge_index, net._edge_ends = self.node_index, edge_index, edge_ends
        existing = set(paths)
        for i, p in enumerate(new_paths):
            net._validate_path(p, f"new path {i}")
            if p in existing:
                raise DuplicateId(f"new path {i} repeats a path of the network")
            existing.add(p)
        net.paths = paths + new_paths
        new_nodes = net._node_sequences(new_paths)
        net.path_nodes = path_nodes + new_nodes

        columns = np.flatnonzero(keep)
        vp = _extend(parent.vp, columns, None, len(net.nodes), *_columns(new_nodes))
        ep = _extend(parent.ep, columns, remove, len(edges), *_columns(new_paths))
        net.aggregation = FlowAggregationMatrix(vp, ep, net.index_map)
        return net

    def _node_sequences(self, paths) -> tuple[tuple[int, ...], ...]:
        """Each path's node indices: its first edge's tail, then every edge's head.

        Read array-at-a-time from the edge end table over the flat edge
        list of ``paths``, which must be valid.
        """
        flat, ptr = _columns(paths)
        heads = self._edge_ends[flat, 1].tolist()
        tails = self._edge_ends[flat[ptr[:-1]], 0].tolist()
        bounds = ptr.tolist()
        return tuple((t, *heads[a:b]) for t, a, b in zip(tails, bounds, bounds[1:]))

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

        Read off the row of the aggregation operator, in increasing order.

        Args:
            kind: ``"node"`` or ``"edge"``.
            index: local index within that block.
        """
        if kind == "node":
            block = self.aggregation.vp
        elif kind == "edge":
            block = self.aggregation.ep
        else:
            raise UnknownIndex(f"paths_through expects kind node or edge, got {kind!r}")
        rows = block.shape[0]
        if not 0 <= index < rows:
            raise UnknownIndex(f"{kind} index {index} out of range [0, {rows})")
        return tuple(block.indices[block.indptr[index] : block.indptr[index + 1]].tolist())

    @cached_property
    def _out_edge_table(self) -> tuple[tuple[int, ...], ...]:
        """Row v holds the edge indices leaving node v, built on first use."""
        outs: list[list[int]] = [[] for _ in self.nodes]
        for i, (t, _) in enumerate(self.edges):
            outs[self.node_index[t]].append(i)
        return tuple(tuple(o) for o in outs)

    def out_edges(self, node: int) -> tuple[int, ...]:
        """Edge indices leaving ``node``, in edge order."""
        return self._out_edge_table[node]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Network(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"paths={len(self.paths)})"
        )


def _columns(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Index sequences as one flat array and a pointer: sequence j is
    flat[ptr[j]:ptr[j + 1]]."""
    ptr = np.zeros(len(seqs) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs)), out=ptr[1:])
    return np.fromiter(chain.from_iterable(seqs), dtype=np.intp, count=int(ptr[-1])), ptr


def _incidence(rows: np.ndarray, ptr: np.ndarray, n_rows: int) -> sp.csr_matrix:
    """0/1 CSR matrix whose column j has its ones in rows[ptr[j]:ptr[j + 1]].

    Rows repeat in no column (paths are simple), and the CSC to CSR
    conversion sorts each row's column indices.
    """
    data = np.ones(rows.shape[0])
    return sp.csc_matrix((data, rows, ptr), shape=(n_rows, ptr.shape[0] - 1)).tocsr()


def _extend(
    block: sp.csr_matrix,
    columns: np.ndarray,
    removed_row: int | None,
    n_rows: int,
    new_rows: np.ndarray,
    new_ptr: np.ndarray,
) -> sp.csr_matrix:
    """``block`` restricted to ``columns``, with the empty row ``removed_row``
    dropped, and with the columns ``new_rows``/``new_ptr`` appended."""
    kept = block.tocsc()[:, columns]
    rows = kept.indices
    if removed_row is not None:
        rows = rows - (rows > removed_row)
    ptr = np.concatenate([kept.indptr, kept.indptr[-1] + new_ptr[1:]])
    return _incidence(np.concatenate([rows, new_rows]), ptr, n_rows)


class FlowAggregationMatrix:
    """Sparse map from path values to the full [nodes; edges; paths] stack.

    A network owns its operator: :meth:`from_network` returns the network's
    :attr:`Network.aggregation`, so every caller shares one object.
    Treat it as read-only; write into no matrix it holds.

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
        """The network's own operator, :attr:`Network.aggregation`."""
        return net.aggregation

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
            raise DimensionMismatch(
                f"expected {self.index_map.n_paths} path values, got shape {b.shape}"
            )
        return self.matrix @ b
