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
it is built on first use from the network's two path tables by one builder
(:func:`_node_edge`), and shared by every caller, so it is read-only.  Local
edits (:meth:`Network._edit`) splice only the path tables out of the
parent's; the edited network builds its operator on first use by the same
builder as a fresh one, and its tuple and dict tables only when they are
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
    derives the lookup tables.  Every network keeps its paths as two flat
    index arrays, each path's edges and each path's nodes (``_edge_cols``
    and ``_node_cols``, in the layout of :func:`_columns`), which are the
    columns of the operator's edge and node blocks.  :attr:`paths`,
    :attr:`path_nodes`, :attr:`edge_index` and :attr:`index_map` (with the
    path count) are cached views of them: the constructor sets
    :attr:`paths` and :attr:`edge_index` from its input, and every other
    view, on an edited network all four, is built on first read.  The
    aggregation operator is built from the two path tables on first use and
    kept (:attr:`aggregation`), by the same builder on a fresh network and
    on an edited one.  Treat a network and its operator as immutable: the
    operator is shared by every caller, and the networks that edits derive
    from this one share its node tables.

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
        self._edge_cols = _columns(self.paths)
        self._node_cols = self._node_columns(*self._edge_cols)

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """Each path's edge indices, a view of ``_edge_cols`` built on first read."""
        return _sequences(*self._edge_cols)

    @cached_property
    def path_nodes(self) -> tuple[tuple[int, ...], ...]:
        """Each path's node indices, a view of ``_node_cols`` built on first read."""
        return _sequences(*self._node_cols)

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], int]:
        """Edge index by (tail, head) name pair, built on first read."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def index_map(self) -> IndexMap:
        return IndexMap(len(self.nodes), len(self.edges), self._edge_cols[1].shape[0] - 1)

    @cached_property
    def aggregation(self) -> "FlowAggregationMatrix":
        """The network's aggregation operator, built on first use from the
        path tables (:func:`_node_edge`) and kept.

        Shared by every caller (:meth:`FlowAggregationMatrix.from_network`
        returns it), so read-only.
        """
        m = _node_edge(self._node_cols, self._edge_cols, len(self.nodes), len(self.edges))
        return FlowAggregationMatrix(m, self.index_map)

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
        not repeat a path (each is compared only with the paths through its
        first edge).

        Python work is spent only on the removed and new paths.  The rest is
        vectorised O(nnz) work on the parent's arrays: only the path tables
        are spliced, the parent's flat arrays with the removed paths masked
        out, the edge numbers shifted and the new paths appended
        (:func:`_splice_columns`).  The edited network shares the node
        tables; its :attr:`aggregation` is built from the spliced tables on
        first use by the same builder as a fresh network's, and its
        :attr:`paths`, :attr:`path_nodes` and :attr:`edge_index` only when
        read.

        Returns:
            the edited network, its operator not yet built.
        """
        gone = self.paths_through("edge", remove) if remove is not None else ()
        keep = None
        if gone:
            keep = np.ones(self.index_map.n_paths, dtype=bool)
            keep[list(gone)] = False
        edges, edge_ends = self.edges, self._edge_ends
        if remove is not None:
            edges = edges[:remove] + edges[remove + 1 :]
            edge_ends = np.delete(edge_ends, remove, axis=0)
        if add is not None:
            edges = edges + (add,)
            ends = np.array([[self.node_index[add[0]], self.node_index[add[1]]]], dtype=np.intp)
            edge_ends = np.concatenate([edge_ends, ends])

        net = Network.__new__(Network)
        net.nodes, net.edges, net.roles = self.nodes, edges, dict(self.roles)
        net.node_index, net._edge_ends = self.node_index, edge_ends
        added = len(edges) - 1 if add is not None else None
        seen = set()
        for i, p in enumerate(new_paths):
            net._validate_path(p, f"new path {i}")
            # A surviving path never uses ``remove``: map back to this
            # network's numbering, unless ``p`` uses the new edge.
            old = None if added in p else tuple(e + (remove is not None and e >= remove) for e in p)
            if p in seen or (old is not None and self.find_path(old) is not None):
                raise DuplicateId(f"new path {i} repeats a path of the network")
            seen.add(p)

        new_edges = _columns(new_paths)
        new_nodes = net._node_columns(*new_edges)
        net._edge_cols = _splice_columns(*self._edge_cols, keep, remove, *new_edges)
        net._node_cols = _splice_columns(*self._node_cols, keep, None, *new_nodes)
        return net

    def _node_columns(self, flat: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The node sequences of the paths whose edges are ``flat``/``ptr``
        (:func:`_columns` layout), in the same layout: each path's first
        edge's tail, then every edge's head.

        Read array-at-a-time from the edge end table; the paths must be valid.
        """
        n_paths = ptr.shape[0] - 1
        node_ptr = ptr + np.arange(n_paths + 1)
        starts = node_ptr[:-1]
        nodes = np.empty(node_ptr[-1], dtype=np.intp)
        heads = np.ones(nodes.shape[0], dtype=bool)
        heads[starts] = False
        nodes[starts] = self._edge_ends[flat[ptr[:-1]], 0]
        nodes[heads] = self._edge_ends[flat, 1]
        return nodes, node_ptr

    # -- queries ---------------------------------------------------------------

    def path_origin(self, j: int) -> int:
        """Node index where path ``j`` starts."""
        flat, ptr = self._node_cols
        return int(flat[ptr[j]])

    def path_destination(self, j: int) -> int:
        """Node index where path ``j`` ends."""
        flat, ptr = self._node_cols
        return int(flat[ptr[j + 1] - 1])

    def paths_through(self, kind: str, index: int) -> tuple[int, ...]:
        """All path indices that traverse the given node or use the given edge.

        Read off the row of the operator's node/edge block, in increasing
        order.

        Args:
            kind: ``"node"`` or ``"edge"``.
            index: local index within that block.
        """
        if kind == "node":
            offset, rows = 0, len(self.nodes)
        elif kind == "edge":
            offset, rows = len(self.nodes), len(self.edges)
        else:
            raise UnknownIndex(f"paths_through expects kind node or edge, got {kind!r}")
        if not 0 <= index < rows:
            raise UnknownIndex(f"{kind} index {index} out of range [0, {rows})")
        m = self.aggregation.node_edge
        row = offset + index
        return tuple(m.indices[m.indptr[row] : m.indptr[row + 1]].tolist())

    def find_path(self, path: tuple[int, ...]) -> int | None:
        """Index of the path with edge sequence ``path``, or None.

        Only the paths through its first edge (one row of the operator) are
        compared, so :attr:`paths` is not built.
        """
        flat, ptr = self._edge_cols
        want = list(path)
        for j in self.paths_through("edge", path[0]):
            if flat[ptr[j] : ptr[j + 1]].tolist() == want:
                return j
        return None

    def find_edge(self, tail: str, head: str) -> int | None:
        """Index of the edge from node ``tail`` to node ``head``, or None.

        One vectorised pass over the edge end table, so an edited network
        answers without building :attr:`edge_index`.
        """
        if tail not in self.node_index or head not in self.node_index:
            return None
        ends = self._edge_ends
        hit = np.flatnonzero(
            (ends[:, 0] == self.node_index[tail]) & (ends[:, 1] == self.node_index[head])
        )
        return int(hit[0]) if hit.shape[0] else None

    @cached_property
    def _out_edge_table(self) -> tuple[tuple[int, ...], ...]:
        """Row v holds the edge indices leaving node v, built on first use."""
        tails = self._edge_ends[:, 0]
        order = np.argsort(tails, kind="stable")
        bounds = np.searchsorted(tails[order], np.arange(len(self.nodes) + 1))
        return _sequences(order, bounds)

    def out_edges(self, node: int) -> tuple[int, ...]:
        """Edge indices leaving ``node``, in edge order."""
        return self._out_edge_table[node]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Network(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"paths={self.index_map.n_paths})"
        )


def _columns(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Index sequences as one flat array and a pointer: sequence j is
    flat[ptr[j]:ptr[j + 1]]."""
    ptr = np.zeros(len(seqs) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs)), out=ptr[1:])
    return np.fromiter(chain.from_iterable(seqs), dtype=np.intp, count=int(ptr[-1])), ptr


def _sequences(flat: np.ndarray, ptr: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Inverse of :func:`_columns`: the sequences as tuples of ints."""
    # One int object per distinct index, as in tables built from Python ints.
    pool = list(range(int(flat.max(initial=-1)) + 1))
    items, bounds = list(map(pool.__getitem__, flat.tolist())), ptr.tolist()
    return tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))


def _splice_columns(
    flat: np.ndarray,
    ptr: np.ndarray,
    keep: np.ndarray | None,
    removed: int | None,
    new_flat: np.ndarray,
    new_ptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The sequences ``flat``/``ptr`` where ``keep`` is true (all when it is
    None), with every index above ``removed`` lowered by one, followed by
    ``new_flat``/``new_ptr``."""
    if keep is not None:
        lengths = np.diff(ptr)
        flat = flat[np.repeat(keep, lengths)]
        ptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=np.intp)
        np.cumsum(lengths[keep], out=ptr[1:])
    if removed is not None:
        flat = flat - (flat > removed)
    return np.concatenate([flat, new_flat]), np.concatenate([ptr, ptr[-1] + new_ptr[1:]])


def _node_edge(
    node_cols: tuple[np.ndarray, np.ndarray],
    edge_cols: tuple[np.ndarray, np.ndarray],
    n_nodes: int,
    n_edges: int,
) -> sp.csr_matrix:
    """The 0/1 node/edge block M, shape (n_nodes + n_edges, n_paths), from
    the path tables (:func:`_columns` layout): column j has its ones in the
    rows of path j's nodes and, offset by ``n_nodes``, of its edges.

    Each path table is the CSR pattern of its block's transpose, so
    scipy's compiled ``csr_tocsc`` transposes the node table and then the
    edge table into one set of CSR arrays.  It visits the paths in order,
    so each row's column indices come out sorted.  The index dtype is int32
    while the sizes fit, as scipy's own constructors choose, so the matrix
    is built without a scan of its arrays.  The tables must be valid: the
    kernel does not check that an index is in range.
    """
    (nodes, node_ptr), (edges, edge_ptr) = node_cols, edge_cols
    n_paths, k = node_ptr.shape[0] - 1, n_nodes + n_edges
    nv, nnz = nodes.shape[0], nodes.shape[0] + edges.shape[0]
    idx = np.int32 if max(k, n_paths, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr, indices, data = np.empty(k + 1, dtype=idx), np.empty(nnz, dtype=idx), np.ones(nnz)
    # Every value is 1.0, so ``data`` serves as the kernel's input and its
    # output.  The edge block's row pointer is written from 0, then offset.
    _sparsetools.csr_tocsc(n_paths, n_nodes, node_ptr.astype(idx), nodes.astype(idx),
                           data[:nv], indptr[: n_nodes + 1], indices[:nv], data[:nv])
    _sparsetools.csr_tocsc(n_paths, n_edges, edge_ptr.astype(idx), edges.astype(idx),
                           data[nv:], indptr[n_nodes:], indices[nv:], data[nv:])
    indptr[n_nodes:] += nv
    return sp.csr_matrix((data, indices, indptr), shape=(k, n_paths))


class FlowAggregationMatrix:
    """Sparse map S from path values to the full [nodes; edges; paths] stack.

    S = [M; I] stacks the node/edge block M over an identity on the paths.
    Every product with S that the solvers take goes through :meth:`lift`
    (S b), :meth:`restrict` (S^T u) and :meth:`normal` (S^T diag(c) S v).
    Each calls scipy's compiled CSR kernel, the routine that ``@`` itself
    ends in, on M or on the cached M^T, and applies the identity block
    exactly, so a result carries the same bits as the ``@`` expression on
    ``matrix`` and its transpose.

    The operator holds M as given and does no array work of its own: a
    network builds M from its path tables (:func:`_node_edge`), fresh or
    edited alike.  A network owns its operator: :meth:`from_network`
    returns the network's :attr:`Network.aggregation`, so every caller
    shares one object.  Treat it as read-only; write into no matrix it
    holds.

    Attributes:
        node_edge: CSR matrix M, shape (n_nodes + n_edges, n_paths).
            M[v, j] is 1 when path j passes through node v, and
            M[n_nodes + e, j] is 1 when path j uses edge e.
        node_edge_t: CSR copy of M^T, built on first use and kept.
        matrix: CSR stack [M; I], shape (n, n_paths), built on first read
            and kept.  Full column rank by construction thanks to the
            identity block.  No solve, check or edit reads it.
        index_map: the component layout this matrix aggregates into.
    """

    def __init__(self, node_edge: sp.csr_matrix, index_map: IndexMap):
        self.node_edge = node_edge
        self.index_map = index_map

    @classmethod
    def from_network(cls, net: Network) -> "FlowAggregationMatrix":
        """The network's own operator, :attr:`Network.aggregation`."""
        return net.aggregation

    @cached_property
    def node_edge_t(self) -> sp.csr_matrix:
        # Lazy: callers that only lift or check never pay for the copy.
        # Row j lists path j's nodes and edges in increasing row order, as
        # row j of matrix.T.tocsr() does before its identity entry.
        return self.node_edge.T.tocsr()

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        # M's arrays followed by the identity block's one entry per row.
        return sp.vstack([self.node_edge, sp.identity(self.n_paths, format="csr")], format="csr")

    @property
    def n(self) -> int:
        return self.index_map.n

    @property
    def n_paths(self) -> int:
        return self.index_map.n_paths

    def lift(self, b: np.ndarray) -> np.ndarray:
        """S b = [M b; b] for path values b of shape (n_paths,) or (n_paths, h).

        The identity rows give b + 0.0, as the kernel's 0.0 + 1.0 * b does.
        """
        b = np.ascontiguousarray(b, dtype=float)
        m = self.node_edge
        k = m.shape[0]
        out = np.zeros((self.index_map.n,) + b.shape[1:])
        _accumulate(m, b, out[:k])
        out[k:] += b
        return out

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """S^T u = M^T u_NE + u_P for u of shape (n,) or (n, h)."""
        u = np.ascontiguousarray(u, dtype=float)
        mt = self.node_edge_t
        n_paths, k = mt.shape
        out = np.zeros((n_paths,) + u.shape[1:])
        _accumulate(mt, u[:k], out)
        out += u[k:]
        return out

    def normal(self, v: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
        """S^T diag(c) S v for v of shape (n_paths,) or (n_paths, h) and c
        of shape (n,), or S^T S v when c is None.

        Taken as M^T (c_NE * M v) + c_P * v: the additions of
        ``st @ (c * (s @ v))``, st the CSR copy of S^T, in their order.
        """
        v = np.ascontiguousarray(v, dtype=float)
        m = self.node_edge
        k = m.shape[0]
        t = np.zeros((k,) + v.shape[1:])
        _accumulate(m, v, t)
        if c is not None:
            c = c if v.ndim == 1 else c[:, None]
            t *= c[:k]
        out = np.zeros(v.shape)
        _accumulate(self.node_edge_t, t, out)
        out += v if c is None else c[k:] * v
        return out

    def aggregate(self, path_values: np.ndarray) -> np.ndarray:
        """Lift a vector of path values to the full coherent stack."""
        b = np.asarray(path_values, dtype=float)
        if b.shape != (self.index_map.n_paths,):
            raise DimensionMismatch(
                f"expected {self.index_map.n_paths} path values, got shape {b.shape}"
            )
        return self.lift(b)


def _accumulate(a: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """out += a @ x by scipy's compiled CSR kernel (``csr_matvec`` for a
    vector, ``csr_matvecs`` for a block), the routine ``a @ x`` ends in,
    without the dispatch around it.

    ``x`` and ``out`` are C-contiguous float arrays; ``out`` is written in
    place, so it must be one (a view included), not a copy.
    """
    rows, cols = a.shape
    if x.ndim == 1:
        _sparsetools.csr_matvec(rows, cols, a.indptr, a.indices, a.data, x, out)
    else:
        _sparsetools.csr_matvecs(
            rows, cols, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel()
        )
