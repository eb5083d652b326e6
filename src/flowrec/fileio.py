"""On-disk formats: network JSON, forecast/weights/box CSV, diagnostics JSON.

Structure goes to JSON (sorted keys, two-space indent, trailing newline),
numeric panels go to CSV.  Floats are serialized with ``repr``, the
shortest representation that round-trips exactly, so write-read-write is
byte-stable.  A forecast CSV holds an (n, H) panel, one row per component
and one value column per horizon; it is parsed and formatted a whole
panel at a time, and a file that fails the bulk parse is walked row by row
only to name the first offending line.

Component ids in CSV files are: the node name for nodes, ``tail->head``
for edges, and ``P{i}`` for paths (i is the path index).  Node names may
contain ``->``; a network with two edges of one id has no CSV form, and
the CSV readers and writers raise ``DuplicateId`` before opening a file.

Every file flowrec writes goes through :func:`open_output`, which
overwrites an existing file in place: same inode, mode, hard links and
symlink target, and the final bytes equal a fresh write.  Outputs are not
atomic and nothing is fsynced.  A write that fails leaves an empty file,
never old bytes after new ones.  ``/dev/null`` and other non-regular
targets are written as they are.
"""

from __future__ import annotations

import csv
import json
import os
import re
import stat
from contextlib import contextmanager, suppress
from typing import NoReturn

import numpy as np

from .errors import DuplicateId, IoFailure, UnknownComponent
from .network import Network
from .reconcile import BoxConstraints
from .series import ForecastVector

_KINDS = ("node", "edge", "path")


# --- output files -------------------------------------------------------------------


@contextmanager
def open_output(path: str):
    """Open ``path`` as a text file for writing, overwriting it in place.

    Yields a file object like ``open(path, "w", newline="")`` does, so
    line ends are written as given.  On success a regular file is cut at
    the end of what was written; on any error it is cut to zero length.

    Raises:
        IoFailure: the file cannot be opened or written.
    """
    # Neither O_TRUNC nor a rename over the old file: under ext4's default
    # auto_da_alloc, closing a file that was truncated or renamed over
    # forces writeback, about 45 ms per rewritten file on a 200 KB probe.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            with open(fd, "w", newline="", closefd=False) as fh:
                yield fh
                if regular:
                    fh.truncate()
        except BaseException:
            if regular:
                with suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        os.close(fd)


# --- network JSON ------------------------------------------------------------------


def read_network(path: str) -> Network:
    """Load a network from its JSON document.

    Raises:
        IoFailure: unreadable file, bad JSON, or a malformed document.
        ValidationError: structurally invalid network content.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoFailure(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise IoFailure(f"{path}: top level must be a JSON object")
    for key in ("nodes", "edges", "paths"):
        if key not in doc or not isinstance(doc[key], list):
            raise IoFailure(f"{path}: missing or non-array {key!r} entry")
    try:
        edges = [(str(e[0]), str(e[1])) for e in doc["edges"]]
    except (IndexError, TypeError) as exc:
        raise IoFailure(f"{path}: each edge must be a [tail, head] pair") from exc
    roles = doc.get("roles")
    if roles is not None and not isinstance(roles, dict):
        raise IoFailure(f"{path}: roles must be an object")
    return Network(doc["nodes"], edges, doc["paths"], roles)


def write_network(net: Network, path: str) -> None:
    doc = {
        "nodes": list(net.nodes),
        "edges": [list(e) for e in net.edges],
        "paths": [list(p) for p in net.paths],
    }
    if net.roles:
        doc["roles"] = dict(net.roles)
    write_json(path, doc)


# --- component ids ------------------------------------------------------------------


def edge_id(edge: tuple[str, str]) -> str:
    return f"{edge[0]}->{edge[1]}"


def _edge_ids(net: Network) -> list[str]:
    """``tail->head`` per edge; raises DuplicateId when two edges share one."""
    ids = [edge_id(e) for e in net.edges]
    first: dict[str, int] = {}
    for e, ident in enumerate(ids):
        if first.setdefault(ident, e) != e:
            raise DuplicateId(
                f"edges {net.edges[first[ident]]!r} and {net.edges[e]!r} share the id {ident!r}"
            )
    return ids


def component_ids(net: Network) -> list[str]:
    """Ids for every component in canonical [nodes; edges; paths] order."""
    ids = list(net.nodes)
    ids.extend(_edge_ids(net))
    ids.extend(f"P{i}" for i in range(net.index_map.n_paths))
    return ids


def component_index(net: Network, kind: str, ident: str) -> int:
    """Global index of the component named ``ident`` of the given kind.

    The id is looked up in the table the CSV readers use, so it resolves
    exactly when a forecast file may name it.
    """
    if kind not in _KINDS:
        raise UnknownComponent(f"unknown component kind {kind!r}")
    index = _id_table(net).get((kind, ident))
    if index is None:
        raise UnknownComponent(f"no {kind} with id {ident!r}")
    return index


def _component_keys(net: Network) -> list[tuple[str, str]]:
    """(kind, id) for every component in canonical order."""
    kinds = ["node"] * len(net.nodes) + ["edge"] * len(net.edges) + ["path"] * net.index_map.n_paths
    return list(zip(kinds, component_ids(net)))


def _id_table(net: Network) -> dict[tuple[str, str], int]:
    return {key: i for i, key in enumerate(_component_keys(net))}


# --- forecast CSV -------------------------------------------------------------------


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """Quote one field the way ``csv.writer`` does by default (QUOTE_MINIMAL)."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_forecast(path: str, vectors, net: Network) -> None:
    """Write one or more horizons of component values as CSV.

    ``vectors`` may be a single vector (array or ForecastVector) or a list
    of them; multiple horizons become columns value1..valueH.  Each line is
    the csv-quoted ``kind,id`` followed by the ``repr`` of each value, built
    from the whole (n, H) panel at once.
    """
    if isinstance(vectors, (list, tuple)):
        cols = [np.asarray(getattr(v, "data", v), dtype=float) for v in vectors]
    else:
        cols = [np.asarray(getattr(vectors, "data", vectors), dtype=float)]
    keys = _component_keys(net)
    n = len(keys)
    for c in cols:
        if c.shape != (n,):
            raise IoFailure(
                f"forecast column has {c.shape[0] if c.ndim == 1 else '?'} values, "
                f"network has {n} components"
            )
    header = "kind,id,value" if len(cols) == 1 else "kind,id," + ",".join(
        f"value{h}" for h in range(1, len(cols) + 1)
    )
    panel = np.column_stack(cols).tolist()
    with open_output(path) as fh:
        fh.write(header + "\n")
        fh.writelines(
            f"{kind},{_csv_field(ident)},{','.join(map(repr, row))}\n"
            for (kind, ident), row in zip(keys, panel)
        )


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_forecast(path: str, net: Network) -> list[ForecastVector]:
    """Read a forecast CSV back; one ForecastVector per horizon column.

    The file must contain exactly one row per component of ``net``.
    Errors carry the 1-based row number of the offending line.  The panel
    is parsed in bulk (one id lookup per row, one float conversion and one
    finiteness test of the whole value block); only when that fails is the
    file walked row by row to name the first offending line.

    Raises:
        IoFailure: bad header, unknown/duplicate/missing components, or
            unparseable values.
        DuplicateId: two edges of ``net`` share an id.
    """
    table = _id_table(net)
    rows = _read_rows(path)
    if not rows:
        raise IoFailure(f"{path} is empty")
    header = rows[0]
    single = header == ["kind", "id", "value"]
    horizons = 1 if single else len(header) - 2
    multi = [f"value{h}" for h in range(1, horizons + 1)]
    if not single and (horizons < 1 or header != ["kind", "id", *multi]):
        raise IoFailure(
            f"{path} row 1: header must be kind,id,value or kind,id,value1..valueH, "
            f"got {','.join(header)}"
        )
    n = net.index_map.n
    body = rows[1:]
    try:
        index = np.array([table[(row[0], row[1])] for row in body], dtype=np.intp)
        block = np.array([row[2:] for row in body], dtype=float).reshape(len(body), horizons)
    except (KeyError, IndexError, ValueError):
        _raise_row_error(path, body, horizons, net, table)
    if (
        block.shape != (n, horizons)
        or np.bincount(index, minlength=n).max(initial=0) > 1
        or not np.isfinite(block).all()
    ):
        _raise_row_error(path, body, horizons, net, table)
    values = np.empty((horizons, n))
    values[:, index] = block.T
    return [ForecastVector(values[h], horizon=h + 1) for h in range(horizons)]


def _walk_rows(path: str, body, width: int, table, seen: np.ndarray):
    """Yield ``(lineno, index, cells)`` for each ``kind,id`` row in file order.

    Raises IoFailure for the first row with the wrong field count, an
    unknown kind or id, or a component already marked in ``seen``; marks
    each yielded component there.  ``cells`` are the fields after the id.
    """
    for lineno, row in enumerate(body, start=2):
        if len(row) != width:
            raise IoFailure(f"{path} row {lineno}: expected {width} fields, got {len(row)}")
        kind, ident = row[0], row[1]
        if kind not in _KINDS:
            raise IoFailure(f"{path} row {lineno}: unknown kind {kind!r}")
        i = table.get((kind, ident))
        if i is None:
            raise IoFailure(f"{path} row {lineno}: no {kind} with id {ident!r}")
        if seen[i]:
            raise IoFailure(f"{path} row {lineno}: duplicate entry for {kind} {ident!r}")
        seen[i] = True
        yield lineno, i, row[2:]


def _raise_row_error(path: str, body, horizons: int, net: Network, table) -> NoReturn:
    """Walk the rows in file order and raise for the first bad one.

    Reached only after the bulk parse of :func:`read_forecast` failed, so
    some row, or a component missing from every row, is at fault.
    """
    seen = np.zeros(net.index_map.n, dtype=bool)
    for lineno, _, cells in _walk_rows(path, body, 2 + horizons, table, seen):
        for cell in cells:
            try:
                v = float(cell)
            except ValueError:
                raise IoFailure(
                    f"{path} row {lineno}: {cell!r} is not a number"
                ) from None
            if not np.isfinite(v):
                raise IoFailure(f"{path} row {lineno}: value {cell!r} is not finite")
    missing = int(np.flatnonzero(~seen)[0])
    kind, _ = net.index_map.component(missing)
    raise IoFailure(
        f"{path}: {int((~seen).sum())} component(s) missing, "
        f"first is {kind} {component_ids(net)[missing]!r}"
    )


def read_weights(path: str, net: Network) -> np.ndarray:
    """Read per-component weights (same layout as a single-horizon forecast)."""
    vectors = read_forecast(path, net)
    if len(vectors) != 1:
        raise IoFailure(f"{path}: weights must have a single value column")
    w = vectors[0].data
    if np.any(w < 0):
        raise IoFailure(f"{path}: weights must be nonnegative")
    return w


def read_box(path: str, net: Network) -> BoxConstraints:
    """Read box constraints: header kind,id,lower,upper, one row per bound.

    Components may appear at most once; omitted components are unbounded.
    An empty cell, a lower bound of -inf or an upper bound of inf leaves
    that side open.  A lower bound of inf or an upper bound of -inf admits
    no value, and :class:`BoxConstraints` refuses it with BadParameter.
    A bound adds no row to the l1 LP: :func:`~flowrec.reconcile.reconcile_l1`
    turns it into bounds on that component's split adjustment.
    """
    table = _id_table(net)
    rows = _read_rows(path)
    if not rows or rows[0] != ["kind", "id", "lower", "upper"]:
        got = ",".join(rows[0]) if rows else "(empty file)"
        raise IoFailure(f"{path} row 1: header must be kind,id,lower,upper, got {got}")
    n = net.index_map.n
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for lineno, i, cells in _walk_rows(path, rows[1:], 4, table, np.zeros(n, dtype=bool)):
        for s, arr in zip(cells, (lower, upper)):
            if s.strip() == "":
                continue
            try:
                arr[i] = float(s)
            except ValueError:
                raise IoFailure(
                    f"{path} row {lineno}: {s!r} is not a number"
                ) from None
    return BoxConstraints(lower, upper)


# --- diagnostics JSON ---------------------------------------------------------------


def jsonable(value):
    """Recursively convert numpy scalars/arrays so json.dump accepts them."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON: sorted keys, two-space indent, trailing newline."""
    with open_output(path) as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_diagnostics(path: str, payload: dict) -> None:
    """Write a machine-readable JSON sidecar next to a primary output."""
    write_json(path, payload)
