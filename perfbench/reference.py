"""Computations the benchmark checks flowrec's outputs against.

Nothing here imports flowrec.  Files are parsed with the ``csv`` and
``json`` modules, the node-path and edge-path incidence is built from the
network's own lists, and the reference optima come from scipy.  Each
``check_*`` function raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.sparse as sp

# Coherence tolerance, as flowrec documents it: 1e-8 * (1 + max |value|).
COHERENCE_RTOL = 1e-8
# ||S^T (y_tilde - y_hat)|| may reach this share of ||S^T y_hat|| at an l2 optimum.
L2_STATIONARITY_RTOL = 1e-8


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


# --- files ---------------------------------------------------------------------------


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path} is empty")
    return rows[0], rows[1:]


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_network(path: str) -> tuple[list[str], list[tuple[str, str]], list[tuple[int, ...]]]:
    with open(path) as fh:
        doc = json.load(fh)
    nodes = [str(v) for v in doc["nodes"]]
    edges = [(str(t), str(h)) for t, h in doc["edges"]]
    paths = [tuple(int(e) for e in p) for p in doc["paths"]]
    return nodes, edges, paths


def save_network(path: str, nodes, edges, paths) -> None:
    doc = {"nodes": list(nodes), "edges": [list(e) for e in edges], "paths": [list(p) for p in paths]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def component_rows(nodes, edges, n_paths: int) -> list[tuple[str, str]]:
    """(kind, id) per component in [nodes; edges; paths] order."""
    rows = [("node", v) for v in nodes]
    rows += [("edge", f"{t}->{h}") for t, h in edges]
    rows += [("path", f"P{j}") for j in range(n_paths)]
    return rows


def write_panel(path: str, comp_rows, panel: np.ndarray) -> None:
    """Write an (H, n) panel as a forecast CSV with columns value1..valueH."""
    header = ["kind", "id", *[f"value{h + 1}" for h in range(panel.shape[0])]]
    body = ([k, i, *map(repr, panel[:, c].tolist())] for c, (k, i) in enumerate(comp_rows))
    write_csv(path, header, body)


def read_panel(path: str, comp_rows) -> np.ndarray:
    """Read a forecast CSV back as an (H, n) panel, one row per component exactly."""
    header, rows = read_csv(path)
    horizons = len(header) - 2
    if header != ["kind", "id", *[f"value{h + 1}" for h in range(horizons)]]:
        raise CheckFailed(f"{path}: unexpected header {header[:4]}...")
    position = {key: c for c, key in enumerate(comp_rows)}
    panel = np.full((horizons, len(comp_rows)), np.nan)
    for row in rows:
        c = position.get((row[0], row[1]))
        if c is None or not np.isnan(panel[0, c]):
            raise CheckFailed(f"{path}: unknown or repeated component {row[:2]}")
        panel[:, c] = [float(x) for x in row[2:]]
    if np.isnan(panel).any():
        raise CheckFailed(f"{path}: {int(np.isnan(panel[0]).sum())} components missing")
    return panel


# --- structure -----------------------------------------------------------------------


def path_node_sequences(nodes, edges, paths) -> list[tuple[int, ...]]:
    index = {v: i for i, v in enumerate(nodes)}
    return [
        (index[edges[p[0]][0]], *(index[edges[e][1]] for e in p)) for p in paths
    ]


def incidence(nodes, edges, paths) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Node-path and edge-path 0/1 incidence matrices."""
    v_rows, v_cols, e_rows, e_cols = [], [], [], []
    for j, (p, seq) in enumerate(zip(paths, path_node_sequences(nodes, edges, paths))):
        v_rows += seq
        v_cols += [j] * len(seq)
        e_rows += p
        e_cols += [j] * len(p)
    shape_p = len(paths)
    vp = sp.csr_matrix((np.ones(len(v_rows)), (v_rows, v_cols)), shape=(len(nodes), shape_p))
    ep = sp.csr_matrix((np.ones(len(e_rows)), (e_rows, e_cols)), shape=(len(edges), shape_p))
    return vp, ep


def summing_matrix(vp, ep) -> sp.csr_matrix:
    return sp.vstack([vp, ep, sp.identity(vp.shape[1])], format="csr")


# --- properties ----------------------------------------------------------------------


def coherence_gap(vp, ep, y: np.ndarray) -> float:
    """Largest |sum of path values - aggregate| over nodes and edges."""
    nn, ne = vp.shape[0], ep.shape[0]
    paths = y[nn + ne :]
    return float(max(np.abs(vp @ paths - y[:nn]).max(), np.abs(ep @ paths - y[nn : nn + ne]).max()))


def check_coherent(vp, ep, y: np.ndarray, what: str) -> None:
    gap = coherence_gap(vp, ep, y)
    if gap > COHERENCE_RTOL * (1.0 + float(np.abs(y).max())):
        raise CheckFailed(f"{what}: not coherent, residual {gap:.3e}")


def check_l2_stationary(s, y_tilde: np.ndarray, y_hat: np.ndarray, what: str) -> None:
    """An l2 projection leaves a residual orthogonal to range(S): S^T (y_tilde - y_hat) = 0."""
    g = float(np.linalg.norm(s.T @ (y_tilde - y_hat)))
    scale = float(np.linalg.norm(s.T @ y_hat))
    if g > L2_STATIONARITY_RTOL * max(scale, 1.0):
        raise CheckFailed(f"{what}: ||S^T (y - yhat)|| = {g:.3e} at scale {scale:.3e}")


def close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# --- accuracy metrics ------------------------------------------------------------------


METRICS = ("rmse_overall", "rmse_nodes", "rmse_edges", "rmse_paths",
           "mae_overall", "mae_nodes", "mae_edges", "mae_paths")


def accuracy(y: np.ndarray, truth: np.ndarray, nn: int, ne: int) -> dict[str, float]:
    err = y - truth
    blocks = {"overall": err, "nodes": err[:nn], "edges": err[nn : nn + ne], "paths": err[nn + ne :]}
    out = {}
    for name, e in blocks.items():
        out[f"rmse_{name}"] = math.sqrt(float(np.mean(e * e))) if e.size else 0.0
        out[f"mae_{name}"] = float(np.mean(np.abs(e))) if e.size else 0.0
    return out


# --- reference optima --------------------------------------------------------------------


def l1_optimum(s, y_hat: np.ndarray) -> float:
    """min_b sum |S b - y_hat| via S b - u + v = y_hat, u, v >= 0."""
    from scipy.optimize import linprog

    n, p = s.shape
    eye = sp.identity(n, format="csr")
    res = linprog(
        np.concatenate([np.zeros(p), np.ones(2 * n)]),
        A_eq=sp.hstack([s, -eye, eye], format="csr"),
        b_eq=y_hat,
        bounds=[(None, None)] * p + [(0, None)] * (2 * n),
        method="highs",
    )
    if res.status != 0:
        raise CheckFailed(f"reference l1 LP failed: {res.message}")
    return float(res.fun)


def l1_face_mae_floor(s, y_hat: np.ndarray, truth: np.ndarray, optimum: float) -> float:
    """Smallest MAE against the truth over every l1-optimal coherent vector.

    The l1 reconciliation is rarely unique here (0/1 incidence makes ties
    the rule), so an optimal answer is only pinned down to this face.
    """
    from scipy.optimize import linprog

    n, p = s.shape
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    # variables [b, u, z]: |S b - y_hat| <= u, sum u <= optimum, |S b - truth| <= z
    a_ub = sp.bmat(
        [
            [s, -eye, zero],
            [-s, -eye, zero],
            [s, zero, -eye],
            [-s, zero, -eye],
            [sp.csr_matrix((1, p)), sp.csr_matrix(np.ones((1, n))), sp.csr_matrix((1, n))],
        ],
        format="csr",
    )
    slack = 1e-9 * (1.0 + optimum)
    b_ub = np.concatenate([y_hat, -y_hat, truth, -truth, [optimum + slack]])
    res = linprog(
        np.concatenate([np.zeros(p + n), np.full(n, 1.0 / n)]),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * p + [(0, None)] * (2 * n),
        method="highs",
    )
    if res.status != 0:
        raise CheckFailed(f"reference l1 face LP failed: {res.message}")
    return float(res.fun)


def _minimise(fun, hessp, x0: np.ndarray) -> np.ndarray:
    """Trust-region Newton-CG on a C1 convex objective with a generalised Hessian,
    with L-BFGS-B as the fallback should it leave the finite numbers."""
    from scipy.optimize import minimize

    res = minimize(fun, x0, jac=True, hessp=hessp, method="trust-ncg",
                   options={"gtol": 1e-10, "maxiter": 1000})
    if np.all(np.isfinite(res.x)) and np.isfinite(res.fun):
        return res.x
    res = minimize(fun, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 50_000, "maxcor": 30, "ftol": 1e-15, "gtol": 1e-11})
    return res.x


def huber_reference(s, y_hat: np.ndarray, delta: float):
    """Minimise sum_i huber_delta(|(S b)_i - y_hat_i|) from its definition.

    Returns (y, residual l1 norm, sharpness).  ``sharpness`` is the smallest
    eigenvalue of S_Q^T S_Q over the components Q strictly inside the
    quadratic zone; when it is clearly positive the minimiser is unique.
    """
    p = s.shape[1]
    st = s.T.tocsr()

    def fun(b):
        r = s @ b - y_hat
        a = np.abs(r)
        value = float(np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta).sum())
        return value, st @ np.clip(r, -delta, delta)

    def hessp(b, v):
        return st @ ((np.abs(s @ b - y_hat) < delta) * (s @ v))

    y = s @ _minimise(fun, hessp, y_hat[-p:].copy())
    r = np.abs(y - y_hat)
    if np.any(np.abs(r - delta) < 1e-6 * delta):
        sharpness = 0.0  # a residual on the corner: no clean pattern, treat as flat
    else:
        sq = s[np.flatnonzero(r < delta)]
        sharpness = float(np.linalg.eigvalsh((sq.T @ sq).toarray())[0]) if sq.shape[0] else 0.0
    return y, float(r.sum()), sharpness


def relaxed_reference(vp, ep, y_hat: np.ndarray, eps: float) -> np.ndarray:
    """Minimise ||y - y_hat||^2 with exact node sums and edge sums within eps.

    For fixed path values the best edge value is the base edge forecast
    clamped into its band, so the problem reduces to one over path values.
    """
    nn, ne = vp.shape[0], ep.shape[0]
    yn, ye, yp = y_hat[:nn], y_hat[nn : nn + ne], y_hat[nn + ne :]
    vpt, ept = vp.T.tocsr(), ep.T.tocsr()

    def fun(pv):
        rn = vp @ pv - yn
        re = ep @ pv - ye
        outside = np.sign(re) * np.maximum(np.abs(re) - eps, 0.0)
        rp = pv - yp
        return float(rn @ rn + outside @ outside + rp @ rp), 2.0 * (vpt @ rn + ept @ outside + rp)

    def hessp(pv, v):
        active = np.abs(ep @ pv - ye) > eps
        return 2.0 * (vpt @ (vp @ v) + ept @ (active * (ep @ v)) + v)

    pv = _minimise(fun, hessp, yp.copy())
    sums = ep @ pv
    return np.concatenate([vp @ pv, np.clip(ye, sums - eps, sums + eps), pv])
