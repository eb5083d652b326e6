"""Random instance generation and the method-comparison harness.

Instances are layered networks: sources feed intermediates, intermediates
feed each other (respecting a fixed order, so the graph is acyclic) and
finally the sinks.  Ground truth is built coherent by construction —
draw path flows, aggregate — and base forecasts are truth plus i.i.d.
Gaussian noise, so every method can be scored against a known answer.

Determinism contract: each instance derives its own RNG stream from
``seed + index``, so an instance does not depend on which others were
generated before it.  Instances run one after another.  Metric CSVs are
byte-reproducible for a fixed config; wall times, which cannot be, go to
a separate timings file.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import evaluate, reconcile_bottom_up
from .errors import BadParameter, InfeasibleTopology, IoFailure
from .fileio import open_output, write_json
from .network import FlowAggregationMatrix, Network
from .reconcile import (
    BoxConstraints,
    LossSpec,
    coherence_constraints,
    reconcile_general,
    reconcile_weighted,
)
from .series import ForecastVector, check_coherence

DEFAULT_METHODS = ("base", "bu", "l2")

_PATH_ATTEMPT_FACTOR = 50

# Uniform range of the ground-truth path flows, and the share of nodes
# that are sources and sinks; the rest are intermediates.
FLOW_LOW, FLOW_HIGH = 5.0, 15.0
SOURCE_FRAC, SINK_FRAC = 0.2, 0.2


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the random instance generator.

    Args:
        nodes: total node count, >= 3 (at least one source, sink and
            intermediate).
        instances: how many instances a benchmark run generates.
        density: edge-count parameter in [0, 1]; 0 targets ~n edges, 1 the
            maximum the layered topology permits.  None draws it uniformly
            per instance, covering the sparse-to-dense range in one run.
        sigma: noise standard deviation; None picks 5% of the mean absolute
            truth value per instance.  The value used is always recorded.
        max_paths: cap on sampled paths (default 4 * nodes).
        max_hops: cap on path length in edges.
        seed: master seed; instance i uses stream seed + i.
    """

    nodes: int = 50
    instances: int = 100
    density: float | None = None
    sigma: float | None = None
    max_paths: int | None = None
    max_hops: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 3:
            raise BadParameter(f"need at least 3 nodes, got {self.nodes}")
        if self.instances < 1:
            raise BadParameter(f"need at least 1 instance, got {self.instances}")
        if self.density is not None and not 0.0 <= self.density <= 1.0:
            raise BadParameter(f"density must lie in [0, 1], got {self.density}")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise BadParameter(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.max_paths is not None and self.max_paths < 1:
            raise BadParameter("max_paths must be >= 1")
        if self.max_hops < 1:
            raise BadParameter("max_hops must be >= 1")


@dataclass
class BenchmarkInstance:
    """One generated problem: a network, its truth, and a noisy forecast."""

    index: int
    seed: int
    network: Network
    agg: FlowAggregationMatrix
    y_true: ForecastVector
    y_base: ForecastVector
    sigma: float
    density: float  # mean node degree normalised by (n - 1)
    max_path_hops: int


def _role_sizes(cfg: GeneratorConfig) -> tuple[int, int, int]:
    # At least one intermediate remains for any nodes >= 3.
    n_src = max(1, round(cfg.nodes * SOURCE_FRAC))
    n_snk = max(1, round(cfg.nodes * SINK_FRAC))
    return n_src, cfg.nodes - n_src - n_snk, n_snk


def permitted_edge_count(cfg: GeneratorConfig) -> int:
    """Largest edge count the layered topology allows for this config."""
    n_src, n_mid, n_snk = _role_sizes(cfg)
    return n_src * n_mid + n_mid * (n_mid - 1) // 2 + n_mid * n_snk


def density_for_edge_target(cfg: GeneratorConfig, target_edges: int) -> float:
    """Density parameter whose expected edge count is ``target_edges``."""
    m_max = permitted_edge_count(cfg)
    if m_max <= cfg.nodes:
        return 0.0
    u = (target_edges - cfg.nodes) / (m_max - cfg.nodes)
    return float(min(1.0, max(0.0, u)))


def _pair_ranks(tail: np.ndarray, head: np.ndarray, n_src: int, n_mid: int, n_snk: int):
    """Rank of each permitted (tail, head) pair among all of them, in the
    order source->mid, mid->mid with i < j, mid->sink.

    Nodes are indexed as in :func:`generate_instance`: sources, then
    intermediates, then sinks.
    """
    first = n_src * n_mid
    i, j = tail - n_src, head - n_src
    mid_mid = first + i * (2 * n_mid - i - 1) // 2 + (j - i - 1)
    mid_snk = first + n_mid * (n_mid - 1) // 2 + i * n_snk + (j - n_mid)
    return np.where(tail < n_src, tail * n_mid + j, np.where(j < n_mid, mid_mid, mid_snk))


def _pairs_of_ranks(ranks: np.ndarray, n_src: int, n_mid: int, n_snk: int):
    """The (tail, head) node indices of each rank of :func:`_pair_ranks`, in
    ``nodes`` order (sources, then intermediates, then sinks)."""
    first = n_src * n_mid
    mids = first + n_mid * (n_mid - 1) // 2
    tail = np.empty_like(ranks)
    head = np.empty_like(ranks)
    src = ranks < first
    tail[src], head[src] = ranks[src] // n_mid, n_src + ranks[src] % n_mid
    mid = ~src & (ranks < mids)
    q = ranks[mid] - first
    # Row i of the i < j block starts at i * (2 n_mid - i - 1) / 2.
    rows = np.arange(n_mid)
    starts = rows * (2 * n_mid - rows - 1) // 2
    i = np.searchsorted(starts, q, side="right") - 1
    tail[mid], head[mid] = n_src + i, n_src + i + 1 + (q - starts[i])
    snk = ranks >= mids
    g = ranks[snk] - mids
    tail[snk], head[snk] = n_src + g // n_snk, n_src + n_mid + g % n_snk
    return zip(tail.tolist(), head.tolist())


def generate_instance(cfg: GeneratorConfig, index: int) -> BenchmarkInstance:
    """Build the ``index``-th instance of a config, deterministically.

    Baseline connectivity comes from a chain over the intermediates plus
    one edge per source and sink, so walks never dead-end; extra edges are
    sampled uniformly from the remaining permitted pairs until the density
    target.  Paths are random source-to-sink walks, deduplicated.

    Raises:
        InfeasibleTopology: no source-sink path within the hop limit was
            found after the retry budget.
    """
    rng = np.random.default_rng(cfg.seed + index)
    n_src, n_mid, n_snk = _role_sizes(cfg)
    sources = [f"s{i}" for i in range(n_src)]
    mids = [f"m{i}" for i in range(n_mid)]
    sinks = [f"t{i}" for i in range(n_snk)]
    nodes = sources + mids + sinks
    roles = {v: "source" for v in sources}
    roles.update({v: "intermediate" for v in mids})
    roles.update({v: "sink" for v in sinks})

    edges: list[tuple[str, str]] = []
    edge_set: set[tuple[str, str]] = set()

    def add(t: str, h: str) -> None:
        if (t, h) not in edge_set:
            edge_set.add((t, h))
            edges.append((t, h))

    for i in range(n_mid - 1):
        add(mids[i], mids[i + 1])
    for s in sources:
        add(s, mids[int(rng.integers(n_mid))])
    for t in sinks:
        add(mids[int(rng.integers(n_mid))], t)
    if not any(e[0] == mids[-1] for e in edge_set if e[1] in sinks):
        add(mids[-1], sinks[int(rng.integers(n_snk))])

    m_max = permitted_edge_count(cfg)
    u = cfg.density if cfg.density is not None else float(rng.uniform())
    m_target = int(round(cfg.nodes + u * (m_max - cfg.nodes)))
    # The candidates are the permitted pairs not yet taken, in the order
    # source->mid, mid->mid (i < j), mid->sink; the k-th is decoded by
    # arithmetic rather than listed.
    position = {v: k for k, v in enumerate(nodes)}
    ends = np.array([(position[t], position[h]) for t, h in edges], dtype=np.int64)
    taken = np.sort(_pair_ranks(ends[:, 0], ends[:, 1], n_src, n_mid, n_snk))
    extra = min(max(m_target - len(edges), 0), m_max - taken.shape[0])
    if extra:
        picks = rng.choice(m_max - taken.shape[0], size=extra, replace=False)
        # Candidate k is the k-th rank missing from ``taken``.
        ranks = picks + np.searchsorted(taken - np.arange(taken.shape[0]), picks, side="right")
        for t, h in _pairs_of_ranks(ranks, n_src, n_mid, n_snk):
            add(nodes[t], nodes[h])

    out_edges: dict[str, list[int]] = {v: [] for v in nodes}
    for i, (t, _) in enumerate(edges):
        out_edges[t].append(i)
    sink_set = set(sinks)

    p_target = cfg.max_paths if cfg.max_paths is not None else 4 * cfg.nodes
    paths: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(_PATH_ATTEMPT_FACTOR * p_target):
        if len(paths) >= p_target:
            break
        v = sources[int(rng.integers(n_src))]
        walk: list[int] = []
        while len(walk) < cfg.max_hops:
            outs = out_edges[v]
            if not outs:
                break
            e = outs[int(rng.integers(len(outs)))]
            walk.append(e)
            v = edges[e][1]
            if v in sink_set:
                key = tuple(walk)
                if key not in seen:
                    seen.add(key)
                    paths.append(key)
                break
    if not paths:
        raise InfeasibleTopology(
            f"instance {index}: no source-sink walk of at most {cfg.max_hops} "
            "hops found within the retry budget"
        )

    net = Network(nodes, edges, paths, roles)
    agg = FlowAggregationMatrix.from_network(net)
    flows = rng.uniform(FLOW_LOW, FLOW_HIGH, len(paths))
    y_true = agg.aggregate(flows)
    sigma = cfg.sigma if cfg.sigma is not None else 0.05 * float(np.mean(np.abs(y_true)))
    noise = rng.normal(0.0, sigma, y_true.shape) if sigma > 0 else np.zeros_like(y_true)
    n = cfg.nodes
    return BenchmarkInstance(
        index=index,
        seed=cfg.seed + index,
        network=net,
        agg=agg,
        y_true=ForecastVector(y_true),
        y_base=ForecastVector(y_true + noise),
        sigma=float(sigma),
        density=2.0 * len(edges) / (n * (n - 1)),
        max_path_hops=max(len(p) for p in paths),
    )


# --- methods ---------------------------------------------------------------------


def _parse_parameter(name: str, prefix: str) -> float:
    raw = name[len(prefix) :]
    try:
        return float(raw)
    except ValueError:
        raise BadParameter(f"method {name!r}: {raw!r} is not a number") from None


def method_callable(name: str):
    """Map a method name to a function instance -> reconciled vector.

    Known names: base, bu, l2, l1, mint, mint_nonneg, l2_dense,
    huber:<delta>, relaxed:<epsilon>.  Besides the base forecasts,
    bottom-up and the dense closed form (``l2_dense``), each is one
    :func:`reconcile_general` call under its loss: ``mint`` is l2, and
    ``mint_nonneg`` l2 over nonnegative path values.
    """
    if name == "base":
        return lambda inst: inst.y_base.data.copy()
    if name == "bu":
        return lambda inst: reconcile_bottom_up(inst.y_base, inst.agg).data
    if name == "l2_dense":

        def dense_arm(inst: BenchmarkInstance) -> np.ndarray:
            a, c = coherence_constraints(inst.agg)
            return reconcile_weighted(inst.y_base.data, a, c, np.eye(inst.agg.n))

        return dense_arm
    if name in ("l2", "mint", "mint_nonneg"):
        loss = LossSpec("l2")
    elif name == "l1":
        loss = LossSpec("l1")
    elif name.startswith("huber:"):
        loss = LossSpec("huber", delta=_parse_parameter(name, "huber:"))
    elif name.startswith("relaxed:"):
        loss = LossSpec("relaxed", epsilon=_parse_parameter(name, "relaxed:"))
    else:
        raise BadParameter(f"unknown method {name!r}")
    nonneg = name == "mint_nonneg"

    def reconciler_arm(inst: BenchmarkInstance) -> np.ndarray:
        box = BoxConstraints.nonnegative_paths(inst.agg) if nonneg else None
        return reconcile_general(inst.y_base, inst.agg, loss, box=box).y_tilde.data

    return reconciler_arm


# --- harness ---------------------------------------------------------------------


_METRIC_FIELDS = (
    "rmse_overall",
    "rmse_nodes",
    "rmse_edges",
    "rmse_paths",
    "mae_overall",
    "mae_nodes",
    "mae_edges",
    "mae_paths",
)


@dataclass
class BenchmarkReport:
    """Everything a benchmark run produced, before and after serialization."""

    config: GeneratorConfig
    methods: tuple[str, ...]
    per_instance: list[dict]
    summary: list[dict]
    timings: list[dict]
    files: dict = field(default_factory=dict)


def _run_one(cfg: GeneratorConfig, index: int, methods, fns) -> tuple[list[dict], list[dict]]:
    inst = generate_instance(cfg, index)
    imap = inst.agg.index_map
    metric_rows, timing_rows = [], []
    for name, fn in zip(methods, fns):
        t0 = time.perf_counter()
        out = np.asarray(fn(inst), dtype=float)
        wall = time.perf_counter() - t0
        report = evaluate(out, inst.y_true.data, imap)
        coh = check_coherence(out, inst.agg)
        row = {
            "instance": index,
            "seed": inst.seed,
            "nodes": imap.n_nodes,
            "edges": imap.n_edges,
            "paths": imap.n_paths,
            "density": inst.density,
            "max_path_hops": inst.max_path_hops,
            "sigma": inst.sigma,
            "method": name,
            "rmse_overall": report.rmse.overall,
            "rmse_nodes": report.rmse.nodes,
            "rmse_edges": report.rmse.edges,
            "rmse_paths": report.rmse.paths,
            "mae_overall": report.mae.overall,
            "mae_nodes": report.mae.nodes,
            "mae_edges": report.mae.edges,
            "mae_paths": report.mae.paths,
            "coherent": bool(coh.coherent),
            "max_residual": max(coh.max_node_residual, coh.max_edge_residual),
        }
        metric_rows.append(row)
        timing_rows.append({"instance": index, "method": name, "wall_time_s": wall})
    return metric_rows, timing_rows


def run_benchmark(
    cfg: GeneratorConfig, methods=DEFAULT_METHODS, out_dir: str | None = None
) -> BenchmarkReport:
    """Generate instances, run every method on each, score and summarise.

    Args:
        cfg: generator configuration.
        methods: method names, see :func:`method_callable`.
        out_dir: when given, write per_instance.csv, summary.csv,
            timings.csv and config.json there (directory is created).
            The two metric CSVs and config.json are byte-reproducible for
            a fixed config; timings.csv is wall-clock and is not.

    Raises:
        BadParameter: no methods, or an unknown method name.
        IoFailure: output directory or files cannot be written.
    """
    methods = tuple(methods)
    if not methods:
        raise BadParameter("run_benchmark needs at least one method")
    if len(set(methods)) != len(methods):
        raise BadParameter("duplicate method names")
    fns = [method_callable(name) for name in methods]

    per_instance: list[dict] = []
    timings: list[dict] = []
    for index in range(cfg.instances):
        metric_rows, timing_rows = _run_one(cfg, index, methods, fns)
        per_instance.extend(metric_rows)
        timings.extend(timing_rows)

    summary = []
    for name in methods:
        rows = [r for r in per_instance if r["method"] == name]
        entry = {"method": name, "instances": len(rows)}
        for fld in _METRIC_FIELDS:
            vals = np.array([r[fld] for r in rows])
            entry[f"{fld}_mean"] = float(vals.mean())
            entry[f"{fld}_sd"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        entry["coherent_count"] = sum(1 for r in rows if r["coherent"])
        summary.append(entry)

    report = BenchmarkReport(
        config=cfg,
        methods=methods,
        per_instance=per_instance,
        summary=summary,
        timings=timings,
    )
    if out_dir is not None:
        _write_outputs(report, out_dir)
    return report


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, rows: list[dict]) -> None:
    fields = list(rows[0].keys())
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(row[f]) for f in fields])


def _write_outputs(report: BenchmarkReport, out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    config_payload = {**asdict(report.config), "methods": list(report.methods)}
    files = {
        "per_instance": os.path.join(out_dir, "per_instance.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "config": os.path.join(out_dir, "config.json"),
    }
    _write_csv(files["per_instance"], report.per_instance)
    _write_csv(files["summary"], report.summary)
    _write_csv(files["timings"], report.timings)
    write_json(files["config"], config_payload)
    report.files = files
