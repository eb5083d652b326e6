"""The three workloads: how each builds its inputs, runs one operation and
checks it.

Every workload has the same shape.  ``setup()`` builds the inputs from the
seed and is paid once.  ``op(i)`` runs operation ``i`` and returns its
wall time, its CPU time and what the check needs; it reaches flowrec only
through attribute lookups on the package and its modules, so the tracer's
wrappers see every call.  ``check(i, out)`` compares the outputs with
:mod:`reference` and returns True when the operation hit the one known
fault the benchmark counts (the l2 data-update ledger); any other
disagreement raises :class:`reference.CheckFailed`.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.sparse.linalg as spla

import reference as ref
from reference import CheckFailed


def _clock() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def layered_network(rng, n_nodes: int, n_edges: int, n_paths: int, max_hops: int = 10):
    """A layered DAG with exactly ``n_edges`` edges and ``n_paths`` distinct paths.

    Sources feed intermediates, intermediates feed later intermediates and
    sinks.  A chain over the intermediates and one sink edge per
    intermediate keep every random walk short of a dead end.  Fixed sizes
    keep operation cost the same from seed to seed.
    """
    n_src = n_snk = n_nodes // 5
    n_mid = n_nodes - n_src - n_snk
    src = [f"s{i}" for i in range(n_src)]
    mid = [f"m{i}" for i in range(n_mid)]
    snk = [f"t{i}" for i in range(n_snk)]
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()

    def add(t: str, h: str) -> None:
        if (t, h) not in seen:
            seen.add((t, h))
            edges.append((t, h))

    for i in range(n_mid - 1):
        add(mid[i], mid[i + 1])
    for s in src:
        add(s, mid[int(rng.integers(n_mid))])
    for m in mid:
        add(m, snk[int(rng.integers(n_snk))])
    for t in snk:
        add(mid[int(rng.integers(n_mid))], t)
    while len(edges) < n_edges:
        kind = rng.integers(3)
        if kind == 0:
            add(src[int(rng.integers(n_src))], mid[int(rng.integers(n_mid))])
        elif kind == 1:
            i, j = sorted(rng.choice(n_mid, size=2, replace=False).tolist())
            add(mid[i], mid[j])
        else:
            add(mid[int(rng.integers(n_mid))], snk[int(rng.integers(n_snk))])

    out: dict[str, list[int]] = {v: [] for v in src + mid + snk}
    for e, (t, _) in enumerate(edges):
        out[t].append(e)
    sinks = set(snk)
    paths: list[tuple[int, ...]] = []
    found: set[tuple[int, ...]] = set()
    for _ in range(100 * n_paths):
        if len(paths) == n_paths:
            break
        v, walk = src[int(rng.integers(n_src))], []
        while len(walk) < max_hops:
            e = out[v][int(rng.integers(len(out[v])))]
            walk.append(e)
            v = edges[e][1]
            if v in sinks:
                if tuple(walk) not in found:
                    found.add(tuple(walk))
                    paths.append(tuple(walk))
                break
    if len(paths) != n_paths:
        raise RuntimeError(f"found {len(paths)} of {n_paths} paths")
    return src + mid + snk, edges, paths


def noisy_panel(rng, s, flows: np.ndarray, horizons: int) -> np.ndarray:
    """(H, n) base forecasts: a coherent daily-cycle truth plus 5 % Gaussian noise."""
    phase = rng.uniform(0, 2 * np.pi)
    scale = 1.0 + 0.2 * np.sin(phase + 2 * np.pi * np.arange(horizons) / 24.0)
    truth = (s @ (flows[:, None] * scale[None, :])).T
    sigma = 0.05 * float(np.abs(truth).mean())
    return truth + rng.normal(0.0, sigma, truth.shape)


# --- reconcile-l2-h24 ------------------------------------------------------------------


class ReconcileL2H24:
    """One ``flowrec reconcile --loss l2`` of a 24-horizon forecast CSV per operation."""

    NODES, EDGES, PATHS = 100, 304, 400
    HORIZONS = 24
    INPUTS = 5  # forecast CSVs, used in turn

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        nodes, edges, paths = layered_network(rng, self.NODES, self.EDGES, self.PATHS)
        self.network = os.path.join(self.dir, "network.json")
        ref.save_network(self.network, nodes, edges, paths)
        self.vp, self.ep = ref.incidence(*ref.load_network(self.network))
        self.s = ref.summing_matrix(self.vp, self.ep)
        self.rows = ref.component_rows(nodes, edges, len(paths))
        flows = rng.uniform(5.0, 15.0, len(paths))
        self.inputs = []
        for k in range(self.INPUTS):
            panel = noisy_panel(rng, self.s, flows, self.HORIZONS)
            path = os.path.join(self.dir, f"forecast{k}.csv")
            ref.write_panel(path, self.rows, panel)
            self.inputs.append((path, ref.read_panel(path, self.rows)))
        self.out = os.path.join(self.dir, "reconciled.csv")

    def op(self, i: int):
        import flowrec.cli

        path = self.inputs[i % self.INPUTS][0]
        argv = ["reconcile", "--network", self.network, "--forecast", path,
                "--loss", "l2", "--out", self.out]
        w0, c0 = _clock()
        code = flowrec.cli.main(argv)
        w1, c1 = _clock()
        return w1 - w0, c1 - c0, code

    def check(self, i: int, code) -> bool:
        if code != 0:
            raise CheckFailed(f"flowrec reconcile exited with {code}")
        y_hat = self.inputs[i % self.INPUTS][1]
        y_tilde = ref.read_panel(self.out, self.rows)
        if y_tilde.shape != y_hat.shape:
            raise CheckFailed(f"{y_tilde.shape[0]} horizons written, {y_hat.shape[0]} read")
        for h in range(y_hat.shape[0]):
            ref.check_coherent(self.vp, self.ep, y_tilde[h], f"horizon {h + 1}")
            ref.check_l2_stationary(self.s, y_tilde[h], y_hat[h], f"horizon {h + 1}")
        return False


# --- sweep-nonsmooth -----------------------------------------------------------------


class SweepNonsmooth:
    """One ``flowrec benchmark`` over l1, Huber and relaxed per operation, fresh seed each."""

    NODES, INSTANCES, DENSITY = 30, 1, 0.2
    HUBER_DELTA, EPSILON = 1.0, 0.01
    METHODS = f"l1,huber:{HUBER_DELTA},relaxed:{EPSILON}"

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        self.out = os.path.join(self.dir, "results")

    def instance_seed(self, i: int) -> int:
        # Every operation draws instances no other operation draws.  The warm-up
        # (operation -1) runs the same instance whatever the seed, so set-up time
        # does not depend on how hard one random instance happens to be.
        return 0 if i < 0 else self.seed * 1_000_000 + (i + 1) * self.INSTANCES

    def op(self, i: int):
        import flowrec.cli

        argv = ["benchmark", "--methods", self.METHODS, "--nodes", str(self.NODES),
                "--instances", str(self.INSTANCES), "--density", str(self.DENSITY),
                "--seed", str(self.instance_seed(i)), "--out-dir", self.out]
        w0, c0 = _clock()
        code = flowrec.cli.main(argv)
        w1, c1 = _clock()
        return w1 - w0, c1 - c0, code

    def check(self, i: int, code) -> bool:
        import flowrec

        if code != 0:
            raise CheckFailed(f"flowrec benchmark exited with {code}")
        header, rows = ref.read_csv(os.path.join(self.out, "per_instance.csv"))
        records = [dict(zip(header, r)) for r in rows]
        if len(records) != 3 * self.INSTANCES:
            raise CheckFailed(f"{len(records)} result rows for {self.INSTANCES} instances")
        cfg = flowrec.GeneratorConfig(nodes=self.NODES, instances=self.INSTANCES,
                                      density=self.DENSITY, seed=self.instance_seed(i))
        for k in range(self.INSTANCES):
            inst = flowrec.generate_instance(cfg, k)
            net = inst.network
            vp, ep = ref.incidence(list(net.nodes), list(net.edges), list(net.paths))
            by_method = {r["method"]: r for r in records if int(r["instance"]) == k}
            self._check_instance(vp, ep, inst.y_base.data, inst.y_true.data, by_method)
        self._check_summary(records)
        return False

    def _check_instance(self, vp, ep, y_hat, truth, by_method) -> None:
        s = ref.summing_matrix(vp, ep)
        nn, ne, n = vp.shape[0], ep.shape[0], s.shape[0]
        for row in by_method.values():
            if (int(row["nodes"]), int(row["edges"]), int(row["paths"])) != (nn, ne, vp.shape[1]):
                raise CheckFailed(f"{row['method']}: reported sizes differ from the instance")
            got = {m: float(row[m]) for m in ref.METRICS}
            blocks = {"nodes": nn, "edges": ne, "paths": vp.shape[1]}
            if not ref.close(n * got["mae_overall"], sum(blocks[b] * got[f"mae_{b}"] for b in blocks), 1e-9) \
                    or not ref.close(n * got["rmse_overall"] ** 2,
                                     sum(blocks[b] * got[f"rmse_{b}"] ** 2 for b in blocks), 1e-9):
                raise CheckFailed(f"{row['method']}: block metrics do not add up to the overall")
        spread = float(np.abs(y_hat - truth).sum())
        for name, row in by_method.items():
            got = {m: float(row[m]) for m in ref.METRICS}
            if name == "l1":
                optimum = ref.l1_optimum(s, y_hat)
                self._expect_coherent(name, row, y_hat)
                floor = ref.l1_face_mae_floor(s, y_hat, truth, optimum)
                self._expect_within(name, got["mae_overall"], floor, (optimum + spread) / n)
            elif name.startswith("huber:"):
                y_ref, r_l1, sharpness = ref.huber_reference(s, y_hat, self.HUBER_DELTA)
                self._expect_coherent(name, row, y_hat)
                if sharpness >= 1e-2:
                    # Unique minimiser: flowrec stops at gradient norm 1e-8 (1 + f), so the
                    # answers may differ by that over the sharpness, lifted through S.
                    f = float(np.abs(y_ref - y_hat).sum())
                    lift = spla.norm(s, "fro") / np.sqrt(n)
                    atol = 10.0 * 1e-8 * (1.0 + f) / sharpness * lift + 1e-9
                    self._expect_metrics(name, got, ref.accuracy(y_ref, truth, nn, ne), 0.0, atol)
                else:
                    # Flat directions: every minimiser has the same sum |y - y_hat|.
                    self._expect_within(name, got["mae_overall"],
                                        max(spread - r_l1, 0.0) / n, (spread + r_l1) / n)
            elif name.startswith("relaxed:"):
                y_ref = ref.relaxed_reference(vp, ep, y_hat, self.EPSILON)
                self._expect_metrics(name, got, ref.accuracy(y_ref, truth, nn, ne), 1e-6, 1e-9)
                worst = ref.coherence_gap(vp, ep, y_ref)
                if abs(float(row["max_residual"]) - worst) > 1e-7 * (1.0 + self.EPSILON):
                    raise CheckFailed(f"{name}: max residual {row['max_residual']}, reference {worst:.9g}")
            else:
                raise CheckFailed(f"unexpected method {name!r}")

    @staticmethod
    def _expect_coherent(name: str, row, y_hat) -> None:
        if row["coherent"] != "true" or float(row["max_residual"]) > 1e-7 * (1.0 + np.abs(y_hat).max()):
            raise CheckFailed(f"{name}: not coherent (max residual {row['max_residual']})")

    @staticmethod
    def _expect_within(name: str, value: float, low: float, high: float) -> None:
        slack = 1e-7 * (1.0 + abs(high))
        if not low - slack <= value <= high + slack:
            raise CheckFailed(f"{name}: MAE {value:.9g} outside [{low:.9g}, {high:.9g}] of any optimum")

    @staticmethod
    def _expect_metrics(name: str, got: dict, want: dict, rtol: float, atol: float) -> None:
        for m in ref.METRICS:
            if not ref.close(got[m], want[m], rtol, atol):
                raise CheckFailed(f"{name}: {m} {got[m]:.12g}, reference {want[m]:.12g}")

    def _check_summary(self, records) -> None:
        header, rows = ref.read_csv(os.path.join(self.out, "summary.csv"))
        for row in (dict(zip(header, r)) for r in rows):
            mine = [r for r in records if r["method"] == row["method"]]
            for m in ref.METRICS:
                mean = float(np.mean([float(r[m]) for r in mine]))
                if not ref.close(float(row[f"{m}_mean"]), mean, 1e-12):
                    raise CheckFailed(f"summary {row['method']} {m}_mean is not the mean")
            if int(row["coherent_count"]) != sum(r["coherent"] == "true" for r in mine):
                raise CheckFailed(f"summary {row['method']} coherent_count is off")


# --- update-rounds ----------------------------------------------------------------------


class _Slot:
    """One prepared maintenance round: what to remove, what to add, what to ask the ledger."""

    def __init__(self, edge, shortcut, new_paths, forecast, probes):
        self.edge, self.shortcut, self.new_paths = edge, shortcut, new_paths
        self.forecast, self.probes = forecast, probes
        self.cache = None  # filled on the first round of the slot; outputs repeat exactly


class UpdateRounds:
    """remove_edge, add_edge_update, an l2 refresh and a ledger batch per operation.

    Every round starts from the same base network and its l2
    reconciliation, so cost does not drift with the length of the run.
    """

    NODES, EDGES, PATHS = 300, 2170, 1200
    SLOTS = 7  # prepared rounds, used in turn
    LEDGER_CHECKS = 256
    SHORTCUT_PATHS = 3

    def __init__(self, seed: int, workdir: str):
        self.seed, self.dir = seed, workdir

    def setup(self) -> None:
        import flowrec

        rng = np.random.default_rng(self.seed)
        nodes, edges, paths = layered_network(rng, self.NODES, self.EDGES, self.PATHS)
        self.nodes, self.edges, self.paths = nodes, edges, paths
        vp, ep = ref.incidence(nodes, edges, paths)
        s = ref.summing_matrix(vp, ep)
        self.y_hat = noisy_panel(rng, s, rng.uniform(5.0, 15.0, len(paths)), 1)[0]
        self.net = flowrec.Network(nodes, edges, paths)
        base = flowrec.reconcile_l2(self.y_hat, flowrec.FlowAggregationMatrix.from_network(self.net))
        self.base = base.y_tilde
        ref.check_coherent(vp, ep, self.base.data, "base reconciliation")
        ref.check_l2_stationary(s, self.base.data, self.y_hat, "base reconciliation")
        self.seqs = ref.path_node_sequences(nodes, edges, paths)
        self.base_od = self._od_totals(self.seqs, self.base.data[-len(paths):])
        self.slots = self._make_slots(rng)

    # -- inputs --

    def _make_slots(self, rng) -> list[_Slot]:
        edge_paths: list[list[int]] = [[] for _ in self.edges]
        for j, p in enumerate(self.paths):
            for e in p:
                edge_paths[e].append(j)
        existing = set(self.edges)
        slots = []
        for e_star in rng.permutation(len(self.edges)).tolist():
            if len(slots) == self.SLOTS:
                break
            affected = edge_paths[e_star]
            if len(affected) < 2 or not self._stays_connected(e_star, affected):
                continue
            shortcut = self._shortcut(rng, e_star, existing)
            if shortcut is None:
                continue
            (u, w), new_paths = shortcut
            # 255 seeded single-component changes; each moves the value by a factor of
            # the gap to the reconciled value in [-1, 3], so about half move toward it.
            gone = set(affected)
            keep = [("node", i) for i in range(len(self.nodes))]
            keep += [("edge", self.edges[e]) for e in range(len(self.edges)) if e != e_star]
            keep += [("path", j) for j in range(len(self.paths)) if j not in gone]
            picks = rng.choice(len(keep), size=self.LEDGER_CHECKS - 1, replace=False)
            probes = [(keep[k], float(rng.uniform(-1.0, 3.0))) for k in picks.tolist()]
            forecast = float(rng.uniform(5.0, 15.0) * len(new_paths))
            slots.append(_Slot(e_star, (u, w), new_paths, forecast, probes))
        if len(slots) != self.SLOTS:
            raise RuntimeError(f"found {len(slots)} of {self.SLOTS} removable edges")
        return slots

    def _stays_connected(self, e_star: int, affected) -> bool:
        out: dict[str, list[str]] = {}
        for e, (t, h) in enumerate(self.edges):
            if e != e_star:
                out.setdefault(t, []).append(h)
        for j in affected:
            origin, dest = self.edges[self.paths[j][0]][0], self.edges[self.paths[j][-1]][1]
            reached, frontier = {origin}, [origin]
            while frontier and dest not in reached:
                frontier = [h for v in frontier for h in out.get(v, ()) if h not in reached]
                reached.update(frontier)
            if dest not in reached:
                return False
        return True

    def _shortcut(self, rng, e_star: int, existing):
        """A new edge (u, w) that skips at least one hop of a surviving path, and
        up to SHORTCUT_PATHS surviving paths rerouted over it, in the edge
        numbering the network has after ``e_star`` is removed."""
        renumber = lambda e: e if e < e_star else e - 1
        new_edge = len(self.edges) - 1
        for j in rng.permutation(len(self.paths)).tolist():
            p = self.paths[j]
            if e_star in p or len(p) < 3:
                continue
            names = [self.edges[p[0]][0]] + [self.edges[e][1] for e in p]
            a = int(rng.integers(len(p) - 1))
            u, w = names[a], names[a + 2]
            if (u, w) in existing:
                continue
            routes = []
            for q in range(len(self.paths)):
                pq = self.paths[q]
                if e_star in pq:
                    continue
                nq = [self.edges[pq[0]][0]] + [self.edges[e][1] for e in pq]
                if u in nq and w in nq and nq.index(u) + 1 < nq.index(w):
                    iu, iw = nq.index(u), nq.index(w)
                    route = tuple(renumber(e) for e in pq[:iu]) + (new_edge,) + tuple(
                        renumber(e) for e in pq[iw:])
                    if route not in routes:
                        routes.append(route)
                if len(routes) == self.SHORTCUT_PATHS:
                    break
            return (u, w), routes
        return None

    @staticmethod
    def _od_totals(seqs, values) -> dict[tuple[int, int], float]:
        totals: dict[tuple[int, int], float] = {}
        for seq, v in zip(seqs, values):
            key = (seq[0], seq[-1])
            totals[key] = totals.get(key, 0.0) + float(v)
        return totals

    # -- operation --

    def op(self, i: int):
        import flowrec as fr

        slot = self.slots[i % self.SLOTS]
        w0, c0 = _clock()
        plan, net1, y1 = fr.remove_edge(self.net, self.base, slot.edge)
        added = fr.add_edge_update(net1, y1, slot.shortcut, slot.forecast, slot.new_paths)
        w1, c1 = _clock()
        y_hat2 = self._refresh_input(slot, added)
        w2, c2 = _clock()
        agg2 = fr.FlowAggregationMatrix.from_network(added.network)
        refreshed = fr.reconcile_l2(y_hat2, agg2).y_tilde.data
        w3, c3 = _clock()
        batch = self._ledger_batch(slot, y_hat2, refreshed)
        w4, c4 = _clock()
        ledger = fr.UpdateLedger(refreshed, y_hat2, index_map=added.network.index_map)
        verdicts = [fr.check_data_update(ledger, x, v) for x, v in batch]
        w5, c5 = _clock()
        wall = (w1 - w0) + (w3 - w2) + (w5 - w4)
        cpu = (c1 - c0) + (c3 - c2) + (c5 - c4)
        return wall, cpu, (plan, net1, y1, added, y_hat2, refreshed, batch, verdicts)

    def _refresh_input(self, slot: _Slot, added) -> np.ndarray:
        """Base forecasts on the edited network; components new to it take their
        locally updated value as forecast."""
        if slot.cache is None:
            net2 = added.network
            edge_of = {e: k for k, e in enumerate(self.edges)}
            path_of = {tuple(self.edges[e] for e in p): j for j, p in enumerate(self.paths)}
            nn, ne = len(self.nodes), len(self.edges)
            src = list(range(nn))
            src += [nn + edge_of[e] if e in edge_of else -1 for e in net2.edges]
            src += [nn + ne + path_of[k] if k in path_of else -1
                     for k in (tuple(net2.edges[e] for e in p) for p in net2.paths)]
            src = np.array(src)
            comp = {("node", i): i for i in range(nn)}
            comp.update({("edge", e): nn + k for k, e in enumerate(net2.edges)})
            comp.update({("path", int(src[c]) - nn - ne): c
                         for c in range(nn + len(net2.edges), len(src)) if src[c] >= 0})
            slot.cache = {"src": src, "new": np.flatnonzero(src < 0),
                          "probes": np.array([comp[key] for key, _ in slot.probes]),
                          "factors": np.array([f for _, f in slot.probes]),
                          "edges": net2.edges, "paths": net2.paths}
        c = slot.cache
        y = self.y_hat[np.maximum(c["src"], 0)]
        y[c["new"]] = added.y_tilde.data[c["new"]]
        return y

    def _ledger_batch(self, slot: _Slot, y_hat2: np.ndarray, refreshed: np.ndarray):
        c = slot.cache
        x = c["probes"]
        values = y_hat2[x] + c["factors"] * (refreshed[x] - y_hat2[x])
        # Plus the path whose forecast sits furthest from its reconciled value,
        # moved halfway toward it: a kept vector that a fresh l2 solve always beats.
        n_paths = len(c["paths"])
        gap = np.abs(refreshed - y_hat2)[-n_paths:]
        worst = len(y_hat2) - n_paths + int(np.argmax(gap))
        batch = [(worst, float(0.5 * (y_hat2[worst] + refreshed[worst])))]
        return batch + list(zip(x.tolist(), values.tolist()))

    # -- check --

    def check(self, i: int, out) -> bool:
        plan, net1, y1, added, y_hat2, refreshed, batch, verdicts = out
        slot = self.slots[i % self.SLOTS]
        net2 = added.network
        if net2.edges != slot.cache["edges"] or net2.paths != slot.cache["paths"]:
            raise CheckFailed("the same edits gave a different network")
        ref1 = self._structure(slot, "net1", net1)
        ref2 = self._structure(slot, "net2", net2)

        # remove_edge
        if self.edges[slot.edge] in net1.edges or list(net1.nodes) != self.nodes:
            raise CheckFailed("removed edge still present or nodes changed")
        ref.check_coherent(ref1["vp"], ref1["ep"], y1.data, "after removal")
        od = self._od_totals(ref1["seqs"], y1.data[-len(net1.paths):])
        if od.keys() != self.base_od.keys() or any(
                not ref.close(od[k], self.base_od[k], 1e-12, 1e-9) for k in od):
            raise CheckFailed("rerouted mass not conserved per origin-destination pair")
        moved = np.array([self.base.data[-len(self.paths) + j] for j in plan.affected_paths])
        if (moved >= 0).all() or (moved <= 0).all():
            if plan.squared_change > plan.bound * (1 + 1e-12) + 1e-12:
                raise CheckFailed(f"squared change {plan.squared_change} above bound {plan.bound}")

        # add_edge_update
        y2 = added.y_tilde.data
        nn = len(self.nodes)
        new_edge = nn + net2.edges.index(tuple(slot.shortcut))
        if not ref.close(y2[new_edge], slot.forecast, 1e-12, 1e-9):
            raise CheckFailed(f"added edge carries {y2[new_edge]}, forecast {slot.forecast}")
        p1 = len(net1.paths)
        kept_paths = y2[nn + len(net2.edges):][:p1]
        if not np.array_equal(kept_paths, y1.data[-p1:]):
            raise CheckFailed("add_edge_update changed a pre-existing path value")
        ref.check_coherent(ref2["vp"], ref2["ep"], y2, "after addition")

        # l2 refresh
        ref.check_coherent(ref2["vp"], ref2["ep"], refreshed, "refresh")
        ref.check_l2_stationary(ref2["s"], refreshed, y_hat2, "refresh")

        # ledger: a kept vector must not lose to a fresh solve by more than solver accuracy
        if len(verdicts) != len(batch):
            raise CheckFailed("ledger returned the wrong number of verdicts")
        return self._ledger_fault(ref2, y_hat2, refreshed, batch, verdicts)

    def _structure(self, slot: _Slot, key: str, net) -> dict:
        cache = slot.cache.setdefault(key, {})
        if cache.get("paths") != net.paths or cache.get("edges") != net.edges:
            nodes, edges, paths = list(net.nodes), list(net.edges), list(net.paths)
            vp, ep = ref.incidence(nodes, edges, paths)
            s = ref.summing_matrix(vp, ep)
            cache.clear()
            cache.update(paths=net.paths, edges=net.edges, vp=vp, ep=ep, s=s,
                         seqs=ref.path_node_sequences(nodes, edges, paths))
        return cache

    @staticmethod
    def _ledger_fault(ref2, y_hat2, refreshed, batch, verdicts) -> bool:
        """Fresh l2 solve after y_hat[x] += d beats the kept vector by d^2 P_xx,
        P the projection onto range(S); P_xx = s_x^T (S^T S)^-1 s_x <= 1."""
        s = ref2["s"]
        if "gram" not in ref2:
            ref2["gram"] = (s.T @ s).tocsr()
        loss = float(np.sum((refreshed - y_hat2) ** 2))
        tol = 1e-9 * (1.0 + loss)
        kept = sorted(((v - y_hat2[x]) ** 2, x) for (x, v), verdict in zip(batch, verdicts)
                      if getattr(verdict, "value", verdict) == "still-optimal")
        for d2, x in reversed(kept):
            if d2 <= tol:
                return False
            row = s.getrow(x).toarray().ravel()
            z, info = spla.cg(ref2["gram"], row, rtol=1e-10, maxiter=10 * len(row))
            if info != 0:
                raise CheckFailed(f"reference solve for P_xx did not converge ({info})")
            if d2 * float(row @ z) > tol:
                return True
        return False


WORKLOADS = {
    "reconcile-l2-h24": ReconcileL2H24,
    "sweep-nonsmooth": SweepNonsmooth,
    "update-rounds": UpdateRounds,
}
