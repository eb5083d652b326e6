"""Spans around flowrec's public functions, recorded from outside the program.

flowrec's modules import each other's functions by name, so one function
can be bound in several module namespaces (``flowrec.reconcile_l2``,
``flowrec.reconcile.reconcile_l2``, ``flowrec.baselines.reconcile_l2``).
:meth:`Tracer.install` replaces the function at every binding in every
loaded ``flowrec`` module, and patches constructors and class methods on
the class itself; :meth:`Tracer.uninstall` puts the originals back.  Spans
are kept in memory with their parent and turned into per-layer numbers at
the end.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function.  The span is named
# "<layer>.<attribute>"; the layer is the flowrec module it lives in.
FUNCTIONS = {
    "cli": ("main",),
    "fileio": ("read_network", "read_forecast", "read_weights", "read_box",
               "write_forecast", "write_diagnostics", "write_network"),
    "reconcile": ("reconcile_l2", "reconcile_l1", "reconcile_general", "reconcile_weighted"),
    "numerics": ("solve_spd_with_info", "solve_lp", "minimize_smooth_convex"),
    "relaxed": ("reconcile_relaxed",),
    "series": ("check_coherence",),
    "dynamic": ("remove_edge", "add_edge_update", "check_data_update"),
    "benchmark": ("run_benchmark", "generate_instance"),
    "baselines": ("evaluate", "reconcile_bottom_up", "reconcile_mint_ols"),
}
# (module, class, method, span name)
METHODS = (
    ("network", "Network", "__init__", "network.Network"),
    ("network", "FlowAggregationMatrix", "from_network", "network.from_network"),
    ("numerics", "SparseSpd", "__init__", "numerics.SparseSpd"),
)


def _count(name: str, result):
    """What a span counts besides its time, read from the function's result."""
    if name == "numerics.solve_spd_with_info":
        return {"iters": result[1].iterations}
    if name in ("numerics.solve_lp", "numerics.minimize_smooth_convex"):
        return {"iters": result.iterations}
    if name == "relaxed.reconcile_relaxed":
        return {"iters": result.iterations, "refine": result.refine_rounds}
    if name == "dynamic.check_data_update":
        return {"kept": int(getattr(result, "value", result) == "still-optimal")}
    if name == "dynamic.remove_edge":
        return {"affected": len(result[0].affected_paths)}
    if name == "dynamic.add_edge_update":
        return {"affected": len(result.affected_paths)}
    return None


_FILE_ARG = {"read_network": 0, "read_forecast": 0, "read_weights": 0, "read_box": 0,
             "write_forecast": 0, "write_diagnostics": 0, "write_network": 1}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, counts, file]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrappers --

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        file_arg = _FILE_ARG.get(name.split(".", 1)[1]) if name.startswith("fileio.") else None

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _count(name, result)
            if file_arg is not None:
                span[5] = args[file_arg]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "flowrec" or key.startswith("flowrec."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"flowrec.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"flowrec.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results --

    def mark(self) -> int:
        return len(self.spans)

    def file_sizes(self, start: int) -> None:
        """Replace recorded file names by their sizes; called after each operation."""
        for span in self.spans[start:]:
            if isinstance(span[5], str):
                span[5] = os.path.getsize(span[5])


def layer_metrics(spans):
    """Totals over the spans of one or more operations.

    Returns (named per-layer metrics, self time per layer, time covered by
    top-level spans).  A span's self time is its duration minus that of
    its children; "outermost" sums skip spans nested in the same layer.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    m = defaultdict(float)
    self_by_layer = defaultdict(float)
    top = 0.0
    for k, (name, parent, start, end, counts, size) in enumerate(spans):
        dur = end - start
        own = dur - child_time[k]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += own
        parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else None
        if parent < 0:
            top += dur
        counts = counts or {}
        if name == "cli.main":
            m["cli.self_s"] += own
        elif layer == "fileio":
            if parent_layer != "fileio":
                m["fileio.read_s" if ".read_" in name else "fileio.write_s"] += dur
                if isinstance(size, int):
                    m["fileio.bytes_read" if ".read_" in name else "fileio.bytes_written"] += size
        elif layer == "network":
            if parent_layer != "network":
                m["network.build_s"] += dur
            m["network.builds"] += 1
        elif layer == "reconcile":
            kind = name.split("_", 1)[1]
            if kind in ("l2", "l1", "general"):
                m[f"reconcile.{kind}_s"] += dur
            m["reconcile.self_s"] += own
            m["reconcile.calls"] += 1
        elif name == "numerics.solve_spd_with_info":
            m["numerics.cg_s"] += dur
            m["numerics.cg_iters"] += counts["iters"]
        elif name == "numerics.SparseSpd":
            m["numerics.spd_check_s"] += dur
        elif name == "numerics.solve_lp":
            m["numerics.lp_s"] += dur
            m["numerics.lp_iters"] += counts["iters"]
        elif name == "numerics.minimize_smooth_convex":
            m["numerics.smooth_s"] += dur
            m["numerics.smooth_iters"] += counts["iters"]
        elif name == "relaxed.reconcile_relaxed":
            m["relaxed.solve_s"] += dur
            m["relaxed.self_s"] += own
            m["relaxed.iterations"] += counts["iters"]
            m["relaxed.refine_rounds"] += counts["refine"]
        elif name == "series.check_coherence":
            m["series.coherence_s"] += dur
            m["series.coherence_calls"] += 1
        elif name == "dynamic.remove_edge":
            m["dynamic.remove_s"] += dur
            m["dynamic.affected_paths"] += counts["affected"]
        elif name == "dynamic.add_edge_update":
            m["dynamic.add_s"] += dur
            m["dynamic.affected_paths"] += counts["affected"]
        elif name == "dynamic.check_data_update":
            m["dynamic.check_s"] += dur
            m["dynamic.checks"] += 1
            m["dynamic.kept"] += counts["kept"]
        elif name == "benchmark.generate_instance":
            m["benchmark.generate_s"] += dur
            m["benchmark.instances"] += 1
        elif name == "benchmark.run_benchmark":
            m["benchmark.run_self_s"] += own
        elif name == "baselines.evaluate":
            m["baselines.evaluate_s"] += dur
    return dict(m), dict(self_by_layer), top
