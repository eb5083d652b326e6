"""The names the benchmark's tracer binds must exist in flowrec.

``perfbench/tracer.py`` wraps flowrec's functions and methods by name at
every module binding.  A rename in flowrec would break ``--trace 1`` runs
only when the benchmark runs; loading the tracer here makes it a test
failure instead.
"""

import importlib.util
from pathlib import Path

import flowrec.cli  # noqa: F401  (loads every flowrec module the tracer patches)
import flowrec.reconcile
import flowrec.relaxed

from conftest import random_instance

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_module = load_tracer()
    original = flowrec.reconcile.reconcile_l2
    inst = random_instance(nodes=10, seed=5)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert flowrec.reconcile.reconcile_l2 is not original
        flowrec.reconcile.reconcile_l2(inst.y_base.data, inst.agg)
    finally:
        tracer.uninstall()
    assert flowrec.reconcile.reconcile_l2 is original
    metrics, _, _ = tracer_module.layer_metrics(tracer.spans)
    assert metrics["reconcile.calls"] == 1
    assert metrics["numerics.cg_iters"] >= 1
    assert metrics["numerics.cg_s"] > 0.0


def test_tracer_reads_the_relaxed_counts():
    # The tracer counts Newton steps and band patterns off the relaxed
    # result as ``result.iterations`` and ``result.refine_rounds``.
    tracer_module = load_tracer()
    inst = random_instance(nodes=12, seed=66)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        flowrec.relaxed.reconcile_relaxed(inst.y_base, inst.agg, 0.01)
    finally:
        tracer.uninstall()
    metrics, _, _ = tracer_module.layer_metrics(tracer.spans)
    assert metrics["relaxed.iterations"] >= 1
    assert metrics["relaxed.refine_rounds"] >= 1
