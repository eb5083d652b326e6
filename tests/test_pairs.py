"""The shared protocol of the checkout-pair timing tools (``tools/pairs.py``),
and one child of each timing tool on this checkout.

The children run each tool's ``measure`` at its smallest size through
``pairs.run_child``, so a change under ``src`` that breaks a tool fails here
rather than in the next comparison that runs it.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import cg_scaling  # noqa: E402
import edit_scaling  # noqa: E402
import operator_products  # noqa: E402
import pairs  # noqa: E402
import smooth_kernels  # noqa: E402


def test_alternate_puts_the_parent_first_in_even_turns():
    calls = []

    def run(side, k):
        calls.append((side, k))
        return f"{side}{k}"

    runs = pairs.alternate(4, run)
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]
    assert runs == {"parent": ["parent0", "parent1", "parent2", "parent3"],
                    "change": ["change0", "change1", "change2", "change3"]}


def test_medians_keep_every_value_and_their_median():
    done = [{"ms": 3.0, "steps": 1}, {"ms": 1.0, "steps": 1}, {"ms": 2.0, "steps": 1}]
    assert pairs.medians(done, ["ms"]) == {"ms": [3.0, 1.0, 2.0], "median_ms": 2.0}


def test_store_keeps_the_other_tables_and_records_both_revisions(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"other": {"rows": [1]}, "mine": {"rows": ["old"]}}))
    roots = {"parent": str(ROOT), "change": str(tmp_path)}
    pairs.store(str(out), "mine", roots, "a table", [{"nodes": 30}])
    bench = json.loads(out.read_text())
    assert bench["other"] == {"rows": [1]}
    assert bench["mine"] == {
        "description": "a table", "rows": [{"nodes": 30}],
        "revisions": {"parent": pairs.revision(str(ROOT)), "change": pairs.revision(str(tmp_path))},
    }
    # A new file is created with the one table.
    pairs.store(str(tmp_path / "new.json"), "mine", roots, "a table", [])
    assert list(json.loads((tmp_path / "new.json").read_text())) == ["mine"]


@pytest.mark.parametrize("tool, args, keys", [
    (cg_scaling, (min(cg_scaling.NODES),), {"paths", "edges", "tol", "ms", "steps"}),
    (operator_products, (min(operator_products.NODES),),
     {"paths", "nnz", *operator_products.PRODUCTS}),
    (edit_scaling, (min(edit_scaling.PATHS),),
     {"paths", "nodes", "edges", "nnz", *edit_scaling.EDITS}),
    (smooth_kernels, (min(smooth_kernels.NODES), "huber", smooth_kernels.SEED),
     {"paths", "edges", "ms", "steps", "cg_iterations", "objective", "certificate", "target"}),
], ids=["cg_scaling", "operator_products", "edit_scaling", "smooth_kernels"])
def test_each_tool_child_measures_this_checkout(tool, args, keys):
    row = pairs.run_child(tool.__file__, str(ROOT), *args)
    assert set(row) == keys
