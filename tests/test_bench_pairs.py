"""The verdicts of ``tools/bench_pairs.py``, on hand-built runs.

``summarise`` turns alternating parent/change runs into the gain, bound
and spread verdicts that a BENCH file records; these tests feed it runs
built here, so no benchmark process is started.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "bench_pairs.py"

SPEC = {
    "end_to_end": [
        {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


@pytest.fixture(scope="module")
def bench_pairs():
    # The script imports ``pairs`` from its own directory.
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(parent, change, failed=(0, 0), attempted=10):
    """One parent and one change run per pair, seeds 0, 1, ...; ``parent``
    and ``change`` are the op_s_p50 values, and ops_per_s is their inverse."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value, fails in (("parent", p, failed[0]), ("change", c, failed[1])):
            runs.append({
                "seed": seed, "side": side, "attempted": attempted, "failed": fails,
                "correct": True, "metrics": {"op_s_p50": value, "ops_per_s": 1.0 / value},
            })
    return runs


PARENT = [1.00 + 0.01 * k for k in range(10)]


def test_gain_needs_nine_wins_in_ten_and_ties_count_for_neither(bench_pairs):
    # Nine wins and one tie: a gain.
    change = [0.5] * 9 + [PARENT[9]]
    m = bench_pairs.summarise(runs_of(PARENT, change), SPEC)["metrics"]["op_s_p50"]
    assert m["pair_wins"] == {"change": 9, "parent": 0}
    assert m["gain"] is True
    # Eight wins and two ties: the ties do not make up the ninth win.
    change = [0.5] * 8 + PARENT[8:]
    m = bench_pairs.summarise(runs_of(PARENT, change), SPEC)["metrics"]["op_s_p50"]
    assert m["pair_wins"] == {"change": 8, "parent": 0}
    assert m["gain"] is False


def test_gain_needs_the_median_beyond_the_parent_iqr(bench_pairs):
    # Every pair won, but by less than the parent's own spread.
    change = [p - 0.001 for p in PARENT]
    s = bench_pairs.summarise(runs_of(PARENT, change), SPEC)
    for name in ("op_s_p50", "ops_per_s"):
        m = s["metrics"][name]
        assert m["pair_wins"]["change"] == 10
        assert m["gain"] is False
    # The same wins by a margin wider than that spread are a gain.
    change = [p - 0.2 for p in PARENT]
    s = bench_pairs.summarise(runs_of(PARENT, change), SPEC)
    assert s["metrics"]["op_s_p50"]["gain"] is True
    assert s["metrics"]["ops_per_s"]["gain"] is True


def test_wide_spread_is_unresolved_unless_the_sides_are_separated(bench_pairs):
    wide = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    # Interleaved with the parent's runs: unresolved.
    change = [v + 0.1 for v in wide]
    m = bench_pairs.summarise(runs_of(wide, change), SPEC)["metrics"]["op_s_p50"]
    assert max(m["iqr_rel"].values()) > m["bound"]
    assert m["unresolved"] is True
    # Every change run better than every parent run: resolved.
    change = [v / 4.0 for v in wide]
    m = bench_pairs.summarise(runs_of(wide, change), SPEC)["metrics"]["op_s_p50"]
    assert max(m["iqr_rel"].values()) > m["bound"]
    assert m["unresolved"] is False
    # A narrow spread on both sides is resolved whatever the overlap.
    m = bench_pairs.summarise(runs_of(PARENT, PARENT[::-1]), SPEC)["metrics"]["op_s_p50"]
    assert m["unresolved"] is False


@pytest.mark.parametrize(
    "factor, within", [(1.2, True), (1.3, False), (0.7, True)], ids=["worse-20", "worse-30", "better"]
)
def test_within_bound_compares_the_medians_against_the_bound(bench_pairs, factor, within):
    change = [p * factor for p in PARENT]
    s = bench_pairs.summarise(runs_of(PARENT, change), SPEC)
    assert s["metrics"]["op_s_p50"]["within_bound"] is within
    # ops_per_s is the inverse, and higher is better: 1 / 1.3 is 23 % worse.
    assert s["metrics"]["ops_per_s"]["within_bound"] is True


@pytest.mark.parametrize(
    "failed, not_worse", [((1, 1), True), ((2, 1), True), ((1, 2), False), ((10, 10), True)]
)
def test_failed_share_is_compared_per_side(bench_pairs, failed, not_worse):
    s = bench_pairs.summarise(runs_of(PARENT, PARENT, failed=failed), SPEC)
    assert s["parent_failed_share"] == pytest.approx(failed[0] / 10)
    assert s["change_failed_share"] == pytest.approx(failed[1] / 10)
    assert s["failed_share_not_worse"] is not_worse


def test_fewer_than_two_pairs_are_refused_before_any_run(bench_pairs, monkeypatch, tmp_path):
    argv = ["bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "sweep-nonsmooth", "--first-seed", "1", "--pairs", "1",
            "--label", "x"]
    monkeypatch.setattr("sys.argv", argv)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
