"""ab_perfbench's summary of alternating perfbench pairs, on synthetic runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def ab():
    sys.path.insert(0, str(_SCRIPTS))  # ab_perfbench imports benchlib
    try:
        spec = importlib.util.spec_from_file_location("ab_perfbench", _SCRIPTS / "ab_perfbench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_SCRIPTS))
    return module


SPEC = {"end_to_end": [
    {"name": "op_ms.p50", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]}


def runs_of(workload, before, after, name="op_ms.p50"):
    """Synthetic runs: pair i has before[i] and after[i] for name."""
    out = []
    for pair, (b, a) in enumerate(zip(before, after)):
        for tree, value in (("before", b), ("after", a)):
            out.append({"workload": workload, "pair": pair, "tree": tree,
                        "metrics": {name: {"value": value, "unit": "ms"}}})
    return out


def test_medians_quartiles_wins_and_bound_share(ab):
    before = [1.0, 1.2, 0.9, 1.1, 1.0]
    after = [0.7, 0.8, 0.95, 0.6, 0.7]
    [row] = ab.summarize(runs_of("w", before, after), SPEC)
    assert row["pairs"] == 5
    assert row["before"] == 1.0 and row["after"] == 0.7
    # statistics.quantiles(n=4), exclusive method: Q1 0.95, Q3 1.15
    assert row["before_iqr"] == pytest.approx([0.95, 1.15])
    assert row["after_iqr"] == pytest.approx([0.65, 0.875])
    assert row["wins"] == 4  # pair 2: 0.95 against 0.9 is a loss
    assert row["change"] == pytest.approx(-0.3)
    assert row["bound_share"] == pytest.approx(-1.2)
    assert row["gap_over_iqr"]  # 0.3 > 1.15 - 0.95


def test_higher_is_better_flips_wins_and_share(ab):
    runs = runs_of("w", [100, 100, 100], [110, 90, 130], name="ops_per_s")
    [row] = ab.summarize(runs, SPEC)
    assert row["wins"] == 2
    assert row["change"] == pytest.approx(0.1)
    assert row["bound_share"] == pytest.approx(-0.4)  # better, so negative
    assert row["before_iqr"] == [100, 100] and row["gap_over_iqr"]


def test_a_change_past_its_bound_reads_a_share_above_one(ab):
    [row] = ab.summarize(runs_of("w", [1.0, 1.0], [1.3, 1.3]), SPEC)
    assert row["wins"] == 0
    assert row["bound_share"] == pytest.approx(1.2)
    text = ab.format_rows([row], "HEAD^")
    assert "HEAD^ median" in text and "+30.0%" in text and "+1.20" in text


def test_unpaired_runs_and_workloads_are_kept_apart(ab):
    runs = runs_of("a", [1.0, 2.0], [1.0, 1.0]) + runs_of("b", [5.0], [4.0])
    runs.append({"workload": "a", "pair": 7, "tree": "after",
                 "metrics": {"op_ms.p50": {"value": 0.1, "unit": "ms"}}})
    rows = {r["workload"]: r for r in ab.summarize(runs, SPEC)}
    assert rows["a"]["pairs"] == 2 and rows["a"]["after"] == 1.0
    assert rows["a"]["wins"] == 1  # a tie is no win
    assert rows["b"]["before_iqr"] == [5.0, 5.0]


def test_a_run_counts_only_when_correct_with_nothing_failed(ab):
    assert ab.run_ok({"correct": True, "failed": 0})
    assert not ab.run_ok({"correct": True, "failed": 1})
    assert not ab.run_ok({"correct": False, "failed": 0})
