"""The benchmark's own tests, on the tiny smoke inputs (never used for claims)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--smoke"])
    return run.run(args)


def test_benchmark_json_names_what_the_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_passes_the_gate(workload, trace):
    result = smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace:
        assert result["metrics"]["dp.tables"]["value"] > 0


def first_op(workload: str, expect: str):
    ops = workloads.build_pass(workload, 3, True, workloads.load_expected())
    return next(op for op in ops if op.inst.expect == expect)


@pytest.mark.parametrize("workload, expect", [("decide-planted", "vertex_found"),
                                              ("sssp-grid", "found")])
def test_gate_fails_a_corrupted_verdict(tmp_path, workload, expect):
    cli, oracle, _ = run.load_program()
    op = first_op(workload, expect)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(op.inst.doc), encoding="utf-8")
    _, code, text, _ = run.run_op(cli, op.argv(str(path)))
    assert code == 0
    assert gate.check_verdict(op, text, True) == []

    doc = json.loads(text)
    doc["x"][0] ^= 1
    corrupted = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    problems = gate.check_verdict(op, corrupted, True)
    assert "verdict bytes differ from the recorded digest" in problems
    assert len(problems) >= 2  # the exact re-check fails too, not only the digest

    assert gate.check_verdict(op, text + " ", True) == \
        ["verdict bytes differ from the recorded digest"]
    assert gate.check_verdict(op, text, False) == \
        ["set-up did not confirm the expected verdict"]


def test_exhausted_system_is_confirmed_by_the_oracle():
    _, oracle, _ = run.load_program()
    op = first_op("sssp-grid", "exhausted")
    assert gate.precheck(op.inst, oracle.min_vertex_L0)
    looser = workloads.make_instance(dict(op.inst.params, rho="1"))
    assert not gate.precheck(looser, oracle.min_vertex_L0)


def test_repeated_counts_must_match():
    bench = run.Run(None, None, None, None)
    totals = bench.check_counts([(0, {"dp.tables": 3, "dp.max_row_bits": 9}),
                                 (1, {"dp.tables": 2, "dp.max_row_bits": 7}),
                                 (0, {"dp.tables": 3, "dp.max_row_bits": 9})])
    assert bench.errors == []
    assert totals["dp.tables"] == 5 and totals["dp.max_row_bits"] == 9
    bench.check_counts([(0, {"dp.tables": 3}), (0, {"dp.tables": 4})])
    assert bench.errors == ["count metrics of operation 0 changed between runs"]


def test_missing_name_is_reported_absent(monkeypatch):
    run.load_program()
    import slabsum.sssp
    monkeypatch.delattr(slabsum.sssp, "cross_sum")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["sssp.cross_sum"]
    assert tracer.absent_metrics() == {"sssp.cross_sum_ms", "sssp.cross_sum_calls"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sssp-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
