import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slabsum import cli
from slabsum.instance import (PartitionInstance, SsspInstance, gen_planted,
                              read_instance, write_instance)


def run(argv):
    return cli.main(argv)


def test_gen_then_solve_fptas(tmp_path, capsys):
    inst_path = tmp_path / "a.json"
    out_path = tmp_path / "v.json"
    assert run(["gen", "--n", "12", "--bits", "8", "--planted", "--seed", "3",
                "--out", str(inst_path)]) == 0
    code = run(["solve-fptas", "--in", str(inst_path), "--epsilon", "1/10",
                "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "vertex_found"
    rel = Fraction(int(doc["rel_error"]["num"]), int(doc["rel_error"]["den"]))
    assert rel <= Fraction(2, 10)
    assert code == (3 if doc["anomaly"] else 0)


def test_oracle_command(tmp_path):
    inst_path = tmp_path / "a.json"
    out_path = tmp_path / "o.json"
    write_instance(inst_path, gen_planted(10, 4, seed=1))
    assert run(["oracle", "--in", str(inst_path), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["count"] >= 2
    assert doc["min_distance_sq"] == {"num": "0", "den": "1"}


def test_oracle_cap_is_budget_exit(tmp_path):
    inst_path = tmp_path / "a.json"
    write_instance(inst_path, PartitionInstance((1,) * 12))
    assert run(["oracle", "--in", str(inst_path), "--cap", "8"]) == 2


def test_solve_exact_ssp_and_partition(tmp_path, capsys):
    from slabsum.instance import SspInstance

    p = tmp_path / "s.json"
    write_instance(p, SspInstance((3, 5, 9), target=8))
    assert run(["solve-exact", "--in", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solved"] and doc["x"] == [1, 1, 0]

    q = tmp_path / "p.json"
    write_instance(q, PartitionInstance((1, 2)))  # odd total
    assert run(["solve-exact", "--in", str(q)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["solved"]


def test_decide_slab_anomaly_exit_code(tmp_path):
    p = tmp_path / "deg.json"
    write_instance(p, PartitionInstance((3, 4)))
    # exactly parallel quantization with an off-center hit: exit 3
    assert run(["decide-slab", "--in", str(p), "--big-n", "10"]) == 3


def test_decide_slab_excludes_both_scales(tmp_path, capsys):
    p = tmp_path / "x.json"
    write_instance(p, PartitionInstance((3, 4)))
    assert run(["decide-slab", "--in", str(p), "--c", "2", "--big-n", "10"]) == 1


def test_budget_exit_code(tmp_path, monkeypatch):
    p = tmp_path / "b.json"
    write_instance(p, gen_planted(12, 8, seed=0))
    monkeypatch.setenv("SLABSUM_BUDGET_CELLS", "100")
    assert run(["decide-slab", "--in", str(p), "--c", "2"]) == 2


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_malformed_budget_env_is_a_one_line_usage_error(tmp_path, monkeypatch, capsys, value):
    p = tmp_path / "b.json"
    write_instance(p, gen_planted(12, 8, seed=0))
    monkeypatch.setenv("SLABSUM_BUDGET_CELLS", value)
    assert run(["decide-slab", "--in", str(p), "--c", "2"]) == 1
    err = capsys.readouterr().err
    assert err == ("slabsum: error: SLABSUM_BUDGET_CELLS must be an integer at least 0, "
                   f"got {value!r}\n"), err


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, slabsum.cli; print('numpy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def test_solve_sssp_command(tmp_path):
    base = gen_planted(12, 2, seed=5)
    inst = SsspInstance((base.weights, base.weights), rho=Fraction(10),
                        delta=Fraction(27, 20), m=2, seed=5,
                        planted_x=base.planted_x)
    p = tmp_path / "ss.json"
    out = tmp_path / "res.json"
    write_instance(p, inst)
    assert run(["solve-sssp", "--in", str(p), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["found"]
    assert doc["L0"] == {"num": "0", "den": "1"}
    assert doc["curvature_term"] == {"num": "3", "den": "20"}


def test_gen_sssp_kind(tmp_path):
    p = tmp_path / "g.json"
    assert run(["gen", "--n", "10", "--bits", "3", "--kind", "sssp", "--p", "2",
                "--delta", "2", "--seed", "7", "--out", str(p)]) == 0
    inst = read_instance(p)
    assert isinstance(inst, SsspInstance)
    assert inst.p == 2 and inst.n == 10
    assert inst.rho == Fraction(10, 2)


@pytest.mark.parametrize("flag, value, message", [
    ("--delta", "0", "delta must be positive"),
    ("--delta", "-1", "delta must be positive"),
    ("--eps-b", "nan", "eps_b must be finite and positive"),
    ("--eps-b", "inf", "eps_b must be finite and positive"),
    ("--eps-b", "0", "eps_b must be finite and positive"),
    ("--eps-b", "1e-320", "eps_b 1e-320 is too small"),
    ("--c", "-1", "c must be at least 1"),
    ("--c", "0", "c must be at least 1"),
    ("--leaf-budget", "-1", "--leaf-budget must be at least 0"),
])
def test_bad_sssp_numbers_are_one_line_usage_errors(tmp_path, capsys, flag, value, message):
    inst_path = tmp_path / "s.json"
    gen = ["gen", "--n", "10", "--bits", "3", "--kind", "sssp", "--out", str(inst_path)]
    if flag == "--delta":
        argv = gen + [f"--delta={value}"]
    else:
        assert run(gen) == 0
        argv = ["solve-sssp", "--in", str(inst_path), f"{flag}={value}"]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(f"slabsum: error: {message}"), err
    assert inst_path.exists() == (flag != "--delta")


def test_usage_errors(tmp_path, capsys):
    assert run(["decide-slab", "--in", str(tmp_path / "missing.json"), "--c", "2"]) == 1
    assert run(["no-such-command"]) == 1
    inst_path = tmp_path / "a.json"
    write_instance(inst_path, gen_planted(4, 3, seed=0))
    for bad in ("0", "-2", "two"):
        assert run(["decide-slab", "--in", str(inst_path), "--c", "2",
                    "--threads", bad]) == 1
        assert run(["solve-fptas", "--in", str(inst_path), "--epsilon", "1/4",
                    "--threads", bad]) == 1
    assert run(["decide-slab", "--in", str(inst_path), "--c", "2", "--threads", "3",
                "--out", str(tmp_path / "v.json")]) in (0, 3)
    capsys.readouterr()
    assert run(["oracle", "--in", str(inst_path), "--cap", "-1"]) == 1
    assert capsys.readouterr().err == "slabsum: error: --cap must be at least 0, got -1\n"
    # --p is checked as given, not as the row count the generator builds from it
    gen_out = tmp_path / "s.json"
    for bad in ("-2", "0"):
        assert run(["gen", "--kind", "sssp", "--p", bad, "--n", "6", "--bits", "4",
                    "--out", str(gen_out)]) == 1
        assert f"argument --p: must be at least 1, got {bad}\n" in capsys.readouterr().err
    assert run(["gen", "--kind", "sssp", "--p", "3", "--n", "6", "--bits", "4",
                "--out", str(gen_out)]) == 1
    assert capsys.readouterr().err == "slabsum: error: p = 3 must be a power of two\n"
    assert not gen_out.exists()
    # sweeps that would measure nothing are refused before any instance is built
    out = tmp_path / "bench.csv"
    for bad in (["--n", ","], ["--n", "16,24", "--repeats", "0"]):
        assert run(["bench", *bad, "--bits", "6", "--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()
    # each refusal below exits 1 with its one message, on stderr
    sssp_path = tmp_path / "sssp.json"
    write_instance(sssp_path, SsspInstance(((1, 2, 3), (3, 2, 1)), rho=Fraction(3),
                                           delta=Fraction(1)))
    refusals = [
        (["gen", "--kind", "sssp", "--n", "6", "--bits", "0"], "need n >= 1 and m >= 1"),
        (["gen", "--n", "6", "--bits", "0"], "need n >= 1 and m >= 1"),
        (["gen", "--planted", "--n", "4", "--bits", "0"], "need m >= 1"),
        (["gen", "--kind", "sssp", "--n", "6", "--bits", "4", "--rho", "abc"],
         "argument --rho: not a rational number: 'abc'"),
        (["bench", "--n", "1,x", "--bits", "6"],
         "argument --n: not a comma-separated integer list: '1,x'"),
        (["decide-slab", "--in", str(inst_path), "--big-n", "0"], "N must be positive"),
        (["solve-exact", "--in", str(sssp_path)], "solve-exact needs an ssp or partition instance"),
        (["solve-sssp", "--in", str(inst_path)], "solve-sssp needs an sssp instance"),
        (["oracle", "--in", str(sssp_path)], "oracle needs a partition instance"),
    ]
    for argv, message in refusals:
        assert run([*argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err and "Traceback" not in err, (argv, err)
        assert not out.exists()


def test_over_long_weight_is_named_by_its_digit_count(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"kind": "partition", "weights": ["2", "1" * (limit + 700)]}))
    assert run(["decide-slab", "--in", str(path), "--c", "2"]) == 1
    assert capsys.readouterr().err == (f"slabsum: error: weights[1]: {limit + 700} digits, "
                                       f"above the {limit}-digit limit\n")


def test_gen_refuses_bits_beyond_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    widest = (10 ** limit).bit_length() - 1  # 2^widest - 1 has limit digits
    out = tmp_path / "g.json"
    for kind in ("partition", "sssp"):
        assert run(["gen", "--n", "4", "--bits", "20000", "--kind", kind, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"slabsum: error: --bits 20000 is above {widest}, the widest weight "
                       f"within the {limit}-digit limit\n"), err
        assert not out.exists()
    assert run(["gen", "--n", "2", "--bits", str(widest), "--planted", "--out", str(out)]) == 0
    assert read_instance(out).m == widest  # the widest weights still round-trip


def test_bench_command_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n", "16,24", "--c", "2", "--repeats", "1",
                "--bits", "6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,N,c,wall_ms,targets_scanned,table_cells"
    assert len(lines) == 3
    report = json.loads(capsys.readouterr().out)
    assert "slope" in report


def test_bench_budget_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("SLABSUM_BUDGET_CELLS", "10")
    out = tmp_path / "bench.csv"
    assert run(["bench", "--n", "16,24", "--repeats", "1", "--bits", "6",
                "--out", str(out)]) == 2
    assert not out.exists()


def test_solve_sssp_budget_exit_code(tmp_path, monkeypatch):
    p = tmp_path / "ss.json"
    write_instance(p, SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(8),
                                   delta=Fraction(1)))
    monkeypatch.setenv("SLABSUM_BUDGET_CELLS", "10")
    assert run(["solve-sssp", "--in", str(p)]) == 2


def test_exhausted_sssp_builds_its_geometry_once(tmp_path, monkeypatch):
    from slabsum import sssp

    inst = SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(8), delta=Fraction(1))
    want = json.dumps(sssp.result_to_json(None, curvature=sssp.curvature_term(inst),
                                          grid_size=sssp.grid_cardinality(inst)),
                      sort_keys=True, indent=2) + "\n"
    calls = []
    build_shells = sssp.build_shells
    monkeypatch.setattr(sssp, "build_shells", lambda i: calls.append(i) or build_shells(i))
    p = tmp_path / "ss.json"
    out = tmp_path / "res.json"
    write_instance(p, inst)
    assert run(["solve-sssp", "--in", str(p), "--out", str(out)]) == 0
    assert out.read_text() == want
    assert json.loads(want)["found"] is False
    assert len(calls) == 1


def test_repeated_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; every call must still behave as
    # the first call of a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    part = tmp_path / "p.json"
    write_instance(part, gen_planted(8, 4, seed=3))
    ss = tmp_path / "s.json"
    ones = gen_planted(4, 1, seed=0)
    write_instance(ss, SsspInstance((ones.weights, ones.weights), rho=Fraction(4),
                                    delta=Fraction(1)))
    # (argv, output file name or None); usage errors, --threads 0 and
    # --c with --big-n included
    calls = [
        (["decide-slab", "--in", str(part), "--c", "2"], None),
        (["decide-slab", "--in", str(part), "--c", "2", "--big-n", "10"], None),
        (["solve-fptas", "--in", str(part), "--epsilon", "1/8", "--threads", "2"], None),
        (["decide-slab", "--in", str(part), "--c", "2", "--threads", "0"], None),
        (["solve-sssp", "--in", str(ss)], None),
        (["no-such-command"], None),
        (["oracle", "--in", str(part)], None),
        ([], None),
        (["decide-slab", "--in", str(tmp_path / "missing.json"), "--c", "2"], None),
        (["gen", "--n", "6", "--bits", "3", "--seed", "1", "--out"], "g.json"),
        (["solve-exact", "--in", str(part)], None),
        (["decide-slab", "--help"], None),
        (["decide-slab", "--in", str(part), "--big-n", "100"], None),
    ]

    def in_process(argv, out):
        if out:
            argv = argv + [str(tmp_path / f"in-{out}")]
        code = cli.main(argv)
        captured = capsys.readouterr()
        written = (tmp_path / f"in-{out}").read_bytes() if out else b""
        return code, captured.out.encode(), captured.err.encode(), written

    def fresh(argv, out):
        if out:
            argv = argv + [str(tmp_path / f"fresh-{out}")]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "slabsum.cli", *argv], env=env,
                              capture_output=True, timeout=120, check=False)
        written = (tmp_path / f"fresh-{out}").read_bytes() if out else b""
        return proc.returncode, proc.stdout, proc.stderr, written

    expected = [fresh(argv, out) for argv, out in calls]
    assert [r[0] for r in expected] == [0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0]
    for order in (range(len(calls)), reversed(range(len(calls))), range(len(calls))):
        for i in order:
            assert in_process(*calls[i]) == expected[i], calls[i][0]
