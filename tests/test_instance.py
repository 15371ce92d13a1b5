import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slabsum import cli
from slabsum.instance import (ParseError, PartitionInstance, SspInstance,
                              SsspInstance, dumps_instance, gen_planted,
                              gen_random, gen_sssp_random, loads_instance,
                              read_instance, write_instance)
from slabsum.oracle import enumerate_partition


def test_gen_random_range_contract():
    inst = gen_random(4, 3, seed=7)
    assert inst.n == 4
    assert all(1 <= w < 8 for w in inst.weights)


def test_gen_random_single_value_range():
    assert gen_random(1, 1, seed=0).weights == (1,)


def test_gen_random_deterministic():
    assert gen_random(9, 6, seed=42) == gen_random(9, 6, seed=42)
    assert gen_random(9, 6, seed=42) != gen_random(9, 6, seed=43)


def test_gen_planted_pairs_for_n2():
    inst = gen_planted(2, 4, seed=1)
    assert inst.weights[0] == inst.weights[1]


def test_gen_planted_solution_exact():
    for seed in range(20):
        inst = gen_planted(10, 5, seed=seed)
        assert inst.total % 2 == 0
        hit = sum(w for w, b in zip(inst.weights, inst.planted_x) if b)
        assert 2 * hit == inst.total


def test_gen_planted_rejects_odd_n():
    with pytest.raises(ValueError):
        gen_planted(5, 4, seed=0)


def test_planted_instance_confirmed_by_enumeration():
    inst = gen_planted(12, 6, seed=3)
    report = enumerate_partition(inst)
    assert report.count >= 1
    assert report.min_distance_sq == 0


def test_instance_validation():
    with pytest.raises(ValueError):
        PartitionInstance(())
    with pytest.raises(ValueError):
        PartitionInstance((0, 1))
    with pytest.raises(ValueError):
        PartitionInstance((8,), m=3)
    with pytest.raises(ValueError):
        SspInstance((1, 2), target=9)
    with pytest.raises(ValueError):
        SsspInstance(((1, 2, 3), (1, 2, 3), (1, 2, 3)), rho=1, delta=1)  # p not a power of two
    with pytest.raises(ValueError):
        SsspInstance(((1, 2), (2, 1)), rho=1, delta=1)  # p == n


# constructors check the type of each entry instead of converting it; the
# messages name the entry, as the file reader's do
WRONG_TYPES = [
    (lambda: PartitionInstance((2.5, 3)), "weights[0] = 2.5 is not an int"),
    (lambda: PartitionInstance((1, 1), planted_x=(0.9, 1.2)), "planted_x[0] = 0.9 is not an int"),
    (lambda: PartitionInstance(("7", True)), "weights[0] = '7' is not an int"),
    (lambda: PartitionInstance((7, True)), "weights[1] = True is not an int"),
    (lambda: SspInstance((1, 2), target=1.0), "target = 1.0 is not an int"),
    (lambda: SsspInstance(((1, 2, 3), (1, 2.0, 3)), rho=3, delta=1),
     "weight_rows[1][1] = 2.0 is not an int"),
]


@pytest.mark.parametrize("build, message", WRONG_TYPES, ids=[m for _, m in WRONG_TYPES])
def test_constructors_reject_entries_that_are_not_ints(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_round_trip_partition(tmp_path):
    inst = gen_planted(8, 4, seed=11)
    path = tmp_path / "a.json"
    write_instance(path, inst)
    assert read_instance(path) == inst


def test_round_trip_ssp_and_sssp(tmp_path):
    ssp = SspInstance((5, 9, 14), target=14, m=4)
    back = loads_instance(dumps_instance(ssp))
    assert back == ssp

    sssp = gen_sssp_random(6, 3, 2, seed=4, delta=Fraction(3, 2))
    path = tmp_path / "s.json"
    write_instance(path, sssp)
    again = read_instance(path)
    assert again == sssp
    assert again.rho == Fraction(6) / Fraction(3, 2)


def test_sssp_row_norms_are_set_at_construction():
    # set by the constructor, not cached on first read (see __post_init__)
    inst = SsspInstance(((3, 4, 12), (1, 2, 2)), rho=Fraction(5), delta=Fraction(1))
    assert "row_norms_sq" in vars(inst)
    assert inst.row_norms_sq == (169, 9)


def test_big_weight_survives_round_trip():
    w = int("999999999999999999999999")
    inst = PartitionInstance((w, 3))
    assert loads_instance(dumps_instance(inst)).weights[0] == w


def test_missing_weights_key():
    with pytest.raises(ParseError, match="weights"):
        loads_instance('{"kind": "partition", "meta": {}}')


def test_malformed_weight_reports_location():
    with pytest.raises(ParseError, match=r"weights\[1\]"):
        loads_instance('{"kind": "partition", "weights": ["3", "x"]}')


def test_non_string_integer_rejected():
    with pytest.raises(ParseError, match="decimal string"):
        loads_instance('{"kind": "partition", "weights": [3, 4]}')


def test_unknown_kind():
    with pytest.raises(ParseError, match="kind"):
        loads_instance('{"kind": "mystery", "weights": ["1"]}')


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError):
        loads_instance("{not json")


SSSP_OVER_M = {"kind": "sssp", "weight_rows": [["1000", "1", "1"]], "meta": {"m": 2},
               "rho": {"num": "8", "den": "1"}, "delta": {"num": "1", "den": "1"}}

MALFORMED = [
    ({"kind": "partition", "weights": "123"}, "weights: expected a list"),
    ({"kind": "partition", "weights": [" 7"]}, r"weights\[0\]: not a decimal"),
    ({"kind": "partition", "weights": ["4_0"]}, r"weights\[0\]: not a decimal"),
    ({"kind": "partition", "weights": ["+3"]}, r"weights\[0\]: not a decimal"),
    ({"kind": "partition", "weights": ["\u0663"]}, r"weights\[0\]: not a decimal"),
    ({"kind": "partition", "weights": ["3"], "meta": {"m": "x"}}, "meta.m: expected an integer"),
    ({"kind": "partition", "weights": ["3"], "meta": {"m": True}}, "meta.m: expected an integer"),
    ({"kind": "partition", "weights": ["3"], "meta": {"m": 0}}, "meta.m: must be at least 1"),
    ({"kind": "partition", "weights": ["3"], "meta": {"planted_x": 5}}, "meta.planted_x: expected a list"),
    ({"kind": "partition", "weights": ["3"], "meta": {"planted_x": [2]}}, "planted_x must be 0/1"),
    ({"kind": "partition", "weights": ["3"], "meta": {"seed": 1.5}}, "meta.seed: expected an integer"),
    ({"kind": "partition", "weights": ["0"]}, "must be >= 1"),
    ({"kind": "ssp", "weights": ["3"], "target": "9"}, "target outside"),
    ({"kind": "sssp", "weight_rows": "12", "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "1"}}, "weight_rows: expected a list"),
    ({"kind": "sssp", "weight_rows": ["12"], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "1"}}, r"weight_rows\[0\]: expected a list"),
    ({"kind": "sssp", "weight_rows": [], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "1"}}, "at least one row"),
    ({"kind": "sssp", "weight_rows": [["1", "2"]], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "1"}, "meta": {"planted_x": [5]}}, "planted_x length"),
    (SSSP_OVER_M, r"weight_rows\[0\]\[0\] = 1000 exceeds 2 bits"),
    ({"kind": "partition", "weights": ["3", "4", "5"], "meta": {"n": 7}}, "meta.n: 7 does not"),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]], "rho": "5",
      "delta": {"num": "1", "den": "1"}}, "rho: expected an object with num/den"),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]], "rho": {"den": "1"},
      "delta": {"num": "1", "den": "1"}}, 'rho: missing "num"'),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "0"}}, "delta: zero denominator"),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]],
      "delta": {"num": "1", "den": "1"}}, 'missing "rho"'),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]],
      "rho": {"num": "1", "den": "1"}}, 'missing "delta"'),
    ({"kind": "ssp", "weights": ["1", "2"]}, 'missing "target"'),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"], ["1", "2"]], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "1", "den": "1"}}, r"weight_rows\[1\] has length 2, expected 3"),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]], "rho": {"num": "0", "den": "1"},
      "delta": {"num": "1", "den": "1"}}, "rho must be positive"),
    ({"kind": "sssp", "weight_rows": [["1", "2", "3"]], "rho": {"num": "1", "den": "1"},
      "delta": {"num": "0", "den": "1"}}, "delta must be positive"),
]


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_malformed_shapes_are_parse_errors(doc, message, tmp_path, capsys):
    with pytest.raises(ParseError, match=message):
        loads_instance(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["decide-slab", "--in", str(path), "--c", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slabsum: error: ") and "Traceback" not in err


# Each list the parser reads in one pass (weights, each weight_rows[i] and
# meta.planted_x) with one faulty entry; the messages are those of the
# per-entry parser, which names the first entry at fault.
_RATIONAL = {"num": "8", "den": "1"}


def _weights_doc(entry, index=1, size=3):
    weights = ["1"] * size
    weights[index] = entry
    return {"kind": "partition", "weights": weights, "meta": {"m": 3}}


def _row_doc(entry, index=2, size=4):
    row = ["1"] * size
    row[index] = entry
    return {"kind": "sssp", "weight_rows": [["1"] * size, row], "meta": {"m": 3},
            "rho": _RATIONAL, "delta": _RATIONAL}


def _planted_doc(entry, index=1, size=3):
    planted = [0] * size
    planted[index] = entry
    return {"kind": "partition", "weights": ["1"] * size, "meta": {"planted_x": planted}}


_ENTRY_FAULTS = [
    (3, "{}: expected a decimal string, got int"),
    (None, "{}: expected a decimal string, got NoneType"),
    ("", "{}: not a decimal integer: ''"),
    ("+3", "{}: not a decimal integer: '+3'"),
    (" 7", "{}: not a decimal integer: ' 7'"),
    ("4_0", "{}: not a decimal integer: '4_0'"),
    ("\u0663", "{}: not a decimal integer: '\u0663'"),
    ("-3", "{} = -3 must be >= 1"),
    ("0", "{} = 0 must be >= 1"),
    ("9", "{} = 9 exceeds 3 bits"),
]

PARSE_ERRORS = [
    *[(_weights_doc(entry), message.format("weights[1]")) for entry, message in _ENTRY_FAULTS],
    *[(_row_doc(entry), message.format("weight_rows[1][2]")) for entry, message in _ENTRY_FAULTS],
    (_planted_doc("1"), "meta.planted_x[1]: expected an integer, got str"),
    (_planted_doc(True), "meta.planted_x[1]: expected an integer, got bool"),
    (_planted_doc(1.0), "meta.planted_x[1]: expected an integer, got float"),
    (_planted_doc(None), "meta.planted_x[1]: expected an integer, got NoneType"),
    (_planted_doc(2), "planted_x must be 0/1"),
    (_planted_doc(-1), "planted_x must be 0/1"),
    # a fault at the last of 512 entries
    (_weights_doc("x", 511, 512), "weights[511]: not a decimal integer: 'x'"),
    (_weights_doc("9", 511, 512), "weights[511] = 9 exceeds 3 bits"),
    (_row_doc("+1", 511, 512), "weight_rows[1][511]: not a decimal integer: '+1'"),
    (_planted_doc(False, 511, 512), "meta.planted_x[511]: expected an integer, got bool"),
    (_planted_doc(2, 511, 512), "planted_x must be 0/1"),
    # meta.n, when given, is an integer equal to the weight count
    ({"kind": "partition", "weights": ["3", "4", "5"], "meta": {"n": 7}},
     "meta.n: 7 does not match the 3 weights"),
    ({"kind": "partition", "weights": ["3", "4", "5"], "meta": {"n": "x"}},
     "meta.n: expected an integer, got str"),
    ({"kind": "partition", "weights": ["3"], "meta": {"n": True}},
     "meta.n: expected an integer, got bool"),
    ({"kind": "ssp", "weights": ["3", "4"], "target": "3", "meta": {"n": 3}},
     "meta.n: 3 does not match the 2 weights"),
    ({**_row_doc("1"), "meta": {"n": 2}}, "meta.n: 2 does not match the 4 weights per row"),
]


@pytest.mark.parametrize("doc, message", PARSE_ERRORS)
def test_parse_error_names_the_entry(doc, message):
    with pytest.raises(ParseError) as caught:
        loads_instance(json.dumps(doc))
    assert str(caught.value) == message


def test_sssp_rows_over_m_bits_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(SSSP_OVER_M))
    assert cli.main(["solve-sssp", "--in", str(path)]) == 1
    assert "weight_rows[0][0]" in capsys.readouterr().err


def test_deeply_nested_json_is_parse_error():
    with pytest.raises(ParseError):
        loads_instance("[" * 100_000 + "]" * 100_000)


# -- fuzzing: every JSON value loads or raises ParseError ---------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_decimals = (st.integers(min_value=-3, max_value=3000).map(str)
             | st.integers(min_value=10**300, max_value=10**320).map(str)
             | st.sampled_from([" 7", "4_0", "+3", "1e3", "", "\u0663", "0x10"]))
_fractions = st.fixed_dictionaries({"num": _decimals, "den": _decimals}) | _json_values
_meta = st.fixed_dictionaries({}, optional={
    "m": st.integers(min_value=-2, max_value=40) | _json_values,
    "seed": st.integers() | _json_values,
    "planted_x": st.lists(st.integers(min_value=-1, max_value=2), max_size=8) | _json_values,
    "n": st.integers(min_value=0, max_value=8) | _json_values,
})
_rows = st.lists(st.lists(_decimals, min_size=1, max_size=8), max_size=4)
_instance_like = st.fixed_dictionaries(
    {"kind": st.sampled_from(["partition", "ssp", "sssp", "other"]) | _json_values},
    optional={
        "weights": st.lists(_decimals, max_size=8) | _json_values,
        "target": _decimals | _json_values,
        "weight_rows": _rows | _json_values,
        "rho": _fractions,
        "delta": _fractions,
        "meta": _meta | _json_values,
    },
)
_weight = (st.integers(min_value=1, max_value=3000).map(str)
           | st.integers(min_value=10**300, max_value=10**310).map(str))


@st.composite
def _valid_like(draw):
    """Mostly well-formed instances, so the solvers behind the CLI run too."""
    kind = draw(st.sampled_from(["partition", "ssp", "sssp"]))
    meta = draw(st.fixed_dictionaries({}, optional={
        "m": st.integers(min_value=1, max_value=16), "seed": st.integers(0, 99)}))
    if kind == "sssp":
        p = draw(st.sampled_from([1, 2]))
        n = draw(st.integers(min_value=p + 1, max_value=7))
        rows = [draw(st.lists(_weight, min_size=n, max_size=n)) for _ in range(p)]
        return {"kind": kind, "weight_rows": rows, "meta": meta,
                "rho": {"num": str(draw(st.integers(1, 20))), "den": "1"},
                "delta": {"num": str(draw(st.integers(1, 2))), "den": "1"}}
    weights = draw(st.lists(_weight, min_size=1, max_size=8))
    doc = {"kind": kind, "weights": weights, "meta": meta}
    if kind == "ssp":
        doc["target"] = str(draw(st.integers(0, sum(int(w) for w in weights))))
    elif draw(st.booleans()):
        meta["planted_x"] = draw(st.lists(st.integers(0, 1), min_size=len(weights),
                                          max_size=len(weights)))
    return doc


ANY_DOC = _json_values | _instance_like | _valid_like()


@settings(max_examples=400, deadline=None)
@given(ANY_DOC)
def test_any_json_loads_or_raises_parse_error(doc):
    try:
        inst = loads_instance(json.dumps(doc))
    except ParseError:
        return
    assert loads_instance(dumps_instance(inst)) == inst


COMMANDS = (
    ["decide-slab", "--c", "2"],
    ["solve-fptas", "--epsilon", "1/4"],
    ["solve-exact"],
    ["solve-sssp", "--leaf-budget", "100000"],
    ["oracle", "--cap", "10"],
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=ANY_DOC, command=st.sampled_from(COMMANDS))
def test_cli_exit_code_on_any_json(doc, command, tmp_path, monkeypatch):
    # a small budget keeps every accepted instance quick
    monkeypatch.setenv("SLABSUM_BUDGET_CELLS", "1000000")
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, "--in", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
