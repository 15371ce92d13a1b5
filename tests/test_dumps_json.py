"""dumps_json against the json module: the same bytes as
json.dumps(doc, sort_keys=True, indent=2) + "\\n", on random documents and on
every kind of file the CLI writes."""

import json
import math
import random
from fractions import Fraction

import pytest

from slabsum import cli
from slabsum.instance import (PartitionInstance, SspInstance, SsspInstance, dumps_json,
                              gen_planted, write_instance)


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_CHARS = 'ab"\\/\n\t\r\x00\x1f\x7f é中😀 '
_FLOATS = (0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, math.inf, -math.inf, math.nan)


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _scalar(rng: random.Random):
    pick = rng.randrange(8)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randrange(-10**30, 10**30 + 1)
    if pick == 3:
        return rng.choice((0, 1, -1, 10**30, -10**30))
    if pick == 4:
        return rng.choice(_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    return _text(rng)


def random_doc(rng: random.Random, depth: int = 0):
    """A nested value of dicts, lists and tuples, empty ones included, with
    lists of plain ints and of ints mixed with bools."""
    pick = rng.randrange(9) if depth < 4 else 8
    size = rng.randrange(5)
    if pick == 0:
        return {_text(rng): random_doc(rng, depth + 1) for _ in range(size)}
    if pick == 1:  # keys json converts to strings, one type per dict so they sort
        key = rng.choice((_text, lambda r: r.randrange(-5, 5), lambda r: r.choice(_FLOATS[:6])))
        return {key(rng): random_doc(rng, depth + 1) for _ in range(size)}
    if pick == 2:
        return [random_doc(rng, depth + 1) for _ in range(size)]
    if pick == 3:
        return tuple(random_doc(rng, depth + 1) for _ in range(size))
    if pick == 4:
        return [rng.randrange(-3, 10**20) for _ in range(size)]
    if pick == 5:
        return tuple(rng.choice((0, 1, True, False)) for _ in range(size))
    return _scalar(rng)


def test_random_documents_match_json():
    rng = random.Random(20240607)
    for _ in range(10_000):
        doc = {"doc": random_doc(rng)}
        assert dumps_json(doc) == reference(doc), doc
    assert dumps_json({}) == reference({})
    assert dumps_json({"t": (), "l": [], "d": {}}) == reference({"t": (), "l": [], "d": {}})


def test_plain_int_lists_keep_bool_and_tuple_apart():
    doc = {"x": [1, 0, 1], "b": [True, 0], "t": (1, 2), "n": [(0,), [1, False]]}
    assert dumps_json(doc) == reference(doc)
    assert '"b": [\n    true,\n    0\n  ]' in dumps_json(doc)


def _files(tmp):
    """(name, argv) of each CLI run that writes a file, and the instance
    files it reads."""
    planted = tmp / "planted.json"
    dominated = tmp / "dominated.json"
    odd = tmp / "odd.json"
    ssp = tmp / "ssp.json"
    sssp = tmp / "sssp.json"
    exhausted = tmp / "exhausted.json"
    write_instance(planted, gen_planted(12, 8, seed=3))
    write_instance(dominated, PartitionInstance((7, 9, 11, 13, 8, 100)))
    write_instance(odd, PartitionInstance((3, 4)))
    write_instance(ssp, SspInstance((3, 5, 9), target=8, m=4))
    base = gen_planted(12, 2, seed=5)
    write_instance(sssp, SsspInstance((base.weights, base.weights), rho=Fraction(10),
                                      delta=Fraction(27, 20), m=2, seed=5,
                                      planted_x=base.planted_x))
    write_instance(exhausted, SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)),
                                           rho=Fraction(8), delta=Fraction(1)))
    return [
        ("gen-partition", ["gen", "--n", "10", "--bits", "20", "--planted", "--seed", "1"]),
        ("gen-sssp", ["gen", "--n", "10", "--bits", "3", "--kind", "sssp", "--seed", "7",
                      "--delta", "3/2"]),
        ("ssp", None),
        ("decide-found", ["decide-slab", "--in", str(planted), "--c", "2"]),
        ("decide-empty", ["decide-slab", "--in", str(dominated), "--c", "3"]),
        ("decide-anomaly", ["decide-slab", "--in", str(odd), "--big-n", "10"]),
        ("fptas-found", ["solve-fptas", "--in", str(planted), "--epsilon", "1/48"]),
        ("fptas-empty", ["solve-fptas", "--in", str(dominated), "--epsilon", "1/100"]),
        ("sssp-found", ["solve-sssp", "--in", str(sssp)]),
        ("sssp-exhausted", ["solve-sssp", "--in", str(exhausted)]),
        ("oracle", ["oracle", "--in", str(planted)]),
        ("exact-solved", ["solve-exact", "--in", str(ssp)]),
        ("exact-odd", ["solve-exact", "--in", str(odd)]),
    ], ssp


EXPECTED = {"decide-found": "vertex_found", "decide-anomaly": "vertex_found", "decide-empty": "empty_inner",
            "fptas-found": "vertex_found", "fptas-empty": "empty_inner",
            "sssp-found": True, "sssp-exhausted": False}


def test_every_written_file_matches_json(tmp_path):
    runs, ssp = _files(tmp_path)
    for name, argv in runs:
        out = ssp if argv is None else tmp_path / f"{name}.out.json"
        if argv is not None:
            assert cli.main([*argv, "--out", str(out)]) in (0, 3), name
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == reference(doc) == dumps_json(doc), name
        if name in EXPECTED:
            assert doc.get("verdict", doc.get("found")) == EXPECTED[name], name


@pytest.mark.parametrize("doc", [{"a": {1: "b", 2: [3]}}, {"a": {None: 1}}, {"a": {True: 1}},
                                 {"a": {1: 0, "b": 1}}, {"a": {(1,): 0}}, {"a": object()}])
def test_keys_and_values_json_converts_or_refuses(doc):
    try:
        want = reference(doc)
    except TypeError:
        with pytest.raises(TypeError):
            dumps_json(doc)
    else:
        assert dumps_json(doc) == want
