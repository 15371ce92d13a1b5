"""Workload definitions: instance generators, the fixed instance pool, and
the per-seed pass of operations.

Every input is generated here, from parameters stored in `expected.json`,
without calling the program.  The pool holds several variants per stratum
(one stratum is one instance size or family); `--seed` picks which of them
one pass runs and in what order, so the same seed always gives the same
inputs and every input has a verdict digest recorded from the seed commit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("decide-planted", "decide-empty", "sssp-grid")

# -- generators ----------------------------------------------------------------


def planted_weights(n: int, bits: int, seed: int) -> tuple[list[int], list[int]]:
    """n weights below 2^bits with a balanced 0/1 vector, both shuffled."""
    rng = random.Random(seed)
    half = n // 2
    while True:
        left = [rng.randrange(1, 1 << bits) for _ in range(half)]
        tail = [rng.randrange(1, 1 << bits) for _ in range(half - 1)]
        fix = sum(left) - sum(tail)
        if 1 <= fix < (1 << bits):
            break
    values = left + tail + [fix]
    sides = [1] * half + [0] * half
    order = list(range(n))
    rng.shuffle(order)
    return [values[i] for i in order], [sides[i] for i in order]


def dominated_weights(n: int, lo: int, hi: int, big: int, seed: int) -> list[int]:
    """n-1 weights in [lo, hi) plus one weight near `big` at a random index."""
    rng = random.Random(seed)
    weights = [rng.randrange(lo, hi) for _ in range(n - 1)]
    weights.insert(rng.randrange(n), big + rng.randrange(hi))
    return weights


def random_rows(n: int, bits: int, p: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(1, 1 << bits) for _ in range(n)] for _ in range(p)]


def contradictory_rows(n: int, two_at: int) -> list[list[int]]:
    """All ones against all ones with a single 2: no vertex balances both."""
    second = [1] * n
    second[two_at] = 2
    return [[1] * n, second]


@dataclass(frozen=True)
class Instance:
    """One generated input file and what the benchmark knows about it."""

    key: str
    params: dict
    doc: dict                          # the instance file, in the program's format
    rows: tuple[tuple[int, ...], ...]  # one row for partition instances
    planted: tuple[int, ...] | None    # balanced vector the generator built in
    rho: Fraction | None
    delta: Fraction | None
    expect: str                        # vertex_found | empty_inner | found | exhausted

    @property
    def n(self) -> int:
        return len(self.rows[0])


def _frac_doc(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def make_instance(params: dict) -> Instance:
    kind = params["kind"]
    key = json.dumps(params, sort_keys=True)
    if kind in ("planted", "dominated"):
        planted = None
        if kind == "planted":
            weights, planted = planted_weights(params["n"], params["bits"], params["seed"])
            expect = "vertex_found"
        else:
            weights = dominated_weights(params["n"], params["lo"], params["hi"],
                                        params["big"], params["seed"])
            expect = "empty_inner"
        doc = {"kind": "partition", "weights": [str(w) for w in weights],
               "meta": {"n": len(weights)}}
        return Instance(key, params, doc, (tuple(weights),),
                        tuple(planted) if planted else None, None, None, expect)
    delta = Fraction(params["delta"])
    planted = None
    if kind == "contra":
        rows = contradictory_rows(params["n"], params["two_at"])
        rho = Fraction(params["rho"])
        expect = "exhausted"
    else:
        n = params["n"]
        if kind == "dup":
            row, planted = planted_weights(n, params["bits"], params["seed"])
            rows = [row, list(row)]
        else:
            rows = random_rows(n, params["bits"], 2, params["seed"])
        rho = Fraction(n) / delta
        expect = "found"
    doc = {"kind": "sssp", "weight_rows": [[str(w) for w in row] for row in rows],
           "rho": _frac_doc(rho), "delta": _frac_doc(delta),
           "meta": {"n": len(rows[0])}}
    return Instance(key, params, doc, tuple(tuple(r) for r in rows),
                    tuple(planted) if planted else None, rho, delta, expect)


# -- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `argv` with the instance path filled in at run time."""

    label: str          # names the command and its flags in expected.json
    inst: Instance
    big_n: int | None   # quantization scale of a decision, for rel_error <= 2n/N
    digest: str | None

    def argv(self, path: str) -> list[str]:
        command, *flags = self.label.split()
        return [command, "--in", path, *flags]


def op_labels(inst: Instance) -> list[tuple[str, int | None]]:
    """The commands each instance goes through, with the scale N they use."""
    n = inst.n
    kind = inst.params["kind"]
    if kind == "planted":
        # solve-fptas picks N = max(n^2, ceil(n/epsilon)) = 4n^2 at epsilon = 1/(4n)
        return [("decide-slab --c 2", n * n), (f"solve-fptas --epsilon 1/{4 * n}", 4 * n * n)]
    if kind == "dominated":
        return [("decide-slab --c 3", n ** 3)]
    return [("solve-sssp", None)]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def selection_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def build_pass(workload: str, seed: int, smoke: bool, expected: dict) -> list[Op]:
    """The operations of one pass over the seed's instances, in run order."""
    pool = expected["pools"]["smoke" if smoke else "full"][workload]
    rng = selection_rng(workload, seed)
    chosen: list[dict] = []
    for stratum in pool:
        chosen.extend(rng.sample(stratum["variants"], stratum["take"]))
    ops = []
    for entry in chosen:
        inst = make_instance(entry["params"])
        for label, big_n in op_labels(inst):
            ops.append(Op(label, inst, big_n, entry["digests"].get(label)))
    rng.shuffle(ops)
    return ops


def write_inputs(ops: list[Op], work: Path) -> dict[str, str]:
    """Write each distinct instance once; returns instance key -> file path."""
    paths: dict[str, str] = {}
    for op in ops:
        if op.inst.key in paths:
            continue
        path = work / f"in{len(paths)}.json"
        path.write_text(json.dumps(op.inst.doc, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        paths[op.inst.key] = str(path)
    return paths
