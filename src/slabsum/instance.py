"""Problem instances, seeded generators, and JSON file persistence.

All integers are serialized as decimal strings so weight bit-widths are never
limited by a machine word or by JSON number precision.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


class ParseError(ValueError):
    """Malformed instance file; the message names the offending field."""


@dataclass(frozen=True)
class SspInstance:
    """Decide whether some subset of `weights` sums exactly to `target`."""

    weights: tuple[int, ...]
    target: int
    m: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.weights) < 1:
            raise ValueError("need at least one weight")
        for i, w in enumerate(self.weights):
            if w < 1:
                raise ValueError(f"weights[{i}] = {w} must be >= 1")
            if self.m is not None and w >= (1 << self.m):
                raise ValueError(f"weights[{i}] = {w} exceeds {self.m} bits")
        if not 0 <= self.target <= sum(self.weights):
            raise ValueError("target outside [0, sum(weights)]")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class PartitionInstance:
    """Balanced form: the implied target is half the weight total.

    The total may be odd, in which case no vertex meets the target exactly;
    solvers still operate on the integer window around it.
    """

    weights: tuple[int, ...]
    m: int | None = None
    seed: int | None = None
    planted_x: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.weights) < 1:
            raise ValueError("need at least one weight")
        for i, w in enumerate(self.weights):
            if w < 1:
                raise ValueError(f"weights[{i}] = {w} must be >= 1")
            if self.m is not None and w >= (1 << self.m):
                raise ValueError(f"weights[{i}] = {w} exceeds {self.m} bits")
        if self.planted_x is not None:
            object.__setattr__(self, "planted_x", tuple(int(b) for b in self.planted_x))
            if len(self.planted_x) != len(self.weights):
                raise ValueError("planted_x length mismatch")
            if any(b not in (0, 1) for b in self.planted_x):
                raise ValueError("planted_x must be 0/1")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def norm_sq(self) -> int:
        return sum(w * w for w in self.weights)


@dataclass(frozen=True)
class SsspInstance:
    """p simultaneous balanced constraints over one vertex set.

    `rho` is the sphere-center pullback distance and `delta` the target
    shell thickness used by the simultaneous solver.
    """

    weight_rows: tuple[tuple[int, ...], ...]
    rho: Fraction
    delta: Fraction
    m: int | None = None
    seed: int | None = None
    planted_x: tuple[int, ...] | None = None

    def __post_init__(self):
        rows = tuple(tuple(int(w) for w in row) for row in self.weight_rows)
        object.__setattr__(self, "weight_rows", rows)
        object.__setattr__(self, "rho", Fraction(self.rho))
        object.__setattr__(self, "delta", Fraction(self.delta))
        p = len(rows)
        if p < 1 or (p & (p - 1)) != 0:
            raise ValueError(f"p = {p} must be a power of two")
        n = len(rows[0])
        if p >= n:
            raise ValueError(f"p = {p} must be smaller than n = {n}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"weight_rows[{i}] has length {len(row)}, expected {n}")
            for j, w in enumerate(row):
                if w < 1:
                    raise ValueError(f"weight_rows[{i}][{j}] = {w} must be >= 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def p(self) -> int:
        return len(self.weight_rows)

    @property
    def n(self) -> int:
        return len(self.weight_rows[0])

    def row(self, i: int) -> PartitionInstance:
        return PartitionInstance(self.weight_rows[i])


Instance = SspInstance | PartitionInstance | SsspInstance


# -- generators -------------------------------------------------------------


def gen_random(n: int, m: int, seed: int) -> PartitionInstance:
    """n weights uniform on [1, 2^m), deterministic per seed."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(seed)
    weights = tuple(rng.randrange(1, 1 << m) for _ in range(n))
    return PartitionInstance(weights, m=m, seed=seed)


def gen_planted(n: int, m: int, seed: int) -> PartitionInstance:
    """Instance with a known balanced solution, recorded in `planted_x`.

    Two halves with equal sums: the first half is sampled freely, the second
    is sampled short by one entry and closed with the correcting weight,
    resampling until that weight lands in [1, 2^m).  The weight total is
    always even.  Positions are shuffled so the split carries no order cue.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("planted instances require even n >= 2")
    if m < 1:
        raise ValueError("need m >= 1")
    rng = random.Random(seed)
    half = n // 2
    for _ in range(100_000):
        left = [rng.randrange(1, 1 << m) for _ in range(half)]
        tail = [rng.randrange(1, 1 << m) for _ in range(half - 1)]
        fix = sum(left) - sum(tail)
        if 1 <= fix < (1 << m):
            break
    else:  # pragma: no cover - the correction lands with high probability
        raise RuntimeError("planting failed to converge")
    values = left + tail + [fix]
    order = list(range(n))
    rng.shuffle(order)
    weights = [0] * n
    x = [0] * n
    for pos, src in enumerate(order):
        weights[pos] = values[src]
        x[pos] = 1 if src < half else 0
    inst = PartitionInstance(tuple(weights), m=m, seed=seed, planted_x=tuple(x))
    assert sum(w for w, b in zip(inst.weights, inst.planted_x) if b) * 2 == inst.total
    return inst


def gen_sssp_random(n: int, m: int, p: int, seed: int, *,
                    rho: Fraction | None = None,
                    delta: Fraction = Fraction(1),
                    duplicate: bool = False) -> SsspInstance:
    """Random simultaneous instance; `duplicate` repeats one planted row p times.

    Default rho keeps the sphere-vs-hyperplane curvature term n/(8*rho)
    at or below delta/8.
    """
    delta = Fraction(delta)
    if rho is None:
        rho = Fraction(n) / delta
    if duplicate:
        base = gen_planted(n, m, seed)
        rows = tuple(base.weights for _ in range(p))
        return SsspInstance(rows, rho=rho, delta=delta, m=m, seed=seed,
                            planted_x=base.planted_x)
    rng = random.Random(seed)
    rows = tuple(tuple(rng.randrange(1, 1 << m) for _ in range(n)) for _ in range(p))
    return SsspInstance(rows, rho=rho, delta=delta, m=m, seed=seed)


# -- file format --------------------------------------------------------------


def _int_str(value, where: str) -> int:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a decimal string, got {type(value).__name__}")
    try:
        return int(value, 10)
    except ValueError:
        raise ParseError(f"{where}: not a decimal integer: {value!r}") from None


def _fraction_obj(value, where: str) -> Fraction:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object with num/den")
    for key in ("num", "den"):
        if key not in value:
            raise ParseError(f'{where}: missing "{key}"')
    num = _int_str(value["num"], f"{where}.num")
    den = _int_str(value["den"], f"{where}.den")
    if den == 0:
        raise ParseError(f"{where}: zero denominator")
    return Fraction(num, den)


def fraction_json(q: Fraction) -> dict:
    """An exact rational as {"num", "den"} decimal strings, lowest terms: the
    one serialization every instance and verdict file uses."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def instance_to_json(inst: Instance) -> dict:
    meta: dict = {}
    if getattr(inst, "m", None) is not None:
        meta["m"] = inst.m
    if getattr(inst, "seed", None) is not None:
        meta["seed"] = inst.seed
    if getattr(inst, "planted_x", None) is not None:
        meta["planted_x"] = list(inst.planted_x)
    if isinstance(inst, SsspInstance):
        meta["n"] = inst.n
        return {
            "kind": "sssp",
            "weight_rows": [[str(w) for w in row] for row in inst.weight_rows],
            "rho": fraction_json(inst.rho),
            "delta": fraction_json(inst.delta),
            "meta": meta,
        }
    meta["n"] = inst.n
    doc = {
        "kind": "ssp" if isinstance(inst, SspInstance) else "partition",
        "weights": [str(w) for w in inst.weights],
        "meta": meta,
    }
    if isinstance(inst, SspInstance):
        doc["target"] = str(inst.target)
    return doc


def instance_from_json(doc: dict) -> Instance:
    if "kind" not in doc:
        raise ParseError('missing "kind"')
    kind = doc["kind"]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError('"meta" must be an object')
    m = meta.get("m")
    seed = meta.get("seed")
    planted = meta.get("planted_x")
    planted = tuple(planted) if planted is not None else None

    if kind == "sssp":
        if "weight_rows" not in doc:
            raise ParseError('missing "weight_rows"')
        rows = tuple(
            tuple(_int_str(w, f"weight_rows[{i}][{j}]") for j, w in enumerate(row))
            for i, row in enumerate(doc["weight_rows"])
        )
        if "rho" not in doc:
            raise ParseError('missing "rho"')
        if "delta" not in doc:
            raise ParseError('missing "delta"')
        return SsspInstance(rows, rho=_fraction_obj(doc["rho"], "rho"),
                            delta=_fraction_obj(doc["delta"], "delta"),
                            m=m, seed=seed, planted_x=planted)

    if kind in ("ssp", "partition"):
        if "weights" not in doc:
            raise ParseError('missing "weights"')
        weights = tuple(_int_str(w, f"weights[{i}]") for i, w in enumerate(doc["weights"]))
        if kind == "ssp":
            if "target" not in doc:
                raise ParseError('missing "target"')
            target = _int_str(doc["target"], "target")
            return SspInstance(weights, target=target, m=m, seed=seed)
        return PartitionInstance(weights, m=m, seed=seed, planted_x=planted)

    raise ParseError(f'unknown "kind": {kind!r}')


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_json(inst), sort_keys=True, indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    return instance_from_json(doc)


def write_instance(path: str | Path, inst: Instance) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")


def read_instance(path: str | Path) -> Instance:
    return loads_instance(Path(path).read_text(encoding="utf-8"))
