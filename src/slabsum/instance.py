"""Problem instances, seeded generators, and JSON file persistence.

All integers are serialized as decimal strings so weight bit-widths are never
limited by a machine word or by JSON number precision.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import mul
from pathlib import Path


class ParseError(ValueError):
    """Malformed instance file; the message names the offending field."""


def _checked_weights(weights, m: int | None, name: str) -> tuple[int, ...]:
    """weights as a nonempty tuple of ints (a bool is not one), each at least
    1 and, when m is given, at most m bits wide; an error names the entry as
    name[i].  Entries are checked, never converted."""
    weights = tuple(weights)
    if not weights:
        raise ValueError(f"{name}: need at least one weight")
    if (not set(map(type, weights)) <= {int} or min(weights) < 1
            or m is not None and max(weights).bit_length() > m):
        # only to name the first entry at fault
        for i, w in enumerate(weights):
            if type(w) is not int:
                raise ValueError(f"{name}[{i}] = {w!r} is not an int")
            if w < 1:
                raise ValueError(f"{name}[{i}] = {w} must be >= 1")
            if m is not None and w.bit_length() > m:
                raise ValueError(f"{name}[{i}] = {w} exceeds {m} bits")
    return weights


def _checked_planted(planted_x, n: int) -> tuple[int, ...] | None:
    """planted_x as a tuple of n ints, each 0 or 1; None stays None."""
    if planted_x is None:
        return None
    planted_x = tuple(planted_x)
    if not set(map(type, planted_x)) <= {int}:
        i = next(i for i, b in enumerate(planted_x) if type(b) is not int)
        raise ValueError(f"planted_x[{i}] = {planted_x[i]!r} is not an int")
    if len(planted_x) != n:
        raise ValueError("planted_x length mismatch")
    if not set(planted_x) <= {0, 1}:
        raise ValueError("planted_x must be 0/1")
    return planted_x


@dataclass(frozen=True)
class SspInstance:
    """Decide whether some subset of `weights` sums exactly to `target`."""

    weights: tuple[int, ...]
    target: int
    m: int | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_weights(self.weights, self.m, "weights"))
        if type(self.target) is not int:
            raise ValueError(f"target = {self.target!r} is not an int")
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
        object.__setattr__(self, "weights", _checked_weights(self.weights, self.m, "weights"))
        object.__setattr__(self, "planted_x", _checked_planted(self.planted_x, len(self.weights)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def norm_sq(self) -> int:
        return sum(map(mul, self.weights, self.weights))


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
        rows = tuple(_checked_weights(row, self.m, f"weight_rows[{i}]")
                     for i, row in enumerate(self.weight_rows))
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
        object.__setattr__(self, "planted_x", _checked_planted(self.planted_x, n))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        # |S_i|^2 of each weight row, summed once; set here, not cached on
        # first read, whose write would turn the inline attributes into a dict
        object.__setattr__(self, "row_norms_sq", tuple(sum(w * w for w in row) for row in rows))

    @property
    def p(self) -> int:
        return len(self.weight_rows)

    @property
    def n(self) -> int:
        return len(self.weight_rows[0])


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
    if delta <= 0:
        raise ValueError("delta must be positive")
    if rho is None:
        rho = Fraction(n) / delta
    if duplicate:
        base = gen_planted(n, m, seed)
        rows = tuple(base.weights for _ in range(p))
        return SsspInstance(rows, rho=rho, delta=delta, m=m, seed=seed,
                            planted_x=base.planted_x)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(seed)
    rows = tuple(tuple(rng.randrange(1, 1 << m) for _ in range(n)) for _ in range(p))
    return SsspInstance(rows, rho=rho, delta=delta, m=m, seed=seed)


# -- file format --------------------------------------------------------------


def _int_str(value, where: str) -> int:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a decimal string, got {type(value).__name__}")
    # ASCII digits and an optional "-" only: int() would also take spaces,
    # "_", "+" and other scripts' digits
    if not (value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit())):
        raise ParseError(f"{where}: not a decimal integer: {value!r}")
    try:
        return int(value, 10)
    except ValueError:  # more digits than int() converts
        digits = len(value.lstrip("-"))
        raise ParseError(f"{where}: {digits} digits, above the "
                         f"{sys.get_int_max_str_digits()}-digit limit") from None


def _int_strs(values: list, where: str) -> tuple[int, ...]:
    """A list of decimal strings as ints, converted in one pass when every
    entry is ASCII digits; otherwise _int_str of each entry, named where[i]."""
    try:
        text = "".join(values)
    except TypeError:  # an entry is not a string
        text = ""
    if text.isascii() and text.isdigit():
        try:
            return tuple(map(int, values))
        except ValueError:  # an entry is "" or has more digits than int() converts
            pass
    return tuple(_int_str(v, f"{where}[{i}]") for i, v in enumerate(values))


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _json_int(value, where: str) -> int:
    # bool is an int subclass, but true/false is not a number in the file
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _json_ints(values: list, where: str) -> tuple[int, ...]:
    """A list of JSON integers as a tuple; an error names the first entry
    that is not one as where[i]."""
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(_json_int(v, f"{where}[{i}]") for i, v in enumerate(values))


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


_JSON_CONSTANTS = {None: "null", False: "false", True: "true"}


def dumps_json(doc: dict) -> str:
    """The byte-stable text of every instance and verdict file: sorted keys,
    two-space indent, trailing newline, byte for byte
    json.dumps(doc, sort_keys=True, indent=2) + "\n"."""
    return _json_text(doc, "") + "\n"


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, nested
    at indent.  With an indent, json runs its pure-Python encoder; here a
    list of plain ints is one join, and only floats, other scalar types and
    dicts with a key that is not a string go through json."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:  # bool is not int here, as in json
            items = map(repr, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:  # json converts such keys to strings
            return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
        inner = indent + "  "
        items = (f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return repr(value)
    if value is None or kind is bool:
        return _JSON_CONSTANTS[value]
    return json.dumps(value)


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
    meta["n"] = inst.n
    if isinstance(inst, SsspInstance):
        return {
            "kind": "sssp",
            "weight_rows": [[str(w) for w in row] for row in inst.weight_rows],
            "rho": fraction_json(inst.rho),
            "delta": fraction_json(inst.delta),
            "meta": meta,
        }
    doc = {
        "kind": "ssp" if isinstance(inst, SspInstance) else "partition",
        "weights": [str(w) for w in inst.weights],
        "meta": meta,
    }
    if isinstance(inst, SspInstance):
        doc["target"] = str(inst.target)
    return doc


def _build(cls, *args, **kwargs):
    """cls(*args, **kwargs); a well-formed file describing an invalid
    instance raises ParseError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def instance_from_json(doc: dict) -> Instance:
    """The instance a file's JSON object describes; any malformed shape or
    out-of-range value raises ParseError naming the field."""
    if "kind" not in doc:
        raise ParseError('missing "kind"')
    kind = doc["kind"]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError('"meta" must be an object')
    m = meta.get("m")
    if m is not None and _json_int(m, "meta.m") < 1:
        raise ParseError(f"meta.m: must be at least 1, got {m}")
    seed = meta.get("seed")
    if seed is not None:
        _json_int(seed, "meta.seed")
    planted = meta.get("planted_x")
    if planted is not None:
        planted = _json_ints(_list(planted, "meta.planted_x"), "meta.planted_x")
    n = meta.get("n")
    if n is not None:
        _json_int(n, "meta.n")

    if kind == "sssp":
        if "weight_rows" not in doc:
            raise ParseError('missing "weight_rows"')
        rows = tuple(_int_strs(_list(row, f"weight_rows[{i}]"), f"weight_rows[{i}]")
                     for i, row in enumerate(_list(doc["weight_rows"], "weight_rows")))
        if not rows:
            raise ParseError("weight_rows: need at least one row")
        if "rho" not in doc:
            raise ParseError('missing "rho"')
        if "delta" not in doc:
            raise ParseError('missing "delta"')
        inst = _build(SsspInstance, rows, rho=_fraction_obj(doc["rho"], "rho"),
                      delta=_fraction_obj(doc["delta"], "delta"),
                      m=m, seed=seed, planted_x=planted)
    elif kind in ("ssp", "partition"):
        if "weights" not in doc:
            raise ParseError('missing "weights"')
        weights = _int_strs(_list(doc["weights"], "weights"), "weights")
        if kind == "ssp":
            if "target" not in doc:
                raise ParseError('missing "target"')
            target = _int_str(doc["target"], "target")
            inst = _build(SspInstance, weights, target=target, m=m, seed=seed)
        else:
            inst = _build(PartitionInstance, weights, m=m, seed=seed, planted_x=planted)
    else:
        raise ParseError(f'unknown "kind": {kind!r}')
    # meta.n is only a copy of the weight count (the row length for sssp)
    if n is not None and n != inst.n:
        raise ParseError(f"meta.n: {n} does not match the {inst.n} weights"
                         + (" per row" if kind == "sssp" else ""))
    return inst


def dumps_instance(inst: Instance) -> str:
    return dumps_json(instance_to_json(inst))


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    return instance_from_json(doc)


def write_instance(path: str | Path, inst: Instance) -> None:
    Path(path).write_text(dumps_instance(inst), encoding="utf-8")


def read_instance(path: str | Path) -> Instance:
    return loads_instance(Path(path).read_text(encoding="utf-8"))
