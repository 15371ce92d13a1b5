"""Output gate: set-up pre-checks on the inputs and exact checks on verdicts.

An operation passes only when its exit code is 0, its stdout bytes have the
sha256 recorded from the seed commit, and the verdict re-checks exactly
against the benchmark's own copy of the instance, in integer and rational
arithmetic that does not call the program.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def precheck(inst, min_vertex_l0) -> bool:
    """Confirm at set-up that the instance has the verdict the workload expects.

    `min_vertex_l0` is the program's brute-force oracle, used only here and
    only for the exhausted sssp systems (n <= 8, so at most 256 vertices).
    """
    weights = inst.rows[0]
    if inst.expect == "vertex_found":
        return 2 * sum(w for w, b in zip(weights, inst.planted) if b) == sum(weights)
    if inst.expect == "empty_inner":
        # one weight above all the others together: every vertex is at least
        # big - rest away from half the total, far outside any target window
        big = max(weights)
        return big > 3 * (sum(weights) - big)
    if inst.expect == "found":
        return all(2 * sum(w for w, b in zip(row, inst.planted) if b) == sum(row)
                   for row in inst.rows) if inst.planted else True
    best, _ = min_vertex_l0(oracle_instance(inst))
    return best > 5 * inst.delta


def oracle_instance(inst):
    """The program's SsspInstance for a generated sssp system."""
    from slabsum.instance import SsspInstance
    return SsspInstance(inst.rows, rho=inst.rho, delta=inst.delta)


def _fraction(doc) -> Fraction:
    return Fraction(int(doc["num"], 10), int(doc["den"], 10))


def _check_x(x, n: int) -> list[str]:
    if not isinstance(x, list) or len(x) != n:
        return [f"x is not a list of length {n}"]
    if any(type(b) is not int or b not in (0, 1) for b in x):
        return ["x is not 0/1"]
    return []


def shell_l0(rows, rho: Fraction, x) -> Fraction:
    """Sum over rows of rho^2 * (2 S.x - sum S)^2 / |S|^2, exact."""
    total = Fraction(0)
    for row in rows:
        d = 2 * sum(w for w, b in zip(row, x) if b) - sum(row)
        total += Fraction(d * d, sum(w * w for w in row))
    return rho * rho * total


def check_verdict(op, text: str, confirmed: bool) -> list[str]:
    """Problems with one operation's stdout; an empty list means it passes.

    `confirmed` says whether set-up confirmed the instance's expected verdict
    (for exhausted systems: that no vertex has L0 <= 5 delta).
    """
    problems = []
    if op.digest is None:
        problems.append("no digest recorded for this input")
    elif digest(text) != op.digest:
        problems.append("verdict bytes differ from the recorded digest")
    if not confirmed:
        problems.append("set-up did not confirm the expected verdict")
    return problems + exact_problems(op, text)


def exact_problems(op, text: str) -> list[str]:
    """The exact re-checks of one verdict against the benchmark's instance."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(doc, dict):
        return ["verdict is not a JSON object"]
    try:
        return _check_doc(op, op.inst, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed verdict: {exc!r}"]


def _check_doc(op, inst, doc: dict) -> list[str]:
    expect = inst.expect
    if expect == "empty_inner":
        if doc["verdict"] != "empty_inner" or doc["x"] is not None:
            return [f"expected empty_inner, got {doc['verdict']}"]
        return []
    if expect == "vertex_found":
        if doc["verdict"] != "vertex_found":
            return [f"expected vertex_found, got {doc['verdict']}"]
        problems = _check_x(doc["x"], inst.n)
        if problems:
            return problems
        if doc["anomaly"] is not False:
            problems.append("anomaly flag set")
        weights = inst.rows[0]
        total = sum(weights)
        dot = sum(w for w, b in zip(weights, doc["x"]) if b)
        rel = Fraction(abs(2 * dot - total), total)
        if _fraction(doc["rel_error"]) != rel:
            problems.append("rel_error does not match S.x")
        if rel > Fraction(2 * inst.n, op.big_n):
            problems.append("rel_error above 2n/N")
        return problems
    if expect == "found":
        if doc["found"] is not True:
            return ["expected a found certificate"]
        problems = _check_x(doc["x"], inst.n)
        if problems:
            return problems
        l0 = shell_l0(inst.rows, inst.rho, doc["x"])
        if _fraction(doc["L0"]) != l0:
            problems.append("L0 does not match x")
        if l0 > 5 * inst.delta:
            problems.append("L0 above 5 delta")
        return problems
    if doc["found"] is not False or doc["x"] is not None:
        return ["expected an exhausted search"]
    if not (isinstance(doc["grid_size"], int) and doc["grid_size"] > 0):
        return ["exhausted search without a grid size"]
    return []
