"""Slab membership and the two-alternative decision engine.

decide() quantizes the normal, scans the integer target window around half
the quantized total, and returns exactly one of: a certificate that the inner
slab of thickness 2*d_star holds no vertex, or a vertex whose outer-slab
membership (thickness 8*d_star) and relative target error are re-verified in
exact rational arithmetic.  A hit that fails the exact outer check is never
dropped; it is surfaced with the anomaly flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .dp import BudgetError, solve_family
from .instance import PartitionInstance, dumps_json, fraction_json
from .quantize import quantize


def slab_contains(normal, center, delta, x, *, delta_sq=None) -> bool:
    """Exact test |unit(normal) . (x - center)| <= delta/2.

    center=None means the hypercube center (1/2, ..., 1/2).  Pass delta_sq
    instead of delta when only the squared thickness is rational.  Decided by
    4 * (S.(x-C))^2 <= delta_sq * |S|^2, so no square root is ever taken.
    """
    normal = tuple(normal)
    if (delta is None) == (delta_sq is None):
        raise ValueError("give exactly one of delta or delta_sq")
    if delta_sq is None:
        delta_sq = Fraction(delta) ** 2
    delta_sq = Fraction(delta_sq)
    norm_sq = sum(s * s for s in normal)
    # r2 is twice the residual S.(x - C); squaring removes the sign exactly
    if center is None:
        r2 = 2 * sum(s * Fraction(c) for s, c in zip(normal, x)) - sum(normal)
    else:
        r2 = 2 * sum(s * (Fraction(a) - Fraction(b)) for s, a, b in zip(normal, x, center))
    return r2 * r2 <= delta_sq * norm_sq


@dataclass(frozen=True)
class EmptyInner:
    """No target in the window is attainable: the inner slab has no vertex."""

    d_star_sq: Fraction
    targets_scanned: int

    @property
    def inner_thickness_sq(self) -> Fraction:
        return 4 * self.d_star_sq  # (2 * d_star)^2

    @property
    def anomaly(self) -> bool:
        return False


@dataclass(frozen=True)
class VertexFound:
    """A vertex attaining one shifted target, with its exact quality numbers."""

    x: tuple[int, ...]
    t_hit: int
    d_star_sq: Fraction
    rel_error: Fraction
    in_outer_slab: bool
    targets_scanned: int

    @property
    def outer_thickness_sq(self) -> Fraction:
        return 64 * self.d_star_sq  # (8 * d_star)^2

    @property
    def anomaly(self) -> bool:
        return not self.in_outer_slab


SlabVerdict = EmptyInner | VertexFound


def decide(inst: PartitionInstance, c: int | None = None, big_n: int | None = None, *,
           budget_cells: int | None = None) -> SlabVerdict:
    """Run the full decision: quantize, scan targets nearest-to-center first,
    certify whichever alternative holds.

    The scan stops at the first attainable target, which is the one closest
    to half the quantized total, so the returned vertex carries the tightest
    available certificate.
    """
    q = quantize(inst, c=c, big_n=big_n)
    scan = solve_family(q, budget_cells=budget_cells)
    if scan.hit is None:
        return EmptyInner(d_star_sq=q.d_star_sq, targets_scanned=scan.targets_scanned)
    t, x = scan.hit
    total_s = inst.total
    dot_sx = sum(compress(inst.weights, x))
    dev2 = 2 * dot_sx - total_s  # twice the signed distance numerator S.(x - C)
    rel_error = Fraction(abs(dev2), total_s)
    # membership in the 8*d_star slab: (S.(x-C))^2 <= (4 d_star)^2 |S|^2
    in_outer = Fraction(dev2 * dev2) <= 64 * q.d_star_sq * q.norm_s_sq
    return VertexFound(x=x, t_hit=t, d_star_sq=q.d_star_sq, rel_error=rel_error,
                       in_outer_slab=in_outer, targets_scanned=scan.targets_scanned)


def decide_epsilon(inst: PartitionInstance, epsilon, *,
                   budget_cells: int | None = None) -> SlabVerdict:
    """Tolerance-driven entry: picks the smallest usable scale N >= n/epsilon.

    N is floored at n^2; any integer scale is accepted by the geometry, the
    power form only matters for complexity accounting.  Guarantees that any
    returned vertex has rel_error <= 2*epsilon, since 2n/N <= 2*epsilon.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    n = inst.n
    big_n = max(n * n, math.ceil(Fraction(n) / epsilon))
    try:
        return decide(inst, big_n=big_n, budget_cells=budget_cells)
    except BudgetError as exc:
        raise BudgetError(
            f"epsilon={epsilon} requires scale N={big_n}: {exc}",
            cells=exc.cells, cap=exc.cap,
        ) from exc


def verdict_to_json(v: SlabVerdict) -> dict:
    found = isinstance(v, VertexFound)
    return {
        "verdict": "vertex_found" if found else "empty_inner",
        "x": list(v.x) if found else None,
        "t": v.t_hit if found else None,
        "d_star_sq": fraction_json(v.d_star_sq),
        "rel_error": fraction_json(v.rel_error) if found else None,
        "targets_scanned": v.targets_scanned,
        "anomaly": v.anomaly,
    }


def dump_verdict(v: SlabVerdict) -> str:
    """Canonical byte-stable serialization (fixed key order, trailing newline)."""
    return dumps_json(verdict_to_json(v))
