"""Brute-force ground truth by full vertex enumeration.

Everything here is deliberately unclever: Gray-code enumeration with O(1)
incremental sum updates, exact rational comparisons, no pruning.  It is the
verification backbone the solvers are tested against at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .dp import BudgetError
from .instance import PartitionInstance, SsspInstance

DEFAULT_MAX_N = 26


class EnumerationCapError(BudgetError):
    """Vertex count 2^n above the configured enumeration cap."""


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise EnumerationCapError(
            f"refusing to enumerate 2^{n} vertices (cap n <= {max_n})",
            cells=1 << n, cap=1 << max_n,
        )


def iter_vertex_sums(weights) -> Iterator[tuple[int, int]]:
    """Yield (bitmask, subset sum) for all 2^n subsets, one bit flip per step."""
    mask = 0
    total = 0
    yield mask, total
    for i in range(1, 1 << len(weights)):
        j = (i & -i).bit_length() - 1
        bit = 1 << j
        mask ^= bit
        total += weights[j] if mask & bit else -weights[j]
        yield mask, total


def _mask_to_x(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> k) & 1 for k in range(n))


def all_subset_sums(weights) -> set[int]:
    """The full set of attainable subset sums (the existence oracle)."""
    return {total for _, total in iter_vertex_sums(weights)}


@dataclass(frozen=True)
class OracleReport:
    """Exact enumeration summary for one balanced instance.

    min_distance_sq is the squared distance from the central hyperplane to the
    nearest vertex; zero iff an exact solution exists.
    """

    solutions: tuple[tuple[int, ...], ...]
    min_distance_sq: Fraction
    count: int


def enumerate_partition(inst: PartitionInstance, *, max_n: int = DEFAULT_MAX_N,
                        keep: int = 64) -> OracleReport:
    """Scan all 2^n vertices; collect exact solutions (up to `keep` stored)."""
    _check_cap(inst.n, max_n)
    total = inst.total
    best = None
    count = 0
    solutions: list[tuple[int, ...]] = []
    for mask, s in iter_vertex_sums(inst.weights):
        d = abs(2 * s - total)
        if best is None or d < best:
            best = d
        if d == 0:
            count += 1
            if len(solutions) < keep:
                solutions.append(_mask_to_x(mask, inst.n))
    return OracleReport(
        solutions=tuple(solutions),
        min_distance_sq=Fraction(best * best, 4 * inst.norm_sq),
        count=count,
    )


@dataclass(frozen=True)
class SlabPopulation:
    count: int
    witnesses: tuple[tuple[int, ...], ...]


def slab_population(weights, center, delta=None, *, delta_sq=None,
                    max_n: int = DEFAULT_MAX_N, keep: int = 64) -> SlabPopulation:
    """Exact count of vertices within distance delta/2 of the hyperplane.

    center is a point on the hyperplane (None means the hypercube center).
    Pass delta_sq for thicknesses only known by their square, e.g. drift
    widths; membership is decided by the rational comparison
    4 * (S.(x-C))^2 <= delta_sq * |S|^2.
    """
    weights = tuple(weights)
    n = len(weights)
    _check_cap(n, max_n)
    if (delta is None) == (delta_sq is None):
        raise ValueError("give exactly one of delta or delta_sq")
    if delta_sq is None:
        delta_sq = Fraction(delta) ** 2
    delta_sq = Fraction(delta_sq)
    if delta_sq < 0:
        raise ValueError("delta_sq must be nonnegative")
    norm_sq = sum(w * w for w in weights)
    # residual 2*(S.x - S.C) kept as an exact rational offset from 2*S.x
    if center is None:
        shift2 = Fraction(sum(weights))
    else:
        shift2 = 2 * sum(Fraction(c) * w for c, w in zip(center, weights))
    bound = delta_sq * norm_sq
    count = 0
    witnesses: list[tuple[int, ...]] = []
    for mask, s in iter_vertex_sums(weights):
        r2 = 2 * s - shift2
        if r2 * r2 <= bound:
            count += 1
            if len(witnesses) < keep:
                witnesses.append(_mask_to_x(mask, n))
    return SlabPopulation(count, tuple(witnesses))


def eval_L0(x, shells) -> Fraction:
    """Exact sum of squared shell residuals (|x - C_i|^2 - R_i^2)^2 at a point.

    Every shell must either carry an anchor row (centers of the form
    C - rho * S_i/|S_i|, evaluated at a hypercube vertex through the identity
    |x - C_i|^2 - R_i^2 = 2*rho*S_i.(x - C)/|S_i|) or have rational data;
    Shell.residual_sq_exact raises ValueError otherwise.
    """
    return sum((shell.residual_sq_exact(x) for shell in shells), Fraction(0))


def min_vertex_L0(inst: SsspInstance, *, max_n: int = DEFAULT_MAX_N) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum of L0 over all vertices and one argmin.

    Uses the anchor identity per row, so each vertex costs p incremental
    integer updates and one integer comparison; the minimum is an exact
    rational.
    """
    _check_cap(inst.n, max_n)
    rows = inst.weight_rows
    norms = inst.row_norms_sq
    totals = [sum(row) for row in rows]
    # d_i = 2*S_i.x - total_i tracked incrementally; L0 = sum rho^2 d_i^2 / m_i
    # = rho^2 * sum d_i^2 * (L/m_i) / L over L = lcm(m_i)
    big_l = math.lcm(*norms)
    factors = [big_l // m for m in norms]
    d = [-t for t in totals]
    best = None
    best_mask = 0
    mask = 0
    for i in range(1 << inst.n):
        if i:
            j = (i & -i).bit_length() - 1
            bit = 1 << j
            mask ^= bit
            sgn = 2 if mask & bit else -2
            for r in range(inst.p):
                d[r] += sgn * rows[r][j]
        value = sum(di * di * f for di, f in zip(d, factors))
        if best is None or value < best:
            best = value
            best_mask = mask
    return inst.rho * inst.rho * Fraction(best, big_l), _mask_to_x(best_mask, inst.n)
