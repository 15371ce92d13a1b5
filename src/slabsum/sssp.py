"""Simultaneous balanced constraints via spherical shells and pairwise merging.

Each hyperplane constraint is relaxed to a thick spherical shell whose center
sits a distance rho behind the cube along the constraint normal.  Pairs of
shells merge into one (midpoint center, radically adjusted radius) at the
cost of a cross term; guessing the discarded cross terms on a grid, level by
level, collapses the whole system to a single shell condition that the slab
engine can decide.  The search runs in floats; every candidate vertex is
accepted or rejected by exact rational arithmetic only.

The search goes witness first.  The vertex a grid leaf proposes for a target
depends on the target alone, and the exact acceptance check on the vertex
alone, so one reachability table lists every candidate vertex; only those
passing the exact check look up the few grid points they can satisfy.  The
lexicographically first (leaf, target) pair that a walk over the whole grid
would accept is returned, without the walk.

Key identity used throughout: every hypercube vertex is exactly sqrt(n)/2
from the cube center, so for a shell anchored at C - rho*S/|S| with squared
radius rho^2 + n/4,

    |x - C_i|^2 - R_i^2  ==  2 * rho * S_i.(x - C) / |S_i|

holds exactly at vertices, and its square is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .dp import BudgetError, attainable_witnesses
from .dp import dp_decide  # noqa: F401  (perfbench traces witness calls under this name)
from .instance import SsspInstance, fraction_json
from .quantize import QuantizationUnderflow


class GridBudgetError(BudgetError):
    """The (M, B) guess grid exceeds the configured leaf budget."""


def _rationalize(value):
    return Fraction(value) if isinstance(value, int) else value


@dataclass(frozen=True)
class Shell:
    """Thick spherical shell |x - center| within half_thickness of sqrt(radius_sq).

    `anchor` and `rho` record the exact provenance of solver-built shells
    (center = cube center - rho * anchor/|anchor|), enabling exact residual
    squares at vertices even though the center coordinates are irrational.
    """

    center: tuple
    radius_sq: object
    half_thickness: Fraction | None = None
    anchor: tuple[int, ...] | None = None
    rho: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_rationalize(c) for c in self.center))
        object.__setattr__(self, "radius_sq", _rationalize(self.radius_sq))

    def residual(self, x):
        """|x - center|^2 - radius_sq; exact when the data is rational."""
        return sum((xk - ck) ** 2 for xk, ck in zip(x, self.center)) - self.radius_sq

    def residual_sq_exact(self, x) -> Fraction | None:
        """Exact squared residual, or None when only floats are available."""
        if self.anchor is not None:
            if all(b in (0, 1) for b in x):
                d = 2 * sum(w for w, b in zip(self.anchor, x) if b) - sum(self.anchor)
                m = sum(w * w for w in self.anchor)
                return self.rho * self.rho * Fraction(d * d, m)
            return None
        if _rational_data(self.center) and isinstance(self.radius_sq, Fraction) \
                and _rational_data(x):
            r = self.residual(x)
            return r * r
        return None


def _rational_data(coords) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coords)


@dataclass(frozen=True)
class MergeNode:
    """One sphere standing in for 2^level shells; leaves wrap single shells."""

    center: tuple
    radius_sq: object
    level: int
    children: tuple["MergeNode", "MergeNode"] | None = None
    shell: Shell | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_rationalize(c) for c in self.center))
        object.__setattr__(self, "radius_sq", _rationalize(self.radius_sq))

    def residual(self, x):
        return sum((xk - ck) ** 2 for xk, ck in zip(x, self.center)) - self.radius_sq


@dataclass(frozen=True)
class MergeTree:
    root: MergeNode
    levels: tuple[tuple[MergeNode, ...], ...]  # levels[0] = leaves, levels[-1] = (root,)


def merge_pair(a: MergeNode, b: MergeNode) -> MergeNode:
    """Midpoint center; radius from the radical identity so that
    2*(|x-C|^2 - R^2) equals the sum of the children's residuals for all x."""
    if a.level != b.level:
        raise ValueError("can only merge nodes of equal level")
    center = tuple((ca + cb) / 2 for ca, cb in zip(a.center, b.center))
    dist_sq = sum((ca - cb) ** 2 for ca, cb in zip(a.center, b.center))
    radius_sq = (a.radius_sq + b.radius_sq) / 2 - dist_sq / 4
    return MergeNode(center=center, radius_sq=radius_sq, level=a.level + 1,
                     children=(a, b))


def merge_tree(shells) -> MergeTree:
    """Disjoint pairing (1,2), (3,4), ... repeated log2(p) times."""
    p = len(shells)
    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError(f"shell count {p} must be a power of two")
    level = tuple(
        MergeNode(center=s.center, radius_sq=s.radius_sq, level=0, shell=s)
        for s in shells
    )
    levels = [level]
    while len(level) > 1:
        level = tuple(merge_pair(level[i], level[i + 1]) for i in range(0, len(level), 2))
        levels.append(level)
    return MergeTree(root=level[0], levels=tuple(levels))


def cross_sum(tree: MergeTree, q: int, x):
    """Sum over level-(q+1) nodes of 2 * r_left(x) * r_right(x): the cross
    terms discarded by merge step q."""
    total = 0
    for node in tree.levels[q + 1]:
        left, right = node.children
        total = total + 2 * left.residual(x) * right.residual(x)
    return total


def telescoped_l0(tree: MergeTree, x, m_values):
    """4^L * r_root(x)^2 - sum_q 4^q * m_values[q]; equals the plain sum of
    squared shell residuals when every m_values[q] is the true cross sum."""
    depth = len(tree.levels) - 1
    if len(m_values) != depth:
        raise ValueError(f"expected {depth} cross-term guesses, got {len(m_values)}")
    r = tree.root.residual(x)
    acc = 4 ** depth * r * r
    for q, m in enumerate(m_values):
        acc = acc - 4 ** q * m
    return acc


@dataclass(frozen=True)
class LevelGrid:
    """Arithmetic progression of guesses covering [-mbar, mbar] at the given step."""

    level: int
    mbar: Fraction
    step: Fraction

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")

    @property
    def count(self) -> int:
        return math.ceil(2 * self.mbar / self.step) + 1

    def value(self, i: int) -> Fraction:
        return -self.mbar + i * self.step


def leaf_residual_bound(rho: Fraction, n: int) -> Fraction:
    """|shell residual| <= rho*sqrt(n) at any vertex; squared form rho^2*n."""
    return rho * rho * n


def correction_grids(p: int, n: int, rho: Fraction, delta: Fraction) -> tuple[LevelGrid, ...]:
    """One grid per merge step q = 0..log2(p)-1.

    A node's residual is the average of its block's leaf residuals, each at
    most rho*sqrt(n) in magnitude, so the step-q cross sum over p/2^(q+1)
    nodes is bounded by p*n*rho^2 / 2^q.
    """
    depth = p.bit_length() - 1
    if depth == 0:
        return ()
    grids = []
    for q in range(depth):
        mbar = Fraction(p * n, 2 ** q) * rho * rho
        step = delta / (4 ** q * depth)
        grids.append(LevelGrid(q, mbar, step))
    return tuple(grids)


def build_shells(inst: SsspInstance) -> tuple[Shell, ...]:
    """One shell per constraint row: center pulled back rho along the row
    direction, common squared radius rho^2 + n/4 (exact)."""
    n = inst.n
    radius_sq = inst.rho * inst.rho + Fraction(n, 4)
    rho_f = float(inst.rho)
    shells = []
    for row in inst.weight_rows:
        norm = math.sqrt(sum(w * w for w in row))
        center = tuple(0.5 - rho_f * w / norm for w in row)
        shells.append(Shell(center=center, radius_sq=radius_sq,
                            half_thickness=inst.delta / 2, anchor=row, rho=inst.rho))
    return tuple(shells)


def exact_l0(inst: SsspInstance, x) -> Fraction:
    """Exact sum of squared shell residuals at a vertex, via the anchor identity."""
    num, den = 0, 1
    for row in inst.weight_rows:
        d = 2 * sum(w for w, b in zip(row, x) if b) - sum(row)
        m = sum(w * w for w in row)
        num, den = num * m + d * d * den, den * m
    rho = inst.rho
    return Fraction(rho.numerator ** 2 * num, rho.denominator ** 2 * den)


def curvature_term(inst: SsspInstance) -> Fraction:
    """n/(8*rho): how far the sphere sags from its tangent hyperplane inside
    the cube ball.  Kept at or below delta/8 by the rho precondition."""
    return Fraction(inst.n, 8) / inst.rho


@dataclass(frozen=True)
class SsspCertificate:
    """A vertex that survived all three validation stages.

    accepted certificates always satisfy l0_exact <= 5 * delta, checked in
    rational arithmetic; chosen_m / chosen_b are the grid guesses that led
    to the hit.
    """

    x: tuple[int, ...]
    chosen_m: tuple[Fraction, ...]
    chosen_b: Fraction
    l0_exact: Fraction
    accepted: bool
    curvature: Fraction
    grid_size: int


@dataclass(frozen=True)
class _Geometry:
    shells: tuple[Shell, ...]
    tree: MergeTree
    grids: tuple[LevelGrid, ...]
    axis: tuple[float, ...]       # cube center minus merged center; all positive
    axis_norm: float
    root_radius: float
    b_lo: float
    b_up: float
    eps_b: float
    b_count: int
    grid_size: int


def _geometry(inst: SsspInstance, eps_b: float | None) -> _Geometry:
    n = inst.n
    if inst.rho * inst.delta < inst.n:
        raise ValueError(
            f"rho={inst.rho} too small for delta={inst.delta}: "
            f"need rho >= n/delta = {Fraction(inst.n) / inst.delta} to keep the "
            "curvature term within delta/8"
        )
    shells = build_shells(inst)
    tree = merge_tree(shells)
    grids = correction_grids(inst.p, n, inst.rho, inst.delta)
    axis = tuple(0.5 - ck for ck in tree.root.center)
    axis_norm = math.sqrt(sum(a * a for a in axis))
    if axis_norm < math.sqrt(n):
        raise ValueError(
            f"merged center is only {axis_norm:.3f} from the cube center; "
            f"need at least sqrt(n) = {math.sqrt(n):.3f} for a usable geometry"
        )
    root_radius = math.sqrt(float(tree.root.radius_sq))
    half_diag = math.sqrt(n) / 2
    b_lo = abs(half_diag - axis_norm) + root_radius
    b_up = half_diag + axis_norm + root_radius
    if eps_b is None:
        eps_b = float(inst.delta) / (8 * b_up)
    if eps_b <= 0:
        raise ValueError("eps_b must be positive")
    b_count = max(1, math.ceil((b_up - b_lo) / eps_b) + 1)
    grid_size = b_count
    for g in grids:
        grid_size *= g.count
    return _Geometry(shells, tree, grids, axis, axis_norm, root_radius,
                     b_lo, b_up, eps_b, b_count, grid_size)


def grid_cardinality(inst: SsspInstance, *, eps_b: float | None = None) -> int:
    """Number of (M, B) leaves in the guess grid, which the leaf budget bounds."""
    return _geometry(inst, eps_b).grid_size


def _leaf_window(geo: _Geometry, scale: int, total_w: int, y_lo: float, y_hi: float,
                 b_val: float) -> tuple[int, int] | None:
    """Integer target window [t_lo, t_hi] of the leaf whose single-shell band
    is (y_lo, y_hi) under the circumference guess b_val; None when even the
    widened band ends below radius zero."""
    n = len(geo.axis)
    # B only approximates |x - C_root| + R, so widen the band by the
    # worst-case rounding of y/B before mapping it through the geometry
    zeta = max(abs(y_lo), abs(y_hi)) * geo.eps_b / (b_val * geo.b_lo)
    g_lo = y_lo / b_val - zeta
    g_hi = y_hi / b_val + zeta
    r_hi = geo.root_radius + g_hi
    if r_hi < 0:
        return None
    r_lo = max(geo.root_radius + g_lo, 0.0)
    offset = n / 4 + geo.axis_norm ** 2
    w_lo = (r_lo * r_lo - offset) / 2
    w_hi = (r_hi * r_hi - offset) / 2
    t_lo = max(0, math.ceil(total_w / 2 + scale * w_lo / geo.axis_norm - n / 2 - 1))
    t_hi = min(total_w, math.floor(total_w / 2 + scale * w_hi / geo.axis_norm + n / 2 + 1))
    return t_lo, t_hi


def _indices_near(count: int, pos: float, accept) -> list[int]:
    """Indices in [0, count) within two of floor(pos) that `accept` passes.

    Every caller's predicate accepts only indices within about one of pos,
    so the two-index margin on each side covers float rounding with room
    to spare."""
    base = math.floor(pos)
    return [i for i in range(max(0, base - 2), min(count, base + 4)) if accept(i)]


def solve(inst: SsspInstance, *, eps_b: float | None = None,
          leaf_budget: int = 10_000_000, c: int = 2,
          budget_cells: int | None = None) -> SsspCertificate | None:
    """Search over cross-term guesses M and the circumference guess B,
    witness first.

    The search is defined on the (M, B) grid: every leaf turns the
    single-shell band into an integer target window on a quantized axis
    normal; each target tau in the window yields the lexicographically
    smallest vertex x with w.x == tau, which is validated in three stages
    (B consistency, per-level cross-term consistency, the exact rational
    check l0 <= 5*delta).  The answer is the first validated (leaf, tau) in
    lexicographic (M index, B index, band, tau) order.  Returns None when
    nothing validates, which by design cannot distinguish "no solution"
    from "two or more".

    The grid is never walked.  The vertex depends on tau alone and the
    exact check on the vertex alone, so one reachability table yields every
    attainable tau's vertex, and those failing l0 <= 5*delta are dropped
    before any grid point is looked at.  The B and cross-term predicates
    each accept only guesses within one grid step of a value computed from
    the vertex, so each survivor lists the few (M, B) grid points it can
    satisfy and keeps the first whose leaf window holds its tau.  The
    smallest such key over all survivors is exactly the leaf walk's first
    hit.  The leaf budget still bounds the grid size, walked or not.
    """
    geo = _geometry(inst, eps_b)
    if geo.grid_size > leaf_budget:
        raise GridBudgetError(
            f"(M, B) grid has {geo.grid_size} leaves, budget is {leaf_budget}",
            cells=geo.grid_size, cap=leaf_budget,
        )
    n = inst.n
    depth = inst.p.bit_length() - 1
    scale = n ** c
    w = tuple(int(scale * a / geo.axis_norm) for a in geo.axis)
    zeros = [k for k, wk in enumerate(w) if wk == 0]
    if zeros:
        raise QuantizationUnderflow(zeros, scale)
    total_w = sum(w)

    five_delta = 5 * inst.delta
    candidates = []
    for tau, x in attainable_witnesses(w, budget_cells=budget_cells):
        l0 = exact_l0(inst, x)
        if l0 <= five_delta:
            candidates.append((tau, x, l0))
    if not candidates:
        return None

    slack = 3 * float(inst.delta)
    steps_f = [float(g.step) for g in geo.grids]
    pow4 = [4 ** q for q in range(depth)]
    four_l = 4 ** depth
    root_center = geo.tree.root.center

    def first_leaf(tau, b_idx, m_idx_lists):
        """Smallest (m_idx, bi, band) among the given guesses whose leaf
        window holds tau, with the leaf's M values and B; None if none does."""
        for m_idx in product(*m_idx_lists):
            m_vals = tuple(g.value(i) for g, i in zip(geo.grids, m_idx))
            sig = float(sum(pq * mv for pq, mv in zip(pow4, m_vals)))
            hi_sq = (sig + slack) / four_l
            if hi_sq < 0:
                continue
            lo_sq = max(0.0, (sig - slack) / four_l)
            y_hi = math.sqrt(hi_sq)
            y_lo = math.sqrt(lo_sq)
            bands = [(-y_hi, y_hi)] if lo_sq == 0.0 else [(-y_hi, -y_lo), (y_lo, y_hi)]
            for bi in b_idx:
                b_val = geo.b_lo + bi * geo.eps_b
                for band_i, (band_lo, band_hi) in enumerate(bands):
                    window = _leaf_window(geo, scale, total_w, band_lo, band_hi, b_val)
                    if window is not None and window[0] <= tau <= window[1]:
                        return (m_idx, bi, band_i), m_vals, b_val
        return None

    best = None  # (leaf key, x, M values, B, l0); tau breaks key ties, ascending
    for tau, x, l0 in candidates:
        # stage 1: B guesses within one step of |x - C_root| + R
        dist_root = math.sqrt(sum((xk - ck) ** 2 for xk, ck in zip(x, root_center)))
        b_idx = _indices_near(
            geo.b_count, (dist_root + geo.root_radius - geo.b_lo) / geo.eps_b,
            lambda bi: abs(geo.b_lo + bi * geo.eps_b - dist_root - geo.root_radius)
            <= geo.eps_b * (1 + 1e-9))
        if not b_idx:
            continue
        # stage 2: per level, M guesses within one step of the true cross sum
        m_idx_lists = []
        for q, g in enumerate(geo.grids):
            cs = cross_sum(geo.tree, q, x)
            m_idx_lists.append(_indices_near(
                g.count, (cs + float(g.mbar)) / steps_f[q],
                lambda i: abs(float(g.value(i)) - cs) <= steps_f[q] * (1 + 1e-9)))
            if not m_idx_lists[-1]:
                break
        else:
            leaf = first_leaf(tau, b_idx, m_idx_lists)
            if leaf is not None and (best is None or leaf[0] < best[0]):
                best = (leaf[0], x, leaf[1], leaf[2], l0)
    if best is None:
        return None
    _, x, m_vals, b_val, l0 = best
    return SsspCertificate(x=x, chosen_m=m_vals, chosen_b=Fraction(b_val),
                           l0_exact=l0, accepted=True, curvature=curvature_term(inst),
                           grid_size=geo.grid_size)


def result_to_json(cert: SsspCertificate | None, *, curvature: Fraction,
                   grid_size: int) -> dict:
    if cert is None:
        return {
            "found": False,
            "x": None,
            "M": None,
            "B": None,
            "L0": None,
            "curvature_term": fraction_json(curvature),
            "grid_size": grid_size,
        }
    return {
        "found": True,
        "x": list(cert.x),
        "M": [fraction_json(m) for m in cert.chosen_m],
        "B": fraction_json(cert.chosen_b),
        "L0": fraction_json(cert.l0_exact),
        "curvature_term": fraction_json(cert.curvature),
        "grid_size": cert.grid_size,
    }
