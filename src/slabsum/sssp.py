"""Simultaneous balanced constraints via spherical shells and pairwise merging.

Each hyperplane constraint is relaxed to a thick spherical shell whose center
sits a distance rho behind the cube along the constraint normal.  Pairs of
shells merge into one (midpoint center, radically adjusted radius) at the
cost of a cross term; guessing the discarded cross terms on a grid, level by
level, collapses the whole system to a single shell condition that the slab
engine can decide.  The search runs in floats; every candidate vertex is
accepted or rejected by exact integer arithmetic only.

The search goes witness first.  The vertex a grid leaf proposes for a target
depends on the target alone, and the exact acceptance check on the vertex
alone, so one reachability table lists every candidate vertex; only those
passing the exact check look up the few grid points they can satisfy.  The
lexicographically first (leaf, target) pair that a walk over the whole grid
would accept is returned, without the walk.  A Cauchy-Schwarz bound,
computed in integers, first confines every target whose vertex can pass the
exact check to a window around half the axis total, and the table covers
only that window.

Key identity used throughout: every hypercube vertex is exactly sqrt(n)/2
from the cube center, so for a shell anchored at C - rho*S/|S| with squared
radius rho^2 + n/4,

    |x - C_i|^2 - R_i^2  ==  2 * rho * S_i.(x - C) / |S_i|

holds exactly at vertices: leaf residual i is rho*d_i/|S_i| for the integer
d_i = S_i.(2x - 1).  Every stage of the search reads a vertex through its p
integers d_i, and L0 <= 5*delta is a comparison of integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, product

from .dp import BudgetError, attainable_witnesses, check_budget
from .dp import dp_decide  # noqa: F401  (perfbench traces witness calls under this name)
from .instance import SsspInstance, fraction_json
from .quantize import QuantizationUnderflow


class GridBudgetError(BudgetError):
    """The (M, B) guess grid exceeds the configured leaf budget."""


@dataclass(frozen=True)
class Shell:
    """Shell around the sphere |x - center| = sqrt(radius_sq); its thickness
    is the instance's delta, which the search applies.

    `center` and `radius_sq` are used as given; Fractions keep residuals
    exact.  `anchor` and `rho` record the exact provenance of solver-built
    shells (center = cube center - rho * anchor/|anchor|), enabling exact
    residual squares at vertices even though the center coordinates are
    irrational.  A merged sphere's `children` are the two it stands in for.
    """

    center: tuple
    radius_sq: object
    anchor: tuple[int, ...] | None = None
    rho: Fraction | None = None
    children: tuple[Shell, Shell] | None = None

    def residual(self, x):
        """|x - center|^2 - radius_sq; exact when the data is rational."""
        return sum((xk - ck) ** 2 for xk, ck in zip(x, self.center)) - self.radius_sq

    def residual_sq_exact(self, x) -> Fraction:
        """Exact squared residual: by the anchor identity at a 0/1 vertex,
        else directly from rational data; ValueError when neither applies."""
        if self.anchor is not None and all(b in (0, 1) for b in x):
            d = 2 * sum(w for w, b in zip(self.anchor, x) if b) - sum(self.anchor)
            m = sum(w * w for w in self.anchor)
            return self.rho * self.rho * Fraction(d * d, m)
        r = self.residual(x)
        if not isinstance(r, Fraction):
            raise ValueError("no exact residual: the shell or the point has float data")
        return r * r


@dataclass(frozen=True)
class MergeTree:
    """levels[0] is the given shells, levels[q + 1] their merges after step
    q, and levels[-1] is (root,)."""

    levels: tuple[tuple[Shell, ...], ...]

    @property
    def root(self) -> Shell:
        return self.levels[-1][0]


def merge_pair(a: Shell, b: Shell) -> Shell:
    """Midpoint center; radius from the radical identity so that
    2*(|x-C|^2 - R^2) equals the sum of the children's residuals for all x."""
    return Shell(*root_sphere((a, b)), children=(a, b))


def merge_tree(shells) -> MergeTree:
    """Disjoint pairing (1,2), (3,4), ... repeated log2(p) times; the given
    shells are the leaves, not copies of them."""
    p = len(shells)
    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError(f"shell count {p} must be a power of two")
    level = tuple(shells)
    levels = [level]
    while len(level) > 1:
        level = tuple(merge_pair(level[i], level[i + 1]) for i in range(0, len(level), 2))
        levels.append(level)
    return MergeTree(tuple(levels))


def root_sphere(shells) -> tuple[tuple, object]:
    """(center, radius_sq) of merge_tree(shells).root without its nodes;
    merge_pair merges through it, so the two agree bit for bit."""
    level = [(s.center, s.radius_sq) for s in shells]
    while len(level) > 1:
        level = [(tuple((x + y) / 2 for x, y in zip(ca, cb)),
                  (ra + rb) / 2 - sum((x - y) ** 2 for x, y in zip(ca, cb)) / 4)
                 for (ca, ra), (cb, rb) in zip(level[::2], level[1::2])]
    return level[0]


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

    mbar: Fraction
    step: Fraction

    @property
    def count(self) -> int:
        return math.ceil(2 * self.mbar / self.step) + 1

    def value(self, i: int) -> Fraction:
        return -self.mbar + i * self.step

    def int_terms(self) -> tuple[int, int, int]:
        """(sn, mn, dd) with value(i) == (i*sn - mn) / dd over the common
        denominator dd.  The int true division rounds that rational once,
        as Fraction.__float__ does, so it equals float(value(i)) exactly."""
        dd = math.lcm(self.mbar.denominator, self.step.denominator)
        return (self.step.numerator * (dd // self.step.denominator),
                self.mbar.numerator * (dd // self.mbar.denominator), dd)


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
        grids.append(LevelGrid(mbar, step))
    return tuple(grids)


def build_shells(inst: SsspInstance) -> tuple[Shell, ...]:
    """One shell per constraint row: center pulled back rho along the row
    direction, common squared radius rho^2 + n/4 (exact)."""
    n = inst.n
    radius_sq = inst.rho * inst.rho + Fraction(n, 4)
    rho_f = float(inst.rho)
    shells = []
    for row, m in zip(inst.weight_rows, inst.row_norms_sq):
        norm = math.sqrt(m)
        center = tuple(0.5 - rho_f * w / norm for w in row)
        shells.append(Shell(center=center, radius_sq=radius_sq, anchor=row, rho=inst.rho))
    return tuple(shells)


def exact_l0(inst: SsspInstance, x) -> Fraction:
    """Exact sum of squared shell residuals at a vertex, via the anchor identity."""
    num, den = 0, 1
    for row, m in zip(inst.weight_rows, inst.row_norms_sq):
        d = 2 * sum(compress(row, x)) - sum(row)
        num, den = num * m + d * d * den, den * m
    rho = inst.rho
    return Fraction(rho.numerator ** 2 * num, rho.denominator ** 2 * den)


def l0_bound(inst: SsspInstance) -> tuple:
    """(rows, totals, factors, lhs, rhs) for l0_check.  With L = lcm_i |S_i|^2
    and factors[i] = L/|S_i|^2, exact_l0 is rho^2 * sum_i d_i^2 * factors[i] / L,
    so L0 <= 5*delta iff lhs * sum_i d_i^2 * factors[i] <= rhs, where
    lhs = rho_num^2 * delta_den and rhs = 5 * delta_num * rho_den^2 * L."""
    big_l = math.lcm(*inst.row_norms_sq)
    rho, delta = inst.rho, inst.delta
    return (inst.weight_rows, tuple(map(sum, inst.weight_rows)),
            tuple(big_l // m for m in inst.row_norms_sq), rho.numerator ** 2 * delta.denominator,
            5 * delta.numerator * rho.denominator ** 2 * big_l)


def l0_check(bound: tuple, x) -> list[int] | None:
    """The d_i = S_i.(2x - 1) of vertex x when its exact L0 is at most
    5*delta, else None; bound is l0_bound(inst)."""
    rows, totals, factors, lhs, rhs = bound
    ds = [2 * sum(compress(row, x)) - t for row, t in zip(rows, totals)]
    return ds if lhs * sum(d * d * f for d, f in zip(ds, factors)) <= rhs else None


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
class Geometry:
    """Root sphere and (M, B) guess grids of one instance and eps_b.

    geometry() checks rho, the axis length and eps_b before it builds one.
    levels, root_radius and grid_size are derived from the fields as it is
    built and check nothing; the constructor takes only the fields.
    """

    shells: tuple[Shell, ...]
    grids: tuple[LevelGrid, ...]
    leaf_scales: tuple[float, ...]  # rho / |S_i|: leaf residual i is d_i times it
    axis: tuple[float, ...]         # cube center minus merged center; all positive
    axis_norm: float
    root_radius_sq: float
    b_lo: float
    eps_b: float
    b_count: int

    def __post_init__(self):
        # set here, not cached on first read: a cached_property's write turns
        # the inline attributes into a dict, after which each attribute read
        # in the search's inner loops costs about three times as much
        levels = tuple((g.count, float(g.mbar), float(g.step), *g.int_terms()) for g in self.grids)
        object.__setattr__(self, "levels", levels)  # count, float(mbar), float(step), *int_terms()
        object.__setattr__(self, "root_radius", math.sqrt(self.root_radius_sq))
        object.__setattr__(self, "grid_size", math.prod(c for c, *_ in levels) * self.b_count)

    @cached_property
    def tree(self) -> MergeTree:
        """merge_tree(shells), built on first use; the search reads only the root."""
        return merge_tree(self.shells)


def geometry(inst: SsspInstance, eps_b: float | None) -> Geometry:
    """The search geometry; eps_b None picks delta / (8 * B_up)."""
    n = inst.n
    if inst.rho * inst.delta < inst.n:
        raise ValueError(
            f"rho={inst.rho} too small for delta={inst.delta}: "
            f"need rho >= n/delta = {Fraction(inst.n) / inst.delta} to keep the "
            "curvature term within delta/8"
        )
    shells = build_shells(inst)
    root_center, root_radius_sq = root_sphere(shells)
    grids = correction_grids(inst.p, n, inst.rho, inst.delta)
    axis = tuple(0.5 - ck for ck in root_center)
    axis_norm = math.sqrt(sum(a * a for a in axis))
    if axis_norm < math.sqrt(n):
        raise ValueError(
            f"merged center is only {axis_norm:.3f} from the cube center; "
            f"need at least sqrt(n) = {math.sqrt(n):.3f} for a usable geometry"
        )
    root_radius_sq = float(root_radius_sq)
    root_radius = math.sqrt(root_radius_sq)
    half_diag = math.sqrt(n) / 2
    b_lo = abs(half_diag - axis_norm) + root_radius
    b_up = half_diag + axis_norm + root_radius
    if eps_b is None:
        eps_b = float(inst.delta) / (8 * b_up)
    if not (math.isfinite(eps_b) and eps_b > 0):
        raise ValueError(f"eps_b must be finite and positive, got {eps_b}")
    span = (b_up - b_lo) / eps_b
    if not math.isfinite(span):
        raise ValueError(f"eps_b {eps_b} is too small: (B_up - B_lo)/eps_b is not finite")
    b_count = max(1, math.ceil(span) + 1)
    rho_f = float(inst.rho)
    leaf_scales = tuple(rho_f / math.sqrt(m) for m in inst.row_norms_sq)
    return Geometry(shells, grids, leaf_scales, axis, axis_norm, root_radius_sq, b_lo, eps_b,
                    b_count)


def grid_cardinality(inst: SsspInstance) -> int:
    """Number of (M, B) leaves in the default guess grid, which the leaf
    budget bounds."""
    return geometry(inst, None).grid_size


# fixed-point scale of the integer multipliers in l0_window
_WINDOW_D = 1 << 20


def l0_window(inst: SsspInstance, geo: Geometry, scale: int,
              w: tuple[int, ...]) -> tuple[int, int]:
    """Targets [lo, hi] that w.x can take at a vertex x with exact
    L0 <= 5*delta.

    Put y = 2x - 1 and d_i = S_i.y, so that exact_l0 is
    rho^2 * sum_i d_i^2/|S_i|^2.  For D = 2^20, any integers a_i and
    e = D*w - sum_i a_i S_i, D*(2*w.x - sum(w)) = D*w.y = sum_i a_i d_i + e.y,
    and by Cauchy-Schwarz |sum_i a_i d_i| <= sqrt(A * 5*delta/rho^2),
    A = sum_i a_i^2 |S_i|^2.  So 2*w.x lies within
    R = ceil((ceil(sqrt(A * 5*delta/rho^2)) + |e|_1) / D) of sum(w).  R is
    computed in integers and is sound for every choice of a_i; floats pick
    them near D*scale*rho / (p*|axis|*|S_i|), which makes e small because
    w ~ scale*axis/|axis| and axis = (rho/p) sum_i S_i/|S_i|.

    Never empty: R >= 1 unless w = 0 (an a_i != 0 makes A > 0, all a_i = 0
    give e = D*sum(w)), so ceil((sum(w) - R)/2) <= floor((sum(w) + R)/2),
    and the clamps to [0, sum(w)] keep lo <= hi; w = 0 gives (0, 0).
    """
    d, p = _WINDOW_D, inst.p
    big_a = 0
    ws = [d * wk for wk in w]
    for row, m in zip(inst.weight_rows, inst.row_norms_sq):
        a = round(d * scale * float(inst.rho) / (p * geo.axis_norm * math.sqrt(m)))
        big_a += a * a * m
        ws = [v - a * sk for v, sk in zip(ws, row)]
    e = sum(map(abs, ws))
    bound = big_a * 5 * inst.delta / (inst.rho * inst.rho)
    root = math.isqrt(math.ceil(bound) - 1) + 1 if bound > 0 else 0
    r = -(-(root + e) // d)
    total_w = sum(w)
    return max(0, (total_w - r + 1) // 2), min(total_w, (total_w + r) // 2)


def _leaf_window(geo: Geometry, scale: int, total_w: int, y_lo: float, y_hi: float,
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


def _near(count: int, pos: float) -> range:
    """Indices in [0, count) within two of floor(pos).

    Every stage accepts only indices within about one of pos, so the
    two-index margin on each side covers float rounding with room to
    spare."""
    base = math.floor(pos)
    return range(max(0, base - 2), min(count, base + 4))


def stage_floats(geo: Geometry, ds) -> tuple[float, list[float]]:
    """|x - C_root| and each merge step's cross sum at the vertex x whose
    d_i = S_i.(2x - 1) are ds, in O(p): leaf residual i is d_i*rho/|S_i|, a
    merged node's the mean of its children's, and
    |x - C_root|^2 = r_root + R_root^2."""
    res = [d * s for d, s in zip(ds, geo.leaf_scales)]
    crosses = []
    while len(res) > 1:
        pairs = list(zip(res[::2], res[1::2]))
        crosses.append(sum(2 * a * b for a, b in pairs))
        res = [(a + b) / 2 for a, b in pairs]
    return math.sqrt(res[0] + geo.root_radius_sq), crosses


def stage_indices(geo: Geometry, dist_root: float,
                  crosses) -> tuple[list[int], list[list[int]]]:
    """Stage 1's B indices, within one step of dist_root + R_root, and
    stage 2's M indices per level, within one step of its cross sum."""
    b_lo, eps_b, root_radius = geo.b_lo, geo.eps_b, geo.root_radius
    b_idx = [bi for bi in _near(geo.b_count, (dist_root + root_radius - b_lo) / eps_b)
             if abs(b_lo + bi * eps_b - dist_root - root_radius) <= eps_b * (1 + 1e-9)]
    # guess i of a grid is (i*sn - mn) / dd, float(g.value(i)) exactly
    return b_idx, [[i for i in _near(count, (cs + mbar_f) / step_f)
                    if abs((i * sn - mn) / dd - cs) <= step_f * (1 + 1e-9)]
                   for (count, mbar_f, step_f, sn, mn, dd), cs in zip(geo.levels, crosses)]


def solve(inst: SsspInstance, *, leaf_budget: int = 10_000_000, c: int = 2,
          budget_cells: int | None = None,
          geo: Geometry | None = None) -> SsspCertificate | None:
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
    exact check on the vertex alone, so one reachability table, read over
    l0_window alone (only its taus can pass), lists every candidate vertex,
    and one pass checks each in tau order: l0_check reads its p integers
    d_i = S_i.(2x - 1) and drops it unless l0 <= 5*delta, and stages 1 and
    2 read their floats from the d_i (stage_floats), O(p) per vertex.
    Each stage accepts only guesses within one grid step of a value
    computed from the vertex, so each survivor lists the few (M, B) grid
    points it can satisfy and keeps the first whose leaf window holds its
    tau; the smallest such key over all survivors is exactly the leaf
    walk's first hit.  The leaf budget still bounds the grid size, walked
    or not, and the cell budget still counts (n+1)*(sum(w)+1) cells for the
    whole axis, checked before any row is allocated.

    geo is geometry(inst, eps_b), built here with the default eps_b when
    not given; a caller that sets eps_b or needs the grid size whatever the
    outcome builds it once and passes it.
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    if geo is None:
        geo = geometry(inst, None)
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
    check_budget((n + 1) * (total_w + 1), budget_cells)
    window = l0_window(inst, geo, scale, w)
    bound = l0_bound(inst)
    slack = 3 * float(inst.delta)
    # a leaf's sum_q 4^q * M_q as sum_q (c_q * i_q - k_q) / sig_den, which
    # one int true division turns into the float of that exact rational
    sig_den = math.lcm(*(dd for *_, dd in geo.levels))
    sig_terms = [(4 ** q * sn * (sig_den // dd), 4 ** q * mn * (sig_den // dd))
                 for q, (*_, sn, mn, dd) in enumerate(geo.levels)]
    four_l = 4 ** depth

    def first_leaf(tau, b_idx, m_idx_lists):
        """Smallest (m_idx, bi, band) among the given guesses whose leaf
        window holds tau, with the leaf's B; None if none does."""
        for m_idx in product(*m_idx_lists):
            sig = sum(c * i - k for (c, k), i in zip(sig_terms, m_idx)) / sig_den
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
                        return (m_idx, bi, band_i), b_val
        return None

    best = None  # (leaf key, x, B); tau breaks key ties, ascending
    for tau, x in attainable_witnesses(w, *window, budget_cells=budget_cells):
        ds = l0_check(bound, x)
        if ds is None:
            continue
        b_idx, m_idx_lists = stage_indices(geo, *stage_floats(geo, ds))
        if b_idx and all(m_idx_lists):
            leaf = first_leaf(tau, b_idx, m_idx_lists)
            if leaf is not None and (best is None or leaf[0] < best[0]):
                best = (leaf[0], x, leaf[1])
    if best is None:
        return None
    (m_idx, _, _), x, b_val = best
    m_vals = tuple(g.value(i) for g, i in zip(geo.grids, m_idx))
    return SsspCertificate(x=x, chosen_m=m_vals, chosen_b=Fraction(b_val),
                           l0_exact=exact_l0(inst, x), accepted=True,
                           curvature=curvature_term(inst), grid_size=geo.grid_size)


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
