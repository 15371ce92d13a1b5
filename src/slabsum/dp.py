"""Subset-sum reachability by bitset dynamic programming.

Rows are bit sets: bit s of row k means some subset of items k..n sums to s.
The suffix orientation makes "prefer excluding the earliest items"
reconstruction produce the lexicographically smallest solution vector.
A table keeps one rolling row and stores a checkpoint row every `stride`
rows.  The witness walk re-derives each block between checkpoints on a
Python int holding only the slice of bits the walk can read there,
[sigma - B, sigma] for the walk's sum sigma and the block's item sum B, so
no row other than a checkpoint is ever stored.

Bits at or below tau of a row do not depend on the cap once cap >= tau, so
one table filled to the window top answers every target of a window (the
bitset-row formulation of subset sum; Pisinger, J. Algorithms 1999;
Bringmann, SODA 2017).  nearest_attained decides solve_family's
shifted-target window and dp_run's window [tau, tau] by the target nearest
their center; attainable_witnesses answers every target of its window.

Rows are Python ints masked to [0, hi], hi the table's cap (its window
top).  An int is only as long as its top set bit, so a row never holds bits
above its attainable sums, and a checkpoint is the row itself, since ints
are immutable.  A cell is one row bit: the budget counts (n+1)*(hi+1)
cells before any row is allocated, and a table's `cells` counts the hi+1
bits of each row it filled.

Before any table, nearest_attained tries the complement probe on the
center of its window.  Subset sums are symmetric: tau is in row k iff
D_k = Suf(k) - tau is, Suf(k) the sum of items k..n, and bits [0, W] of
row k depend only on bits [0, W] of row k+1, so rows masked to [0, W]
decide it exactly while D_k <= W (balancing around the break solution, in
the spirit of Pisinger 1999).
On planted instances W is tens of thousands of bits, against a window top
of millions; center_probe sets it.  When the probe is skipped or gives up,
or tau is not attained, the table answers, so an unattained target pays
for the probe and the table.  The budget is checked before either.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .quantize import QuantizedNormal

BUDGET_ENV = "SLABSUM_BUDGET_CELLS"
DEFAULT_BUDGET_CELLS = 1 << 34

# read only by the perfbench tracer, whose dp.wide_tables counts the tables
# at least this many bits wide; it goes with the tracer refresh (ROADMAP 4)
ARRAY_KERNEL_MIN_BITS = 1 << 17
# the complement probe's rows are at least 2^12 and at most 1/PROBE_SHARE of
# the window top bits wide; below that top it is skipped
PROBE_MIN_BITS = 1 << 12
PROBE_SHARE = 8


class BudgetError(RuntimeError):
    """A table or grid would exceed the configured resource budget."""

    def __init__(self, message: str, *, cells: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.cells = cells
        self.cap = cap


def check_budget(cells: int, budget_cells: int | None = None) -> None:
    """Refuse a table of `cells` cells above the budget: budget_cells if
    given, else $SLABSUM_BUDGET_CELLS, else DEFAULT_BUDGET_CELLS.  A
    malformed $SLABSUM_BUDGET_CELLS, not an integer or negative, is a
    ValueError, a usage error rather than a refusal."""
    limit = budget_cells
    if limit is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            limit = int(env) if env else DEFAULT_BUDGET_CELLS
            if limit < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{BUDGET_ENV} must be an integer at least 0, got {env!r}") from None
    if cells > limit:
        raise BudgetError(f"reach table needs {cells} cells, budget is {limit}",
                          cells=cells, cap=limit)


@dataclass(frozen=True)
class DpRun:
    """One decision run: its witness (None when tau is not attained) and
    the cells of its table, 0 when no table was built."""

    x: tuple[int, ...] | None
    cells: int


class ReachTable:
    """Checkpointed suffix reachability rows for one (items, cap) pair.

    Row k is the bit set of sums attainable from items k..n (1-based); row
    n+1 = {0}.  Rows are Python ints masked to [0, cap].  The table stores
    row n+1, every stride-th row below it and the last row filled in
    checkpoints; attained() reads a window off the last row, and
    witnesses() re-derives the rows between checkpoints on the bits it reads.
    The budget counts (n+1)*(cap+1) cells.
    """

    def __init__(self, u: tuple[int, ...], cap: int, *, budget_cells: int | None = None,
                 early_stop_bit: int | None = None):
        n = len(u)
        check_budget((n + 1) * (cap + 1), budget_cells)
        self.u = u
        self.cap = cap
        self.stride = max(1, math.isqrt(n))
        self.stopped_at: int | None = None

        mask = (1 << (cap + 1)) - 1
        row = 1
        self.checkpoints = {n + 1: row}
        next_cp = n + 1 - self.stride
        k = 1
        for k in range(n, 0, -1):
            w = u[k - 1]
            # a weight above the cap adds nothing; skipping it saves building
            # an int w bits wider only to mask it
            if w <= cap:
                row = (row | row << w) & mask
            if k == next_cp:
                self.checkpoints[k] = row
                next_cp -= self.stride
            if early_stop_bit is not None and row >> early_stop_bit & 1:
                self.stopped_at = k
                break
        self.rows_done = n - k + 1 if n else 0
        self.checkpoints.setdefault(self.stopped_at or 1, row)
        self._cp_keys = sorted(self.checkpoints)

    @property
    def cells(self) -> int:
        """The row bits filled, cap + 1 for each row: the unit the budget
        counts."""
        return self.rows_done * (self.cap + 1)

    def attained(self, lo: int = 0) -> list[int]:
        """The targets [lo, cap] that the last row filled (stopped_at, else
        1) holds, ascending, read as one slice of it."""
        bits = self.checkpoints[self.stopped_at or 1] >> lo
        return [lo + i for i, bit in enumerate(reversed(f"{bits:b}")) if bit == "1"]

    def witness(self, tau: int) -> tuple[int, ...]:
        """Lexicographically smallest 0/1 vector whose chosen items sum to
        tau, which must be in attained().

        Ties break toward excluding earlier items; items before stopped_at
        are excluded outright, since later items alone already reach tau.
        """
        return self.witnesses((tau,))[0]

    def witnesses(self, taus) -> list[tuple[int, ...]]:
        """witness(tau) for every tau in taus, from one walk over the rows.

        Item k is taken iff the walk's sigma is not in row k+1.  The block
        that decides items k..cp-1, cp the next checkpoint, reads rows
        k+1..cp, which checkpoint cp gives by items k+1..cp-1.  Sigma only
        drops by the items taken, so with B = u_k + ... + u_{cp-1}, every bit
        those rows are derived from or read at lies in
        [min sigma - B, max sigma] over taus, and the block is rebuilt on
        that slice alone."""
        u = self.u
        xs = [[0] * len(u) for _ in taus]
        sigmas = list(taus)
        k = self._cp_keys[0]
        for cp in self._cp_keys[1:] if sigmas else ():
            hi = max(sigmas)
            lo = max(0, min(sigmas) - sum(u[k - 1: cp - 1]))
            mask = (1 << (hi - lo + 1)) - 1
            rows = [self.checkpoints[cp] >> lo & mask]
            for j in range(cp - 1, k, -1):
                rows.append((rows[-1] | rows[-1] << u[j - 1]) & mask)
            for row in reversed(rows):
                for i, sigma in enumerate(sigmas):
                    # sigma stays a set bit of row k, so it is never negative
                    if not (row >> (sigma - lo)) & 1:
                        xs[i][k - 1] = 1
                        sigmas[i] = sigma - u[k - 1]
                k += 1
        assert not any(sigmas)
        return [tuple(x) for x in xs]


def center_probe(u: tuple[int, ...], tau: int, top: int
                 ) -> tuple[int, int, tuple[int, ...]] | None:
    """(width, stop, x) when the complement probe finds tau, any target up
    to top: stop is the first row, filling from n down, that attains tau (a
    ReachTable's stopped_at), x the lexicographically smallest witness and
    width the probe's row width in bits; None when it is skipped, gives up
    or tau is not attained.  Its callers pass the window center as tau.

    tau is in row k iff D_k = Suf(k) - tau is, and bits [0, W] of row k
    depend only on bits [0, W] of row k+1, so Python-int rows masked to
    [0, W] decide row k exactly while 0 <= D_k <= W.  D_k only grows as k
    falls.  The cap on W is top // PROBE_SHARE.  The probe is skipped, in
    O(n), when the cap is below PROBE_MIN_BITS or d0, D at the first row
    whose suffix sum reaches tau, exceeds the cap.  W starts at
    max(PROBE_MIN_BITS, d0); a fill that gives up where D first passes W
    is redone at max(2W, that D), up to the cap.  The fill that finds tau
    keeps rows n+1..stop+1, each under 2 max(D_stop, PROBE_MIN_BITS) bits,
    and the witness walks them: D only falls along the walk, so every bit
    it reads is exact.
    """
    cap = top // PROBE_SHARE
    if cap < PROBE_MIN_BITS:
        return None
    suf = 0
    for w in reversed(u):
        suf += w
        if suf >= tau:
            break
    if not 0 <= suf - tau <= cap:
        return None
    width = max(PROBE_MIN_BITS, suf - tau)
    while True:
        stop, d, rows = _probe_fill(u, tau, width)
        if stop is not None:
            break
        # D_1 within the width is a miss, which no wider probe changes
        if d <= width or width >= cap:
            return None
        width = min(cap, max(2 * width, d))
    # item k is taken iff D - u_k is not in row k+1 (ReachTable.witness's
    # "sigma is not in row k+1"); when it is not taken, D drops by u_k
    x = [0] * len(u)
    for k, row in zip(range(stop, len(u) + 1), reversed(rows)):
        rest = d - u[k - 1]
        if rest < 0 or not row >> rest & 1:
            x[k - 1] = 1
        else:
            d = rest
    assert d == 0
    return width, stop, tuple(x)


def _probe_fill(u, tau: int, width: int) -> tuple[int | None, int, list[int]]:
    """(stop, D, rows) of one probe fill at width: stop is the row that
    attains tau and rows are rows n+1..stop+1, each masked to [0, width];
    stop is None, and rows empty, when D passes the width (a give-up) or
    row 1 is passed (a miss).  D is D at the last row filled."""
    mask = (1 << (width + 1)) - 1
    rows = []
    row = 1
    d = -tau
    for k in range(len(u), 0, -1):
        rows.append(row)
        w = u[k - 1]
        if w <= width:
            row = (row | row << w) & mask
        d += w
        if d > width:
            break
        if d >= 0 and row >> d & 1:
            return k, d, rows
    # the rows of a fill without a hit are dropped before a wider one runs
    return None, d, []


def dp_run(u, tau: int, *, budget_cells: int | None = None) -> DpRun:
    """Decide whether a subset of u sums to tau, and if so give the
    lexicographically smallest solution vector: nearest_attained on the
    window [tau, tau], so the probe first and, when it does not answer, an
    early-stopped table.  The budget counts (n+1)*(tau+1) cells."""
    u = tuple(u)
    if tau < 0 or tau > sum(u):
        return DpRun(None, 0)
    _, x, table = nearest_attained(u, tau, tau, 2 * tau, budget_cells=budget_cells)
    return DpRun(x, 0 if table is None else table.cells)


def dp_decide(u, tau: int, *, budget_cells: int | None = None) -> tuple[int, ...] | None:
    """Witness for sum(u[i]*x[i]) == tau, or None if no subset attains it."""
    return dp_run(u, tau, budget_cells=budget_cells).x


def attainable_witnesses(u, lo: int, hi: int, *, budget_cells: int | None = None
                         ) -> list[tuple[int, tuple[int, ...]]]:
    """(tau, witness) for every tau in the window [lo, hi] that some subset
    attains, tau ascending; each witness is the one dp_decide(u, tau)
    returns.

    One ReachTable capped at hi answers every tau in the window, since the
    bits at or below tau do not depend on the cap.  The budget is checked
    once, for (n+1)*(hi+1) cells, before any row is allocated.
    """
    u = tuple(u)
    table = ReachTable(u, hi, budget_cells=budget_cells)
    taus = table.attained(lo)
    return list(zip(taus, table.witnesses(taus)))


# -- the shifted-target family ------------------------------------------------


@dataclass(frozen=True)
class TargetFamily:
    """Integer targets within n of half the total: the window any vertex close
    to the central hyperplane must land in."""

    total: int
    window: range

    def t_of(self, tau: int) -> int:
        """Shift relative to ceil(total/2); for even totals, tau - total/2."""
        return tau - (self.total + 1) // 2


def family_window(total: int, n: int) -> TargetFamily:
    lo = max(0, (total + 1) // 2 - n)
    hi = min(total, total // 2 + n)
    return TargetFamily(total, range(lo, hi + 1))


@dataclass(frozen=True)
class FamilyScan:
    hit: tuple[int, tuple[int, ...]] | None  # (t, lexicographically smallest witness)
    targets_scanned: int


def _center_out(total: int):
    """Center-out order: by distance from total/2, the lower first on a tie."""
    return lambda t: (abs(2 * t - total), t)


def nearest_attained(u: tuple[int, ...], lo: int, hi: int, total: int, *,
                     budget_cells: int | None = None
                     ) -> tuple[int | None, tuple[int, ...] | None, ReachTable | None]:
    """(tau, x, table): the target of [lo, hi], which must hold total // 2,
    nearest total/2 (the lower on a tie) that a subset of u attains, its
    lexicographically smallest witness and the table built, None when the
    probe answered; tau and x are None when no target is attained.

    The budget is checked first, for (n+1)*(hi+1) cells.  center_probe then
    looks for total // 2; a hit is the answer.  Otherwise one ReachTable
    capped at hi, whose fill stops once total // 2 appears, answers every
    target from the last row it filled."""
    check_budget((len(u) + 1) * (hi + 1), budget_cells)
    probe = center_probe(u, total // 2, hi)
    if probe is not None:
        return total // 2, probe[2], None
    table = ReachTable(u, hi, budget_cells=budget_cells, early_stop_bit=total // 2)
    tau = min(table.attained(lo), key=_center_out(total), default=None)
    return tau, None if tau is None else table.witness(tau), table


def solve_family(q: QuantizedNormal, *, budget_cells: int | None = None) -> FamilyScan:
    """The window target nearest half the quantized total that some subset
    attains, with its lexicographically smallest witness (nearest_attained
    on the window).  targets_scanned is the hit's 1-based position in
    center-out order, or the window size when nothing hits."""
    total = q.total_u
    fam = family_window(total, q.n)
    tau, x, _ = nearest_attained(q.u, fam.window[0], fam.window[-1], total,
                                 budget_cells=budget_cells)
    if tau is None:
        return FamilyScan(None, len(fam.window))
    key = _center_out(total)
    # total // 2, the probe's answer, is first: it needs no count
    ahead = 0 if tau == total // 2 else sum(key(t) < key(tau) for t in fam.window)
    return FamilyScan((fam.t_of(tau), x), ahead + 1)
