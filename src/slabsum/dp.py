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
solve_family answers the whole shifted-target window from one table filled
to the window top (the bitset-row formulation of subset sum; Pisinger,
J. Algorithms 1999; Bringmann, SODA 2017).  dp_run answers one target, the
window [tau, tau], and attainable_witnesses every target of the window its
caller gives.

Every table is banded by its window [lo, hi]: of row k only
band(k) = [max(0, lo - P(k-1)), min(hi, Suf(k))] can matter, P(k-1) the
sum of items 1..k-1 and Suf(k) of items k..n, since a sum outside it can no
longer end in the window (prefix/suffix bounds, as in Pisinger's pruning).
Band bits depend only on the previous row's band bits, and every bit a
decision reads lies in the band; on planted instances the band is about
half of each row.  The budget still counts full rows, (n+1)*(hi+1) cells,
before any row is allocated.

Rows are Python ints masked to the cap.  An int is only as long as its top
set bit, so a row never holds bits above its attainable sums, and a
checkpoint is the row itself, since ints are immutable.  A row holds every
attainable sum below its band too, so the band bounds what a decision
reads, and what `cells` counts, not what the fill computes.

Before any table, solve_family tries the complement probe on the target
it looks at first, the center of the window.  Subset sums are symmetric:
tau is in row k iff D_k = Suf(k) - tau is, and bits [0, W] of row k depend
only on bits [0, W] of row k+1.  So Python-int rows masked to [0, W]
decide "tau in row k" exactly while D_k <= W, and D_k only grows as k
falls (balancing around the break solution, in the spirit of Pisinger
1999).  The walk keeps to the same small rows, since D only falls along
it.  On planted instances the center target appears where D is tens of
thousands of bits, against a window top of millions, so the decision needs
no wide table.  The probe's rows are never wider than a fixed share of the
window top: it is skipped when that share is below its starting width or
below D at the first row that can reach tau, and it gives up when it would
grow past that share; then, and when tau is not attained, the table
answers as before.  The budget is checked before either.  dp_run builds
its table directly, so it stays an independent reference for the probe.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

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
    """One decision run: verdict, witness (None when tau is not attained),
    and table-work accounting."""

    x: tuple[int, ...] | None
    cells: int


class ReachTable:
    """Checkpointed suffix reachability rows for one (items, cap) pair.

    Row k is the bit set of sums attainable from items k..n (1-based); row
    n+1 = {0}.  Rows are Python ints masked to [0, cap].  The table stores
    row n+1, every stride-th row below it and the last row filled in
    checkpoints; attained() reads the window off the last row, and
    witnesses() re-derives the rows between checkpoints on the bits it reads.

    The table is banded by its window [window_lo, cap]: only sums that can
    still end in the window matter.  Row k then needs only its bits in
    band(k) = [max(0, window_lo - P(k-1)), min(cap, Suf(k))], where P(k-1)
    sums items 1..k-1 and Suf(k) items k..n.  Band bits of row k depend only
    on band bits of row k+1, since the low end drops by at most u_k from one
    row to the next, and a bit above the band is zero (no subset of items
    k..n reaches it, or it lies above the cap).  An int row also holds every
    bit below its band, exactly, so the band bounds what a decision reads,
    not what the fill computes.  Every bit a window decision reads is in the
    band: the window bits of the last row filled, and each sigma that
    witnesses() tests in row k+1, which is at least tau - P(k-1).
    window_lo = 0 keeps every attainable sum up to the cap.  The budget
    counts (n+1)*(cap+1).
    """

    def __init__(self, u: tuple[int, ...], cap: int, *, budget_cells: int | None = None,
                 early_stop_bit: int | None = None, window_lo: int = 0):
        n = len(u)
        check_budget((n + 1) * (cap + 1), budget_cells)
        self.u = u
        self.cap = cap
        self.window_lo = window_lo
        self.stride = max(1, math.isqrt(n))
        self.stopped_at: int | None = None
        ascending = list(accumulate(reversed(u), initial=0))
        # suf[k] = Suf(k) for k = 1..n+1; suf[0] = Suf(1) stands in for a row 0
        self._suf = [ascending[-1], *reversed(ascending)]

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
        """Summed band width of the rows filled: the bits a decision reads
        from, not the bits below the bands that the int rows hold too."""
        n = len(self.u)
        return sum(max(0, hi - lo + 1)
                   for lo, hi in map(self.band, range(n - self.rows_done + 1, n + 1)))

    def band(self, k: int) -> tuple[int, int]:
        """The bits [L, H] of row k that a decision on this table can read;
        the int row holds its bits below L as well."""
        suf = self._suf[k]
        return max(0, self.window_lo - self._suf[1] + suf), min(self.cap, suf)

    def attained(self) -> list[int]:
        """The window targets [window_lo, cap] that the last row filled
        (stopped_at, else 1) holds, ascending, read as one slice of it."""
        lo = self.window_lo
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
        that slice alone.  Bits below a band stay below it, so they cannot
        reach a bit the walk reads."""
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
    """(width, stop, x) when the complement probe finds tau: stop is the
    first row, filling from n down, that attains tau (a ReachTable's
    stopped_at), x the lexicographically smallest witness and width the
    probe's row width in bits; None when it gives up or tau is not attained.

    tau is in row k iff D_k = Suf(k) - tau is, and bits [0, W] of row k
    depend only on bits [0, W] of row k+1, so Python-int rows masked to
    [0, W] decide row k exactly while 0 <= D_k <= W.  D_k only grows as k
    falls.  The cap on W is top // PROBE_SHARE.  The probe is skipped, in
    O(n), when the cap is below PROBE_MIN_BITS or d0, D at the first row
    whose suffix sum reaches tau, exceeds the cap; otherwise W starts at the
    least power of two at or above max(2 d0, PROBE_MIN_BITS), or at the cap
    if that is lower, and grows 4x on each give-up, up to the cap.
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
    width = min(cap, max(PROBE_MIN_BITS, 1 << (2 * (suf - tau) - 1).bit_length()))
    while (found := _probe_stop(u, tau, width)) is None:
        # D_1 within the width is a miss, which no wider probe changes
        if sum(u) - tau <= width or width >= cap:
            return None
        width = min(4 * width, cap)
    stop, d = found
    return width, stop, _probe_witness(u, stop, d)


def _probe_stop(u, tau: int, width: int) -> tuple[int, int] | None:
    """(stop, D_stop) of a probe at width, keeping no row; None when D_k
    passes the width, or row 1 is reached, with no hit."""
    mask = (1 << (width + 1)) - 1
    row = 1
    d = -tau
    for k in range(len(u), 0, -1):
        w = u[k - 1]
        if w <= width:
            row = (row | row << w) & mask
        d += w
        if d > width:
            return None
        if d >= 0 and row >> d & 1:
            return k, d
    return None


def _probe_witness(u, stop: int, d: int) -> tuple[int, ...]:
    """The witness of tau from row stop, where D = d: rows stop+1..n+1 are
    filled again on bits [0, d] alone, since D only falls along the walk.
    Item k is taken iff D - u_k is not in row k+1, which is the test
    "sigma is not in row k+1" of ReachTable.witness; when it is not taken,
    D drops by u_k."""
    mask = (1 << (d + 1)) - 1
    rows = [1]
    for w in reversed(u[stop:]):
        rows.append((rows[-1] | rows[-1] << w) & mask)
    x = [0] * len(u)
    for k, row in zip(range(stop, len(u) + 1), reversed(rows)):
        rest = d - u[k - 1]
        if rest < 0 or not row >> rest & 1:
            x[k - 1] = 1
        else:
            d = rest
    assert d == 0
    return tuple(x)


def dp_run(u, tau: int, *, budget_cells: int | None = None) -> DpRun:
    """Decide whether a subset of u sums to tau, and if so give the
    lexicographically smallest solution vector.

    The table is banded by the window [tau, tau], and its fill stops at the
    first row whose sums reach tau.  The budget counts (n+1)*(tau+1) cells.
    Unlike solve_family, it runs no complement probe first.
    """
    u = tuple(u)
    n = len(u)
    if tau < 0 or tau > sum(u):
        return DpRun(None, 0)
    if tau == 0:
        return DpRun((0,) * n, 0)

    table = ReachTable(u, tau, budget_cells=budget_cells, early_stop_bit=tau,
                       window_lo=tau)
    if table.stopped_at is None:  # no row, row 1 included, reached tau
        return DpRun(None, table.cells)
    return DpRun(table.witness(tau), table.cells)


def dp_decide(u, tau: int, *, budget_cells: int | None = None) -> tuple[int, ...] | None:
    """Witness for sum(u[i]*x[i]) == tau, or None if no subset attains it."""
    return dp_run(u, tau, budget_cells=budget_cells).x


def attainable_witnesses(u, lo: int, hi: int, *, budget_cells: int | None = None
                         ) -> list[tuple[int, tuple[int, ...]]]:
    """(tau, witness) for every tau in the window [lo, hi] that some subset
    attains, tau ascending; each witness is the one dp_decide(u, tau)
    returns.

    One ReachTable banded by the window answers every tau in it, since the
    bits at or below tau do not depend on the cap.  The budget is checked
    once, for (n+1)*(hi+1) cells, before any row is allocated.
    """
    u = tuple(u)
    table = ReachTable(u, hi, budget_cells=budget_cells, window_lo=lo)
    taus = table.attained()
    return list(zip(taus, table.witnesses(taus)))


# -- the shifted-target family ------------------------------------------------


@dataclass(frozen=True)
class TargetFamily:
    """Integer targets within n of half the total: the window any vertex close
    to the central hyperplane must land in."""

    total: int
    window: tuple[int, ...]

    def t_of(self, tau: int) -> int:
        """Shift relative to ceil(total/2); for even totals, tau - total/2."""
        return tau - (self.total + 1) // 2


def family_window(total: int, n: int) -> TargetFamily:
    lo = max(0, (total + 1) // 2 - n)
    hi = min(total, total // 2 + n)
    return TargetFamily(total, tuple(range(lo, hi + 1)))


@dataclass(frozen=True)
class FamilyScan:
    family: TargetFamily
    hit: tuple[int, tuple[int, ...]] | None  # (t, lexicographically smallest witness)
    targets_scanned: int


def solve_family(q: QuantizedNormal, *, budget_cells: int | None = None) -> FamilyScan:
    """Find the window target nearest half the quantized total that some
    subset attains, with its lexicographically smallest witness.

    Targets are taken center-out: by distance from total/2, the lower one
    first on a tie.  The budget is checked first, for (n+1)*(hi+1) cells,
    before any row is allocated.  center_probe then looks for the first
    target on narrow rows; a hit is the answer, with targets_scanned = 1.
    When the probe is skipped, gives up or misses, one ReachTable capped at
    the window top hi answers every target.  Its fill stops as soon as the
    first target's bit appears, otherwise it runs to row 1; the hit is the
    first target in center-out order that the last row filled attains.
    targets_scanned is the hit's 1-based position in that order, or the
    window size when nothing hits.
    """
    total = q.total_u
    fam = family_window(total, q.n)
    check_budget((q.n + 1) * (fam.window[-1] + 1), budget_cells)
    # total // 2 is always in the window, and first in center-out order
    probe = center_probe(q.u, total // 2, fam.window[-1])
    if probe is not None:
        return FamilyScan(fam, (fam.t_of(total // 2), probe[2]), 1)
    order = sorted(fam.window, key=lambda tau: (abs(2 * tau - total), tau))
    table = ReachTable(q.u, fam.window[-1], budget_cells=budget_cells,
                       early_stop_bit=order[0], window_lo=fam.window[0])
    attained = set(table.attained())
    pos = next((i for i, tau in enumerate(order) if tau in attained), None)
    if pos is None:
        return FamilyScan(fam, None, len(order))
    tau = order[pos]
    return FamilyScan(fam, (fam.t_of(tau), table.witness(tau)), pos + 1)
