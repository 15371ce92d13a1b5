"""Subset-sum reachability by bitset dynamic programming.

Rows are bit sets: bit s of row k means some subset of items k..n sums to s.
The suffix orientation makes "prefer excluding the earliest items"
reconstruction produce the lexicographically smallest solution vector.
A table keeps one rolling row; reconstruction re-derives rows between
checkpoints spaced ~sqrt(n) apart, so memory stays near O(sqrt(n) * cap)
bits while every answer remains exact.

Bits at or below tau of a row do not depend on the cap once cap >= tau, so
solve_family answers the whole shifted-target window from one table filled
to the window top (the bitset-row formulation of subset sum; Pisinger,
J. Algorithms 1999; Bringmann, SODA 2017).  dp_run answers one target.

Two interchangeable row kernels produce bit-identical tables: plain Python
ints for narrow rows, and preallocated numpy uint64 arrays for wide ones,
where avoiding per-op allocation is worth roughly an order of magnitude.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass

from .quantize import QuantizedNormal

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

BUDGET_ENV = "SLABSUM_BUDGET_CELLS"
DEFAULT_BUDGET_CELLS = 1 << 34

# rows narrower than this many bits run on Python ints
ARRAY_KERNEL_MIN_BITS = 1 << 17


class BudgetError(RuntimeError):
    """A table or grid would exceed the configured resource budget."""

    def __init__(self, message: str, *, cells: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.cells = cells
        self.cap = cap


def budget_cap(budget_cells: int | None = None) -> int:
    if budget_cells is not None:
        return budget_cells
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise BudgetError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET_CELLS


class _IntKernel:
    """Rows as Python ints; snapshots are free because ints are immutable."""

    def __init__(self, cap: int):
        self.cap = cap
        self.mask = (1 << (cap + 1)) - 1

    def one(self):
        return 1

    def apply(self, row: int, w: int) -> int:
        if w > self.cap:
            return row
        return (row | (row << w)) & self.mask

    def rebuild(self, row: int, w: int, slot: int) -> int:
        return self.apply(row, w)

    @staticmethod
    def snapshot(row: int) -> int:
        return row

    @staticmethod
    def test(row: int, s: int) -> bool:
        return (row >> s) & 1 == 1


class _ArrayKernel:
    """Rows as uint64 arrays; shift/or stream through two reused buffers, and
    rows rebuilt between checkpoints land in reused slot buffers."""

    def __init__(self, cap: int):
        self.cap = cap
        self.words = (cap >> 6) + 1
        self.top_mask = _np.uint64((1 << ((cap & 63) + 1)) - 1)
        self._sh = _np.zeros(self.words, _np.uint64)
        self._carry = _np.zeros(self.words, _np.uint64)
        self._slots: list = []

    def one(self):
        row = _np.zeros(self.words, _np.uint64)
        row[0] = 1
        return row

    def apply(self, row, w: int):
        if w > self.cap:
            return row
        words = self.words
        q, r = divmod(w, 64)
        sh = self._sh
        sh[:q] = 0
        if r == 0:
            sh[q:] = row[: words - q]
        else:
            _np.left_shift(row[: words - q], _np.uint64(r), out=sh[q:])
            if q + 1 < words:
                carry = self._carry
                _np.right_shift(row[: words - q - 1], _np.uint64(64 - r),
                                out=carry[: words - q - 1])
                _np.bitwise_or(sh[q + 1:], carry[: words - q - 1], out=sh[q + 1:])
        _np.bitwise_or(row, sh, out=row)
        row[words - 1] &= self.top_mask
        return row

    def rebuild(self, row, w: int, slot: int):
        """apply() on a copy of row held in buffer `slot`, which the next
        rebuild into that slot overwrites.  Slots are separate arrays made on
        first use, so a table whose blocks stay short never holds stride rows."""
        if slot == len(self._slots):
            self._slots.append(_np.empty(self.words, _np.uint64))
        out = self._slots[slot]
        _np.copyto(out, row)
        return self.apply(out, w)

    @staticmethod
    def snapshot(row):
        return row.copy()

    @staticmethod
    def test(row, s: int) -> bool:
        return (int(row[s >> 6]) >> (s & 63)) & 1 == 1


def _make_kernel(cap: int):
    if _np is not None and cap + 1 >= ARRAY_KERNEL_MIN_BITS:
        return _ArrayKernel(cap)
    return _IntKernel(cap)


@dataclass(frozen=True)
class DpRun:
    """One decision run: verdict, optional witness, and table-work accounting."""

    x: tuple[int, ...] | None
    found: bool
    rows_done: int
    cells: int


class ReachTable:
    """Checkpointed suffix reachability rows for one (items, cap) pair.

    reach(k) is the bit set of sums attainable from items k..n (1-based);
    reach(n+1) = {0}.  Rows between checkpoints are rebuilt on demand.
    """

    def __init__(self, u: tuple[int, ...], cap: int, *, budget_cells: int | None = None,
                 early_stop_bit: int | None = None, keep_checkpoints: bool = True):
        n = len(u)
        cells = (n + 1) * (cap + 1)
        limit = budget_cap(budget_cells)
        if cells > limit:
            raise BudgetError(
                f"reach table needs {cells} cells, budget is {limit}",
                cells=cells, cap=limit,
            )
        self.u = u
        self.cap = cap
        self.kernel = _make_kernel(cap)
        self.stride = max(1, math.isqrt(n))
        self.stopped_at: int | None = None

        kern = self.kernel
        row = kern.one()
        self.checkpoints = {n + 1: kern.snapshot(row)}
        next_cp = n + 1 - self.stride if keep_checkpoints else 0
        k = 1
        if isinstance(kern, _IntKernel) and not keep_checkpoints and early_stop_bit is None:
            # pure decision scan: no bookkeeping, and the final row does not
            # depend on item order
            mask = kern.mask
            for w in u:
                if w <= cap:
                    row = (row | (row << w)) & mask
        elif isinstance(kern, _IntKernel):
            # inlined hot loop: a method call per item would dominate narrow rows
            mask = kern.mask
            probe = (1 << early_stop_bit) if early_stop_bit is not None else 0
            for k in range(n, 0, -1):
                w = u[k - 1]
                if w <= cap:
                    row = (row | (row << w)) & mask
                if k == next_cp:
                    self.checkpoints[k] = row
                    next_cp -= self.stride
                if probe and row & probe:
                    self.stopped_at = k
                    break
        else:
            for k in range(n, 0, -1):
                row = kern.apply(row, u[k - 1])
                if k == next_cp:
                    self.checkpoints[k] = kern.snapshot(row)
                    next_cp -= self.stride
                if early_stop_bit is not None and kern.test(row, early_stop_bit):
                    self.stopped_at = k
                    break
        self.rows_done = n - k + 1 if n else 0
        self.checkpoints.setdefault(max(1, self.stopped_at or 1), kern.snapshot(row))
        self._cp_keys = sorted(self.checkpoints)
        self._block: dict[int, object] = {}

    def reach(self, k: int):
        """Row for items k..n; valid for k >= stopped_at (or 1 on a full run).

        A rebuilt row may share a buffer with the next block, so read it
        before calling reach for a row outside the current block.
        """
        row = self.checkpoints.get(k)
        if row is not None:
            return row
        row = self._block.get(k)
        if row is not None:
            return row
        kern = self.kernel
        cp = self._cp_keys[bisect.bisect_left(self._cp_keys, k)]
        self._block.clear()
        row = self.checkpoints[cp]
        for slot, j in enumerate(range(cp - 1, k - 1, -1)):
            row = kern.rebuild(row, self.u[j - 1], slot)
            self._block[j] = row
        return row

    def contains(self, k: int, sigma: int) -> bool:
        return 0 <= sigma <= self.cap and self.kernel.test(self.reach(k), sigma)

    def witness(self, tau: int) -> tuple[int, ...]:
        """Lexicographically smallest 0/1 vector whose chosen items sum to
        tau, which must be a set bit of reach(stopped_at or 1).

        Ties break toward excluding earlier items; items before stopped_at
        are excluded outright, since later items alone already reach tau.
        """
        x = [0] * len(self.u)
        sigma = tau
        for k in range(self.stopped_at or 1, len(self.u) + 1):
            if not self.contains(k + 1, sigma):
                x[k - 1] = 1
                sigma -= self.u[k - 1]
        assert sigma == 0
        return tuple(x)


def dp_run(u, tau: int, *, want_solution: bool = True, early_stop: bool = True,
           budget_cells: int | None = None) -> DpRun:
    """Decide whether a subset of u sums to tau; reconstruct a witness if asked.

    The returned vector is the lexicographically smallest solution.
    """
    u = tuple(u)
    n = len(u)
    if tau < 0 or tau > sum(u):
        return DpRun(None, False, 0, 0)
    if tau == 0:
        return DpRun((0,) * n if want_solution else None, True, 0, 0)

    table = ReachTable(u, tau, budget_cells=budget_cells,
                       early_stop_bit=tau if early_stop else None,
                       keep_checkpoints=want_solution)
    cells = table.rows_done * (tau + 1)
    if table.stopped_at is None and not table.contains(1, tau):
        return DpRun(None, False, table.rows_done, cells)
    x = table.witness(tau) if want_solution else None
    return DpRun(x, True, table.rows_done, cells)


def dp_decide(u, tau: int, *, budget_cells: int | None = None) -> tuple[int, ...] | None:
    """Witness for sum(u[i]*x[i]) == tau, or None if no subset attains it."""
    return dp_run(u, tau, want_solution=True, budget_cells=budget_cells).x


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
    first on a tie.  One ReachTable capped at the window top hi answers them
    all.  The fill stops as soon as the first target's bit appears;
    otherwise it runs to row 1, and the first set bit in center-out order is
    the hit.  targets_scanned is the hit's 1-based position in that order,
    or the window size when nothing hits.  The budget is checked once, for
    (n+1)*(hi+1) cells, before any row is allocated.
    """
    total = q.total_u
    fam = family_window(total, q.n)
    order = sorted(fam.window, key=lambda tau: (abs(2 * tau - total), tau))
    table = ReachTable(q.u, fam.window[-1], budget_cells=budget_cells,
                       early_stop_bit=order[0])
    if table.stopped_at is not None:
        pos = 0
    else:
        row = table.reach(1)
        pos = next((i for i, tau in enumerate(order) if table.kernel.test(row, tau)), None)
        if pos is None:
            return FamilyScan(fam, None, len(order))
    tau = order[pos]
    return FamilyScan(fam, (fam.t_of(tau), table.witness(tau)), pos + 1)
