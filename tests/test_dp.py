import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabsum import dp
from slabsum.bench import scan_window
from slabsum.dp import (BudgetError, ReachTable, attainable_witnesses, dp_decide, dp_run,
                        family_window, solve_family)
from slabsum.instance import PartitionInstance
from slabsum.oracle import all_subset_sums
from slabsum.quantize import quantize


def table_decide(u, tau):
    """The single-target decision on a table alone, without the complement
    probe: one table capped at tau whose fill stops at the first row that
    reaches tau; the reference dp_run and the per-target scans are checked
    against."""
    u = tuple(u)
    if tau < 0 or tau > sum(u):
        return None
    table = ReachTable(u, tau, early_stop_bit=tau)
    return table.witness(tau) if table.attained(tau) else None


def test_hand_examples():
    assert dp_decide([1, 1, 2], 2) == (0, 0, 1)
    assert dp_decide([3, 5], 4) is None
    assert dp_decide([3, 5], 0) == (0, 0)
    assert dp_decide([3, 5], 9) is None  # above the total


def test_recurrence_row_by_row():
    u = (4, 2, 7, 1, 1)
    cap = sum(u)
    table = ReachTable(u, cap)
    n = len(u)
    # naive suffix recurrence: reach[k] = reach[k+1] | (reach[k+1] + u_k)
    expect = {n + 1: {0}}
    for k in range(n, 0, -1):
        prev = expect[k + 1]
        expect[k] = prev | {s + u[k - 1] for s in prev if s + u[k - 1] <= cap}
    assert set(table.checkpoints) >= {1, n + 1}
    for k, row in table.checkpoints.items():
        got = {s for s in range(cap + 1) if row >> s & 1}
        assert got == expect[k]


def test_agrees_with_enumeration_on_all_targets(rows):
    rng = random.Random(0)
    u = [rng.randrange(1, 257) for _ in range(16)]
    sums = all_subset_sums(u)
    for tau in range(sum(u) + 1):
        x = dp_decide(u, tau)
        assert (x is not None) == (tau in sums)
        if x is not None:
            assert sum(w for w, b in zip(u, x) if b) == tau
    total = sum(u)
    for lo, hi in ((0, total), (total // 3, 2 * total // 3), (total // 2, total // 2)):
        table = ReachTable(tuple(u), hi)
        assert table.attained(lo) == sorted(s for s in sums if lo <= s <= hi), (lo, hi)
    # an early-stopped table attains the window sums of items stopped_at..n
    lo, hi = total // 4, 3 * total // 4
    first = min(s for s in sums if s >= total // 2)
    table = ReachTable(tuple(u), hi, early_stop_bit=first)
    k = table.stopped_at
    assert k is not None and k > 1
    got = table.attained(lo)
    assert first in got
    assert got == sorted(s for s in all_subset_sums(u[k - 1:]) if lo <= s <= hi)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=14),
       st.integers(min_value=0, max_value=25000))
def test_reconstruction_validity(u, tau):
    x = dp_decide(u, tau)
    if x is not None:
        assert all(b in (0, 1) for b in x)
        assert sum(w for w, b in zip(u, x) if b) == tau


def test_lexicographically_smallest_witness():
    # both halves of (2,2,2,2) reach 4; the lex-smallest picks the later items
    assert dp_decide([2, 2, 2, 2], 4) == (0, 0, 1, 1)
    assert dp_decide([1, 2, 3], 3) == (0, 0, 1)


def test_budget_error(monkeypatch):
    monkeypatch.setenv(dp.BUDGET_ENV, "10")
    with pytest.raises(BudgetError) as err:
        dp_run([5, 5, 5], 10)
    assert err.value.cells == 4 * 11


class Unfillable(int):
    """A weight that fails the test once a row fill reads it."""

    def __le__(self, other):
        raise AssertionError("a row was filled past the budget")


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(dp.BUDGET_ENV, "10")
    with pytest.raises(BudgetError):
        dp_run([5, 5, 5], 10)
    monkeypatch.setenv(dp.BUDGET_ENV, "1000000")
    assert dp_run([5, 5, 5], 10).x is not None
    # a table and the all-targets scan refuse on their own, before any row
    u, cap = (5, 5, 5), 10
    need = (len(u) + 1) * (cap + 1)
    monkeypatch.setenv(dp.BUDGET_ENV, str(need - 1))
    for build in (lambda w: ReachTable(w, cap), lambda w: attainable_witnesses(w, 0, cap)):
        with pytest.raises(BudgetError) as err:
            build(tuple(map(Unfillable, u)))
        assert (err.value.cells, err.value.cap) == (need, need - 1)
    monkeypatch.setenv(dp.BUDGET_ENV, str(need))
    assert ReachTable(u, cap).attained() == [0, 5, 10]
    assert attainable_witnesses(u, 0, cap) == [(0, (0, 0, 0)), (5, (0, 0, 1)),
                                               (10, (0, 1, 1))]


def test_family_window_shapes():
    fam = family_window(14, 2)
    assert tuple(fam.window) == (5, 6, 7, 8, 9)
    assert [fam.t_of(t) for t in fam.window] == [-2, -1, 0, 1, 2]
    odd = family_window(15, 2)
    assert tuple(odd.window) == (6, 7, 8, 9)
    # clamped at the boundaries
    tiny = family_window(3, 4)
    assert tuple(tiny.window) == (0, 1, 2, 3)


def test_solve_family_fixture():
    q = quantize(PartitionInstance((3, 4)), big_n=10)
    fam = family_window(q.total_u, q.n)
    got = {fam.t_of(tau): dp_decide(q.u, tau) for tau in fam.window}
    assert got == {-2: None, -1: (1, 0), 0: None, 1: (0, 1), 2: None}
    # center-out order starts t = 0, -1: the hit is the second target
    scan = solve_family(q)
    assert scan.hit == (-1, (1, 0))
    assert scan.targets_scanned == 2


def test_solve_family_symmetric_half_target():
    q = quantize(PartitionInstance((9, 9, 9, 9)), c=2)
    scan = solve_family(q)
    t, x = scan.hit
    assert t == 0
    assert sum(x) == 2


def test_early_stop_and_full_rows_agree(rows):
    rng = random.Random(5)
    u = tuple(rng.randrange(1, 64) for _ in range(12))
    for tau in range(0, sum(u) + 1, 7):
        slow = ReachTable(u, tau)
        reachable = tau in slow.attained()
        # the table of table_decide, and of dp_run when the probe does not
        # answer
        fast = ReachTable(u, tau, early_stop_bit=tau)
        assert (fast.stopped_at is not None) == reachable
        if reachable:
            assert fast.witness(tau) == slow.witness(tau)


def test_decision_scan_budget_error(monkeypatch):
    # the per-target reference scan refuses before filling any row
    q = quantize(PartitionInstance((3, 4)), big_n=10)
    monkeypatch.setenv(dp.BUDGET_ENV, "10")
    with pytest.raises(BudgetError) as err:
        scan_window(q)
    assert err.value.cells == (q.n + 1) * (family_window(q.total_u, q.n).window[-1] + 1)


def test_word_boundary_widths(rows):
    # targets straddling 64-bit word edges exercise the carry logic
    u = [63, 64, 65, 1]
    sums = all_subset_sums(u)
    for tau in range(sum(u) + 1):
        assert (dp_decide(u, tau) is not None) == (tau in sums)
