"""The one-table window scan against the per-target scan it replaced.

solve_family answers every target of the shifted window from one
ReachTable.  The reference below runs one early-stopped DP per target in
center-out order and stops at the first hit, which is how decisions were
made before; both must agree on the hit, its witness, the scan position and
the verdict bytes, under both row kernels.
"""

import math
import random

import pytest

from slabsum import dp, slab
from slabsum.dp import BudgetError, FamilyScan, dp_decide, family_window, solve_family
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.quantize import QuantizationUnderflow, quantize
from slabsum.slab import decide, dump_verdict


def per_target_family(q, *, budget_cells=None) -> FamilyScan:
    fam = family_window(q.total_u, q.n)
    order = sorted(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    for pos, tau in enumerate(order, 1):
        x = dp_decide(q.u, tau, budget_cells=budget_cells)
        if x is not None:
            return FamilyScan(fam, (fam.t_of(tau), x), pos)
    return FamilyScan(fam, None, len(order))


def _seeded_cases(count: int):
    """(instance, scale) pairs: random, planted and dominated weights."""
    cases = []
    seed = 0
    while len(cases) < count:
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            n = rng.randint(1, 16)
            inst = gen_random(n, rng.randint(1, 12), seed)
            scale = {"c": rng.choice((2, 3))}
        elif kind == 1:
            n = rng.choice((2, 4, 6, 8, 10, 12, 14, 16))
            inst = gen_planted(n, rng.randint(1, 8), seed)
            scale = {"c": 2}
        else:
            n = rng.randint(2, 16)
            weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
            weights.insert(rng.randrange(n), 10**6 + rng.randrange(1000))
            inst = PartitionInstance(tuple(weights))
            scale = {"big_n": 3000 + rng.randrange(4000)}
        seed += 1
        try:
            quantize(inst, **scale)
        except QuantizationUnderflow:
            continue
        cases.append((inst, scale))
    return cases


def _edge_cases():
    """Windows clamped at 0 and at the total, odd totals, and tau = 0 inside
    the window (first in center-out order when the total is 1)."""
    cases = [(PartitionInstance((5,)), {"big_n": 1}),
             (PartitionInstance((1, 1, 1, 8)), {"c": 4})]
    for n in range(1, 12):
        root = math.isqrt(n - 1) + 1  # ceil(sqrt(n)): equal weights quantize to k
        for k in (1, 2, 3):
            cases.append((PartitionInstance((7,) * n), {"big_n": k * root}))
        # distinct weights at the smallest scale that keeps weight 1 nonzero
        norm = math.isqrt(n * (n + 1) * (2 * n + 1) // 6) + 1
        cases.append((PartitionInstance(tuple(range(1, n + 1))), {"big_n": norm}))
    return cases


CASES = _seeded_cases(300) + _edge_cases()


@pytest.fixture(params=["int", "array"])
def kernel(request, monkeypatch):
    # every row here is far below 2^17 bits; a zero threshold forces numpy rows
    if request.param == "array":
        monkeypatch.setattr(dp, "ARRAY_KERNEL_MIN_BITS", 0)
    return request.param


def test_edge_cases_reach_the_clamps():
    windows = [family_window(quantize(inst, **scale).total_u, inst.n)
               for inst, scale in _edge_cases()]
    assert any(w.window[0] == 0 and w.window[-1] == w.total for w in windows)
    assert any(w.total % 2 == 1 for w in windows)
    assert any(w.total == 1 for w in windows)


def test_one_table_matches_per_target_reference(kernel, monkeypatch):
    assert len(CASES) >= 300
    hits = 0
    for inst, scale in CASES:
        q = quantize(inst, **scale)
        got = solve_family(q)
        want = per_target_family(q)
        assert (got.hit, got.targets_scanned) == (want.hit, want.targets_scanned), \
            (inst.weights, scale)
        hits += got.hit is not None
        fast = dump_verdict(decide(inst, **scale))
        with monkeypatch.context() as patch:
            patch.setattr(slab, "solve_family", per_target_family)
            assert dump_verdict(decide(inst, **scale)) == fast
    # both alternatives are exercised
    assert 0 < hits < len(CASES)


def test_one_table_per_decision(monkeypatch):
    built = []

    class Counted(dp.ReachTable):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dp, "ReachTable", Counted)
    inst = PartitionInstance((1, 1, 1, 8))
    q = quantize(inst, c=4)
    v = decide(inst, c=4)
    assert v.targets_scanned == len(family_window(q.total_u, q.n).window)
    assert built == [family_window(q.total_u, q.n).window[-1]]


def test_decide_budget_is_checked_before_allocation(monkeypatch):
    inst = gen_planted(12, 4, seed=9)
    q = quantize(inst, c=2)
    fam = family_window(q.total_u, q.n)
    center = min(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    need = (q.n + 1) * (fam.window[-1] + 1)
    # the per-target scan fit this budget: its center table is smaller
    assert (q.n + 1) * (center + 1) < need
    assert per_target_family(q, budget_cells=need - 1).hit is not None

    def no_rows(cap, widest):
        raise AssertionError("a row was allocated past the budget")

    monkeypatch.setattr(dp, "_make_kernel", no_rows)
    with pytest.raises(BudgetError) as err:
        decide(inst, c=2, budget_cells=need - 1)
    assert err.value.cells == need
    assert err.value.cap == need - 1
