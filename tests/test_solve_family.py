"""The one-table window scan against the per-target scan it replaced.

solve_family answers every target of the shifted window from one
ReachTable.  The reference below runs one early-stopped DP per target in
center-out order and stops at the first hit, which is how decisions were
made before; both must agree on the hit, its witness, the scan position and
the verdict bytes.
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


def test_edge_cases_reach_the_clamps():
    windows = [family_window(quantize(inst, **scale).total_u, inst.n)
               for inst, scale in _edge_cases()]
    assert any(w.window[0] == 0 and w.window[-1] == w.total for w in windows)
    assert any(w.total % 2 == 1 for w in windows)
    assert any(w.total == 1 for w in windows)


def test_one_table_matches_per_target_reference(rows, monkeypatch):
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

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was allocated past the budget")

    monkeypatch.setattr(dp, "ReachTable", no_rows)
    monkeypatch.setattr(dp, "center_probe", no_rows)
    with pytest.raises(BudgetError) as err:
        decide(inst, c=2, budget_cells=need - 1)
    assert err.value.cells == need
    assert err.value.cap == need - 1


def _wide_cap_cases():
    """n = 47..97 at c = 3: n - 1 weights in [500, 1500) and one more, either
    near 10^6, so every target misses, or equal to the others' sum, so that
    weight alone is near the center and, with enough weight on each side of
    it, the table rather than the complement probe finds the hit.  Most
    window tops are 2^17 bits or more, and every row band far narrower."""
    cases = []
    for seed in range(90):
        n = random.Random(seed).randint(47, 97)
        rng = random.Random(seed)
        weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
        at = rng.randrange(n)
        weights.insert(at, 10**6 + rng.randrange(1500) if seed % 3 == 0 else sum(weights))
        cases.append(quantize(PartitionInstance(tuple(weights)), c=3))
    return cases


def test_wide_cap_inputs_match_per_target_reference():
    cases = _wide_cap_cases()
    got = [solve_family(q) for q in cases]
    assert got == [per_target_family(q) for q in cases]
    tops = [family_window(q.total_u, q.n).window[-1] for q in cases]
    assert sum(top >= 1 << 17 for top in tops) >= 20
    # misses, and hits the table finds after the probe declines
    assert any(scan.hit is None for scan in got)
    assert any(scan.hit is not None and dp.center_probe(q.u, q.total_u // 2, top) is None
               for scan, q, top in zip(got, cases, tops))
