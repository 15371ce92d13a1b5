"""Banded reachability tables against tables that keep every bit.

solve_family gives its table the window low, so each row keeps only
band(k) = [max(0, lo - P(k-1)), min(hi, Suf(k))], the sums that can still
end in the window.  A table over [0, hi] keeps band [0, min(hi, Suf(k))],
which holds every attainable sum up to the cap: the unbanded rows.  Every
answer read from a banded table must equal the one the [0, hi] table and
the per-target scan give.  The [0, hi] reference
runs with the complement probe off, and the per-target scan goes through
dp_run, which has none, so both always read a table.
"""

import math
import random

import pytest

from slabsum import dp, slab
from slabsum.dp import ReachTable, family_window, solve_family
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.quantize import QuantizationUnderflow, quantize
from slabsum.slab import decide, dump_verdict
from test_solve_family import per_target_family

# the witness walk reuses its rebuild slots across blocks; a slot still held
# another row's bits above this row's band, and the walk lost its target
SLOT_REUSE_U = (52, 96, 152, 62, 171, 257, 217, 260, 98)


class FromZero(ReachTable):
    """The table over [0, cap], whatever window low it is given."""

    def __init__(self, *args, window_lo=0, **kwargs):
        super().__init__(*args, window_lo=0, **kwargs)


def no_probe(*args):
    """center_probe switched off, so solve_family always builds its table."""
    return None


def from_zero_family(q):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "ReachTable", FromZero)
        patch.setattr(dp, "center_probe", no_probe)
        return solve_family(q)


def exact_scale(u):
    """big_n at which quantize returns u itself: ceil(|u|) scales each
    weight by less than 1 + 1/|u|, which never reaches the next integer."""
    norm = sum(w * w for w in u)
    root = math.isqrt(norm)
    return root if root * root == norm else root + 1


def _seeded_cases(count: int):
    """(instance, scale) pairs: random, planted and dominated weights, with
    n up to 40 so the witness walk crosses several checkpoint blocks."""
    cases = []
    seed = 1000
    while len(cases) < count:
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            inst = gen_random(rng.randint(1, 40), rng.randint(1, 10), seed)
            scale = {"c": rng.choice((2, 3))}
        elif kind == 1:
            inst = gen_planted(rng.randrange(2, 42, 2), rng.randint(1, 8), seed)
            scale = {"c": 2}
        else:
            n = rng.randint(2, 40)
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


CASES = _seeded_cases(240) + [(PartitionInstance(SLOT_REUSE_U),
                               {"big_n": exact_scale(SLOT_REUSE_U)})]


def test_banded_family_matches_unbanded_and_per_target(rows, monkeypatch):
    hits = full_fills = 0
    for inst, scale in CASES:
        q = quantize(inst, **scale)
        got = solve_family(q)
        for want in (from_zero_family(q), per_target_family(q)):
            assert (got.hit, got.targets_scanned) == (want.hit, want.targets_scanned), \
                (inst.weights, scale)
        hits += got.hit is not None
        full_fills += got.targets_scanned > 1
        banded = dump_verdict(decide(inst, **scale))
        with monkeypatch.context() as patch:
            patch.setattr(dp, "ReachTable", FromZero)
            patch.setattr(dp, "center_probe", no_probe)
            assert dump_verdict(decide(inst, **scale)) == banded
        with monkeypatch.context() as patch:
            patch.setattr(slab, "solve_family", per_target_family)
            assert dump_verdict(decide(inst, **scale)) == banded
    # hits and misses, early-stopped and full fills are all exercised
    assert 0 < hits < len(CASES)
    assert 0 < full_fills < len(CASES)


def _tables(u):
    """The table banded by u's shifted window [lo, hi] and the one over
    [0, hi], both filled to row 1."""
    fam = family_window(sum(u), len(u))
    lo, hi = fam.window[0], fam.window[-1]
    return ReachTable(u, hi, window_lo=lo), ReachTable(u, hi), fam


def _random_items(count: int):
    rng = random.Random(7)
    return [SLOT_REUSE_U] + [tuple(rng.randrange(1, rng.choice((8, 64, 300)))
                                   for _ in range(rng.randint(1, 30)))
                             for _ in range(count)]


def bits(row: int, lo: int, hi: int) -> int:
    """Bits lo..hi of a stored row, as an int whose bit 0 is bit lo."""
    return row >> lo & ((1 << (hi - lo + 1)) - 1)


def test_band_bits_equal_unbanded_rows_and_zero_above(rows):
    for u in _random_items(60):
        banded, full, _ = _tables(u)
        # the stored rows: row n+1, the checkpoints and row 1
        assert set(banded.checkpoints) == set(full.checkpoints) >= {1, len(u) + 1}
        for k in banded.checkpoints:
            lo, hi = banded.band(k)
            top = banded.band(k - 1)[1] if k > 1 else hi
            # bits above hi, up to the next row's band top, read as zero
            want = bits(full.checkpoints[k], lo, hi)
            assert bits(banded.checkpoints[k], lo, top) == want, (u, k)


def test_banded_witnesses_of_every_window_target(rows):
    for u in _random_items(60):
        banded, full, fam = _tables(u)
        taus = banded.attained()
        assert taus == [tau for tau in full.attained() if tau >= fam.window[0]], u
        assert banded.witnesses(taus) == full.witnesses(taus), u


def test_slot_reuse_regression():
    inst = PartitionInstance(SLOT_REUSE_U)
    q = quantize(inst, big_n=exact_scale(SLOT_REUSE_U))
    assert q.u == SLOT_REUSE_U
    assert family_window(q.total_u, q.n).window[::17] == (674, 691)
    got = solve_family(q)
    for want in (from_zero_family(q), per_target_family(q)):
        assert (got.hit, got.targets_scanned) == (want.hit, want.targets_scanned)


def test_cells_sum_the_band_widths():
    u = tuple(random.Random(3).randrange(1, 200) for _ in range(25))
    fam = family_window(sum(u), len(u))
    lo, hi = fam.window[0], fam.window[-1]
    table = ReachTable(u, hi, window_lo=lo)
    prefix = 0
    want = 0
    for k in range(1, len(u) + 1):
        suffix = sum(u[k - 1:])
        want += min(hi, suffix) - max(0, lo - prefix) + 1
        prefix += u[k - 1]
    assert table.rows_done == len(u)
    assert table.cells == want
    assert ReachTable(u, hi).cells == sum(min(hi, sum(u[k - 1:])) + 1
                                          for k in range(1, len(u) + 1))


@pytest.fixture
def built(monkeypatch):
    """The tables dp builds while the test runs, with the complement probe
    off: these planted targets are ones it answers without a table, and the
    table built here is the one a probe give-up falls back to."""
    monkeypatch.setattr(dp, "center_probe", no_probe)
    tables = []

    class Recorded(ReachTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(dp, "ReachTable", Recorded)
    return tables


def test_planted_decision_fills_at_most_55_percent(built):
    verdict = decide(gen_planted(256, 16, seed=5), c=2)
    assert isinstance(verdict, slab.VertexFound)
    (table,) = built
    assert table.cells <= 0.55 * table.rows_done * (table.cap + 1)


def test_planted_dp_decide_fills_at_most_60_percent(built):
    # dp_decide bands its table by [tau, tau]; the full rows would fill 100%
    u = gen_planted(64, 16, 0).weights
    tau = sum(u) // 2
    x = dp.dp_decide(u, tau)
    assert sum(w for w, b in zip(u, x) if b) == tau
    (table,) = built
    assert table.cells <= 0.6 * table.rows_done * (tau + 1)
