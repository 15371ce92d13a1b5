"""The row kernel follows the widest band a table fills, not its cap.

A decision whose cap is 2^17 bits or more but whose bands are all narrower
runs on Python-int rows; both kernels must give the same scan on it.
"""

import random

from slabsum import dp
from slabsum.dp import ReachTable, family_window, solve_family
from slabsum.instance import PartitionInstance
from slabsum.quantize import quantize


def dominated(n: int, seed: int) -> PartitionInstance:
    """n - 1 weights in [500, 1500) and one near 10^6: every target misses."""
    rng = random.Random(seed)
    weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
    weights.insert(rng.randrange(n), 10**6 + rng.randrange(1500))
    return PartitionInstance(tuple(weights))


def halved(n: int, seed: int) -> PartitionInstance:
    """n - 1 weights in [500, 1500) and one equal to their sum: that weight
    alone is near the center, and the probe is skipped when enough weight
    lies on each side of it, so the table finds the hit."""
    rng = random.Random(seed)
    weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
    weights.insert(rng.randrange(n), sum(weights))
    return PartitionInstance(tuple(weights))


def widest_band(table: ReachTable) -> int:
    return max(hi - lo + 1 for lo, hi in map(table.band, range(1, len(table.u) + 2)))


def window_table(q) -> ReachTable:
    fam = family_window(q.total_u, q.n)
    return ReachTable(q.u, fam.window[-1], window_lo=fam.window[0])


def test_widest_band_is_the_widest_of_every_row(monkeypatch):
    # the table reads it off two suffix sums; the reference takes every band
    picked = []
    make = dp._make_kernel
    monkeypatch.setattr(dp, "_make_kernel",
                        lambda cap, widest: picked.append(widest) or make(cap, widest))
    rng = random.Random(5)
    for _ in range(2000):
        u = tuple(rng.choice((rng.randint(0, 9), rng.randint(1, 1000), rng.randint(1, 10**5)))
                  for _ in range(rng.randint(0, 12)))
        cap = rng.randint(0, sum(u) + 3)
        table = ReachTable(u, cap, window_lo=rng.randint(0, cap + 2))
        assert picked.pop() == widest_band(table), (u, cap, table.window_lo)


def test_wide_cap_narrow_band_runs_on_ints():
    q = quantize(dominated(97, 0), c=3)
    table = window_table(q)
    assert table.cap + 1 >= dp.ARRAY_KERNEL_MIN_BITS == 1 << 17
    assert widest_band(table) < dp.ARRAY_KERNEL_MIN_BITS
    assert isinstance(table.kernel, dp._IntKernel)


def test_scans_agree_on_both_kernels(request):
    cases = []
    for seed in range(90):
        n = random.Random(seed).randint(47, 97)
        shape = dominated if seed % 3 == 0 else halved
        cases.append(quantize(shape(n, seed), c=3))
    default = [solve_family(q) for q in cases]
    # the default kernel runs ints on wide caps, and some of those find a
    # hit through the table rather than the probe
    tables = [window_table(q) for q in cases]
    on_ints = [i for i, t in enumerate(tables)
               if t.cap + 1 >= dp.ARRAY_KERNEL_MIN_BITS > widest_band(t)
               and isinstance(t.kernel, dp._IntKernel)]
    assert len(on_ints) >= 20
    assert any(default[i].hit is None for i in on_ints)
    assert any(default[i].hit is not None and dp.center_probe(
        cases[i].u, cases[i].total_u // 2, tables[i].cap) is None for i in on_ints)

    request.getfixturevalue("numpy_rows")
    assert all(isinstance(window_table(q).kernel, dp._ArrayKernel) for q in cases)
    assert [solve_family(q) for q in cases] == default
