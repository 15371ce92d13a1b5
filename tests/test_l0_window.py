"""The certified target window of the simultaneous search.

`sssp.l0_window` bounds w.x over every vertex x with exact L0 <= 5*delta,
and `solve` fills, walks and exact-checks only the targets inside it.  The
window is sound when no such vertex falls outside it; the search then
gives the same answer as over the whole axis, because every target it
drops would fail the exact check.
"""

import random
from fractions import Fraction
from itertools import product

from slabsum import sssp
from slabsum.dp import ReachTable, attainable_witnesses
from slabsum.instance import gen_sssp_random
from slabsum.sssp import correction_grids, exact_l0, l0_window


def quantized(inst, c=2):
    """(geometry, scale, w) as solve builds them; None when the geometry is
    unusable or an entry of w rounds to zero."""
    try:
        geo = sssp.geometry(inst, None)
    except ValueError:
        return None
    scale = inst.n ** c
    w = tuple(int(scale * a / geo.axis_norm) for a in geo.axis)
    return None if 0 in w else (geo, scale, w)


def systems(count, n_range, bits_range, ps, seed0):
    """Seeded systems with duplicated or random rows and rho from the
    smallest admissible value up to four times it."""
    rng = random.Random(seed0)
    made = 0
    while made < count:
        n = rng.randint(*n_range)
        p = rng.choice([p for p in ps if p < n])
        delta = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
        rho = Fraction(n) / delta * rng.choice((1, Fraction(3, 2), 2, 4))
        inst = gen_sssp_random(n, rng.randint(*bits_range), p, rng.randrange(10**6),
                               rho=rho, delta=delta,
                               duplicate=n % 2 == 0 and rng.random() < 0.5)
        q = quantized(inst)
        if q is not None:
            made += 1
            yield inst, *q


def test_no_vertex_within_5_delta_falls_outside_the_window():
    survivors = narrow = 0
    for inst, geo, scale, w in systems(150, (5, 12), (1, 6), (1, 2, 4), 11):
        window = l0_window(inst, geo, scale, w)
        narrow += window is not None and window[1] - window[0] < sum(w) // 2
        for x in product((0, 1), repeat=inst.n):
            if exact_l0(inst, x) <= 5 * inst.delta:
                survivors += 1
                tau = sum(wk for wk, b in zip(w, x) if b)
                assert window is not None and window[0] <= tau <= window[1], \
                    (inst.weight_rows, inst.rho, inst.delta, x)
    # the check has vertices to test, and windows that drop most of the axis
    assert survivors >= 5000 and narrow >= 100, (survivors, narrow)


def test_windowed_witnesses_equal_the_full_axis_table_on_larger_systems():
    survivors = 0
    for n, p, seed, duplicate in product((16, 32, 48), (2, 4), (0, 1), (False, True)):
        inst = gen_sssp_random(n, 8, p, seed, duplicate=duplicate)
        geo, scale, w = quantized(inst)
        lo, hi = l0_window(inst, geo, scale, w)
        full = ReachTable(w, sum(w))
        taus = full.attained()
        pairs = list(zip(taus, full.witnesses(taus)))
        for tau, x in pairs:
            if exact_l0(inst, x) <= 5 * inst.delta:
                survivors += 1
                assert lo <= tau <= hi, (n, p, seed, duplicate, tau)
        assert attainable_witnesses(w, lo, hi) == [(t, x) for t, x in pairs if lo <= t <= hi]
        assert hi - lo < sum(w) // 10
    assert survivors >= 200


def test_integer_grid_value_equals_the_float_of_the_fraction():
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 64)
        delta = Fraction(rng.randint(1, 40), rng.randint(1, 17))
        rho = Fraction(n) / delta * Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for g in correction_grids(rng.choice((2, 4, 8)), n, rho, delta):
            sn, mn, dd = g.int_terms()
            count = g.count
            for i in {0, count - 1, *(rng.randrange(count) for _ in range(20))}:
                assert Fraction(i * sn - mn, dd) == g.value(i)
                assert (i * sn - mn) / dd == float(g.value(i))
                checked += 1
    assert checked >= 2000
