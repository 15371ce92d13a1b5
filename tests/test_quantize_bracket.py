"""quantize's floors from one bracket and two products per weight, against
the per-weight square roots they replace, and the verdict checks in
integers against the Fraction forms they replace."""

import math
import random
from fractions import Fraction
from itertools import compress

import pytest

from slabsum import numerics
from slabsum.instance import PartitionInstance, gen_random
from slabsum.numerics import floor_div_sqrt, floor_div_sqrt_each
from slabsum.quantize import QuantizationUnderflow, quantize
from slabsum.slab import VertexFound, decide


@pytest.fixture
def fallbacks(monkeypatch):
    """The calls floor_div_sqrt_each makes to floor_div_sqrt, as (a, b)."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return floor_div_sqrt(a, b)

    monkeypatch.setattr(numerics, "floor_div_sqrt", counting)
    return calls


def seeded_weights(bits: int, n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 1 << bits) if bits > 1 else 1 for _ in range(n)]


@pytest.mark.parametrize("bits", [1, 16, 61, 62, 63, 64, 1000])
def test_bracket_matches_one_square_root_per_weight(bits, fallbacks):
    for n in (1, 2, 7, 64):
        scales = (n * n, 4 * n * n, n ** 3, (1 << 62) - 1, 1 << 62)
        for seed in range(5):
            ws = seeded_weights(bits, n, seed)
            b = sum(w * w for w in ws)
            for big_n in scales:
                fallbacks.clear()
                got = floor_div_sqrt_each(big_n, ws, b)
                assert got == [floor_div_sqrt(big_n * w, b) for w in ws]
                # the bracket answers every entry but the few whose bounds
                # differ, at every width
                assert len(fallbacks) < n / 2 + 1


def test_fixed_cases(fallbacks):
    assert quantize(PartitionInstance((3, 4)), big_n=10).u == (6, 8)
    for n, c in ((4, 2), (9, 2), (5, 3), (64, 2)):
        q = quantize(PartitionInstance((7,) * n), c=c)
        assert q.u == (math.isqrt(q.big_n ** 2 // n),) * n
    # N / |S| = 1/3 is no dyadic and N s_k / |S| = 3, 4 are integers,
    # so both bounds differ on both entries and the square roots answer
    fallbacks.clear()
    assert quantize(PartitionInstance((9, 12)), big_n=5).u == (3, 4)
    assert fallbacks == [(45, 225), (60, 225)]


def test_inputs_out_of_range():
    # a weight above sqrt(b) is still exact; a negative weight or scale, or
    # b <= 0, is refused as floor_div_sqrt refuses it
    assert floor_div_sqrt_each(10, [100, 1], 1) == [1000, 10]
    assert floor_div_sqrt_each(7, [100, 1], 3) == [floor_div_sqrt(7 * w, 3) for w in (100, 1)]
    with pytest.raises(ValueError):
        floor_div_sqrt_each(10, [3, -4], 25)
    with pytest.raises(ValueError):
        floor_div_sqrt_each(-10, [3, 4], 25)
    with pytest.raises(ValueError):
        floor_div_sqrt_each(10, [3, 4], 0)
    assert floor_div_sqrt_each(10, [], 25) == []
    assert floor_div_sqrt_each(0, [3, 4], 25) == [0, 0]


@pytest.mark.parametrize("off", [-1, 1])
def test_a_bracket_off_by_one_fails_its_check(off, monkeypatch):
    inst = PartitionInstance(tuple(seeded_weights(16, 32, 0)))
    real = math.isqrt
    monkeypatch.setattr(numerics.math, "isqrt", lambda x: real(x) + off)
    with pytest.raises(AssertionError):
        quantize(inst, c=2)


def old_forms(inst, q, x):
    """d*^2 and outer-slab membership as Fraction expressions of cos^2."""
    d_star_sq = Fraction(q.n, 4) * (1 - q.cos_sq)
    dev2 = 2 * sum(compress(inst.weights, x)) - inst.total
    return d_star_sq, Fraction(dev2 * dev2) <= 64 * d_star_sq * q.norm_s_sq


def test_integer_verdict_checks_equal_the_fraction_forms():
    seen = {True: 0, False: 0}
    cases = [(PartitionInstance((3, 4)), 10)]
    cases += [(gen_random(n, bits, seed), n * n)
              for seed in range(150) for n, bits in ((5, 3), (6, 4), (10, 8), (24, 16))]
    for inst, big_n in cases:
        try:
            v = decide(inst, big_n=big_n)
            q = quantize(inst, big_n=big_n)
        except QuantizationUnderflow:
            continue
        if not isinstance(v, VertexFound):
            continue
        assert (v.d_star_sq, v.in_outer_slab) == old_forms(inst, q, v.x)
        seen[v.anomaly] += 1
    # anomalies (a hit outside the outer slab) and members both occur
    assert seen[True] >= 20 and seen[False] >= 200
