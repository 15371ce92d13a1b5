from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabsum.instance import PartitionInstance, gen_random
from slabsum.numerics import Surd
from slabsum.quantize import (QuantizationUnderflow, QuantizedNormal, quantize,
                              shift_bound_report, unit_gap_bound)

weights_lists = st.lists(st.integers(min_value=1, max_value=4000), min_size=2, max_size=12)


def test_parallel_fixture():
    q = quantize(PartitionInstance((3, 4)), big_n=10)
    assert q.u == (6, 8)
    assert q.norm_u_sq == 100
    assert q.cos_sq == 1
    assert q.d_star_sq == 0
    assert q.unit_gap_sq.sign() == 0


@pytest.mark.parametrize("name", ["cos_sq", "d_star_sq", "unit_gap_sq"])
def test_derived_values_check_their_invariants(name):
    # S.U = 5 with |S| = |U| = 1 is no quantization: cos^2 = 25 and the unit
    # gap 2 - 10 is negative, so each derived value fails its own assert
    q = QuantizedNormal(u=(1,), big_n=1, norm_u_sq=1, dot_su=5, norm_s_sq=1)
    with pytest.raises(AssertionError):
        getattr(q, name)


def test_all_equal_weights_are_parallel():
    for n, c in ((4, 2), (9, 2), (5, 3)):
        q = quantize(PartitionInstance((7,) * n), c=c)
        assert len(set(q.u)) == 1
        assert q.cos_sq == 1
        assert q.d_star_sq == 0


def test_requires_exactly_one_scale():
    inst = PartitionInstance((3, 4))
    with pytest.raises(ValueError):
        quantize(inst)
    with pytest.raises(ValueError):
        quantize(inst, c=2, big_n=10)
    with pytest.raises(ValueError):
        quantize(inst, c=1)


def test_underflow_reports_indices():
    # the tiny weights round to zero against the dominating one at N = n^2
    inst = PartitionInstance((1, 1, 1, 50_000))
    with pytest.raises(QuantizationUnderflow) as err:
        quantize(inst, c=2)
    assert err.value.indices == (0, 1, 2)
    assert err.value.big_n == 16


@settings(max_examples=300, deadline=None)
@given(weights_lists, st.integers(min_value=2, max_value=3))
def test_floor_property_and_gap_bound(ws, c):
    inst = PartitionInstance(tuple(ws))
    try:
        q = quantize(inst, c=c)
    except QuantizationUnderflow:
        return
    m = inst.norm_sq
    for uk, sk in zip(q.u, inst.weights):
        assert uk * uk * m <= q.big_n * q.big_n * sk * sk < (uk + 1) * (uk + 1) * m
    assert (Surd(unit_gap_bound(q)) - q.unit_gap_sq).sign() >= 0
    assert q.unit_gap_sq.sign() >= 0
    assert 0 <= q.cos_sq <= 1
    assert q.d_star_sq == Fraction(inst.n, 4) * (1 - q.cos_sq)


def test_gap_bound_on_random_instances():
    checked = 0
    seed = 0
    while checked < 1000:
        inst = gen_random(8, 10, seed=seed)
        seed += 1
        try:
            q = quantize(inst, c=2)
        except QuantizationUnderflow:
            continue
        assert (Surd(Fraction(8, 64 * 64)) - q.unit_gap_sq).sign() >= 0
        checked += 1


def test_shift_bound_parallel_case():
    rep = shift_bound_report(quantize(PartitionInstance((5, 5, 5, 5)), c=2))
    assert rep.value_sq == 0
    assert rep.within


def test_shift_bound_exact_evaluation():
    q = quantize(PartitionInstance((1, 2, 3, 4)), c=2)
    rep = shift_bound_report(q)
    assert rep.value_sq == q.d_star_sq * q.norm_u_sq
    # the strict cap (n/2)^2 holds here even without the slack factor
    assert rep.value_sq <= Fraction(16, 4)
    assert rep.within


def test_shift_bound_strict_over_random_sweep():
    # empirical sweep: the product never reaches (n/2)^2 even with zero slack
    worst = Fraction(0)
    checked = 0
    seed = 0
    while checked < 1000:
        inst = gen_random(8, 8, seed=seed)
        seed += 1
        try:
            q = quantize(inst, c=2)
        except QuantizationUnderflow:
            continue
        rep = shift_bound_report(q)
        assert rep.within
        ratio = rep.value_sq / Fraction(8 * 8, 4)
        worst = max(worst, ratio)
        checked += 1
    assert worst < 1


def test_scale_convergence_proxy():
    # for fixed weights, |N^2/|U|^2 - 1| should shrink as c grows (allowing
    # a few ties or reversals), and stays within 4*sqrt(n)/N at every scale
    n = 16
    improved = 0
    total = 0
    for seed in range(500):
        inst = gen_random(n, 4, seed=seed)
        vals = []
        ok = True
        for c in (2, 3, 4):
            try:
                q = quantize(inst, c=c)
            except QuantizationUnderflow:
                ok = False
                break
            big_n = q.big_n
            val = abs(Fraction(big_n * big_n, q.norm_u_sq) - 1)
            # exact envelope |N^2/|U|^2 - 1| <= 4*sqrt(n)/N, checked via squares
            assert val * val <= Fraction(16 * n, big_n * big_n)
            vals.append(val)
        if not ok:
            continue
        total += 1
        if vals[0] >= vals[1] >= vals[2]:
            improved += 1
    assert total >= 450
    assert improved >= 0.95 * total
