import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabsum.instance import PartitionInstance, SsspInstance, gen_planted, gen_random
from slabsum.oracle import (EnumerationCapError, all_subset_sums,
                            enumerate_partition, eval_L0, iter_vertex_sums,
                            min_vertex_L0, slab_population)
from slabsum.slab import slab_contains
from slabsum.sssp import Shell, build_shells


def test_gray_enumeration_covers_everything():
    ws = (3, 5, 9)
    seen = {}
    for mask, total in iter_vertex_sums(ws):
        seen[mask] = total
    assert len(seen) == 8
    for mask, total in seen.items():
        assert total == sum(w for k, w in enumerate(ws) if (mask >> k) & 1)


def test_enumerate_partition_balanced_pair():
    report = enumerate_partition(PartitionInstance((1, 1)))
    assert report.count == 2
    assert set(report.solutions) == {(1, 0), (0, 1)}
    assert report.min_distance_sq == 0


def test_enumerate_partition_odd_total():
    report = enumerate_partition(PartitionInstance((1, 2)))
    assert report.count == 0
    # best vertex misses the center by 1/2, squared distance (1/2)^2 / 5
    assert report.min_distance_sq == Fraction(1, 20)


def test_enumerate_partition_complement_symmetry():
    inst = gen_planted(10, 4, seed=2)
    report = enumerate_partition(inst)
    assert report.count >= 2 and report.count % 2 == 0
    sols = set(report.solutions)
    for x in sols:
        assert tuple(1 - b for b in x) in sols


def test_enumerate_planted_n18():
    # a planted solution and its complement are always distinct here
    report = enumerate_partition(gen_planted(18, 5, seed=4))
    assert report.count >= 2


def test_cap_refusal():
    with pytest.raises(EnumerationCapError):
        enumerate_partition(PartitionInstance((1,) * 10), max_n=8)


def test_slab_population_full_cover():
    # thickness sqrt(n) covers every vertex: pass the squared thickness
    ws = (2, 7, 5, 3)
    pop = slab_population(ws, None, delta_sq=4)
    assert pop.count == 16


def test_slab_population_degenerate_center():
    pop = slab_population((1, 1), None, delta=0)
    assert pop.count == 2
    assert set(pop.witnesses) == {(1, 0), (0, 1)}


def test_slab_population_refuses_bad_thickness():
    for delta, delta_sq in ((1, 1), (None, None)):
        with pytest.raises(ValueError, match="exactly one of delta or delta_sq"):
            slab_population((1, 2), None, delta, delta_sq=delta_sq)
    with pytest.raises(ValueError, match="delta_sq must be nonnegative"):
        slab_population((1, 2), None, delta_sq=-1)


def test_slab_population_explicit_center_matches_pointwise_membership():
    ws = (3, 5, 7, 2, 6)
    center = (Fraction(1, 3), Fraction(2, 5), 1, 0, Fraction(3, 4))
    counts = []
    for delta in (0, Fraction(1, 2), 1, Fraction(5, 2)):
        pop = slab_population(ws, center, delta, keep=1 << len(ws))
        inside = set()
        for mask, _ in iter_vertex_sums(ws):
            x = tuple((mask >> k) & 1 for k in range(len(ws)))
            if slab_contains(ws, center, delta, x):
                inside.add(x)
        assert pop.count == len(inside) and set(pop.witnesses) == inside, delta
        counts.append(pop.count)
    # the center moves the slab: at delta = 1 the cube center gives 22
    assert counts == [0, 11, 20, 31]
    assert slab_population(ws, None, 1).count == 22


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8),
       st.fractions(min_value=0, max_value=3, max_denominator=8))
def test_slab_population_matches_pointwise_membership(ws, delta):
    ws = tuple(ws)
    pop = slab_population(ws, None, delta=delta, keep=1 << len(ws))
    direct = 0
    for mask, _ in iter_vertex_sums(ws):
        x = tuple((mask >> k) & 1 for k in range(len(ws)))
        if slab_contains(ws, None, delta, x):
            direct += 1
    assert pop.count == direct


def test_eval_l0_exact_for_rational_shells():
    shells = [
        Shell(center=(Fraction(1, 2), Fraction(1, 2)), radius_sq=Fraction(1, 2)),
        Shell(center=(Fraction(0), Fraction(1)), radius_sq=Fraction(2)),
    ]
    x = (1, 1)
    value = eval_L0(x, shells)
    assert isinstance(value, Fraction)
    assert value == Fraction(0) + (Fraction(1) - 2) ** 2


def test_eval_l0_zero_on_every_sphere():
    # the central sphere through all vertices: radius_sq = n/4
    n = 5
    shell = Shell(center=(Fraction(1, 2),) * n, radius_sq=Fraction(n, 4))
    for mask, _ in iter_vertex_sums((1,) * n):
        x = tuple((mask >> k) & 1 for k in range(n))
        assert eval_L0(x, [shell]) == 0


def test_eval_l0_float_cross_check():
    inst = SsspInstance(((3, 1, 4, 1, 5), (2, 7, 1, 8, 2)), rho=Fraction(10), delta=Fraction(1))
    shells = build_shells(inst)
    rng = random.Random(1)
    for _ in range(50):
        x = tuple(rng.randrange(2) for _ in range(5))
        exact = eval_L0(x, shells)
        assert isinstance(exact, Fraction)
        numeric = sum(float(s.residual(x)) ** 2 for s in shells)
        assert abs(float(exact) - numeric) <= 1e-9 * max(1.0, numeric)


def test_eval_l0_refuses_inexact_data():
    # a solver-built shell has float center coordinates, so off the vertices
    # its anchor identity does not apply and no exact residual exists
    inst = SsspInstance(((3, 1, 4, 1, 5), (2, 7, 1, 8, 2)), rho=Fraction(10), delta=Fraction(1))
    with pytest.raises(ValueError):
        eval_L0((Fraction(1, 2),) * 5, build_shells(inst))


def test_min_vertex_l0_matches_eval():
    inst = SsspInstance(((1, 2, 3, 4), (4, 3, 1, 2)), rho=Fraction(8), delta=Fraction(1))
    shells = build_shells(inst)
    best, argx = min_vertex_L0(inst)
    assert eval_L0(argx, shells) == best
    for mask, _ in iter_vertex_sums(inst.weight_rows[0]):
        x = tuple((mask >> k) & 1 for k in range(inst.n))
        assert eval_L0(x, shells) >= best


def test_min_vertex_l0_is_the_first_rational_argmin():
    # the integer comparison must give the minimum and the first argmin, in
    # Gray-code order, of the per-shell rational sum
    rng = random.Random(3)
    for seed in range(60):
        p = (1, 2, 4)[seed % 3]
        n = rng.randint(p + 1, 8)
        rows = tuple(tuple(rng.randrange(1, 1 << rng.randint(1, 5)) for _ in range(n))
                     for _ in range(p))
        if seed % 4 == 0:
            rows = (rows[0],) * p
        inst = SsspInstance(rows, rho=Fraction(rng.randint(1, 40), rng.randint(1, 7)),
                            delta=Fraction(1))
        shells = build_shells(inst)
        want = None
        for mask, _ in iter_vertex_sums(rows[0]):
            x = tuple((mask >> k) & 1 for k in range(n))
            value = eval_L0(x, shells)
            if want is None or value < want[0]:
                want = (value, x)
        got = min_vertex_L0(inst)
        assert got == want and isinstance(got[0], Fraction), seed


def test_subset_sums_oracle_small():
    assert all_subset_sums((1, 2)) == {0, 1, 2, 3}
    assert all_subset_sums((5,)) == {0, 5}
