import math
import random
from fractions import Fraction

import pytest

from slabsum import numerics
from slabsum.dp import BudgetError
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.oracle import slab_population
from slabsum.quantize import QuantizationUnderflow, quantize
from slabsum.slab import (EmptyInner, VertexFound, decide, decide_epsilon,
                          dump_verdict, slab_contains, verdict_to_json)


def test_slab_contains_balanced_vertex():
    assert slab_contains((1, 1), None, 0, (1, 0))
    assert not slab_contains((1, 1), None, 0, (1, 1))


def test_slab_contains_explicit_center_and_spec():
    center = (Fraction(1, 2), Fraction(1, 2))
    assert slab_contains((1, 1), center, Fraction(3), (1, 1))  # distance sqrt(2)/2 < 3/2
    assert not slab_contains((1, 1), center, Fraction(1, 2), (1, 1))


def test_slab_contains_takes_exactly_one_thickness():
    for delta, delta_sq in ((1, 1), (None, None)):
        with pytest.raises(ValueError, match="exactly one of delta or delta_sq"):
            slab_contains((1, 1), None, delta, (1, 0), delta_sq=delta_sq)


def test_slab_contains_matches_floats():
    rng = random.Random(7)
    for _ in range(300):
        n = 10
        s = [rng.randrange(1, 100) for _ in range(n)]
        x = [rng.randrange(2) for _ in range(n)]
        delta = Fraction(rng.randrange(0, 200), 100)
        exact = slab_contains(s, None, delta, x)
        norm = math.sqrt(sum(v * v for v in s))
        dist = abs(sum(v * (xx - 0.5) for v, xx in zip(s, x))) / norm
        margin = abs(dist - float(delta) / 2)
        if margin > 1e-9:
            assert exact == (dist <= float(delta) / 2)


def test_decide_small_fixture():
    v = decide(PartitionInstance((3, 4)), big_n=10)
    assert isinstance(v, VertexFound)
    assert v.x == (1, 0)
    assert v.t_hit == -1
    assert v.rel_error == Fraction(1, 7)
    # exactly parallel quantization: the outer slab degenerates to width zero,
    # so the hit at t = -1 is flagged rather than silently accepted
    assert v.d_star_sq == 0
    assert v.anomaly


def test_decide_symmetric_instance_exact():
    v = decide(PartitionInstance((1, 1, 1, 1)), c=2)
    assert isinstance(v, VertexFound)
    assert v.rel_error == 0
    assert not v.anomaly
    assert sum(v.x) == 2


def test_decide_adversarial_empty_inner():
    # dominated weights with an odd total at a large scale: no window target
    # is attainable, and enumeration confirms the inner slab is vertex-free
    inst = PartitionInstance((1, 1, 1, 8))
    v = decide(inst, c=4)
    assert isinstance(v, EmptyInner)
    pop = slab_population(inst.weights, None, delta_sq=4 * v.d_star_sq)
    assert pop.count == 0


def test_decide_planted_always_finds_vertex():
    # m = 4 keeps |S| below N = n^2 for every weight, so quantization never
    # underflows and the shifted family is guaranteed solvable
    for seed in range(30):
        inst = gen_planted(12, 4, seed=seed)
        v = decide(inst, c=2)
        assert isinstance(v, VertexFound)
        assert v.rel_error <= Fraction(2 * inst.n, inst.n ** 2)


def test_vertex_found_members_outer_slab_check():
    # every random hit either sits in the 8*d_star slab or is flagged
    for seed in range(40):
        inst = gen_random(10, 6, seed=seed)
        try:
            v = decide(inst, c=2)
        except QuantizationUnderflow:
            continue
        if isinstance(v, VertexFound):
            member = slab_contains(inst.weights, None, None, v.x,
                                   delta_sq=v.outer_thickness_sq)
            assert member == v.in_outer_slab


def test_epsilon_api_mapping_and_bounds():
    inst = gen_planted(12, 5, seed=9)
    for eps in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
        v = decide_epsilon(inst, eps)
        assert isinstance(v, VertexFound)
        assert v.rel_error <= 2 * eps


def test_epsilon_api_small_n_runs():
    # n=4 at epsilon 1/2: the requested scale 8 is floored at n^2 = 16
    v = decide_epsilon(PartitionInstance((2, 3, 4, 5)), Fraction(1, 2))
    assert isinstance(v, (EmptyInner, VertexFound))


def test_epsilon_api_rejects_bad_epsilon():
    inst = PartitionInstance((2, 3, 4, 5))
    with pytest.raises(ValueError):
        decide_epsilon(inst, Fraction(0))
    with pytest.raises(ValueError):
        decide_epsilon(inst, Fraction(3, 2))


def test_epsilon_api_budget_reports_scale():
    inst = gen_planted(12, 5, seed=9)
    with pytest.raises(BudgetError, match="N="):
        decide_epsilon(inst, Fraction(1, 10), budget_cells=100)


def test_verdict_json_round_trip_shape():
    inst = gen_planted(8, 4, seed=1)
    v = decide(inst, c=2)
    doc = verdict_to_json(v)
    assert doc["verdict"] == "vertex_found"
    assert set(doc) == {"verdict", "x", "t", "d_star_sq", "rel_error",
                        "targets_scanned", "anomaly"}
    empty = decide(PartitionInstance((1, 1, 1, 8)), c=4)
    doc2 = verdict_to_json(empty)
    assert doc2["verdict"] == "empty_inner"
    assert doc2["x"] is None and doc2["rel_error"] is None
    assert dump_verdict(empty).endswith("\n")


def test_exactly_one_alternative():
    for seed in range(20):
        inst = gen_random(8, 5, seed=seed)
        try:
            v = decide(inst, c=3)
        except QuantizationUnderflow:
            continue
        assert isinstance(v, (EmptyInner, VertexFound))


def test_decisions_construct_no_surd(monkeypatch):
    # the unit gap is a Surd that only checks read; a verdict needs d_star_sq
    calls = []
    init = numerics.Surd.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(numerics.Surd, "__init__", counting)
    assert numerics.Surd(1).rat == 1 and len(calls) == 1  # the spy counts
    calls.clear()
    for seed in range(3):
        decide(gen_planted(16, 16, seed), c=2)
        decide(gen_random(17, 16, seed), c=3)
        decide_epsilon(gen_planted(16, 16, seed), Fraction(1, 64))
    assert calls == []
