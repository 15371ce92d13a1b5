"""The simultaneous search reads every stage from d_i = S_i.(2x - 1).

Each fast path is checked against the merge tree it replaces: the root
sphere against `merge_tree`, the integer L0 test against `exact_l0`, and the
stage 1/2 index lists from the d_i against those from the tree's
`dist_root` and `cross_sum`.
"""

import math
import random
from fractions import Fraction

from slabsum import sssp
from slabsum.dp import attainable_witnesses
from slabsum.instance import SsspInstance, gen_sssp_random
from slabsum.oracle import min_vertex_L0
from slabsum.sssp import (build_shells, cross_sum, exact_l0, l0_bound, l0_check, merge_tree,
                          root_sphere, stage_floats, stage_indices)
from test_sssp_witness_first import leafwalk_solve, outcome


def seeded_system(seed: int) -> SsspInstance:
    """p in {1, 2, 4} by seed, n 5-16, 1-6 bits, rows random or (even n
    only) one planted row repeated, rho at or above n/delta."""
    rng = random.Random(seed)
    p = (1, 2, 4)[seed % 3]
    n = rng.randint(5, 16)
    delta = rng.choice((Fraction(1, 2), Fraction(1), Fraction(27, 20), Fraction(2)))
    rho = Fraction(n) / delta * rng.choice((1, Fraction(3, 2), 4))
    return gen_sssp_random(n, rng.randint(1, 6), p, seed, rho=rho, delta=delta,
                           duplicate=n % 2 == 0 and rng.random() < 0.6)


def bits(value):
    """A value's type and exact bits, so 0.0 and -0.0 differ."""
    return type(value), value.hex() if isinstance(value, float) else value


def test_root_sphere_is_the_merge_tree_root_bit_for_bit():
    counts = {1: 0, 2: 0, 4: 0}
    for seed in range(330):
        inst = seeded_system(seed)
        shells = build_shells(inst)
        center, radius_sq = root_sphere(shells)
        root = merge_tree(shells).root
        assert [bits(c) for c in center] == [bits(c) for c in root.center], seed
        assert bits(radius_sq) == bits(root.radius_sq), seed
        counts[inst.p] += 1
    assert min(counts.values()) >= 100, counts


def test_geometry_builds_its_tree_on_first_use_from_its_shells():
    inst = seeded_system(4)
    geo = sssp.geometry(inst, None)
    assert "tree" not in vars(geo)
    tree = geo.tree
    assert geo.tree is tree and tree.levels[0][0].center == geo.shells[0].center
    assert geo.axis == tuple(0.5 - c for c in tree.root.center)
    assert geo.root_radius_sq == float(tree.root.radius_sq)
    assert [count for count, *_ in geo.levels] == [g.count for g in geo.grids]


def test_l0_check_agrees_with_exact_l0():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for seed in range(90):
        inst = seeded_system(seed)
        bound = l0_bound(inst)
        five_delta = 5 * inst.delta
        for _ in range(20):
            x = tuple(rng.randrange(2) for _ in range(inst.n))
            ds = l0_check(bound, x)
            passes = exact_l0(inst, x) <= five_delta
            assert (ds is not None) == passes, (seed, x)
            if passes:
                assert ds == [sum(s * (2 * b - 1) for s, b in zip(row, x))
                              for row in inst.weight_rows]
            outcomes[passes] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_l0_check_accepts_l0_of_exactly_five_delta():
    checked = 0
    for seed in range(60):
        inst = seeded_system(seed)
        x = tuple(random.Random(seed).randrange(2) for _ in range(inst.n))
        l0 = exact_l0(inst, x)
        if l0 == 0:
            continue
        at = SsspInstance(inst.weight_rows, rho=inst.rho, delta=l0 / 5)
        assert l0_check(l0_bound(at), x) is not None, seed
        below = SsspInstance(inst.weight_rows, rho=inst.rho,
                             delta=l0 / 5 - Fraction(1, 10 ** 30))
        assert l0_check(l0_bound(below), x) is None, seed
        checked += 1
    assert checked >= 50


def tree_floats(geo, x):
    """dist_root and the cross sums from the merge tree's n-float nodes."""
    depth = len(geo.tree.levels) - 1
    dist_root = math.sqrt(sum((xk - ck) ** 2 for xk, ck in zip(x, geo.tree.root.center)))
    return dist_root, [cross_sum(geo.tree, q, x) for q in range(depth)]


def test_stage_indices_from_d_equal_those_from_the_merge_tree():
    # every candidate solve lists and keeps: the attainable targets of the
    # l0_window that pass the integer L0 test
    survivors = {1: 0, 2: 0, 4: 0}
    with_b = with_m = 0
    for seed in range(240):
        inst = seeded_system(seed)
        try:
            geo = sssp.geometry(inst, None)
        except ValueError:
            continue
        scale = inst.n ** 2
        w = tuple(int(scale * a / geo.axis_norm) for a in geo.axis)
        window = None if 0 in w else sssp.l0_window(inst, geo, scale, w)
        if window is None:
            continue
        bound = l0_bound(inst)
        for _, x in attainable_witnesses(w, *window):
            ds = l0_check(bound, x)
            if ds is None:
                continue
            dist, crosses = stage_floats(geo, ds)
            tree_dist, tree_crosses = tree_floats(geo, x)
            assert math.isclose(dist, tree_dist, rel_tol=1e-12), (seed, x)
            assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b))
                       for a, b in zip(crosses, tree_crosses)), (seed, x)
            got = stage_indices(geo, dist, crosses)
            assert got == stage_indices(geo, tree_dist, tree_crosses), (seed, x)
            survivors[inst.p] += 1
            with_b += bool(got[0])
            with_m += inst.p > 1 and all(got[1])
    assert min(survivors.values()) >= 100, survivors
    assert with_b >= 500 and with_m >= 200, (with_b, with_m)


def test_solve_builds_one_exact_l0_per_certificate(monkeypatch):
    calls = []
    inner = sssp.exact_l0
    monkeypatch.setattr(sssp, "exact_l0", lambda inst, x: calls.append(x) or inner(inst, x))
    found = 0
    for seed in range(30):
        inst = seeded_system(seed)
        try:
            geo = sssp.geometry(inst, None)
            cert = sssp.solve(inst, leaf_budget=geo.grid_size, geo=geo)
        except (ValueError, sssp.QuantizationUnderflow):
            calls.clear()
            continue
        assert calls == ([] if cert is None else [cert.x]), seed
        found += cert is not None
        calls.clear()
    assert found >= 5


def test_l0_survivors_that_no_leaf_admits_leave_no_answer():
    # the oracle's minimum L0 is below 5*delta and two listed vertices pass
    # the integer L0 test, yet no leaf window of the grid holds either
    # target, so the search ends with nothing found, as the leaf walk does
    inst = SsspInstance(((61, 16, 44, 29, 11), (1, 23, 49, 48, 3)), rho=Fraction(5),
                        delta=Fraction(1))
    assert min_vertex_L0(inst)[0] == Fraction(1635146, 360525)
    geo = sssp.geometry(inst, None)
    scale = inst.n ** 2
    w = tuple(int(scale * a / geo.axis_norm) for a in geo.axis)
    bound = l0_bound(inst)
    survivors = [x for _, x in attainable_witnesses(w, *sssp.l0_window(inst, geo, scale, w))
                 if l0_check(bound, x) is not None]
    assert len(survivors) == 2, survivors
    assert sssp.solve(inst) is None
    assert outcome(sssp.solve, inst) == outcome(leafwalk_solve, inst)
