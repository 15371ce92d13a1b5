import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabsum.instance import SsspInstance, gen_planted
from slabsum.numerics import Surd, sqrt_diff_within
from slabsum.oracle import eval_L0, iter_vertex_sums, min_vertex_L0
from slabsum.sssp import (GridBudgetError, Shell, build_shells, correction_grids,
                          cross_sum, curvature_term, exact_l0,
                          merge_pair, merge_tree, result_to_json, solve,
                          telescoped_l0)

coord = st.fractions(min_value=-3, max_value=4, max_denominator=6)
radius = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=6)


def _node(center, radius_sq):
    return merge_tree([Shell(center=center, radius_sq=radius_sq)]).root


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_merge_identity_exact(n, data):
    c1 = tuple(data.draw(coord) for _ in range(n))
    c2 = tuple(data.draw(coord) for _ in range(n))
    r1 = data.draw(radius)
    r2 = data.draw(radius)
    x = tuple(data.draw(coord) for _ in range(n))
    a = _node(c1, r1)
    b = _node(c2, r2)
    merged = merge_pair(a, b)
    assert 2 * merged.residual(x) == a.residual(x) + b.residual(x)


def test_merge_coincident_centers():
    a = _node((Fraction(1), Fraction(2)), Fraction(3))
    b = _node((Fraction(1), Fraction(2)), Fraction(5))
    merged = merge_pair(a, b)
    assert merged.center == (Fraction(1), Fraction(2))
    assert merged.radius_sq == Fraction(4)


def test_merge_radical_midpoint_identity():
    # equal radii R, centers 2h apart: merged radius_sq = R^2 - h^2
    a = _node((Fraction(0), Fraction(0)), Fraction(9))
    b = _node((Fraction(2), Fraction(0)), Fraction(9))
    merged = merge_pair(a, b)
    assert merged.center == (Fraction(1), Fraction(0))
    assert merged.radius_sq == Fraction(8)


def test_merge_tree_requires_power_of_two():
    shells = [Shell(center=(Fraction(k), Fraction(0)), radius_sq=Fraction(1))
              for k in range(3)]
    with pytest.raises(ValueError):
        merge_tree(shells)


def test_merge_tree_nodes_are_shells_over_the_given_shells():
    rng = random.Random(24)
    for p in (1, 2, 4, 8):
        shells = [Shell(center=tuple(Fraction(rng.randrange(-8, 9), 4) for _ in range(3)),
                        radius_sq=Fraction(rng.randrange(1, 40), 4))
                  for _ in range(p)]
        tree = merge_tree(shells)
        assert len(tree.levels[0]) == p
        assert all(leaf is shell for leaf, shell in zip(tree.levels[0], shells))
        for below, level in zip(tree.levels, tree.levels[1:]):
            assert len(level) * 2 == len(below)
            for i, node in enumerate(level):
                assert type(node) is Shell
                assert node.children[0] is below[2 * i] and node.children[1] is below[2 * i + 1]
        assert len(tree.levels[-1]) == 1 and tree.root is tree.levels[-1][0]


def test_telescoping_with_true_cross_sums_is_exact():
    rng = random.Random(4)
    for _ in range(200):
        n = 5
        shells = [
            Shell(center=tuple(Fraction(rng.randrange(-8, 9), 4) for _ in range(n)),
                  radius_sq=Fraction(rng.randrange(1, 40), 4))
            for _ in range(4)
        ]
        tree = merge_tree(shells)
        x = tuple(Fraction(rng.randrange(0, 2)) for _ in range(n))
        true_m = [cross_sum(tree, q, x) for q in range(2)]
        l0 = sum(node.residual(x) ** 2 for node in tree.levels[0])
        assert telescoped_l0(tree, x, true_m) == l0


def test_telescoping_needs_one_guess_per_merge_step():
    shells = [Shell(center=(Fraction(k), Fraction(0)), radius_sq=Fraction(1)) for k in range(4)]
    with pytest.raises(ValueError, match="expected 2 cross-term guesses, got 1"):
        telescoped_l0(merge_tree(shells), (0, 1), [Fraction(0)])


def test_grid_soundness_within_two_delta():
    # replacing each true cross sum by any grid value within one step keeps
    # the telescoped estimate within 2*delta of the true objective
    rng = random.Random(17)
    n = 5
    delta = Fraction(3, 2)
    for _ in range(300):
        shells = [
            Shell(center=tuple(Fraction(rng.randrange(-6, 7), 2) for _ in range(n)),
                  radius_sq=Fraction(rng.randrange(1, 30), 2))
            for _ in range(4)
        ]
        tree = merge_tree(shells)
        x = tuple(Fraction(rng.randrange(0, 2)) for _ in range(n))
        l0 = sum(node.residual(x) ** 2 for node in tree.levels[0])
        depth = 2
        steps = [delta / (4 ** q * depth) for q in range(depth)]
        guesses = [cross_sum(tree, q, x) + Fraction(rng.randrange(-8, 9), 8) * steps[q]
                   for q in range(depth)]
        estimate = telescoped_l0(tree, x, guesses)
        assert abs(l0 - estimate) <= 2 * delta


def test_correction_grid_shapes_and_coverage():
    grids = correction_grids(4, 6, rho=Fraction(3), delta=Fraction(2))
    assert len(grids) == 2
    assert grids[0].mbar == Fraction(4 * 6) * 9
    assert grids[1].mbar == Fraction(4 * 6, 2) * 9
    assert grids[0].step == Fraction(2, 2)
    assert grids[1].step == Fraction(2, 8)
    for g in grids:
        assert g.value(0) == -g.mbar
        assert g.value(g.count - 1) >= g.mbar
        # any true value in [-mbar, mbar] has a grid point within one step
        probe = Fraction(7, 13) * g.mbar
        dist = min(abs(g.value(i) - probe) for i in range(g.count))
        assert dist <= g.step


def test_cross_sum_bound_against_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        n = 7
        rows = tuple(tuple(rng.randrange(1, 9) for _ in range(n)) for _ in range(4))
        inst = SsspInstance(rows, rho=Fraction(9), delta=Fraction(1))
        tree = merge_tree(build_shells(inst))
        grids = correction_grids(4, n, inst.rho, inst.delta)
        bound_leaf = float(inst.rho * inst.rho * n)  # |leaf residual| <= rho*sqrt(n)
        for mask, _ in iter_vertex_sums(rows[0]):
            x = tuple((mask >> k) & 1 for k in range(n))
            for node in tree.levels[0]:
                assert node.residual(x) ** 2 <= bound_leaf * (1 + 1e-9)
            for q, g in enumerate(grids):
                assert abs(cross_sum(tree, q, x)) <= float(g.mbar) * (1 + 1e-9)


def test_keystone_identity_rational_norm_rows():
    # rows with integer norms keep the whole construction rational, so the
    # anchored-shell identity can be checked symbolically
    rows = ((3, 4), (2, 3, 6), (1, 2, 2))
    for row in rows:
        n = len(row)
        norm = math.isqrt(sum(w * w for w in row))
        assert norm * norm == sum(w * w for w in row)
        rho = Fraction(7, 2)
        center = tuple(Fraction(1, 2) - rho * w / norm for w in row)
        shell = Shell(center=center, radius_sq=rho * rho + Fraction(n, 4))
        for mask, s in iter_vertex_sums(row):
            x = tuple((mask >> k) & 1 for k in range(n))
            h = Fraction(2 * s - sum(row), 2)
            assert shell.residual(x) == 2 * rho * h / norm


def test_keystone_identity_float_agreement():
    inst = SsspInstance(((3, 1, 4, 1, 5, 9), (2, 6, 5, 3, 5, 8)),
                        rho=Fraction(12), delta=Fraction(1))
    shells = build_shells(inst)
    for mask, _ in iter_vertex_sums(inst.weight_rows[0]):
        x = tuple((mask >> k) & 1 for k in range(inst.n))
        for i, shell in enumerate(shells):
            row = inst.weight_rows[i]
            h = (2 * sum(w for w, b in zip(row, x) if b) - sum(row)) / 2
            expected = 2 * float(inst.rho) * h / math.sqrt(sum(w * w for w in row))
            assert abs(float(shell.residual(x)) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_shell_slab_transfer_bound():
    # vertices within a slab of thickness eps lie within the matching shell
    # band delta = 2*(eps/2 + n/(8 rho)), checked in exact arithmetic
    n = 12
    eps = Fraction(1, 2)
    rho = Fraction(24)  # n/(8 rho) = 1/16 <= eps/4
    inst_rows = gen_planted(n, 2, seed=21).weights
    m = sum(w * w for w in inst_rows)
    radius_sq = rho * rho + Fraction(n, 4)
    delta = 2 * (eps / 2 + Fraction(n, 8) / rho)
    checked = 0
    for mask, s in iter_vertex_sums(inst_rows):
        d = 2 * s - sum(inst_rows)
        if 4 * d * d <= 4 * eps * eps * m:  # slab membership, exact
            # |x - C|^2 = n/4 + rho^2 + 2*rho*h/sqrt(m), exact over sqrt(m)
            dist_sq = Surd(Fraction(n, 4) + rho * rho, rho * Fraction(d, m), m)
            assert sqrt_diff_within(dist_sq, radius_sq, delta / 2)
            checked += 1
    assert checked > 0


def test_solve_duplicate_constraint_fixture():
    base = gen_planted(12, 2, seed=5)
    inst = SsspInstance((base.weights, base.weights), rho=Fraction(10),
                        delta=Fraction(27, 20), m=2, seed=5,
                        planted_x=base.planted_x)
    cert = solve(inst)
    assert cert is not None
    assert cert.l0_exact == 0
    assert cert.accepted
    assert cert.grid_size <= 10_000_000
    assert eval_L0(cert.x, build_shells(inst)) == 0
    doc = result_to_json(cert, curvature=cert.curvature, grid_size=cert.grid_size)
    assert doc["found"] and doc["L0"] == {"num": "0", "den": "1"}


def test_solve_contradictory_fixture():
    inst = SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(8), delta=Fraction(1))
    assert solve(inst) is None
    best, _ = min_vertex_L0(inst)
    assert best > 5 * inst.delta
    assert best == Fraction(64, 7)


def test_solve_single_row():
    base = gen_planted(8, 1, seed=0)
    inst = SsspInstance((base.weights,), rho=Fraction(8), delta=Fraction(1),
                        planted_x=base.planted_x)
    cert = solve(inst)
    assert cert is not None
    assert cert.l0_exact == 0
    assert cert.chosen_m == ()


def test_solve_validates_any_returned_certificate():
    # two distinct planted rows: a simultaneous solution may or may not be
    # found (the search cannot distinguish none from several), but anything
    # returned must pass the exact acceptance bound
    a = gen_planted(8, 2, seed=3)
    b = gen_planted(8, 2, seed=8)
    inst = SsspInstance((a.weights, b.weights), rho=Fraction(4), delta=Fraction(2))
    cert = solve(inst)
    if cert is not None:
        assert cert.l0_exact <= 5 * inst.delta
        assert exact_l0(inst, cert.x) == cert.l0_exact


def test_solve_rejects_insufficient_rho():
    inst = SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(1), delta=Fraction(1))
    with pytest.raises(ValueError, match="rho"):
        solve(inst)


def test_grid_budget_guard():
    rows = tuple(tuple((i + j) % 5 + 1 for j in range(10)) for i in range(4))
    inst = SsspInstance(rows, rho=Fraction(40), delta=Fraction(1, 4))
    with pytest.raises(GridBudgetError):
        solve(inst, leaf_budget=1000)


def test_curvature_term():
    inst = SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(8), delta=Fraction(1))
    assert curvature_term(inst) == Fraction(4, 64)
