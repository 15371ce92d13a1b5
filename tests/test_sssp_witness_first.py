"""Differential tests of the witness-first simultaneous search.

`leafwalk_solve` is the grid walk `sssp.solve` used before it went witness
first: every (M, B) leaf in lexicographic order, every target of the leaf's
window ascending, one memoized `dp_decide` per target, and the three
validation stages.  It lives here only as the reference; its first hit
defines the answer, so `solve` must match its `result_to_json` bytes.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from slabsum import sssp
from slabsum.dp import BudgetError, dp_decide
from slabsum.instance import SsspInstance, gen_planted, gen_sssp_random
from slabsum.oracle import eval_L0, min_vertex_L0
from slabsum.quantize import QuantizationUnderflow
from slabsum.sssp import (GridBudgetError, SsspCertificate, cross_sum, curvature_term,
                          exact_l0, grid_cardinality, result_to_json, solve)


def leafwalk_solve(inst, *, eps_b=None, leaf_budget=10_000_000, c=2, budget_cells=None):
    geo = sssp.geometry(inst, eps_b)
    if geo.grid_size > leaf_budget:
        raise GridBudgetError(
            f"(M, B) grid has {geo.grid_size} leaves, budget is {leaf_budget}",
            cells=geo.grid_size, cap=leaf_budget,
        )
    n = inst.n
    depth = inst.p.bit_length() - 1
    scale = n ** c
    w = tuple(int(scale * a / geo.axis_norm) for a in geo.axis)
    zeros = [k for k, wk in enumerate(w) if wk == 0]
    if zeros:
        raise QuantizationUnderflow(zeros, scale)
    total_w = sum(w)

    deltaf = float(inst.delta)
    slack = 3 * deltaf
    steps_f = [float(g.step) for g in geo.grids]
    pow4 = [4 ** q for q in range(depth)]
    four_l = 4 ** depth
    root_center = geo.tree.root.center
    offset = n / 4 + geo.axis_norm ** 2
    curvature = curvature_term(inst)
    five_delta = 5 * inst.delta

    def validate(x, m_vals, b_val):
        dist_root = math.sqrt(sum((xk - ck) ** 2 for xk, ck in zip(x, root_center)))
        if abs(b_val - dist_root - geo.root_radius) > geo.eps_b * (1 + 1e-9):
            return None
        for q in range(depth):
            if abs(float(m_vals[q]) - cross_sum(geo.tree, q, x)) > steps_f[q] * (1 + 1e-9):
                return None
        l0 = exact_l0(inst, x)
        if l0 > five_delta:
            return None
        return SsspCertificate(x=x, chosen_m=m_vals, chosen_b=Fraction(b_val),
                               l0_exact=l0, accepted=True, curvature=curvature,
                               grid_size=geo.grid_size)

    witness_memo = {}

    def witness(tau):
        if tau not in witness_memo:
            witness_memo[tau] = dp_decide(w, tau, budget_cells=budget_cells)
        return witness_memo[tau]

    def leaf(m_vals, y_lo, y_hi, b_val):
        zeta = max(abs(y_lo), abs(y_hi)) * geo.eps_b / (b_val * geo.b_lo)
        g_lo = y_lo / b_val - zeta
        g_hi = y_hi / b_val + zeta
        r_hi = geo.root_radius + g_hi
        if r_hi < 0:
            return None
        r_lo = max(geo.root_radius + g_lo, 0.0)
        w_lo = (r_lo * r_lo - offset) / 2
        w_hi = (r_hi * r_hi - offset) / 2
        t_lo = max(0, math.ceil(total_w / 2 + scale * w_lo / geo.axis_norm - n / 2 - 1))
        t_hi = min(total_w, math.floor(total_w / 2 + scale * w_hi / geo.axis_norm + n / 2 + 1))
        for tau in range(t_lo, t_hi + 1):
            x = witness(tau)
            if x is None:
                continue
            cert = validate(x, m_vals, b_val)
            if cert is not None:
                return cert
        return None

    for m_idx in product(*[range(g.count) for g in geo.grids]):
        m_vals = tuple(g.value(i) for g, i in zip(geo.grids, m_idx))
        sig = float(sum(pq * mv for pq, mv in zip(pow4, m_vals)))
        hi_sq = (sig + slack) / four_l
        if hi_sq < 0:
            continue
        lo_sq = max(0.0, (sig - slack) / four_l)
        y_hi = math.sqrt(hi_sq)
        y_lo = math.sqrt(lo_sq)
        bands = [(-y_hi, y_hi)] if lo_sq == 0.0 else [(-y_hi, -y_lo), (y_lo, y_hi)]
        for bi in range(geo.b_count):
            b_val = geo.b_lo + bi * geo.eps_b
            for band in bands:
                cert = leaf(m_vals, band[0], band[1], b_val)
                if cert is not None:
                    return cert
    return None


def verdict_bytes(inst, cert) -> bytes:
    doc = result_to_json(cert, curvature=curvature_term(inst),
                         grid_size=cert.grid_size if cert else grid_cardinality(inst))
    return json.dumps(doc, sort_keys=True, indent=2).encode()


def random_system(seed: int, p: int):
    """A seeded p-row system with n 3-10 and bits 1-4, duplicated or random
    rows, at or above the smallest admissible rho; None when its geometry
    is unusable or its grid has more than 2*10^5 leaves."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    bits = rng.randint(1, 4)
    delta = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(27, 20),
                        Fraction(2)))
    rho = Fraction(n) / delta * rng.choice((1, 1, Fraction(3, 2), 2))
    if rng.random() < 0.4:
        row = tuple(rng.randrange(1, 1 << bits) for _ in range(n))
        rows = (row,) * p
    else:
        rows = tuple(tuple(rng.randrange(1, 1 << bits) for _ in range(n)) for _ in range(p))
    inst = SsspInstance(rows, rho=rho, delta=delta)
    try:
        if grid_cardinality(inst) > 200_000:
            return None
    except ValueError:
        return None
    return inst


FIXTURES = {
    "contradictory": SsspInstance(((1, 1, 1, 1), (1, 1, 1, 2)), rho=Fraction(8),
                                  delta=Fraction(1)),
    "single_row": SsspInstance((gen_planted(8, 1, seed=0).weights,), rho=Fraction(8),
                               delta=Fraction(1)),
    "c10": SsspInstance((gen_planted(4, 1, seed=0).weights,) * 2, rho=Fraction(4),
                        delta=Fraction(1)),
}


def outcome(fn, inst):
    try:
        return verdict_bytes(inst, fn(inst))
    except QuantizationUnderflow as exc:
        return ("underflow", tuple(exc.args))


def test_fixtures_match_the_leaf_walk():
    for name, inst in FIXTURES.items():
        assert outcome(solve, inst) == outcome(leafwalk_solve, inst), name
    assert solve(FIXTURES["contradictory"]) is None
    assert solve(FIXTURES["single_row"]) is not None


def test_witness_first_matches_the_leaf_walk_on_seeded_systems():
    compared = {1: 0, 2: 0}
    outcomes = {"found": 0, "exhausted": 0, "underflow": 0}
    mismatches = []
    seed = 0
    while min(compared.values()) < 150:
        p = (1, 2)[seed % 2]
        inst = random_system(seed, p)
        seed += 1
        if inst is None or compared[p] == 150:
            continue
        got, want = outcome(solve, inst), outcome(leafwalk_solve, inst)
        if got != want:
            mismatches.append((seed - 1, p))
        compared[p] += 1
        if not isinstance(want, bytes):
            outcomes["underflow"] += 1
        else:
            outcomes["found" if b'"found": true' in want else "exhausted"] += 1
    assert mismatches == []
    # both answers are well represented
    assert outcomes["found"] >= 100 and outcomes["exhausted"] >= 40, outcomes


def test_p4_grids_are_refused_by_default_and_sound_when_allowed():
    # the leaf walk cannot run here (1.5e9 to 5e10 leaves); the oracle checks
    # every answer instead
    answers = {"found": 0, "none": 0}
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        inst = gen_sssp_random(n, rng.randint(1, 3), 4, seed,
                               duplicate=n % 2 == 0 and seed % 3 == 0)
        size = grid_cardinality(inst)
        with pytest.raises(GridBudgetError):
            solve(inst)
        cert = solve(inst, leaf_budget=size)
        best, _ = min_vertex_L0(inst)
        if cert is None:
            answers["none"] += 1
        else:
            answers["found"] += 1
            assert cert.grid_size == size
            assert cert.l0_exact == exact_l0(inst, cert.x) <= 5 * inst.delta
        if best > 5 * inst.delta:
            assert cert is None
    assert min(answers.values()) >= 5, answers


def test_one_table_budget_is_checked_before_allocation():
    inst = FIXTURES["c10"]
    geo = sssp.geometry(inst, None)
    w = [int(inst.n ** 2 * a / geo.axis_norm) for a in geo.axis]
    need = (inst.n + 1) * (sum(w) + 1)
    with pytest.raises(BudgetError) as info:
        solve(inst, budget_cells=need - 1)
    assert info.value.cells == need
    assert verdict_bytes(inst, solve(inst, budget_cells=need)) == \
        verdict_bytes(inst, solve(inst))


def test_exact_l0_equals_the_per_shell_sum():
    rng = random.Random(7)
    for seed in range(40):
        inst = gen_sssp_random(rng.randint(5, 9), rng.randint(1, 5), (1, 2, 4)[seed % 3], seed,
                               rho=Fraction(rng.randint(1, 40), rng.randint(1, 7)))
        shells = sssp.build_shells(inst)
        for _ in range(5):
            x = tuple(rng.randrange(2) for _ in range(inst.n))
            assert exact_l0(inst, x) == eval_L0(x, shells)
