"""The complement probe against the ReachTable early-stop path.

solve_family first asks center_probe for the center target on narrow
Python-int rows, using the symmetry "tau is in row k iff Suf(k) - tau is",
and builds a table only when the probe is skipped, gives up or misses.
With the probe switched off it runs the table path alone, which is the
reference here: both must give the same hit, witness and targets_scanned,
and the probe's stop row must be the table's stopped_at.  dp_run, which
builds its table directly, and the probe are also checked against the
Gray-code oracle at small n.
"""

import random

import pytest

from slabsum import dp
from slabsum.dp import ReachTable, center_probe, dp_run, family_window, solve_family
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.oracle import iter_vertex_sums
from slabsum.quantize import QuantizationUnderflow, quantize


def _cases(count: int):
    """Quantized planted, random and dominated instances, n = 4..48."""
    cases = []
    seed = 0
    while len(cases) < count:
        rng = random.Random(seed)
        n = rng.randint(4, 48)
        kind = seed % 3
        if kind == 0:
            inst = gen_planted(n - n % 2, rng.randint(4, 16), seed)
        elif kind == 1:
            inst = gen_random(n, rng.randint(2, 16), seed)
        else:
            weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
            weights.insert(rng.randrange(n), 10**6 + rng.randrange(1000))
            inst = PartitionInstance(tuple(weights))
        scale = rng.choice(({"c": 2}, {"c": 3}, {"big_n": 4 * n * n}))
        seed += 1
        try:
            cases.append(quantize(inst, **scale))
        except QuantizationUnderflow:
            continue
    return cases


CASES = _cases(300)


def table_path(q):
    """(center, window top, stopped_at, witness) of the table solve_family
    builds for q; the witness is None when the fill never stops."""
    fam = family_window(q.total_u, q.n)
    center = min(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    table = ReachTable(q.u, fam.window[-1], early_stop_bit=center, window_lo=fam.window[0])
    x = table.witness(center) if table.stopped_at is not None else None
    return center, fam.window[-1], table.stopped_at, x


def _probe_calls(monkeypatch):
    """The widths center_probe fills rows at, in order."""
    widths = []
    inner = dp._probe_stop

    def counted(u, tau, width):
        widths.append(width)
        return inner(u, tau, width)

    monkeypatch.setattr(dp, "_probe_stop", counted)
    return widths


def test_probe_matches_the_table_path(rows, monkeypatch):
    # these window tops are below 8 * 2^12, where the probe is skipped; a
    # least width of 8 bits and a cap of half the top let it run on them,
    # and give up on some
    monkeypatch.setattr(dp, "PROBE_MIN_BITS", 8)
    monkeypatch.setattr(dp, "PROBE_SHARE", 2)
    answered = gave_up = other = missed = 0
    for q in CASES:
        got = solve_family(q)
        center, top, stopped_at, x = table_path(q)
        probe = center_probe(q.u, center, top)
        with monkeypatch.context() as patch:
            patch.setattr(dp, "center_probe", lambda *args: None)
            want = solve_family(q)
        assert (got.hit, got.targets_scanned) == (want.hit, want.targets_scanned), q.u
        if probe is not None:
            width, stop, px = probe
            assert (stop, px) == (stopped_at, x), q.u
            assert got.targets_scanned == 1 and got.hit[1] == px
            answered += 1
        elif stopped_at is not None:
            gave_up += 1
        if got.hit is None:
            missed += 1
        else:
            other += got.targets_scanned > 1
    # the probe answers over a third of the cases; the fallback follows a
    # give-up on the center, hits off-center and misses
    assert answered > len(CASES) // 3
    assert gave_up > 0 and other > 0 and missed > 0


def test_planted_decision_builds_no_table(monkeypatch):
    # a probe that grows once, and wide rows on the table path
    widths = _probe_calls(monkeypatch)
    for n, seed in ((96, 2), (512, 0)):
        q = quantize(gen_planted(n, 16, seed), big_n=4 * n * n)
        want = table_path(q)
        built = []

        class Counted(dp.ReachTable):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(dp, "ReachTable", Counted)
            scan = solve_family(q)
        assert built == []
        assert scan.targets_scanned == 1 and scan.hit[1] == want[3]
    assert widths[:2] == [4096, 16384] and len(widths) == 3


def test_give_up_grows_the_width_then_falls_back(monkeypatch):
    # row 2 reaches tau = 2^20 - 1 with D = 1, but only row 1 attains it, at
    # D = 2^20, above the cap tau // 8
    u = (2**20 - 1, 2**19, 2**19)
    tau = 2**20 - 1
    widths = _probe_calls(monkeypatch)
    assert center_probe(u, tau, tau) is None
    assert widths == [4096, 16384, 65536, tau // 8]
    assert dp_run(u, tau).x == (1, 0, 0)


def test_a_miss_stops_at_row_1_without_growing(monkeypatch):
    u = (2, 4, 2**20)  # all even: the odd tau is never attained
    tau = 2**20 + 1
    widths = _probe_calls(monkeypatch)
    assert center_probe(u, tau, tau) is None
    assert widths == [4096]
    assert dp_run(u, tau).x is None


@pytest.mark.parametrize("u, tau, top", [
    ((7,), 7, 8 * dp.PROBE_MIN_BITS - 1),      # the cap is below the least width
    ((4, 6), 5, 2**20),                         # D at row 2 is 1, the cap 2^17
    ((2**20, 2**20 + 5000), 2**20, 2**15),      # d0 = 5000 is above the cap 4096
])
def test_the_gate_skips_the_probe_in_o_n(monkeypatch, u, tau, top):
    widths = _probe_calls(monkeypatch)
    assert center_probe(u, tau, top) is None
    assert widths == ([dp.PROBE_MIN_BITS] if tau == 5 else [])


@pytest.mark.parametrize("u, tau, top, want", [
    ((7,), 7, 2**15, (4096, 1, (1,))),                      # n = 1, D = 0 at row 1
    ((3, 5), 0, 2**15, (4096, 2, (0, 0))),                  # tau = 0 stops at row n
    ((1, 2**20, 5), 2**20 + 1, 2**21, (4096, 1, (1, 1, 0))),  # an item wider than W
    # d0 = 3000 asks for 8192 bits, above the cap 5000: W starts at the cap
    ((1000, 2**20, 4000), 2**20 + 1000, 40000, (5000, 1, (1, 1, 0))),
])
def test_edge_cases(u, tau, top, want):
    assert center_probe(u, tau, top) == want
    table = ReachTable(u, max(tau, 1), early_stop_bit=tau)
    assert (table.stopped_at, table.witness(tau)) == want[1:]


def lex_smallest(u, tau):
    xs = [tuple(mask >> k & 1 for k in range(len(u)))
          for mask, total in iter_vertex_sums(u) if total == tau]
    return min(xs) if xs else None


def test_dp_run_and_the_probe_match_the_gray_code_oracle(rows):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        u = [rng.randrange(1, 1 << rng.randint(1, 12)) for _ in range(n)]
        for tau in range(-1, sum(u) + 2, max(1, sum(u) // 60)):
            want = lex_smallest(u, tau)
            assert dp_run(u, tau).x == want, (u, tau)
            # the cap 2^17 is above every D here: the probe never gives up
            probe = center_probe(tuple(u), tau, 2**20)
            assert (probe and probe[2]) == want, (u, tau)
