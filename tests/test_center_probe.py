"""The complement probe against the ReachTable early-stop path.

Every decision (solve_family on its window, dp_run on its one target)
first asks center_probe for the center target on narrow Python-int rows,
using the symmetry "tau is in row k iff Suf(k) - tau is", and builds a
table only when the probe is skipped, gives up or misses.  With the probe
switched off solve_family runs the table path alone, which is the
reference here: both must give the same hit, witness and targets_scanned,
and the probe's stop row must be the table's stopped_at.  dp_run is
checked against test_dp.table_decide, the table alone, on raw 16-bit
weights, and with the probe against the Gray-code oracle at small n.
"""

import random
from itertools import accumulate

import pytest

from slabsum import dp
from slabsum.dp import ReachTable, center_probe, dp_run, family_window, solve_family
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.oracle import iter_vertex_sums
from slabsum.quantize import QuantizationUnderflow, quantize
from test_dp import table_decide


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
    table = ReachTable(q.u, fam.window[-1], early_stop_bit=center)
    x = table.witness(center) if table.stopped_at is not None else None
    return center, fam.window[-1], table.stopped_at, x


def _probe_calls(monkeypatch):
    """The widths center_probe fills rows at, in order."""
    widths = []
    inner = dp._probe_fill

    def counted(u, tau, width):
        widths.append(width)
        return inner(u, tau, width)

    monkeypatch.setattr(dp, "_probe_fill", counted)
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
    # a probe that doubles once at n = 96, one that starts at d0 = 9766 at
    # n = 512, and wide rows on the table path
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
    assert widths == [4096, 8192, 9766]


def test_give_up_grows_the_width_then_falls_back(monkeypatch):
    # row 2 reaches tau = 2^20 - 1 with D = 1, but only row 1 attains it, at
    # D = 2^20, above the cap tau // 8: the give-up there grows W to
    # max(2W, 2^20), which the cap clips, and the fill at the cap gives up
    u = (2**20 - 1, 2**19, 2**19)
    tau = 2**20 - 1
    widths = _probe_calls(monkeypatch)
    assert center_probe(u, tau, tau) is None
    assert widths == [4096, tau // 8]
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
    # d0 = 3500: W starts at 2^12, gives up at D_1 = 4500 and grows to the
    # cap 5000, below 2 * 2^12
    ((1000, 2**20, 4500), 2**20 + 1000, 40000, (5000, 1, (1, 1, 0))),
])
def test_edge_cases(u, tau, top, want):
    assert center_probe(u, tau, top) == want
    table = ReachTable(u, max(tau, 1), early_stop_bit=tau)
    assert (table.stopped_at, table.witness(tau)) == want[1:]


def lex_smallest(u, tau):
    xs = [tuple(mask >> k & 1 for k in range(len(u)))
          for mask, total in iter_vertex_sums(u) if total == tau]
    return min(xs) if xs else None


def _oracle_pass(probe_too: bool):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        u = [rng.randrange(1, 1 << rng.randint(1, 12)) for _ in range(n)]
        for tau in range(-1, sum(u) + 2, max(1, sum(u) // 60)):
            want = lex_smallest(u, tau)
            assert dp_run(u, tau).x == want, (u, tau)
            if probe_too:
                # the cap 2^17 is above every D here: the probe never gives up
                probe = center_probe(tuple(u), tau, 2**20)
                assert (probe and probe[2]) == want, (u, tau)


def test_dp_run_and_the_probe_match_the_gray_code_oracle(rows, monkeypatch):
    # dp_run's probe is skipped below tau = 8 * 2^12, nearly every target
    # here, so its table answers; the second pass lets the probe run at a
    # least width of 8 bits and a cap of tau // 2, where it answers some
    # targets and gives up on some
    _oracle_pass(probe_too=True)
    fills = []
    inner = dp._probe_fill

    def counted(u, tau, width):
        fills.append((width, inner(u, tau, width)))
        return fills[-1][1]

    monkeypatch.setattr(dp, "PROBE_MIN_BITS", 8)
    monkeypatch.setattr(dp, "PROBE_SHARE", 2)
    monkeypatch.setattr(dp, "_probe_fill", counted)
    _oracle_pass(probe_too=False)
    assert sum(stop is not None for _, (stop, _, _) in fills) >= 50
    assert sum(stop is None and d > width for width, (stop, d, _) in fills) >= 100


def _quantized(kind, n, big_n, seed):
    inst = gen_planted(n, 16, seed) if kind == "planted" else gen_random(n, 16, seed)
    try:
        return quantize(inst, big_n=big_n)
    except QuantizationUnderflow:
        return None


def test_the_width_schedule(monkeypatch):
    # W starts at max(2^12, d0), capped; after a give-up at D it is at least
    # 2W and at least D, capped, and the last fill finds tau
    fills = []
    inner = dp._probe_fill

    def counted(u, tau, width):
        fills.append((width, inner(u, tau, width)))
        return fills[-1][1]

    monkeypatch.setattr(dp, "_probe_fill", counted)
    gave_up = 0
    for kind in ("planted", "random"):
        for n, big_n in ((96, 96**3), (128, 4 * 128**2), (512, 4 * 512**2)):
            for seed in range(3):
                q = _quantized(kind, n, big_n, seed)
                if q is None:
                    continue
                tau, top = q.total_u // 2, family_window(q.total_u, q.n).window[-1]
                cap = top // dp.PROBE_SHARE
                d0 = next(s for s in accumulate(reversed(q.u)) if s >= tau) - tau
                fills.clear()
                width, stop, _ = center_probe(q.u, tau, top)
                assert fills[0][0] == min(cap, max(dp.PROBE_MIN_BITS, d0))
                for (w, (s, d, _)), (grown, _) in zip(fills, fills[1:]):
                    assert s is None and d > w
                    assert grown == min(cap, max(2 * w, d))
                assert fills[-1][1][0] == stop and fills[-1][0] == width
                gave_up += len(fills) - 1
    assert gave_up >= 10


@pytest.mark.parametrize("n, scales", [
    (96, ("N=n^2", "N=4n^2", "c=3")),
    (256, ("N=n^2", "N=4n^2")),
    (512, ("N=n^2", "N=4n^2")),
])
def test_probe_matches_the_early_stop_table(monkeypatch, n, scales):
    # planted and random 16-bit weights at the benchmark's scales, where the
    # probe starts at 2^12 or d0 and gives up on some seeds before it hits
    widths = _probe_calls(monkeypatch)
    gave_up = 0
    for kind in ("planted", "random"):
        for scale in scales:
            big_n = {"N=n^2": n * n, "N=4n^2": 4 * n * n, "c=3": n**3}[scale]
            for seed in range(3):
                q = _quantized(kind, n, big_n, seed)
                if q is None:
                    continue
                center, top, stopped_at, x = table_path(q)
                assert center == q.total_u // 2
                widths.clear()
                probe = center_probe(q.u, center, top)
                gave_up += len(widths) > 1
                assert probe is not None, (kind, scale, seed)
                assert probe[1:] == (stopped_at, x), (kind, scale, seed)
    assert gave_up > 0


@pytest.mark.parametrize("n", [96, 256, 512])
def test_dp_run_matches_the_table_only_decision(monkeypatch, n):
    # raw 16-bit weights, where tau / 8 is far above 2^12 and dp_run's probe
    # runs: the center and targets near it, a small D near the total, a
    # quarter of the total, and an odd target of even weights, never attained
    probes = []
    inner = dp.center_probe

    def recorded(*args):
        probes.append(inner(*args))
        return probes[-1]

    monkeypatch.setattr(dp, "center_probe", recorded)
    hits = answered = misses = 0
    for kind in ("planted", "random"):
        for seed in range(3):
            inst = gen_planted(n, 16, seed) if kind == "planted" else gen_random(n, 16, seed)
            u = inst.weights
            total = sum(u)
            even = tuple(w + w % 2 for w in u)
            cases = [(u, total // 2 + offset) for offset in (0, -1, 1, -7, 12)]
            cases += [(u, total - min(u)), (u, total // 4), (even, sum(even) // 2 | 1)]
            for w, tau in cases:
                probes.clear()
                got = dp_run(w, tau)
                want = table_decide(w, tau)
                assert got.x == want, (kind, seed, tau)
                assert (got.cells == 0) == (probes[0] is not None)
                if want is None:
                    misses += 1
                    assert probes == [None]
                else:
                    hits += 1
                    answered += probes[0] is not None
    assert misses >= 6
    # the probe answers most hits; the table takes the rest
    assert answered > 0.8 * hits
