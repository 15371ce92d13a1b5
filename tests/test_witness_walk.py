"""The checkpointed table against a reference that keeps every row.

ReachTable stores checkpoint rows only, and witnesses() re-derives each
block between checkpoints on the slice of bits the walk can read there.
The reference below fills every suffix row by the recurrence, keeps them
all and walks them.  The table's stored rows, stop row, rows filled, cells,
attained(lo) and the witness of every target it lists must match, on
tables over a decision's window, over [tau, tau] and over [0, cap],
early-stopped and full fills.
"""

import math
import random

import pytest

from slabsum.dp import ReachTable, family_window, solve_family
from slabsum.instance import PartitionInstance, gen_planted, gen_random
from slabsum.quantize import QuantizationUnderflow, quantize

# the witness walk reused its rebuild slots across blocks; a slot still held
# another row's high bits, and the walk lost its target
SLOT_REUSE_U = (52, 96, 152, 62, 171, 257, 217, 260, 98)
EDGE_WEIGHTS = (63, 64, 65, 127, 128, 640)


def exact_scale(u):
    """big_n at which quantize returns u itself: ceil(|u|) scales each
    weight by less than 1 + 1/|u|, which never reaches the next integer."""
    norm = sum(w * w for w in u)
    root = math.isqrt(norm)
    return root if root * root == norm else root + 1


def _seeded_cases(count: int):
    """(instance, scale) pairs: random, planted and dominated weights, with
    n up to 40 so the witness walk crosses several checkpoint blocks."""
    cases = []
    seed = 1000
    while len(cases) < count:
        rng = random.Random(seed)
        kind = seed % 3
        if kind == 0:
            inst = gen_random(rng.randint(1, 40), rng.randint(1, 10), seed)
            scale = {"c": rng.choice((2, 3))}
        elif kind == 1:
            inst = gen_planted(rng.randrange(2, 42, 2), rng.randint(1, 8), seed)
            scale = {"c": 2}
        else:
            n = rng.randint(2, 40)
            weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
            weights.insert(rng.randrange(n), 10**6 + rng.randrange(1000))
            inst = PartitionInstance(tuple(weights))
            scale = {"big_n": 3000 + rng.randrange(4000)}
        seed += 1
        try:
            quantize(inst, **scale)
        except QuantizationUnderflow:
            continue
        cases.append((inst, scale))
    return cases


CASES = _seeded_cases(240) + [(PartitionInstance(SLOT_REUSE_U),
                               {"big_n": exact_scale(SLOT_REUSE_U)})]


def kept_rows(u, cap, stop_at=None):
    """(rows, stop): rows[k] holds the sums of items k..n up to cap, for k
    from n+1 down to the last row filled, every row kept.  With stop_at the
    fill stops at the first row holding that bit, which is stop; stop is
    None when no row stops it."""
    rows = {len(u) + 1: 1}
    mask = (1 << (cap + 1)) - 1
    for k in range(len(u), 0, -1):
        rows[k] = (rows[k + 1] | rows[k + 1] << u[k - 1]) & mask
        if stop_at is not None and rows[k] >> stop_at & 1:
            return rows, k
    return rows, None


def reference_witnesses(u, rows, taus):
    """Lexicographically smallest witness of each tau from the kept rows:
    item k is taken iff sigma is not in row k+1, and the items before the
    last row filled stay out."""
    xs = []
    for sigma in taus:
        x = [0] * len(u)
        for k in range(min(rows), len(u) + 1):
            if not rows[k + 1] >> sigma & 1:
                x[k - 1], sigma = 1, sigma - u[k - 1]
        assert sigma == 0
        xs.append(tuple(x))
    return xs


def check_table(u, cap, lo=0, stop=None):
    """ReachTable(u, cap, early_stop_bit=stop) against the kept rows: its
    stop row, rows filled, cells, stored rows, attained(lo) and the witness
    of every target [lo, cap] that its last row holds.  Returns the table."""
    table = ReachTable(u, cap, early_stop_bit=stop)
    rows, want_stop = kept_rows(u, cap, stop)
    case = (u, cap, lo, stop)
    assert table.stopped_at == want_stop, case
    assert table.rows_done == len(rows) - 1, case
    assert table.cells == table.rows_done * (cap + 1), case
    for k, row in table.checkpoints.items():
        assert row == rows[k], (case, k)
    last = rows[min(rows)]
    taus = [tau for tau in range(lo, cap + 1) if last >> tau & 1]
    assert table.attained(lo) == taus, case
    assert table.witnesses(taus) == reference_witnesses(u, rows, taus), case
    return table


def slices(table, tau, x):
    """(lo, hi) of each block the walk of tau rebuilds."""
    keys = sorted(table.checkpoints)
    for k, cp in zip(keys, keys[1:]):
        yield max(0, tau - sum(table.u[k - 1: cp - 1])), tau
        tau -= sum(w for w, b in zip(table.u[k - 1: cp - 1], x[k - 1: cp - 1]) if b)


def test_walk_matches_reference_on_seeded_instances(rows):
    seen = {"stopped": 0, "full": 0, "clamped": 0, "word_edge": 0, "hits": 0, "misses": 0}
    for inst, scale in CASES:
        q = quantize(inst, **scale)
        u = q.u
        fam = family_window(q.total_u, q.n)
        lo, hi = fam.window[0], fam.window[-1]
        order = sorted(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
        first = order[0]
        seen["clamped"] += lo == 0
        # the decision's table, stopping at the first target's bit
        table = check_table(u, hi, lo, first)
        if table.stopped_at is not None:
            seen["stopped"] += 1
            x = table.witness(first)
            seen["word_edge"] += any(a >> 6 != b >> 6 for a, b in slices(table, first, x))
        else:
            seen["full"] += 1
        # the full fill, and dp_run's single-target table
        check_table(u, hi, lo)
        check_table(u, first, first, first)
        # the decision: the window target nearest the center on the kept rows
        full, _ = kept_rows(u, hi)
        pos, tau = next(((pos, tau) for pos, tau in enumerate(order, 1) if full[1] >> tau & 1),
                        (len(order), None))
        want = None if tau is None else (fam.t_of(tau), reference_witnesses(u, full, [tau])[0])
        scan = solve_family(q)
        assert (scan.hit, scan.targets_scanned) == (want, pos), (inst.weights, scale)
        seen["hits" if want else "misses"] += 1
    assert all(seen.values()), seen


def items(rng, kind):
    n = rng.randint(1, 40)
    if kind == "random":
        return [rng.randrange(0, rng.choice((100, 1000, 3000))) for _ in range(n)]
    if kind == "dense":
        return [rng.randint(1, 12) for _ in range(2 * n)]
    if kind == "huge":  # one weight above all the others together, as decide-empty
        u = [rng.randrange(5, 40) for _ in range(n)]
        u[rng.randrange(n)] = 40 * n + rng.randrange(3000)
        return u
    # weights at and around 64-bit word edges, with small items that saturate rows
    return [rng.choice(EDGE_WEIGHTS) if rng.random() < 0.5 else rng.randint(1, 24)
            for _ in range(n)]


def table_cases(rng, u):
    """(cap, lo, stop) for tables over [0, cap] and over narrower windows
    [lo, cap], full fills and early stops inside the window.  The targets
    read are at most 2n+1 wide, like a decision's window, and some windows
    are clamped at 0 or end at the cap."""
    total, width = sum(u), 2 * len(u)
    hi = rng.randint(0, rng.choice((total, width)))
    lo = max(0, hi - rng.randint(0, width))
    for cap, lo, stop in ((total, 0, None), (hi, lo, None), (hi, lo, rng.randint(lo, hi)),
                          (hi, 0, hi), (total, max(0, total - width), total)):
        yield cap, max(lo, cap - width), stop


def test_stored_rows_stops_and_witnesses_match_the_recurrence():
    seen = {"tables": 0, "stopped": 0, "narrow": 0, "clamped": 0}
    for seed in range(2000):
        rng = random.Random(seed)
        u = tuple(items(rng, ("random", "dense", "huge", "edge")[seed % 4]))
        for cap, lo, stop in table_cases(rng, u):
            table = check_table(u, cap, lo, stop)
            seen["tables"] += 1
            seen["stopped"] += table.stopped_at is not None
            seen["narrow"] += lo > 0
            seen["clamped"] += lo == 0
    assert seen["tables"] == 10_000 and min(seen.values()) > 1000, seen


def test_attained_reads_the_last_row_from_lo():
    # row 3 = {0, 5} already holds the stop bit: one row filled, 10 bits wide
    table = ReachTable((2, 3, 5), 9, early_stop_bit=5)
    assert (table.stopped_at, table.rows_done, table.cells) == (3, 1, 10)
    assert (table.attained(), table.attained(5), table.attained(6)) == ([0, 5], [5], [])
    table = ReachTable((2, 3, 5), 9)
    assert (table.stopped_at, table.rows_done, table.cells) == (None, 3, 30)
    assert table.attained() == [0, 2, 3, 5, 7, 8]
    assert (table.attained(8), table.attained(9), table.attained(10)) == ([8], [], [])
    rng = random.Random(23)
    seen = {"stopped": 0, "full": 0, "top_attained": 0}
    for _ in range(300):
        u = tuple(rng.randrange(1, 60) for _ in range(rng.randint(1, 20)))
        cap = rng.randint(0, sum(u) + 3)
        stop = rng.choice((None, rng.randint(0, cap)))
        # lo = 0, lo = cap, and lo just above the top attained sum
        for lo in (0, cap):
            table = check_table(u, cap, lo, stop)
        top = table.attained()[-1]
        assert table.attained(top + 1) == []
        check_table(u, cap, top + 1, stop)
        seen["stopped" if table.stopped_at else "full"] += 1
        seen["top_attained"] += top == cap
    assert min(seen.values()) > 10, seen


def test_every_target_of_word_edge_items(rows):
    # sums straddling 64-bit word edges, so slices start and end mid-word
    rng = random.Random(11)
    for _ in range(40):
        u = tuple(rng.choice((1, 2, 63, 64, 65, 127, 128, 129, 191))
                  for _ in range(rng.randint(1, 24)))
        check_table(u, sum(u))
        fam = family_window(sum(u), len(u))
        check_table(u, fam.window[-1], fam.window[0])


def test_slot_reuse_items_every_target(rows):
    fam = family_window(sum(SLOT_REUSE_U), len(SLOT_REUSE_U))
    for lo in (0, fam.window[0]):
        table = check_table(SLOT_REUSE_U, fam.window[-1], lo)
        assert table.attained(fam.window[0])


@pytest.mark.parametrize("n, scale, seed", [
    (256, 2, 0), (256, 2, 1), (256, 4, 0), (256, 4, 1), (512, 2, 0), (512, 4, 0)])
def test_planted_decisions_on_wide_rows(n, scale, seed):
    # window tops of 2^17 bits and more; scale 2 is N = n^2 (decide-slab
    # --c 2), scale 4 is N = 4n^2 (solve-fptas)
    q = quantize(gen_planted(n, 16, seed), big_n=scale * n * n)
    fam = family_window(q.total_u, q.n)
    first = min(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    assert fam.window[-1] >= 1 << 17
    table = check_table(q.u, fam.window[-1], fam.window[0], first)
    assert table.stopped_at is not None
