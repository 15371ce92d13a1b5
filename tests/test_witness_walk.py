"""The slice witness walk against a reference that stores every row.

ReachTable stores checkpoint rows only, and witnesses() re-derives each
block between checkpoints on the slice of bits the walk can read there.
The reference below keeps every suffix row whole, with no checkpoint and no
band, and walks them.  Both must give the same witness for every target, on
tables over a decision's window, over [tau, tau] and over [0, cap],
early-stopped and full fills.
"""

import random

import pytest

from slabsum.dp import ReachTable, family_window
from slabsum.instance import gen_planted
from slabsum.quantize import quantize
from test_banded_table import CASES, SLOT_REUSE_U


def reference_witnesses(u, taus, *, stop_at=None):
    """Lexicographically smallest witness of each tau from all n+1 suffix
    rows; with stop_at, the rows below the first one reaching that bit are
    never filled, and their items stay out."""
    rows = [1]
    for w in reversed(u):
        if stop_at is not None and rows[-1] >> stop_at & 1:
            break
        rows.append(rows[-1] | rows[-1] << w)
    start = len(u) + 1 - len(rows)  # rows[-1] is row start + 1
    xs = []
    for sigma in taus:
        x = [0] * len(u)
        for k in range(start + 1, len(u) + 1):  # item k, read in row k + 1
            if not rows[len(u) - k] >> sigma & 1:
                x[k - 1], sigma = 1, sigma - u[k - 1]
        assert sigma == 0
        xs.append(tuple(x))
    return xs


def slices(table, tau, x):
    """(lo, hi) of each block the walk of tau rebuilds."""
    keys = sorted(table.checkpoints)
    for k, cp in zip(keys, keys[1:]):
        yield max(0, tau - sum(table.u[k - 1: cp - 1])), tau
        tau -= sum(w for w, b in zip(table.u[k - 1: cp - 1], x[k - 1: cp - 1]) if b)


def test_walk_matches_reference_on_seeded_instances(rows):
    seen = {"stopped": 0, "full": 0, "clamped": 0, "word_edge": 0}
    for inst, scale in CASES:
        q = quantize(inst, **scale)
        u = q.u
        fam = family_window(q.total_u, q.n)
        lo, hi = fam.window[0], fam.window[-1]
        first = min(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
        seen["clamped"] += lo == 0
        # the decision's table: banded, stopping at the first target's bit
        table = ReachTable(u, hi, early_stop_bit=first, window_lo=lo)
        if table.stopped_at is not None:
            seen["stopped"] += 1
            x = table.witness(first)
            assert [x] == reference_witnesses(u, [first], stop_at=first), (u, first)
            seen["word_edge"] += any(a >> 6 != b >> 6 for a, b in slices(table, first, x))
        else:
            seen["full"] += 1
            taus = table.attained()
            want = reference_witnesses(u, taus)
            assert table.witnesses(taus) == want, u
            assert [table.witness(tau) for tau in taus] == want, u
            assert ReachTable(u, hi).witnesses(taus) == want, u
        # banded by [first, first] and early-stopped, as dp_run builds it
        if sum(u) >= first:
            single = ReachTable(u, first, early_stop_bit=first, window_lo=first)
            if single.stopped_at is not None:
                want = reference_witnesses(u, [first], stop_at=first)
                assert [single.witness(first)] == want, (u, first)
    assert all(seen.values()), seen


def test_every_target_of_word_edge_items(rows):
    # sums straddling 64-bit word edges, so slices start and end mid-word
    rng = random.Random(11)
    for _ in range(40):
        u = tuple(rng.choice((1, 2, 63, 64, 65, 127, 128, 129, 191))
                  for _ in range(rng.randint(1, 24)))
        table = ReachTable(u, sum(u))
        taus = table.attained()
        assert table.witnesses(taus) == reference_witnesses(u, taus), u
        fam = family_window(sum(u), len(u))
        banded = ReachTable(u, fam.window[-1], window_lo=fam.window[0])
        taus = banded.attained()
        assert banded.witnesses(taus) == reference_witnesses(u, taus), u


def test_slot_reuse_items_every_target(rows):
    fam = family_window(sum(SLOT_REUSE_U), len(SLOT_REUSE_U))
    for lo in (0, fam.window[0]):
        table = ReachTable(SLOT_REUSE_U, fam.window[-1], window_lo=lo)
        taus = [tau for tau in table.attained() if tau >= fam.window[0]]
        assert taus
        assert table.witnesses(taus) == reference_witnesses(SLOT_REUSE_U, taus)


@pytest.mark.parametrize("n, scale, seed", [
    (256, 2, 0), (256, 2, 1), (256, 4, 0), (256, 4, 1), (512, 2, 0), (512, 4, 0)])
def test_planted_decisions_on_numpy_rows(n, scale, seed):
    # the name predates int-only rows: these are rows of 2^17 bits and wider;
    # scale 2 is N = n^2 (decide-slab --c 2), scale 4 is N = 4n^2 (solve-fptas)
    q = quantize(gen_planted(n, 16, seed), big_n=scale * n * n)
    fam = family_window(q.total_u, q.n)
    first = min(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    table = ReachTable(q.u, fam.window[-1], early_stop_bit=first, window_lo=fam.window[0])
    assert table.stopped_at is not None
    assert [table.witness(first)] == reference_witnesses(q.u, [first], stop_at=first)
