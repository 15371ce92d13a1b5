"""The banded numpy fill, against a naive suffix recurrence.

_ArrayKernel.apply shifts only the words of each row's band, whole words
and carries apart.  Here the kernel threshold is 0, so every table runs on
numpy rows, dense saturated ones among them.  Each stored row must equal the
Python-int recurrence on its band bits and on every bit above the band (bits
below a band may hold any attainable subset), and stopped_at and the witness
of every attainable window target must match too.
"""

import random

from slabsum.dp import ReachTable
from test_witness_walk import reference_witnesses

EDGE_WEIGHTS = (63, 64, 65, 127, 128, 640)


def suffix_rows(u, cap):
    """rows[k] = sums of items k..n up to cap, for k = 1..n+1 (rows[0] unused)."""
    rows = [0] * (len(u) + 2)
    rows[len(u) + 1] = 1
    for k in range(len(u), 0, -1):
        rows[k] = (rows[k + 1] | rows[k + 1] << u[k - 1]) & ((1 << (cap + 1)) - 1)
    return rows


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
    # whole words (r = 0) and carries, with small items that saturate rows
    return [rng.choice(EDGE_WEIGHTS) if rng.random() < 0.5 else rng.randint(1, 24)
            for _ in range(n)]


def table_cases(rng, u):
    """(cap, window_lo, stop) for tables over [0, cap] and over narrower
    windows, full fills and early stops inside the window.  Narrower windows
    are at most 2n+1 wide, like a decision's, and some are clamped at 0 or
    end at the cap word."""
    total, width = sum(u), 2 * len(u)
    hi = rng.randint(0, rng.choice((total, width)))
    lo = max(0, hi - rng.randint(0, width))
    yield total, 0, None
    yield hi, lo, None
    # the fill tests its stop bit after each item, the reference before: 0 is left out
    yield hi, lo, rng.randint(lo, hi) or None
    yield hi, 0, hi or None
    yield total, max(0, total - width), total


def test_stored_rows_stops_and_witnesses_match_the_recurrence(numpy_rows):
    seen = {"tables": 0, "stopped": 0, "banded": 0, "clamped": 0}
    for seed in range(2000):
        rng = random.Random(seed)
        u = tuple(items(rng, ("random", "dense", "huge", "edge")[seed % 4]))
        for cap, lo, stop in table_cases(rng, u):
            case = (seed, u, cap, lo, stop)
            table = ReachTable(u, cap, early_stop_bit=stop, window_lo=lo)
            ref = suffix_rows(u, cap)
            want_stop = None if stop is None else next(
                (k for k in range(len(u), 0, -1) if ref[k] >> stop & 1), None)
            assert table.stopped_at == want_stop, case
            top = 64 * table.kernel.words - 1  # every bit of the cap word
            for k, row in table.checkpoints.items():
                low = table.band(k)[0]
                assert table.kernel.bits(row, low, top) == ref[k] >> low, (case, k)
            last = table.stopped_at or 1
            window = range(max(lo, cap - 2 * len(u)), cap + 1)
            taus = [tau for tau in window if ref[last] >> tau & 1]
            assert table.witnesses(taus) == reference_witnesses(u, taus, stop_at=stop), case
            seen["tables"] += 1
            seen["stopped"] += table.stopped_at is not None
            seen["banded"] += lo > 0
            seen["clamped"] += lo == 0
    assert seen["tables"] == 10_000 and min(seen.values()) > 1000, seen
