#!/usr/bin/env python3
"""One slab decision, whole and split: solve_family against its table's fill and walk.

For planted 16-bit instances at n in {128, 256, 512}, at the scales the
decide-planted workload uses (N = n^2, `decide-slab --c 2`, and N = 4n^2,
`solve-fptas --epsilon 1/(4n)`), it times the whole decision,
`solve_family` (decide_ms), and records the position of its hit
(targets_scanned).  On a tree with the complement probe, `center_probe`,
it records on how many seeds the probe answered the decision
(probe_answered) and the widest row it filled, in bits (probe_width);
both are null on a tree without one.  Then it builds the table
solve_family falls back to, times the fill and the walk of the hit's
witness apart, and records the checkpoints stored, the megabytes of row
storage the table holds after the walk, and the bits the walk rebuilds
(rows re-derived times the width of each).  Next to the fill time it
records a count that does not depend on the machine: the 64-bit words the
numpy fill shifts (null on Python-int rows), counted on one more, untimed
fill.  Each time is the median of REPEATS runs, and each figure the median
over seeds 0..4, but probe_answered, a sum, and probe_width, a maximum.

    PYTHONPATH=src python scripts/bench_decide.py --before 11e8157

measures the tree in src/ as "after" and the src/ of git revision 11e8157
as "before" and writes both to BENCH_decide.json (see benchlib.py).  It
reads only names both trees have, but center_probe, which it looks up: the
table's stored rows in `checkpoints`, through `kernel.bits`.
"""

from __future__ import annotations

import statistics
import sys
import time

import benchlib

SIZES = (128, 256, 512)
SEEDS = range(5)
REPEATS = 5


def walk_bits(table, tau, x) -> int:
    """Bits the witness walk of tau rebuilds: each row between checkpoints
    over its slice [sigma - B, sigma]."""
    keys = sorted(table.checkpoints)
    u, sigma, total = table.u, tau, 0
    for k, cp in zip(keys, keys[1:]):
        total += (cp - k - 1) * (sigma - max(0, sigma - sum(u[k - 1: cp - 1])) + 1)
        sigma -= sum(w for w, b in zip(u[k - 1: cp - 1], x[k - 1: cp - 1]) if b)
    return total


def held_mb(table) -> float:
    """Megabytes of stored rows: Python ints, whole numpy rows, or
    (first word, words) band slices."""
    rows = [r[1] if isinstance(r, tuple) else r for r in table.checkpoints.values()]
    return sum(getattr(r, "nbytes", None) or sys.getsizeof(r) for r in rows) / 2**20


def shifted_words(build):
    """Words the numpy fill of build() shifts, or None on Python-int rows.

    It wraps the kernel's word-update helper: _shift_or(row, q, r, lo, hi)
    updates words lo..hi; a tree without it shifts every band word from
    max(L >> 6, q) up in apply."""
    from slabsum import dp

    kern, count = dp._ArrayKernel, 0
    if hasattr(kern, "_shift_or"):
        name, words = "_shift_or", lambda row, q, r, lo, hi: hi - lo + 1
    else:
        name, words = "apply", lambda row, w, band: (band[1] >> 6) - max(band[0] >> 6, w >> 6) + 1
    inner = getattr(kern, name)

    def counted(self, *args):
        nonlocal count
        count += max(0, words(*args))
        return inner(self, *args)

    setattr(kern, name, counted)
    try:
        table = build()
    finally:
        setattr(kern, name, inner)
    return count if isinstance(table.kernel, kern) else None


def measure_case(n: int, big_n: int, seed: int) -> dict:
    from slabsum import dp
    from slabsum.dp import ReachTable, family_window, solve_family
    from slabsum.instance import gen_planted
    from slabsum.quantize import quantize

    q = quantize(gen_planted(n, 16, seed), big_n=big_n)
    fam = family_window(q.total_u, q.n)
    order = sorted(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    decide_ms = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        scan = solve_family(q)
        decide_ms.append((time.perf_counter() - t0) * 1e3)
    probe = getattr(dp, "center_probe", None)
    answer = probe(q.u, order[0], fam.window[-1]) if probe else None

    def build():
        return ReachTable(q.u, fam.window[-1], early_stop_bit=order[0], window_lo=fam.window[0])

    fill_ms, walk_ms = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table = build()
        t1 = time.perf_counter()
        tau = order[0] if table.stopped_at is not None else next(
            t for t in order if table.kernel.bits(table.checkpoints[1], t, t))
        x = table.witness(tau)
        t2 = time.perf_counter()
        fill_ms.append((t1 - t0) * 1e3)
        walk_ms.append((t2 - t1) * 1e3)
    assert sum(w for w, b in zip(q.u, x) if b) == tau
    assert scan.hit == (fam.t_of(tau), x)
    return {"decide_ms": statistics.median(decide_ms), "targets_scanned": scan.targets_scanned,
            "probe_answered": None if probe is None else int(answer is not None),
            "probe_width": None if probe is None else answer[0] if answer else 0,
            "fill_ms": statistics.median(fill_ms), "fill_words_shifted": shifted_words(build),
            "walk_ms": statistics.median(walk_ms),
            "checkpoints": len(table.checkpoints), "held_mb": held_mb(table),
            "walk_bits": walk_bits(table, tau, x)}


def measure() -> list[dict]:
    rows = []
    for n in SIZES:
        for scale, big_n in (("c=2", n * n), ("N=4n^2", 4 * n * n)):
            runs = [measure_case(n, big_n, seed) for seed in SEEDS]
            row = {"n": n, "scale": scale, "big_n": big_n, "seeds": len(runs)}
            for key in runs[0]:
                values = [r[key] for r in runs]
                merge = {"probe_answered": sum, "probe_width": max}.get(key, statistics.median)
                row[key] = None if None in values else round(merge(values), 3)
            rows.append(row)
    return rows


if __name__ == "__main__":
    benchlib.main(__file__, __doc__, measure, "BENCH_decide.json",
                  median_of_seeds=list(SEEDS), timing_repeats=REPEATS)
