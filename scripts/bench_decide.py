#!/usr/bin/env python3
"""One slab decision, whole and split: solve_family against its table's fill and walk.

Two kinds of input.  Planted 16-bit instances at n in {128, 256, 512}, at
the scales the decide-planted workload uses (N = n^2, `decide-slab --c 2`,
and N = 4n^2, `solve-fptas --epsilon 1/(4n)`), where the center target
hits.  Dominated instances shaped like the decide-empty workload, at n in
{63, 80, 97} and `decide-slab --c 3`: n - 1 weights in [500, 1500) and one
near 10^6 at a random index, so every target misses and the decision is
one full fill.

For each it times the whole decision, `solve_family` (decide_ms), and
records the position of its hit (targets_scanned).  On a tree with the
complement probe, `center_probe`, it records on how many seeds the probe
answered the decision (probe_answered) and the widest row it filled, in
bits (probe_width); both are null on a tree without one.  Then it builds
the table solve_family falls back to, records its row kernel (`int` or
`numpy`), times the fill and the walk of the hit's witness apart, and
records the checkpoints stored, the megabytes of row storage the table
holds after the walk, and the bits the walk rebuilds (rows re-derived times
the width of each); the walk columns are null when nothing hits.  Next to
the fill time it records a count that does not depend on the machine: the
64-bit words the numpy fill shifts (null on Python-int rows), counted on
one more, untimed fill.  Each time is the median of REPEATS runs, and each
figure the median over seeds 0..4, but probe_answered, a sum, probe_width,
a maximum, and kernel, every kernel the seeds ran.

    PYTHONPATH=src python scripts/bench_decide.py --before 15e1e59

measures the tree in src/ as "after" and the src/ of git revision 15e1e59
as "before" and writes both to BENCH_decide.json (see benchlib.py).  It
reads only names both trees have, but center_probe, which it looks up: the
table's kernel, and its stored rows in `checkpoints`, through `kernel.bits`.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import benchlib

SIZES = (128, 256, 512)
DOMINATED_SIZES = (63, 80, 97)
SEEDS = range(5)
REPEATS = 5


def dominated_weights(n: int, seed: int) -> tuple[int, ...]:
    """n - 1 weights in [500, 1500) and one near 10^6 at a random index."""
    rng = random.Random(seed)
    weights = [rng.randrange(500, 1500) for _ in range(n - 1)]
    weights.insert(rng.randrange(n), 10**6 + rng.randrange(1500))
    return tuple(weights)


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
    """Words the numpy fill of build() shifts, or None on Python-int rows:
    apply shifts every band word from max(L >> 6, q) up to H >> 6."""
    from slabsum import dp

    kern, count = dp._ArrayKernel, 0
    inner = kern.apply

    def counted(self, row, w, band):
        nonlocal count
        count += max(0, (band[1] >> 6) - max(band[0] >> 6, w >> 6) + 1)
        return inner(self, row, w, band)

    kern.apply = counted
    try:
        table = build()
    finally:
        kern.apply = inner
    return count if isinstance(table.kernel, kern) else None


def measure_case(kind: str, n: int, big_n: int, seed: int) -> dict:
    from slabsum import dp
    from slabsum.dp import ReachTable, family_window, solve_family
    from slabsum.instance import PartitionInstance, gen_planted
    from slabsum.quantize import quantize

    inst = (gen_planted(n, 16, seed) if kind == "planted"
            else PartitionInstance(dominated_weights(n, seed)))
    q = quantize(inst, big_n=big_n)
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
            (t for t in order if table.kernel.bits(table.checkpoints[1], t, t)), None)
        x = None if tau is None else table.witness(tau)
        t2 = time.perf_counter()
        fill_ms.append((t1 - t0) * 1e3)
        walk_ms.append((t2 - t1) * 1e3)
    if tau is None:
        assert scan.hit is None
    else:
        assert sum(w for w, b in zip(q.u, x) if b) == tau
        assert scan.hit == (fam.t_of(tau), x)
    return {"decide_ms": statistics.median(decide_ms), "targets_scanned": scan.targets_scanned,
            "probe_answered": None if probe is None else int(answer is not None),
            "probe_width": None if probe is None else answer[0] if answer else 0,
            "kernel": "numpy" if isinstance(table.kernel, dp._ArrayKernel) else "int",
            "fill_ms": statistics.median(fill_ms), "fill_words_shifted": shifted_words(build),
            "walk_ms": None if tau is None else statistics.median(walk_ms),
            "checkpoints": len(table.checkpoints), "held_mb": held_mb(table),
            "walk_bits": None if tau is None else walk_bits(table, tau, x)}


MERGE = {"probe_answered": sum, "probe_width": max,
         "kernel": lambda kernels: "+".join(sorted(set(kernels)))}


def measure() -> list[dict]:
    cases = [("planted", n, scale, big_n) for n in SIZES
             for scale, big_n in (("c=2", n * n), ("N=4n^2", 4 * n * n))]
    cases += [("dominated", n, "c=3", n ** 3) for n in DOMINATED_SIZES]
    rows = []
    for kind, n, scale, big_n in cases:
        runs = [measure_case(kind, n, big_n, seed) for seed in SEEDS]
        row = {"kind": kind, "n": n, "scale": scale, "big_n": big_n, "seeds": len(runs)}
        for key in runs[0]:
            values = [r[key] for r in runs]
            value = None if None in values else MERGE.get(key, statistics.median)(values)
            row[key] = round(value, 3) if isinstance(value, float) else value
        rows.append(row)
    return rows


if __name__ == "__main__":
    benchlib.main(__file__, __doc__, measure, "BENCH_decide.json",
                  median_of_seeds=list(SEEDS), timing_repeats=REPEATS)
