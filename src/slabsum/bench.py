"""Runtime scaling harness for the paper's per-target window scan.

One row per (n, repeat): wall time of a complete window scan at scale n^c,
with the table-cell count as a machine-independent work measure.  The scan
is the per-target reference, scan_window: one full decision-only DP per
window target, as the paper states the algorithm, not the one-table
solve_family that decisions use.  Its rows are Python ints.  The fitted
log-log slope of median wall time against n is the headline number; at c=2
the expected exponent is 4.5 (2n+1 targets, each an O(n * N * sqrt(n)) table).
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .dp import check_budget, family_window
from .instance import gen_random
from .quantize import QuantizationUnderflow, quantize


@dataclass(frozen=True)
class BenchRow:
    n: int
    big_n: int
    c: int
    wall_ms: float
    targets_scanned: int
    table_cells: int


CSV_HEADER = ("n", "N", "c", "wall_ms", "targets_scanned", "table_cells")


def bench_instance(n: int, bits: int, seed: int, c: int):
    """Random instance that quantizes cleanly at this scale; a weight small
    enough to round to zero just bumps the seed."""
    offset = 0
    while True:
        inst = gen_random(n, bits, seed + 1_000_003 * offset)
        try:
            return inst, quantize(inst, c=c)
        except QuantizationUnderflow:
            offset += 1


def scan_window(q) -> tuple[int, int]:
    """Per-target reference: for every window target tau, ascending, fill a
    (tau+1)-bit reachability row over all n items, with no early stop and no
    witness.  Returns (targets scanned, cells summed over the fills), each
    fill counting n*(tau+1).  The budget is checked once, for the widest
    table's (n+1)*(hi+1) cells, before any row is filled."""
    window = family_window(q.total_u, q.n).window
    check_budget((q.n + 1) * (window[-1] + 1))
    cells = 0
    for tau in window:
        mask = (1 << (tau + 1)) - 1
        row = 1
        for w in q.u:
            if w <= tau:
                row = (row | row << w) & mask
        cells += q.n * (tau + 1)
    return len(window), cells


def run_bench(ns, c: int = 2, repeats: int = 3, bits: int = 16,
              seed: int = 0) -> list[BenchRow]:
    # untimed warm-up so one-time costs (allocator growth, first calls)
    # never land inside a measured scan
    _, q_warm = bench_instance(16, 6, seed, c)
    scan_window(q_warm)
    rows = []
    for n in ns:
        for rep in range(repeats):
            _, q = bench_instance(n, bits, seed + rep, c)
            t0 = time.perf_counter()
            targets, cells = scan_window(q)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rows.append(BenchRow(n=n, big_n=q.big_n, c=c, wall_ms=wall_ms,
                                 targets_scanned=targets, table_cells=cells))
    return rows


def fit_loglog_slope(rows) -> float:
    """Least-squares slope of log(median wall_ms) against log(n).

    The median over repeats keeps one scheduling hiccup at the cheap end of
    the sweep from tilting the whole fit.
    """
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row.wall_ms)
    pts = [(math.log(n), math.log(statistics.median(ms))) for n, ms in sorted(by_n.items())]
    if len(pts) < 2:
        raise ValueError("need at least two distinct n values to fit a slope")
    xbar = sum(x for x, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - xbar) ** 2 for x, _ in pts)
    sxy = sum((x - xbar) * (y - ybar) for x, y in pts)
    return sxy / sxx


def write_csv(rows, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.n, row.big_n, row.c, f"{row.wall_ms:.3f}",
                             row.targets_scanned, row.table_cells])
