#!/usr/bin/env python3
"""Sweep the paper's per-target window scan over a range of n and fit the
wall-time exponent.  Writes a CSV next to the fitted slope on stdout.

Usage: python scripts/bench_scaling.py [--n 64,128,256,512] [--out bench.csv]
"""

import argparse

from slabsum.bench import fit_loglog_slope, run_bench, write_csv


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", default="64,128,256,512")
    parser.add_argument("--c", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--bits", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="bench.csv")
    args = parser.parse_args()

    ns = [int(part) for part in args.n.split(",")]
    rows = run_bench(ns, c=args.c, repeats=args.repeats, bits=args.bits, seed=args.seed)
    write_csv(rows, args.out)
    for row in rows:
        print(f"n={row.n:5d}  N={row.big_n:8d}  wall={row.wall_ms:10.1f} ms  "
              f"targets={row.targets_scanned}  cells={row.table_cells:.3e}")
    if len(ns) > 1:
        print(f"log-log slope: {fit_loglog_slope(rows):.3f} "
              f"(expected ~{args.c + 2.5} at c={args.c})")


if __name__ == "__main__":
    main()
