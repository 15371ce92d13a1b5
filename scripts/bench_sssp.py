#!/usr/bin/env python3
"""Per-stage split of the simultaneous search, `sssp.solve`.

For p in {2, 4} and n in {8, 16, ..., 48}, on 8-bit systems of two kinds
(random rows, and one planted row repeated p times), it runs `solve` with
the leaf budget lifted to the grid size.  Each stage is timed by wrapping
the name `solve` calls it through with benchlib.spy, as the perfbench
tracer does:

    geometry_ms  sssp.geometry
    window_ms    sssp.l0_window
    table_ms     sssp.attainable_witnesses: the table fill and witness walk
    l0_ms        sssp.l0_check, the integer L0 filter
    stages_ms    the rest of solve: stages 1/2 (B and cross-term lookups, with
                 their floats from sssp.stage_floats), quantization, the
                 budget check and the certificate

Each time is the median of REPEATS solves.  Next to them it records counts
that do not depend on the machine: the attainable targets on the whole
axis (from a separate, untimed table over [0, sum(w)]), the targets the
search lists, its exact checks and their survivors (L0 <= 5*delta), the
row bits its table filled (rows_done * (cap + 1)), and whether it found a
vertex.  Each figure is the median over the first SEEDS generator seeds
whose quantized axis has no zero entry; found counts those seeds.

    PYTHONPATH=src python scripts/bench_sssp.py --before HEAD^

measures the tree in src/ as "after" and the src/ of git revision HEAD^
as "before" and writes both to BENCH_sssp.json (see benchlib.py).  It
spies `geometry`, `l0_window`, `attainable_witnesses` and `l0_check` in
sssp and `dp.ReachTable`, and reads a table's `attained()`, `rows_done` and
`cap`, so it reads any tree since f511e80, the first with `l0_check`.
"""

from __future__ import annotations

import statistics
import time

import benchlib

SIZES = (8, 16, 24, 32, 40, 48)
PS = (2, 4)
KINDS = ("random", "duplicate")
BITS = 8
SEEDS = 3
REPEATS = 5
STAGES = {"geometry_ms": "geometry", "window_ms": "l0_window",
          "table_ms": "attainable_witnesses", "l0_ms": "l0_check"}


def quantized_axis(inst, c: int = 2) -> tuple[int, ...] | None:
    """The axis solve quantizes, or None when an entry rounds to zero."""
    from slabsum import sssp

    geo = sssp.geometry(inst, None)
    w = tuple(int(inst.n ** c * a / geo.axis_norm) for a in geo.axis)
    return None if 0 in w else w


def instances(n: int, p: int, kind: str):
    """The first SEEDS seeded systems of this shape that solve can quantize."""
    from slabsum.instance import gen_sssp_random

    seed = 0
    while True:
        inst = gen_sssp_random(n, BITS, p, seed, duplicate=kind == "duplicate")
        w = quantized_axis(inst)
        if w is not None:
            yield inst, w
        seed += 1


def measure_case(inst, w) -> dict:
    from slabsum import dp, sssp

    budget = sssp.grid_cardinality(inst)
    attainable = len(dp.ReachTable(w, sum(w)).attained())
    runs = []
    for _ in range(REPEATS):
        with (benchlib.spy(sssp, *STAGES.values()) as calls,
              benchlib.spy(dp, "ReachTable") as tables):
            t0 = time.perf_counter()
            cert = sssp.solve(inst, leaf_budget=budget)
            total = (time.perf_counter() - t0) * 1e3
        ms = {key: sum(call[0] for call in calls[name]) for key, name in STAGES.items()}
        runs.append(dict(ms, stages_ms=total - sum(ms.values()), solve_ms=total))
    checks = [result for *_, result in calls["l0_check"]]
    row = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    row.update(listed=sum(len(result) for *_, result in calls["attainable_witnesses"]),
               exact_checks=len(checks), survivors=sum(d is not None for d in checks),
               attainable_axis=attainable,
               table_cells=sum(table.rows_done * (table.cap + 1)
                               for *_, table in tables["ReachTable"]),
               found=int(cert is not None))
    return row


def measure() -> list[dict]:
    rows = []
    for p in PS:
        for kind in KINDS:
            for n in SIZES:
                cases = instances(n, p, kind)
                runs = [measure_case(*next(cases)) for _ in range(SEEDS)]
                row = {"p": p, "kind": kind, "n": n, "seeds": len(runs)}
                for key in runs[0]:
                    values = [r[key] for r in runs]
                    row[key] = round(statistics.median(values), 3)
                row["found"] = sum(r["found"] for r in runs)
                rows.append(row)
    return rows


if __name__ == "__main__":
    benchlib.main(__file__, __doc__, measure, "BENCH_sssp.json",
                  bits=BITS, seeds_per_case=SEEDS, timing_repeats=REPEATS)
