#!/usr/bin/env python3
"""Per-stage split of the simultaneous search, `sssp.solve`.

For p in {2, 4} and n in {8, 16, ..., 48}, on 8-bit systems of two kinds
(random rows, and one planted row repeated p times), it runs `solve` with
the leaf budget lifted to the grid size.  Each stage is timed by wrapping
the name `solve` calls it through, as the perfbench tracer does:

    geometry_ms  sssp.geometry
    window_ms    sssp.l0_window (null on a tree without it)
    table_ms     sssp.attainable_witnesses: the table fill and witness walk
    l0_ms        sssp.l0_check, the integer L0 filter, or sssp.exact_l0 on a
                 tree without it, where solve filters on the exact rational
    stages_ms    the rest of solve: stages 1/2 (B and cross-term lookups, with
                 their floats from sssp.stage_floats or sssp.cross_sum),
                 quantization, the budget check and the certificate

Each time is the median of REPEATS solves.  Next to them it records counts
that do not depend on the machine: the attainable targets on the whole
axis (from a separate, untimed table over [0, sum(w)]), the targets the
search lists, its exact checks and their survivors (L0 <= 5*delta), the
band cells of its table (`ReachTable.cells`), and whether it found a
vertex.  Each figure is the median over the first SEEDS generator seeds
whose quantized axis has no zero entry; found counts those seeds.

    PYTHONPATH=src python scripts/bench_sssp.py --before 2031eeb

measures the tree in src/ as "after" and the src/ of git revision 2031eeb
as "before" and writes both to BENCH_sssp.json (see benchlib.py).  It
reads only table names both trees have: `attained()` and `cells`.
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
# each timing column wraps the first of its names that the tree has
STAGES = {"geometry_ms": ("geometry",), "window_ms": ("l0_window",),
          "table_ms": ("attainable_witnesses",), "l0_ms": ("l0_check", "exact_l0")}


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


class Stages:
    """Timing and counting wrappers on the names solve calls."""

    def __init__(self):
        from slabsum import dp, sssp

        self.ms = dict.fromkeys(STAGES, 0.0)
        self.counts = {"listed": 0, "exact_checks": 0, "survivors": 0}
        self.tables = []
        self.patches = []
        for key, names in STAGES.items():
            name = next((name for name in names if hasattr(sssp, name)), None)
            if name is None:
                self.ms[key] = None
            else:
                self._wrap(sssp, name, key)
        table, tables = dp.ReachTable, self.tables

        class Recorded(table):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        self.patches.append((dp, "ReachTable", table))
        dp.ReachTable = Recorded

    def _wrap(self, module, name: str, key: str) -> None:
        inner = getattr(module, name)
        ms, counts = self.ms, self.counts

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = inner(*args, **kwargs)
            ms[key] += (time.perf_counter() - t0) * 1e3
            if name == "attainable_witnesses":
                counts["listed"] += len(result)
            elif name == "l0_check":
                counts["exact_checks"] += 1
                counts["survivors"] += result is not None
            elif name == "exact_l0":
                counts["exact_checks"] += 1
                counts["survivors"] += result <= 5 * args[0].delta
            return result

        self.patches.append((module, name, inner))
        setattr(module, name, timed)

    def restore(self) -> None:
        for module, name, inner in reversed(self.patches):
            setattr(module, name, inner)


def measure_case(inst, w) -> dict:
    from slabsum.dp import ReachTable
    from slabsum.sssp import grid_cardinality, solve

    budget = grid_cardinality(inst)
    full = ReachTable(w, sum(w))
    attainable = len(full.attained())
    runs = []
    for _ in range(REPEATS):
        stages = Stages()
        try:
            t0 = time.perf_counter()
            cert = solve(inst, leaf_budget=budget)
            total = (time.perf_counter() - t0) * 1e3
        finally:
            stages.restore()
        timed = [v for v in stages.ms.values() if v is not None]
        runs.append(dict(stages.ms, stages_ms=total - sum(timed), solve_ms=total))
    row = {key: None if runs[0][key] is None else statistics.median(r[key] for r in runs)
           for key in runs[0]}
    row.update(stages.counts, attainable_axis=attainable,
               table_cells=sum(t.cells for t in stages.tables), found=int(cert is not None))
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
                    row[key] = None if None in values else round(statistics.median(values), 3)
                row["found"] = sum(r["found"] for r in runs)
                rows.append(row)
    return rows


if __name__ == "__main__":
    benchlib.main(__file__, __doc__, measure, "BENCH_sssp.json",
                  bits=BITS, seeds_per_case=SEEDS, timing_repeats=REPEATS)
