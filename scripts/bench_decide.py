#!/usr/bin/env python3
"""One slab decision, whole and split: solve_family against its table's fill and walk.

Two kinds of input.  Planted 16-bit instances at n in {128, 256, 512}, at
the scales the decide-planted workload uses (N = n^2, `decide-slab --c 2`,
and N = 4n^2, `solve-fptas --epsilon 1/(4n)`), where the center target
hits.  Dominated instances shaped like the decide-empty workload, at n in
{63, 80, 97} and `decide-slab --c 3`: n - 1 weights in [500, 1500) and one
near 10^6 at a random index, so every target misses and the decision is
one full fill.  One planted row at n = 64 and N = n^2 has 1,000-bit
weights, so quantize_ms is on record far past the 16-bit weights of the
other rows.

For each it times the whole decision, `solve_family` (decide_ms), and
records the position of its hit (targets_scanned).  It times the steps the
CLI runs around that decision too: `read_instance` of the instance file
(read_ms), `quantize` (quantize_ms), and `dumps_json` of the verdict as
`decide-slab` writes it (emit_ms).  It records on how many seeds the
complement probe, `center_probe`, answered the decision (probe_answered),
the widest row it filled, in bits (probe_width), its time (probe_ms) and
the row fills it ran over all seeds (probe_fills).  Then it runs
`nearest_attained` with the probe patched out, so that it builds the table
solve_family falls back to, and spies (benchlib.spy) that table's fill and
the walk of the hit's witness: it times the two apart and records the
checkpoints stored, the megabytes of row storage the table holds after the
walk, and the bits the walk rebuilds (rows re-derived times the width of
each); the walk columns are null when nothing hits.  Each time is the
median of REPEATS runs, and each figure the median over seeds 0..4, but
probe_answered, probe_fills and hits, sums, and probe_width, a maximum.

Exact rows time `dp_run`, the decision `solve-exact` makes, on raw 16-bit
weights at n in {128, 256, 512} (exact_ms): planted and random instances
at tau = sum // 2, and an unattained target, the odd tau = sum // 2 | 1 of
random weights rounded up to even.  They record on how many seeds a
subset attains tau (hits) and on how many the complement probe answered
inside dp_run (probe_answered).

Probe-only rows, at planted n in {128, 256} and N = n^3, run center_probe
alone, where the CLI's budget refuses the table: each seed in a fresh
interpreter, which records its peak RSS (VmHWM, which unlike ru_maxrss
starts afresh at exec) before the probe (rss_base_mb) and after it
(rss_mb, the maximum over seeds).

    PYTHONPATH=src python scripts/bench_decide.py --before HEAD^

measures the tree in src/ as "after" and the src/ of git revision HEAD^
as "before" and writes both to BENCH_decide.json (see benchlib.py).  It
calls and spies `nearest_attained`, `center_probe`, `_probe_fill`,
`dp_run`, `ReachTable` and its `witness`, and reads the table's stored
rows in `checkpoints`, so it reads any tree since 74b36c5, the first with
`nearest_attained`.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import benchlib

SIZES = (128, 256, 512)
WIDE_N, WIDE_BITS = 64, 1000
PROBE_ONLY_SIZES = (128, 256)
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
    """Megabytes of the table's stored rows, Python ints."""
    return sum(map(sys.getsizeof, table.checkpoints.values())) / 2**20


def probe_fills(u, tau: int, top: int) -> int:
    """The row fills, `_probe_fill` calls, of one center_probe(u, tau, top)."""
    from slabsum import dp

    with benchlib.spy(dp, "_probe_fill") as calls:
        dp.center_probe(u, tau, top)
    return len(calls["_probe_fill"])


def median_ms(call):
    """The median time of REPEATS calls, in ms, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = call()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), result


def measure_case(kind: str, n: int, big_n: int, seed: int) -> dict:
    from slabsum import dp, slab
    from slabsum.instance import (PartitionInstance, dumps_json, gen_planted, read_instance,
                                  write_instance)
    from slabsum.quantize import quantize

    inst = (PartitionInstance(dominated_weights(n, seed)) if kind == "dominated"
            else gen_planted(n, WIDE_BITS if kind == f"planted {WIDE_BITS}-bit" else 16, seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        write_instance(path, inst)
        read_ms, _ = median_ms(lambda: read_instance(path))
    quantize_ms, q = median_ms(lambda: quantize(inst, big_n=big_n))
    verdict = slab.decide(inst, big_n=big_n)
    emit_ms, _ = median_ms(lambda: dumps_json(slab.verdict_to_json(verdict)))
    fam = dp.family_window(q.total_u, q.n)
    lo, hi, center = fam.window[0], fam.window[-1], q.total_u // 2
    decide_ms, scan = median_ms(lambda: dp.solve_family(q))
    probe_ms, answer = median_ms(lambda: dp.center_probe(q.u, center, hi))

    # the witness is spied first, while dp.ReachTable is still the class
    with (mock.patch.object(dp, "center_probe", return_value=None),
          benchlib.spy(dp.ReachTable, "witness") as walks,
          benchlib.spy(dp, "ReachTable") as fills):
        for _ in range(REPEATS):
            tau, x, table = dp.nearest_attained(q.u, lo, hi, q.total_u)
    if tau is None:
        assert scan.hit is None
    else:
        assert sum(w for w, b in zip(q.u, x) if b) == tau
        assert scan.hit == (fam.t_of(tau), x)
    return {"read_ms": read_ms, "quantize_ms": quantize_ms, "decide_ms": decide_ms,
            "emit_ms": emit_ms, "targets_scanned": scan.targets_scanned,
            "probe_answered": int(answer is not None),
            "probe_width": answer[0] if answer else 0,
            "probe_ms": probe_ms, "probe_fills": probe_fills(q.u, center, hi),
            "fill_ms": statistics.median(ms for ms, *_ in fills["ReachTable"]),
            "walk_ms": None if tau is None else statistics.median(
                ms for ms, *_ in walks["witness"]),
            "checkpoints": len(table.checkpoints), "held_mb": held_mb(table),
            "walk_bits": None if tau is None else walk_bits(table, tau, x)}


def exact_input(kind: str, n: int, seed: int) -> tuple[tuple[int, ...], int]:
    """(weights, tau) of an exact row: raw 16-bit planted or random weights
    at sum // 2, or random ones rounded up to even at the odd sum // 2 | 1."""
    from slabsum.instance import gen_planted, gen_random

    u = (gen_planted if kind == "planted" else gen_random)(n, 16, seed).weights
    if kind == "unattained":
        u = tuple(w + w % 2 for w in u)
        return u, sum(u) // 2 | 1
    return u, sum(u) // 2


def exact_case(kind: str, n: int, seed: int) -> dict:
    """dp_run on an exact row's input: its time, whether tau is attained,
    and whether the complement probe answered inside it."""
    from slabsum import dp

    u, tau = exact_input(kind, n, seed)
    with benchlib.spy(dp, "center_probe") as probes:
        exact_ms, run = median_ms(lambda: dp.dp_run(u, tau))
    return {"exact_ms": exact_ms, "hits": int(run.x is not None),
            "probe_answered": int(any(p is not None for *_, p in probes["center_probe"]))}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, from /proc."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024


def probe_only_case(n: int, big_n: int, seed: int) -> dict:
    """center_probe alone on a planted instance, in this interpreter; run
    it in a fresh one (probe_only) for a peak RSS that is the probe's."""
    from slabsum import dp
    from slabsum.instance import gen_planted
    from slabsum.quantize import quantize

    q = quantize(gen_planted(n, 16, seed), big_n=big_n)
    top = dp.family_window(q.total_u, q.n).window[-1]
    base = peak_rss_mb()
    probe_ms, answer = median_ms(lambda: dp.center_probe(q.u, q.total_u // 2, top))
    rss = peak_rss_mb()
    return {"probe_answered": int(answer is not None), "probe_width": answer[0] if answer else 0,
            "probe_ms": probe_ms, "probe_fills": probe_fills(q.u, q.total_u // 2, top),
            "rss_base_mb": base, "rss_mb": rss}


def probe_only(n: int, big_n: int, seed: int) -> dict:
    """probe_only_case in a fresh interpreter on the same PYTHONPATH."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import bench_decide; "
            f"print(json.dumps(bench_decide.probe_only_case({n}, {big_n}, {seed})))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


MERGE = {"probe_answered": sum, "probe_fills": sum, "hits": sum, "probe_width": max,
         "rss_mb": max}


def measure() -> list[dict]:
    cases = [("planted", n, scale, big_n) for n in SIZES
             for scale, big_n in (("c=2", n * n), ("N=4n^2", 4 * n * n))]
    cases.append((f"planted {WIDE_BITS}-bit", WIDE_N, "c=2", WIDE_N ** 2))
    cases += [("dominated", n, "c=3", n ** 3) for n in DOMINATED_SIZES]
    cases += [("planted probe only", n, "N=n^3", n ** 3) for n in PROBE_ONLY_SIZES]
    cases += [(f"{kind} exact", n, "raw", None) for kind in ("planted", "random", "unattained")
              for n in SIZES]
    rows = []
    for kind, n, scale, big_n in cases:
        if kind.endswith("probe only"):
            runs = [probe_only(n, big_n, seed) for seed in SEEDS]
        elif kind.endswith("exact"):
            runs = [exact_case(kind.split()[0], n, seed) for seed in SEEDS]
        else:
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
