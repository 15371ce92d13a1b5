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
records the position of its hit (targets_scanned).  It times the steps the
CLI runs around that decision too: `read_instance` of the instance file
(read_ms), `quantize` (quantize_ms), and `dumps_json` of the verdict as
`decide-slab` writes it (emit_ms).  It records on how many seeds the
complement probe, `center_probe`, answered the decision (probe_answered),
the widest row it filled, in bits (probe_width), its time (probe_ms) and
the row fills it ran over all seeds (probe_fills).  Then it builds the
table solve_family falls back to,
times the fill and the walk of the hit's witness apart, and records the
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
reads only names every tree since 73a47db has: `center_probe`,
`_probe_fill`, `dp_run`, the table's stored rows in `checkpoints`, and
`attained()`.
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

import benchlib

SIZES = (128, 256, 512)
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


def recorded(dp, name, call) -> tuple:
    """call()'s result, and the results of the calls of dp.name it made."""
    results = []
    inner = getattr(dp, name)
    setattr(dp, name, lambda *args: results.append(inner(*args)) or results[-1])
    try:
        return call(), results
    finally:
        setattr(dp, name, inner)


def count_fills(dp, call) -> int:
    """The row fills, `_probe_fill` calls, the probe runs in call()."""
    return len(recorded(dp, "_probe_fill", call)[1])


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
    from slabsum.dp import ReachTable, family_window, solve_family
    from slabsum.instance import (PartitionInstance, dumps_json, gen_planted, read_instance,
                                  write_instance)
    from slabsum.quantize import quantize

    inst = (gen_planted(n, 16, seed) if kind == "planted"
            else PartitionInstance(dominated_weights(n, seed)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        write_instance(path, inst)
        read_ms, _ = median_ms(lambda: read_instance(path))
    quantize_ms, q = median_ms(lambda: quantize(inst, big_n=big_n))
    verdict = slab.decide(inst, big_n=big_n)
    emit_ms, _ = median_ms(lambda: dumps_json(slab.verdict_to_json(verdict)))
    fam = family_window(q.total_u, q.n)
    order = sorted(fam.window, key=lambda tau: (abs(2 * tau - q.total_u), tau))
    decide_ms, scan = median_ms(lambda: solve_family(q))
    probe_ms, answer = median_ms(lambda: dp.center_probe(q.u, order[0], fam.window[-1]))
    fills = count_fills(dp, lambda: dp.center_probe(q.u, order[0], fam.window[-1]))

    fill_ms, walk_ms = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        table = ReachTable(q.u, fam.window[-1], early_stop_bit=order[0],
                           window_lo=fam.window[0])
        t1 = time.perf_counter()
        attained = set(table.attained())
        tau = next((t for t in order if t in attained), None)
        t2 = time.perf_counter()
        x = None if tau is None else table.witness(tau)
        t3 = time.perf_counter()
        fill_ms.append((t1 - t0) * 1e3)
        walk_ms.append((t3 - t2) * 1e3)
    if tau is None:
        assert scan.hit is None
    else:
        assert sum(w for w, b in zip(q.u, x) if b) == tau
        assert scan.hit == (fam.t_of(tau), x)
    return {"read_ms": read_ms, "quantize_ms": quantize_ms, "decide_ms": decide_ms,
            "emit_ms": emit_ms, "targets_scanned": scan.targets_scanned,
            "probe_answered": int(answer is not None),
            "probe_width": answer[0] if answer else 0,
            "probe_ms": probe_ms, "probe_fills": fills,
            "fill_ms": statistics.median(fill_ms),
            "walk_ms": None if tau is None else statistics.median(walk_ms),
            "checkpoints": len(table.checkpoints), "held_mb": held_mb(table),
            "walk_bits": None if tau is None else walk_bits(table, tau, x)}


def exact_input(kind: str, n: int, seed: int) -> tuple[tuple[int, ...], int]:
    """(weights, tau) of an exact row: raw 16-bit planted or random weights
    at sum // 2, or random ones rounded up to even at the odd sum // 2 | 1."""
    from slabsum.instance import gen_planted, gen_random

    if kind == "planted":
        u = gen_planted(n, 16, seed).weights
    else:
        u = gen_random(n, 16, seed).weights
    if kind == "unattained":
        u = tuple(w + w % 2 for w in u)
        return u, sum(u) // 2 | 1
    return u, sum(u) // 2


def exact_case(kind: str, n: int, seed: int) -> dict:
    """dp_run on an exact row's input: its time, whether tau is attained,
    and whether the complement probe answered inside it."""
    from slabsum import dp

    u, tau = exact_input(kind, n, seed)
    (exact_ms, run), probes = recorded(dp, "center_probe",
                                       lambda: median_ms(lambda: dp.dp_run(u, tau)))
    return {"exact_ms": exact_ms, "hits": int(run.x is not None),
            "probe_answered": int(any(probe is not None for probe in probes))}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, from /proc."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024


def probe_only_case(n: int, big_n: int, seed: int) -> dict:
    """center_probe alone on a planted instance, in this interpreter; run
    it in a fresh one (probe_only) for a peak RSS that is the probe's."""
    from slabsum import dp
    from slabsum.dp import family_window
    from slabsum.instance import gen_planted
    from slabsum.quantize import quantize

    q = quantize(gen_planted(n, 16, seed), big_n=big_n)
    top = family_window(q.total_u, q.n).window[-1]

    def call():
        return dp.center_probe(q.u, q.total_u // 2, top)

    base = peak_rss_mb()
    probe_ms, answer = median_ms(call)
    rss = peak_rss_mb()
    return {"probe_answered": int(answer is not None), "probe_width": answer[0] if answer else 0,
            "probe_ms": probe_ms, "probe_fills": count_fills(dp, call),
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
