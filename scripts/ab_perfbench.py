#!/usr/bin/env python3
"""Alternating perfbench pairs: this tree against git revision REV.

    python scripts/ab_perfbench.py HEAD^ --seeds 1-10 --cpu 1

unpacks the src/ and perfbench/ of REV with `git archive` into a temporary
directory (benchlib.unpack) and runs each tree's benchmark with the
`run_once` of the tree's own perfbench/steady.py: `perfbench/run.py
--trace 0` in a fresh process, on the tree's own checkout, stopping the
script if it exits non-zero.  Each seed is one pair per workload: both
trees run the workload on that seed, one after the other.  The tree that
goes first alternates from seed to seed, and from workload to workload,
which take turns within each seed, so load that drifts during the run
reaches both.

Every run lasts run_seconds of BENCHMARK.json.  `--cpu K` pins this
process to CPU K with `os.sched_setaffinity`, so every run it starts
inherits the CPU; no other setting changes.  `--smoke` makes one pair of
1 s runs by default: it checks that the script and both trees run, and no
claim may use it.

For each workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles (`statistics.quantiles(values, n=4)`), the
pairs the change won (the metric better in this tree than in REV's run of
the same pair), the median change, and that change as a share of the
metric's bound, signed so that a share of 1 or more is a change for the
worse past the bound.  "gap > IQR" says whether the medians differ by more
than REV's quartile spread.  It exits 1 if any run is not `correct: true`
with 0 failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

import benchlib

ROOT = benchlib.ROOT
TREES = ("before", "after")


def steady_of(tree: Path, name: str):
    """The perfbench/steady.py of tree, whose run_once runs that tree's run.py."""
    spec = importlib.util.spec_from_file_location(f"steady_{name}",
                                                  tree / "perfbench" / "steady.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


steady = steady_of(ROOT, "after")


def run_ok(result: dict) -> bool:
    return result["correct"] is True and result["failed"] == 0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric from runs, each a dict
    with "workload", "pair", "tree" ("before" or "after") and "metrics"
    (run.py's {name: {"value", "unit"}})."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["tree"]] = r["metrics"]
        pairs = [p for _, p in sorted(pairs.items()) if set(p) == set(TREES)]
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            got = {t: [p[t][name]["value"] for p in pairs if name in p[t]] for t in TREES}
            if not got["before"] or len(got["before"]) != len(got["after"]):
                continue
            before, after = (statistics.median(got[t]) for t in TREES)
            change = (after - before) / before if before else 0.0
            q1, q3 = quartiles(got["before"])
            rows.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "before": before, "before_iqr": [q1, q3],
                "after": after, "after_iqr": list(quartiles(got["after"])),
                "wins": sum((a < b) if lower else (a > b)
                            for b, a in zip(got["before"], got["after"])),
                "change": change,
                "bound_share": (change if lower else -change) / m["bound"],
                "gap_over_iqr": abs(after - before) > q3 - q1,
            })
    return rows


def format_rows(rows: list[dict], rev: str) -> str:
    head = (f"{'workload':15} {'metric':12} {rev + ' median [Q1-Q3]':>29} "
            f"{'this tree median [Q1-Q3]':>29} {'wins':>6} {'change':>8} {'of bound':>8}"
            "  gap > IQR")
    lines = [head]
    for r in rows:
        side = (lambda k: f"{r[k]:.4g} [{r[k + '_iqr'][0]:.4g}-{r[k + '_iqr'][1]:.4g}]")
        lines.append(f"{r['workload']:15} {r['metric']:12} {side('before'):>29} "
                     f"{side('after'):>29} {r['wins']:>3}/{r['pairs']:<2} "
                     f"{r['change']:>+8.1%} {r['bound_share']:>+8.2f}  "
                     f"{'yes' if r['gap_over_iqr'] else 'no'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision measured against this tree")
    parser.add_argument("--seeds", type=steady.seed_range, default=None,
                        help="one pair per seed per workload, as LO-HI (default 1-10, "
                             "1 with --smoke)")
    parser.add_argument("--cpu", type=int, default=None, help="pin every run to this CPU")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s runs, to check the script; no claims")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = args.seeds or steady.seed_range("1" if args.smoke else "1-10")
    seconds = 1 if args.smoke else spec["run_seconds"]
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        before = benchlib.unpack(args.rev, Path(tmp), "src", "perfbench")
        run_once = {"before": steady_of(before, "before").run_once, "after": steady.run_once}
        for pair, seed in enumerate(seeds):
            for j, workload in enumerate(workloads):
                for tree in TREES[:: 1 if (pair + j) % 2 == 0 else -1]:
                    result = run_once[tree](workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "tree": tree, **result})
                    print(f"{workload} seed {seed} {tree}: "
                          f"p50 {result['metrics']['op_ms.p50']['value']} ms, "
                          f"correct {result['correct']}, failed {result['failed']}",
                          file=sys.stderr, flush=True)

    rows = summarize(runs, spec)
    print(f"{len(seeds)} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, {seconds} s runs"
          + (f", pinned to CPU {args.cpu}" if args.cpu is not None else ""))
    print(format_rows(rows, args.rev))
    bad = [r for r in runs if not run_ok(r)]
    for r in bad:
        print(f"bad run: {r['tree']} {r['workload']} seed {r['seed']}: "
              f"correct {r['correct']}, failed {r['failed']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
