"""Steadiness check: run the benchmark once per seed, in a fresh process each,
and report every end-to-end metric's median and quartile spread.

    python3 perfbench/steady.py --seeds 1-10 --workloads decide-planted,sssp-grid \\
        --seconds 20 --out .perfbench/steady.json

The spread is (Q3 - Q1) / median with the quartiles from
`statistics.quantiles(values, n=4)`; a metric is steady when its spread
stays below a third of its bound in BENCHMARK.json (`setup_s` is exempt
from the spread rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line.split(": ", 1)[1]) for line in lines
                         if line.startswith("perfbench env: "))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    for workload in names:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        incorrect = [seed for seed, res in zip(args.seeds, runs)
                     if not res["correct"] or res["failed"]]
        rows = {}
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for res in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": values}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- not steady"
            print(f"{workload:15s} {name:12s} median {med:12.4f}  spread {spread:7.2%}"
                  f"  bound {bound:.0%}{flag}")
        env = {key: runs[0]["env"][key] for key in
               ("git_commit", "python", "numpy", "numba_importable", "nproc", "cpu_model")}
        report[workload] = {"seeds": args.seeds, "seconds": seconds, "env": env,
                            "incorrect_seeds": incorrect, "metrics": rows}
        if incorrect:
            print(f"{workload}: incorrect or failed runs for seeds {incorrect}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
