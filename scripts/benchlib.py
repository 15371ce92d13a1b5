"""Command line shared by the stage benches (bench_decide.py, bench_sssp.py).

`python scripts/bench_X.py --stages` prints the script's measure() as JSON
for the slabsum on PYTHONPATH.  Without --stages the script measures the
tree in src/ as "after" and, with --before REV, the src/ of git revision
REV (unpacked with `git archive` into a temporary directory) as "before",
each in its own interpreter, and writes both, with the machine and the
bench's settings, to its BENCH_*.json at the repository root.

Both benches time and count a stage by wrapping, with spy(), the program
name it runs through, so a bench reads only trees that have every name it
spies.

The two trees are measured in ROUNDS alternating rounds, the tree that
goes first alternating too, so load that drifts during the run reaches
both.  Each timing or memory column (a key ending in _ms or _mb) is the
median over the rounds; every other column is a count and must repeat
exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


@contextlib.contextmanager
def spy(owner, *names):
    """For the block, wrap each owner.<name>, a module function, a class or
    a method, so that every call appends (ms, args, result) to the list the
    yielded dict holds under that name, in call order.  Keyword arguments
    are passed on but not recorded, nor is a call that raises.  Every name
    is restored on exit, also when the block raises.

    Wrap a method of a class before the class itself: once the class name
    is wrapped, looking it up gives the wrapper, not the class."""
    calls = {name: [] for name in names}
    inner = {name: getattr(owner, name) for name in names}

    def wrap(call, record):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = call(*args, **kwargs)
            record.append(((time.perf_counter() - t0) * 1e3, args, result))
            return result
        return timed

    try:
        for name in names:
            setattr(owner, name, wrap(inner[name], calls[name]))
        yield calls
    finally:
        for name in names:
            setattr(owner, name, inner[name])


def measure_tree(script: str, src: Path) -> list[dict]:
    """The script's measurements of the slabsum in src, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, script, "--stages"], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def merge_rounds(rounds: list[list[dict]]) -> list[dict]:
    """One list of rows from a tree's rounds: the median of each _ms and _mb
    column (null when any round has none) and the value of every other
    column, which must be the same in every round."""
    merged = []
    for rows in zip(*rounds):
        row = {}
        for key, value in rows[0].items():
            values = [r[key] for r in rows]
            if key.endswith(("_ms", "_mb")):
                value = None if None in values else round(statistics.median(values), 3)
            elif values.count(value) != len(values):
                raise RuntimeError(f"count column {key} differs between rounds: {values}")
            row[key] = value
        merged.append(row)
    return merged


def main(script: str, doc: str, measure, out_name: str, **settings) -> None:
    """Run a stage bench: script is its file, doc its docstring, measure()
    its per-interpreter measurements and settings what the JSON records
    about them."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--before", metavar="REV", help="git revision measured as before")
    parser.add_argument("--stages", action="store_true",
                        help="print this interpreter's measurements as JSON and exit")
    args = parser.parse_args()
    if args.stages:
        json.dump(measure(), sys.stdout)
        return
    result = {"command": f"PYTHONPATH=src python scripts/{Path(script).name}"
                         + (f" --before {args.before}" if args.before else ""),
              "machine": {"python": platform.python_version(), "cpu": cpu_model(),
                          "nproc": os.cpu_count()},
              **settings, "rounds": ROUNDS}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"after": ROOT / "src"}
        if args.before:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.before, "src"],
                                     check=True, capture_output=True).stdout
            with tarfile.open(fileobj=BytesIO(archive)) as tar:
                tar.extractall(tmp, filter="data")
            trees = {"before": Path(tmp) / "src", **trees}
        rounds = {name: [] for name in trees}
        for i in range(ROUNDS):
            for name in list(trees)[:: 1 if i % 2 == 0 else -1]:
                rounds[name].append(measure_tree(script, trees[name]))
    if args.before:
        result["before"] = {"rev": args.before, "stages": merge_rounds(rounds["before"])}
    result["after"] = {"stages": merge_rounds(rounds["after"])}
    (ROOT / out_name).write_text(json.dumps(result, indent=2) + "\n")
