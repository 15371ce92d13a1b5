"""slabsum benchmark: drives `slabsum.cli.main` in-process as a closed loop.

One client, one thread: each operation is one CLI invocation on a generated
instance file, with stdout captured in memory, and the next starts when it
returns.  Run from the repository root:

    python3 perfbench/run.py --workload decide-planted --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  A run measures whole passes over the
seed's operations, as many as fit in `--seconds` and at least one, so every
run sees the same mix; one pass takes about 15-20 s on a 2-core Xeon.  `--smoke` runs the same code on tiny inputs for the benchmark's own
tests; no performance claim may use it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SETUP_REPEATS = 3
# in a traced run, the untraced share of --seconds that gives the overhead base
UNTRACED_SHARE = 1 / 3
# a traced run repeats every REPEAT_STRIDE-th operation to check its counts
REPEAT_STRIDE = 8
MAX_COUNTS = frozenset({"dp.max_row_bits"})


class ProgramMissing(RuntimeError):
    """The checkout has no slabsum sources to benchmark."""


def load_program():
    """Import the program from this checkout's `src/`; returns (cli, oracle, seconds)."""
    src = ROOT / "src"
    package = src / "slabsum"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no slabsum sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        cli = importlib.import_module("slabsum.cli")
        oracle = importlib.import_module("slabsum.oracle")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import slabsum: {exc}") from exc
    import_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"slabsum was imported from {cli.__file__}, not {package}")
    return cli, oracle, import_s


def run_op(cli, argv: list[str]) -> tuple[int, int | None, str, str]:
    """One CLI invocation: (nanoseconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter_ns() - start, code, out.getvalue(), err.getvalue()


class Run:
    """The state of one benchmark run: inputs, samples and gate results."""

    def __init__(self, args, cli, oracle, work: Path):
        self.args = args
        self.cli = cli
        self.oracle = oracle
        self.work = work
        self.ops: list[workloads.Op] = []
        self.paths: dict[str, str] = {}
        self.confirmed: dict[str, bool] = {}
        self.texts: dict[str, str] = {}     # digest -> stdout
        self.digests: dict[int, str] = {}   # operation index -> first digest
        self.checked: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    # -- set-up --------------------------------------------------------------

    def set_up(self, expected: dict) -> None:
        """Generate and write the inputs, confirm them, and warm up untimed."""
        args = self.args
        self.ops = workloads.build_pass(args.workload, args.seed, args.smoke, expected)
        self.paths = workloads.write_inputs(self.ops, self.work)
        self.confirmed = {}
        for op in self.ops:
            if op.inst.key not in self.confirmed:
                self.confirmed[op.inst.key] = gate.precheck(op.inst, self.oracle.min_vertex_L0)
        warm = {}  # command -> its cheapest operation
        for op in self.ops:
            command = op.label.split()[0]
            rank = (op.inst.expect == "exhausted", op.inst.n)
            if command not in warm or rank < warm[command][0]:
                warm[command] = (rank, op)
        for _, op in warm.values():
            run_op(self.cli, op.argv(self.paths[op.inst.key]))

    # -- measurement ---------------------------------------------------------

    def run_ops(self, indices, deadline: float, tracer: Tracer | None = None) -> dict:
        """Run the pass's operations at `indices`, in order, until the deadline."""
        samples: list[int] = []
        op_counts: list[tuple[int, dict]] = []
        start = time.perf_counter()
        for index in indices:
            op = self.ops[index]
            if tracer is not None:
                tracer.op = self.attempted
            ns, code, text, err = run_op(self.cli, op.argv(self.paths[op.inst.key]))
            samples.append(ns)
            self._record(index, op, code, text, err)
            if tracer is not None:
                op_counts.append((index, tracer.take_counts()))
            if time.perf_counter() > deadline:
                self.notes.append("deadline reached inside a pass")
                break
        return {"samples": samples, "elapsed": time.perf_counter() - start,
                "op_counts": op_counts}

    def measure(self, seconds: float, deadline: float, tracer: Tracer | None = None) -> dict:
        """Whole passes: at least one, then another only while it is expected
        to end within `seconds`."""
        total = {"samples": [], "elapsed": 0.0, "op_counts": [], "passes": 0}
        while True:
            part = self.run_ops(range(len(self.ops)), deadline, tracer)
            total["samples"] += part["samples"]
            total["op_counts"] += part["op_counts"]
            total["elapsed"] += part["elapsed"]
            if len(part["samples"]) < len(self.ops):
                return total
            total["passes"] += 1
            passes = total["passes"]
            if total["elapsed"] * (passes + 1) / passes > seconds:
                return total

    def _record(self, index: int, op, code, text: str, err: str) -> None:
        """Gate one operation; a verdict that changes between runs of the same
        input is a determinism error."""
        self.attempted += 1
        digest = gate.digest(text)
        first = self.digests.setdefault(index, digest)
        if first != digest:
            self.errors.append(f"verdict digest of operation {index} changed between runs")
        key = (index, code, digest)
        if key not in self.checked:
            problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-300:]}"]
            problems += gate.check_verdict(op, text, self.confirmed[op.inst.key])
            self.checked[key] = problems
            if problems:
                self.errors.append(f"{op.label} on {op.inst.key}: {'; '.join(problems)}")
            self.texts.setdefault(digest, text)
        if self.checked[key]:
            self.failed += 1

    def check_counts(self, op_counts: list[tuple[int, dict]]) -> dict[str, int]:
        """Determinism self-check on per-operation counts; returns one pass's totals."""
        first: dict[int, dict] = {}
        for index, counts in op_counts:
            if first.setdefault(index, counts) != counts:
                self.errors.append(f"count metrics of operation {index} changed between runs")
        totals: dict[str, int] = {}
        for counts in first.values():
            for key, value in counts.items():
                merge = max if key in MAX_COUNTS else int.__add__
                totals[key] = merge(totals.get(key, 0), value)
        totals.update(self._verdict_counts())
        return totals

    def _verdict_counts(self) -> dict[str, int]:
        """Counts read from one pass's verdicts."""
        counts = {"dp.targets_scanned": 0, "sssp.grid_leaves": 0, "sssp.found": 0}
        for digest in self.digests.values():
            try:
                doc = json.loads(self.texts[digest])
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            if isinstance(doc.get("targets_scanned"), int):
                counts["dp.targets_scanned"] += doc["targets_scanned"]
            if doc.get("found") is True:
                counts["sssp.found"] += 1
            elif doc.get("found") is False and isinstance(doc.get("grid_size"), int):
                counts["sssp.grid_leaves"] += doc["grid_size"]
        return counts


def percentiles_ms(samples: list[int]) -> tuple[float, float]:
    ms = [ns / 1e6 for ns in samples]
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def git_commit() -> str:
    """HEAD of the checkout read from `.git`, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(args) -> dict:
    dp = importlib.import_module("slabsum.dp")
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "array_kernel_min_bits": getattr(dp, "ARRAY_KERNEL_MIN_BITS", None),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests; never for claims")
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    """Run one workload and return the result object (the last stdout line)."""
    cli, oracle, import_s = load_program()
    expected = workloads.load_expected()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        bench = Run(args, cli, oracle, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bench.set_up(expected)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        env = environment(args)
        deadline = time.perf_counter() + 3 * args.seconds + 30

        if args.trace:
            plain = bench.measure(args.seconds * UNTRACED_SHARE, deadline)
            tracer = Tracer()
            tracer.install()
            try:
                traced = bench.measure(args.seconds * (1 - UNTRACED_SHARE), deadline, tracer)
                layer = tracer.layer_ms(len(traced["samples"]))
                repeat = bench.run_ops(range(0, len(bench.ops), REPEAT_STRIDE), deadline, tracer)
            finally:
                tracer.uninstall()
            counts = bench.check_counts(traced["op_counts"] + repeat["op_counts"])
            metrics = trace_metrics(tracer, layer, counts, plain, traced)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"env": env, "counts": counts, "metrics": metrics})
            summary = {"trace_file": str(trace_path.relative_to(ROOT)),
                       "absent": sorted(tracer.absent),
                       "passes": [plain["passes"], traced["passes"]],
                       "traced_op_ms_mean": statistics.mean(traced["samples"]) / 1e6}
        else:
            timed = bench.measure(args.seconds, deadline)
            p50, p90 = percentiles_ms(timed["samples"])
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "op_ms.p50": metric(p50, "ms"),
                "op_ms.p90": metric(p90, "ms"),
                "ops_per_s": metric(len(timed["samples"]) / timed["elapsed"], "1/s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            summary = {"passes": timed["passes"], "ops_per_pass": len(bench.ops)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in bench.errors[:20]:
        print(f"perfbench: error: {error}", file=sys.stderr)
    for note in bench.notes:
        print(f"perfbench: note: {note}", file=sys.stderr)
    summary.update({"attempted": bench.attempted, "failed": bench.failed,
                    "failed_ratio": bench.failed / max(1, bench.attempted),
                    "errors": len(bench.errors)})
    print("perfbench env: " + json.dumps(env, sort_keys=True))
    print("perfbench summary: " + json.dumps(summary, sort_keys=True))
    return {"correct": not bench.errors and bench.failed == 0,
            "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}


def trace_metrics(tracer: Tracer, layer: dict, counts: dict, plain: dict,
                  traced: dict) -> dict:
    fill_ms = layer["dp.fill_ms"] * len(traced["samples"])
    cells = counts.get("dp.cells", 0) * traced["passes"]
    derived = {
        "dp.cell_rate": cells / fill_ms if fill_ms else 0.0,
        "trace.overhead_pct": 100 * (percentiles_ms(traced["samples"])[0]
                                     / percentiles_ms(plain["samples"])[0] - 1),
    }
    out = {}
    absent = tracer.absent_metrics()
    for name, unit in PER_LAYER.items():
        if name in absent:
            continue
        value = layer.get(name, derived.get(name, counts.get(name, 0)))
        out[name] = metric(value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
