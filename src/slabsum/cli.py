"""Command-line surface: generators, solvers, the oracle, and the bench harness.

Exit codes: 0 a verdict was produced (either alternative of the decision is a
success), 1 usage or input error, 2 resource/budget refusal, 3 a produced
verdict carries the bound-violation anomaly flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import bench as bench_mod
from . import oracle as oracle_mod
from . import slab as slab_mod
from . import sssp as sssp_mod
from .dp import BudgetError, dp_decide
from .instance import (ParseError, PartitionInstance, SspInstance, SsspInstance,
                       fraction_json, gen_planted, gen_random, gen_sssp_random,
                       read_instance, write_instance)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_ANOMALY = 3


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; one input source, and --c / --big-n are exclusive
    (argparse enforces both)."""

    command: str
    in_path: str | None = None
    out_path: str | None = None
    c: int | None = None
    big_n: int | None = None
    epsilon: Fraction | None = None
    delta: Fraction | None = None
    rho: Fraction | None = None
    seed: int = 0
    oracle_cap: int = 26
    leaf_budget: int = 10_000_000


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        in_path=getattr(args, "in_path", None),
        out_path=getattr(args, "out", None),
        c=getattr(args, "c", None),
        big_n=getattr(args, "big_n", None),
        epsilon=getattr(args, "epsilon", None),
        delta=getattr(args, "delta", None),
        rho=getattr(args, "rho", None),
        seed=getattr(args, "seed", 0),
        oracle_cap=getattr(args, "cap", 26),
        leaf_budget=getattr(args, "leaf_budget", 10_000_000),
    )


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_THREADS_HELP = ("accepted for compatibility; a decision runs one table on one "
                 "thread, so the value changes neither the result nor the run")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="slabsum")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write an instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--bits", type=int, required=True, help="weight bit width m")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--planted", action="store_true",
                     help="plant a balanced solution (requires even n)")
    gen.add_argument("--kind", choices=["partition", "sssp"], default="partition")
    gen.add_argument("--p", type=int, default=2, help="constraint rows (sssp only)")
    gen.add_argument("--rho", type=_fraction, default=None)
    gen.add_argument("--delta", type=_fraction, default=Fraction(1))
    gen.add_argument("--out", required=True)

    exact = sub.add_parser("solve-exact", help="pseudo-polynomial decision on raw weights")
    exact.add_argument("--in", dest="in_path", required=True)
    exact.add_argument("--out")

    fptas = sub.add_parser("solve-fptas", help="tolerance-driven slab decision")
    fptas.add_argument("--in", dest="in_path", required=True)
    fptas.add_argument("--epsilon", type=_fraction, required=True)
    fptas.add_argument("--threads", type=_thread_count, default=1, help=_THREADS_HELP)
    fptas.add_argument("--out")

    dec = sub.add_parser("decide-slab", help="two-alternative decision at a fixed scale")
    dec.add_argument("--in", dest="in_path", required=True)
    scale = dec.add_mutually_exclusive_group(required=True)
    scale.add_argument("--c", type=int)
    scale.add_argument("--big-n", type=int)
    dec.add_argument("--threads", type=_thread_count, default=1, help=_THREADS_HELP)
    dec.add_argument("--out")

    ss = sub.add_parser("solve-sssp", help="simultaneous-constraint grid search")
    ss.add_argument("--in", dest="in_path", required=True)
    ss.add_argument("--eps-b", type=float, default=None)
    ss.add_argument("--leaf-budget", type=int, default=10_000_000)
    ss.add_argument("--c", type=int, default=2)
    ss.add_argument("--out")

    orc = sub.add_parser("oracle", help="brute-force enumeration report")
    orc.add_argument("--in", dest="in_path", required=True)
    orc.add_argument("--cap", type=int, default=26)
    orc.add_argument("--out")

    bn = sub.add_parser("bench", help="runtime scaling sweep, CSV output")
    bn.add_argument("--n", type=_int_list, required=True, help="comma list, e.g. 64,128,256")
    bn.add_argument("--c", type=int, default=2)
    bn.add_argument("--repeats", type=int, default=3)
    bn.add_argument("--bits", type=int, default=16)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", required=True)

    return parser


def _cmd_gen(args, cfg: RunConfig) -> int:
    if args.kind == "sssp":
        inst = gen_sssp_random(args.n, args.bits, args.p, cfg.seed,
                               rho=cfg.rho, delta=cfg.delta,
                               duplicate=args.planted)
    elif args.planted:
        inst = gen_planted(args.n, args.bits, cfg.seed)
    else:
        inst = gen_random(args.n, args.bits, cfg.seed)
    write_instance(cfg.out_path, inst)
    return EXIT_OK


def _cmd_solve_exact(args, cfg: RunConfig) -> int:
    inst = read_instance(cfg.in_path)
    if isinstance(inst, SspInstance):
        target = inst.target
        weights = inst.weights
    elif isinstance(inst, PartitionInstance):
        if inst.total % 2 != 0:
            _emit({"solved": False, "x": None, "target": None,
                   "note": "odd weight total, no exact balanced subset"}, cfg.out_path)
            return EXIT_OK
        target = inst.total // 2
        weights = inst.weights
    else:
        raise ParseError("solve-exact needs an ssp or partition instance")
    x = dp_decide(weights, target)
    _emit({"solved": x is not None, "x": list(x) if x else None,
           "target": str(target)}, cfg.out_path)
    return EXIT_OK


def _require_partition(inst) -> PartitionInstance:
    if isinstance(inst, PartitionInstance):
        return inst
    raise ParseError("this command needs a partition instance")


def _cmd_solve_fptas(args, cfg: RunConfig) -> int:
    inst = _require_partition(read_instance(cfg.in_path))
    verdict = slab_mod.decide_epsilon(inst, cfg.epsilon)
    _emit(slab_mod.verdict_to_json(verdict), cfg.out_path)
    return EXIT_ANOMALY if verdict.anomaly else EXIT_OK


def _cmd_decide_slab(args, cfg: RunConfig) -> int:
    inst = _require_partition(read_instance(cfg.in_path))
    verdict = slab_mod.decide(inst, c=cfg.c, big_n=cfg.big_n)
    _emit(slab_mod.verdict_to_json(verdict), cfg.out_path)
    return EXIT_ANOMALY if verdict.anomaly else EXIT_OK


def _cmd_solve_sssp(args, cfg: RunConfig) -> int:
    inst = read_instance(cfg.in_path)
    if not isinstance(inst, SsspInstance):
        raise ParseError("solve-sssp needs an sssp instance")
    cert = sssp_mod.solve(inst, eps_b=args.eps_b, leaf_budget=cfg.leaf_budget,
                          c=cfg.c if cfg.c is not None else 2)
    doc = sssp_mod.result_to_json(
        cert,
        curvature=sssp_mod.curvature_term(inst),
        grid_size=cert.grid_size if cert else sssp_mod.grid_cardinality(inst, eps_b=args.eps_b),
    )
    _emit(doc, cfg.out_path)
    return EXIT_OK


def _cmd_oracle(args, cfg: RunConfig) -> int:
    inst = read_instance(cfg.in_path)
    if not isinstance(inst, PartitionInstance):
        raise ParseError("oracle needs a partition instance")
    report = oracle_mod.enumerate_partition(inst, max_n=cfg.oracle_cap)
    _emit({
        "count": report.count,
        "min_distance_sq": fraction_json(report.min_distance_sq),
        "solutions": [list(x) for x in report.solutions],
    }, cfg.out_path)
    return EXIT_OK


def _cmd_bench(args, cfg: RunConfig) -> int:
    rows = bench_mod.run_bench(args.n, c=cfg.c if cfg.c is not None else 2,
                               repeats=args.repeats, bits=args.bits,
                               seed=cfg.seed)
    bench_mod.write_csv(rows, cfg.out_path)
    slope = bench_mod.fit_loglog_slope(rows) if len(set(args.n)) > 1 else None
    sys.stdout.write(json.dumps({"slope": slope, "rows": len(rows)},
                                sort_keys=True) + "\n")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve-exact": _cmd_solve_exact,
    "solve-fptas": _cmd_solve_fptas,
    "decide-slab": _cmd_decide_slab,
    "solve-sssp": _cmd_solve_sssp,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args, config_from_args(args))
    except BudgetError as exc:
        print(f"slabsum: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ValueError, OSError) as exc:
        print(f"slabsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
