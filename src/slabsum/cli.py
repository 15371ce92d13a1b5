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
from fractions import Fraction
from pathlib import Path

from . import bench as bench_mod
from . import oracle as oracle_mod
from . import slab as slab_mod
from . import sssp as sssp_mod
from .dp import BudgetError, dp_decide
from .instance import (ParseError, PartitionInstance, SspInstance, SsspInstance,
                       dumps_json, fraction_json, gen_planted, gen_random,
                       gen_sssp_random, read_instance, write_instance)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_ANOMALY = 3


def _emit(doc: dict, out_path: str | None) -> None:
    text = dumps_json(doc)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_int(text: str) -> int:
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
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"no integer in {text!r}")
    return values


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
    gen.add_argument("--p", type=_positive_int, default=2, help="constraint rows (sssp only)")
    gen.add_argument("--rho", type=_fraction, default=None)
    gen.add_argument("--delta", type=_fraction, default=Fraction(1))
    gen.add_argument("--out", required=True)

    exact = sub.add_parser("solve-exact", help="pseudo-polynomial decision on raw weights")
    exact.add_argument("--in", dest="in_path", required=True)
    exact.add_argument("--out")

    fptas = sub.add_parser("solve-fptas", help="tolerance-driven slab decision")
    fptas.add_argument("--in", dest="in_path", required=True)
    fptas.add_argument("--epsilon", type=_fraction, required=True)
    fptas.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
    fptas.add_argument("--out")

    dec = sub.add_parser("decide-slab", help="two-alternative decision at a fixed scale")
    dec.add_argument("--in", dest="in_path", required=True)
    scale = dec.add_mutually_exclusive_group(required=True)
    scale.add_argument("--c", type=int)
    scale.add_argument("--big-n", type=int)
    dec.add_argument("--threads", type=_positive_int, default=1, help=_THREADS_HELP)
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
    bn.add_argument("--repeats", type=_positive_int, default=3)
    bn.add_argument("--bits", type=int, default=16)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", required=True)

    return parser


def _cmd_gen(args) -> int:
    # a file holds each weight in decimal, and int() converts at most
    # get_int_max_str_digits() digits (0: no limit)
    digits = sys.get_int_max_str_digits()
    max_bits = (10 ** digits).bit_length() - 1
    if digits and args.bits > max_bits:
        raise ValueError(f"--bits {args.bits} is above {max_bits}, the widest weight "
                         f"within the {digits}-digit limit")
    if args.kind == "sssp":
        inst = gen_sssp_random(args.n, args.bits, args.p, args.seed,
                               rho=args.rho, delta=args.delta,
                               duplicate=args.planted)
    elif args.planted:
        inst = gen_planted(args.n, args.bits, args.seed)
    else:
        inst = gen_random(args.n, args.bits, args.seed)
    write_instance(args.out, inst)
    return EXIT_OK


def _cmd_solve_exact(args) -> int:
    inst = read_instance(args.in_path)
    if isinstance(inst, SspInstance):
        target = inst.target
        weights = inst.weights
    elif isinstance(inst, PartitionInstance):
        if inst.total % 2 != 0:
            _emit({"solved": False, "x": None, "target": None,
                   "note": "odd weight total, no exact balanced subset"}, args.out)
            return EXIT_OK
        target = inst.total // 2
        weights = inst.weights
    else:
        raise ParseError("solve-exact needs an ssp or partition instance")
    x = dp_decide(weights, target)
    _emit({"solved": x is not None, "x": list(x) if x else None,
           "target": str(target)}, args.out)
    return EXIT_OK


def _require_partition(inst) -> PartitionInstance:
    if isinstance(inst, PartitionInstance):
        return inst
    raise ParseError("this command needs a partition instance")


def _cmd_solve_fptas(args) -> int:
    inst = _require_partition(read_instance(args.in_path))
    verdict = slab_mod.decide_epsilon(inst, args.epsilon)
    _emit(slab_mod.verdict_to_json(verdict), args.out)
    return EXIT_ANOMALY if verdict.anomaly else EXIT_OK


def _cmd_decide_slab(args) -> int:
    inst = _require_partition(read_instance(args.in_path))
    verdict = slab_mod.decide(inst, c=args.c, big_n=args.big_n)
    _emit(slab_mod.verdict_to_json(verdict), args.out)
    return EXIT_ANOMALY if verdict.anomaly else EXIT_OK


def _cmd_solve_sssp(args) -> int:
    if args.leaf_budget < 0:
        raise ValueError(f"--leaf-budget must be at least 0, got {args.leaf_budget}")
    inst = read_instance(args.in_path)
    if not isinstance(inst, SsspInstance):
        raise ParseError("solve-sssp needs an sssp instance")
    # one geometry gives the grid size of an exhausted search as well
    geo = sssp_mod.geometry(inst, args.eps_b)
    cert = sssp_mod.solve(inst, leaf_budget=args.leaf_budget, c=args.c, geo=geo)
    # a certificate carries its own curvature term, which result_to_json prints
    curvature = cert.curvature if cert else sssp_mod.curvature_term(inst)
    doc = sssp_mod.result_to_json(cert, curvature=curvature, grid_size=geo.grid_size)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.cap < 0:
        raise ValueError(f"--cap must be at least 0, got {args.cap}")
    inst = read_instance(args.in_path)
    if not isinstance(inst, PartitionInstance):
        raise ParseError("oracle needs a partition instance")
    report = oracle_mod.enumerate_partition(inst, max_n=args.cap)
    _emit({
        "count": report.count,
        "min_distance_sq": fraction_json(report.min_distance_sq),
        "solutions": [list(x) for x in report.solutions],
    }, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(args.n, c=args.c, repeats=args.repeats, bits=args.bits,
                               seed=args.seed)
    bench_mod.write_csv(rows, args.out)
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
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"slabsum: budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ValueError, OverflowError, OSError) as exc:
        # OverflowError: a weight too large for the float geometry of solve-sssp
        print(f"slabsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
