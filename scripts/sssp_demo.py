#!/usr/bin/env python3
"""End-to-end demo of the simultaneous solver on a duplicate-constraint
planted system, with the oracle cross-check."""

import argparse
import json
from fractions import Fraction

from slabsum.instance import SsspInstance, gen_planted
from slabsum.oracle import min_vertex_L0
from slabsum.sssp import curvature_term, geometry, result_to_json, solve


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    base = gen_planted(args.n, 2, seed=args.seed)
    inst = SsspInstance((base.weights, base.weights), rho=Fraction(10),
                        delta=Fraction(27, 20), m=2, seed=args.seed,
                        planted_x=base.planted_x)
    geo = geometry(inst, None)
    cert = solve(inst, geo=geo)
    doc = result_to_json(cert, curvature=curvature_term(inst), grid_size=geo.grid_size)
    print(json.dumps(doc, sort_keys=True, indent=2))
    if args.n <= 20:
        best, argmin = min_vertex_L0(inst)
        print(f"oracle: min vertex L0 = {best} at {argmin}")


if __name__ == "__main__":
    main()
