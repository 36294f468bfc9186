#!/usr/bin/env python3
"""Sweep the (K, K') frontier of a catalog map and print it as a table.

Example:

    python3 scripts/frontier_sweep.py --catalog example15 --k-count 9
    python3 scripts/frontier_sweep.py --catalog polyharmonic \
        --param a=0,1 --param b=0,0,0.3 --k-max 6
"""

import argparse
import json
import sys

import numpy as np

from diskmaps import GridSpec, builtin_map, frontier
from diskmaps.catalog import parse_params


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--catalog", default="example15")
    ap.add_argument("--param", action="append", metavar="KEY=VALUE")
    ap.add_argument("--k-min", type=float, default=1.0)
    ap.add_argument("--k-max", type=float, default=4.0)
    ap.add_argument("--k-count", type=int, default=7)
    ap.add_argument("--max-radius", type=float, default=1.0 - 1e-4)
    ap.add_argument("--refine-rounds", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="emit JSON instead")
    args = ap.parse_args()

    definition = builtin_map(args.catalog, parse_params(args.param))
    grid = GridSpec(max_radius=args.max_radius, refine_rounds=args.refine_rounds)
    Ks = np.geomspace(args.k_min, args.k_max, args.k_count)
    report = frontier(definition.build(), [float(k) for k in Ks], grid)

    if args.json:
        doc = {
            "map": definition.name,
            "parameters": {k: repr(v) for k, v in definition.parameters.items()},
            "samples": [list(s) for s in report.samples],
            "sup_dilatation": report.sup_dilatation,
            "dilatation_unbounded": bool(report.dilatation_unbounded),
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
        return

    print(f"map: {definition.name}  parameters: {definition.parameters}")
    print(f"grid: max_radius={grid.max_radius}  refine_rounds={grid.refine_rounds}")
    print(f"{'K':>10}  {'min Kprime':>14}  witness")
    for (K, kp), w in zip(report.samples, report.witnesses):
        print(f"{K:>10.4f}  {kp:>14.8f}  {w:.6f}")
    flag = " (grid artifact: blows up toward the boundary)" \
        if report.dilatation_unbounded else ""
    print(f"sup dilatation on grid: {report.sup_dilatation:.8f}{flag}")


if __name__ == "__main__":
    main()
