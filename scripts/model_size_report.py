#!/usr/bin/env python3
"""Constraint-count comparison of the pairwise and grouped model variants.

Generates instances over a (wavelengths x requests) grid on one topology and
prints the cons/vars ratio of both formulations per cell, plus conflict set
cardinalities, as a CSV on stdout.

Example:
    python scripts/model_size_report.py --topology synth:14,1.5 \
        --wavelengths 5,10,15 --requests 20,40,60 --paths 4
"""

import argparse
import sys

from rwap.conflicts import build_conflict_sets, count_constraints
from rwap.gen import GenerationError, generate, synth_topology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topology", default="synth:14,1.5")
    parser.add_argument("--wavelengths", default="5,10,15")
    parser.add_argument("--requests", default="20,40,60")
    parser.add_argument("--paths", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    spec = args.topology.removeprefix("synth:")
    nodes, degree = spec.split(",")
    topo = synth_topology(int(nodes), float(degree), seed=args.seed)
    print("wavelengths,requests,vars,c1,c2,c3,c4,base_cons,strong_cons,base_ratio,strong_ratio")
    for lam in (int(x) for x in args.wavelengths.split(",")):
        for req in (int(x) for x in args.requests.split(",")):
            try:
                inst = generate(topo, lam, req, args.paths, seed=args.seed)
            except GenerationError as exc:
                print(f"# skipped ({lam}, {req}): {exc}", file=sys.stderr)
                continue
            conflicts = build_conflict_sets(inst)
            counts = count_constraints(inst, conflicts, conflicts.strong)
            c1, c2, c3, c4 = conflicts.class_counts
            print(
                f"{lam},{req},{counts.variables},{c1},{c2},{c3},{c4},{counts.base_constraints},"
                f"{counts.strong_constraints},{counts.base_ratio:.2f},{counts.strong_ratio:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
