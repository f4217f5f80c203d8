#!/usr/bin/env python3
"""Structural check suite over the whole cone catalog.

Runs membership positivity, minimality identities, self-duality and dual
inclusion for every named cone and prints one row per check.
"""

import argparse

from conedge import catalog as cat
from conedge import cones as cn
from conedge.cli import positive_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=positive_int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for spec in cat.DEFAULT_SPECS:
        cone = cat.build_cone(spec.name)
        mini = cn.check_minimality(cone, budget=args.budget, seed=args.seed)
        sd = cn.self_duality_check(cone, budget=args.budget, seed=args.seed)
        dual = cn.check_dual_inclusion(cone, budget=args.budget, seed=args.seed)
        print(f"{spec.name:<8} n={cone.n:<2} edge dim {cone.edge.dim:<3} "
              f"minimality={'ok' if mini['passed'] else 'FAIL':<5} "
              f"self-dual={'yes' if sd['self_dual'] else 'no':<4} "
              f"dual-inclusion={'ok' if dual['passed'] else 'FAIL'}")


if __name__ == "__main__":
    main()
