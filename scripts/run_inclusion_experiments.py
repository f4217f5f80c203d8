#!/usr/bin/env python3
"""Counterexample searches around the two open inclusion questions.

Both searches compare a minimal cone with a geometric cone that provably
contains it.  The forward inclusion is verified on samples; candidates
for strictness (geometric member, minimal-cone outsider, both margins
clear of the dead band) are counted and printed WITHOUT a verdict: the
sampled searches cannot distinguish a strict inclusion from an equality
whose witnesses are rare.

  1. edge = traceless quaternion-hermitian block  vs  the quaternionic
     lagrangian plane family;
  2. edge = the I-aligned skew component  vs  the intersection of the
     I-lagrangian planes with the J- and K-complex lines.
"""

import argparse

import numpy as np

from conedge import catalog as cat
from conedge import cones as cn
from conedge import structures as st
from conedge import symspace as ss


def search(minimal, geo_margin, budget, seed, floor=1e-4):
    rng = np.random.default_rng(seed)
    n = minimal.n
    forward_violations = 0
    reverse_candidates = 0
    tested = 0
    for t in range(budget):
        if t % 3 == 0:
            a = cn.sample_member(minimal, rng)
        elif t % 3 == 1:
            a = ss.random_symmetric(n, rng)
        else:
            # hug the minimal cone boundary from outside
            a = ss.random_symmetric(n, rng)
            m, *_ = minimal.optimizer_margin(a)
            a = a + (0.02 - m) * np.eye(n)
        m_min, *_ = minimal.optimizer_margin(a)
        m_geo = float(geo_margin(a))
        if min(abs(m_min), abs(m_geo)) <= floor:
            continue
        tested += 1
        if m_min > 0 and m_geo < 0:
            forward_violations += 1
        if m_geo > 0 and m_min < 0:
            reverse_candidates += 1
    return tested, forward_violations, reverse_candidates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=8, help="ambient real dimension")
    args = ap.parse_args()

    hsym = cat.build_cone("P_HSYM", args.n)
    hlag = cn.GeometricCone(st.PlaneFamily("hlag", args.n), budget=1500,
                            descents=15, descent_steps=80, seed=args.seed)
    tested, fwd, rev = search(hsym, hlag.margin, args.budget, args.seed + 1)
    print("quaternionic lagrangian family vs its minimal cone:")
    print(f"  {tested} decisive samples, forward violations {fwd} (must be 0), "
          f"strictness candidates {rev} (no verdict)")

    ei = cat.build_cone("P_EI", args.n)
    geos = [cn.GeometricCone(st.PlaneFamily(tag, args.n), budget=1500,
                             descents=15, descent_steps=80, seed=args.seed + k)
            for k, tag in enumerate(("ilag", "cp_j", "cp_k"))]

    def triple_margin(a):
        return min(g.margin(a) for g in geos)

    tested, fwd, rev = search(ei, triple_margin, args.budget, args.seed + 7)
    print("triple intersection vs the I-aligned minimal cone:")
    print(f"  {tested} decisive samples, forward violations {fwd} (must be 0), "
          f"strictness candidates {rev} (no verdict)")


if __name__ == "__main__":
    main()
