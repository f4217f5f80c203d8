#!/usr/bin/env python3
"""Solver convergence study: disk errors under mesh refinement, the
one-complex-dimension collapse, and the affine fixed point."""

import argparse
import time

import numpy as np

from conedge import catalog as cat
from conedge import dirichlet as dh


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-level", type=int, default=3,
                    help="refinement levels for the disk study (h = 1/16 ...)")
    args = ap.parse_args()

    lap = cat.build_cone("laplace", 2)
    harm = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
    print("disk, trace cone, boundary data with harmonic extension:")
    for lvl in range(args.max_level):
        h = 1.0 / (16 * 2 ** lvl)
        dom = dh.GridDomain.ball(1.0, h)
        t0 = time.time()
        u, info = dh.perron_solve(lap, dom, harm, ordering="redblack",
                                  tol=1e-10, max_sweeps=200000)
        exact = harm(dom.coords().reshape(-1, 2)).reshape(dom.shape)
        err = np.abs(u.values - exact)[dom.interior].max()
        print(f"  h=1/{int(1/h):<3} error {err:.3e}  sweeps {info.sweeps:<6}"
              f" residual {info.max_residual:.1e} omega {info.omega:.4f}"
              f" ({time.time()-t0:.1f}s)")

    print("box, positivity cone, affine data (exact fixed point):")
    cone = cat.build_cone("P", 2)
    dom = dh.GridDomain.box([-1, -1], [1, 1], 1 / 16)
    aff = lambda p: 0.4 * p[:, 0] - 0.7 * p[:, 1] + 0.2
    u, info = dh.perron_solve(cone, dom, aff, ordering="redblack", tol=1e-12,
                              max_sweeps=20000)
    exact = aff(dom.coords().reshape(-1, 2)).reshape(dom.shape)
    print(f"  error {np.abs(u.values - exact)[dom.interior].max():.3e}")

    print("one complex dimension collapses to the trace cone:")
    pc1 = cat.build_cone("P_C", 2)
    data = lambda p: np.cos(2 * p[:, 0]) + 0.5 * p[:, 1]
    dom = dh.GridDomain.box([-1, -1], [1, 1], 1 / 16)
    u1, _ = dh.perron_solve(pc1, dom, data, ordering="redblack", tol=1e-11)
    u2, _ = dh.perron_solve(lap, dom, data, ordering="redblack", tol=1e-11)
    print(f"  sup difference {np.abs(u1.values - u2.values)[dom.interior].max():.3e}")


if __name__ == "__main__":
    main()
