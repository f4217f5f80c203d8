"""Edge quadratics and the two-sided subharmonicity tests they support.

A quadratic whose curvature lies in the edge of a cone is harmonic for
that cone in both directions: its Hessian and the negated Hessian both
sit on the cone boundary.  Such functions bound the dual subharmonics
from above; when a grid function fails dual membership at a node, an
explicit quadratic witness of the failure can be constructed from the
interior decomposition of the negated Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import EdgeCone, edge_translate_margin
from .dirichlet import GridField, central_differences
from .symspace import SymSubspace, as_rng, frob_norm, from_coords, subspace_project

EDGE_RESID_RTOL = 1e-9
CONSTRUCT_RTOL = 1e-6


@dataclass(frozen=True)
class EdgeQuadratic:
    """h(x) = c + <b, x> + x' B x / 2 with curvature B inside an edge."""

    c: float
    b: np.ndarray
    curvature: np.ndarray

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        vals = (self.c + pts @ self.b
                + 0.5 * np.einsum("pi,pi->p", pts @ self.curvature, pts))
        return float(vals[0]) if single else vals


def make_edge_quadratic(edge: SymSubspace, c: float, b, curvature) -> EdgeQuadratic:
    """Validate curvature against the edge; small residues are projected
    away, larger ones are refused."""
    b = np.asarray(b, dtype=float)
    curvature = np.asarray(curvature, dtype=float)
    if curvature.shape[0] != edge.ambient_n:
        raise ValueError("curvature dimension does not match the edge ambient")
    if np.abs(curvature - curvature.T).max() > 1e-10 * (1 + np.abs(curvature).max()):
        raise ValueError("curvature must be symmetric")
    proj = subspace_project(edge, curvature)
    resid = frob_norm(curvature - proj)
    if resid > CONSTRUCT_RTOL * (1.0 + frob_norm(curvature)):
        raise ValueError(
            f"curvature is not inside the edge (residual {resid:.3e})")
    return EdgeQuadratic(float(c), b, proj)


def sample_edge_quadratics(edge: SymSubspace, count: int, radius: float,
                           seed) -> list[EdgeQuadratic]:
    """Curvatures uniform in the radius-ball of the edge, affine parts at
    matched scales; deterministic per seed."""
    rng = as_rng(seed)
    n = edge.ambient_n
    out = []
    for _ in range(count):
        if edge.dim:
            direction = rng.normal(size=edge.dim)
            nrm = np.linalg.norm(direction)
            if nrm > 0:
                direction /= nrm
            r = radius * rng.uniform() ** (1.0 / edge.dim)
            curv = from_coords(edge, r * direction)
        else:
            curv = np.zeros((n, n))
        b = rng.normal(size=n) * radius
        c = rng.normal() * radius
        out.append(make_edge_quadratic(edge, c, b, curv))
    return out


def sub_test(u: GridField, h: EdgeQuadratic, tol: float = 0.0) -> tuple[bool, dict]:
    """Does u <= h + tol on the boundary force u <= h + tol inside?

    Returns (result, info); when the boundary premise already fails the
    implication holds vacuously and the info flags it.
    """
    dom = u.domain
    pts = dom.coords().reshape(-1, dom.n)
    h_vals = h(pts).reshape(dom.shape)
    diff = u.values - h_vals
    boundary_excess = float(diff[dom.boundary].max()) if dom.boundary.any() else -np.inf
    interior_excess = float(diff[dom.interior].max()) if dom.interior.any() else -np.inf
    info = {
        "boundary_excess": boundary_excess,
        "interior_excess": interior_excess,
        "premise_holds": bool(boundary_excess <= tol),
    }
    if not info["premise_holds"]:
        info["vacuous"] = True
        return True, info
    info["vacuous"] = False
    return bool(interior_excess <= tol), info


@dataclass(frozen=True)
class ViolationWitness:
    """Edge quadratic h with u <= h on a node ring but u(x0) > h(x0)."""

    quadratic: EdgeQuadratic
    center: tuple
    radius: float
    margin: float
    ring_nodes: int
    ring_excess: float     # max of u - h over the ring (should be <= slack)
    center_excess: float   # u(x0) - h(x0) (should be ~ margin)

    @property
    def verified(self) -> bool:
        slack = 1e-6 * (1.0 + abs(self.margin))
        return self.ring_excess <= slack and self.center_excess > 0.5 * self.margin


def violation_witness(u: GridField, cone: EdgeCone, index, *,
                      ring_spacings: int = 3) -> ViolationWitness | None:
    """Quadratic witness that u is not dually subharmonic at a node.

    When the negated discrete Hessian is interior to the cone it splits as
    an edge translate plus a positive-definite part; matching value and
    gradient at the node and pushing the quadratic down by alpha r^2
    (alpha = half the smallest eigenvalue of the positive part) produces a
    function that dominates u on the radius-r node ring yet not at the
    node itself.  Returns None when the node passes the dual test, raises
    no witness when the decomposition stalls near the dual boundary.
    """
    dom = u.domain
    idx = tuple(int(i) for i in np.atleast_1d(index))
    grad, a = central_differences(u, idx)
    tol = 1e-7 * (1.0 + frob_norm(a))
    margin, e_translate, _, stalled = edge_translate_margin(-a, cone.edge)
    if margin <= tol:
        return None  # -A is not interior: the node passes the dual test
    if stalled:
        raise RuntimeError("decomposition stalled near the dual boundary")

    x0 = dom.origin + np.array(idx) * dom.h
    u0 = float(u.values[idx])
    curv = -e_translate
    # absolute-coordinate coefficients with h(x0) = u0, Dh(x0) = grad
    b = grad - curv @ x0
    c = u0 - grad @ x0 + 0.5 * x0 @ curv @ x0
    alpha = 0.5 * float(np.linalg.eigvalsh(-a - e_translate)[0])  # PD part
    r = ring_spacings * dom.h
    h_quad = EdgeQuadratic(c - alpha * r * r, b, subspace_project(cone.edge, curv))

    # ring check: nodes at distance in [r, r + 2h) from the center
    coords = dom.coords()
    dist = np.linalg.norm(coords - x0, axis=-1)
    ring = (dist >= r - 1e-12) & (dist < r + 2 * dom.h) & (dom.interior | dom.boundary)
    pts = coords[ring]
    excess = u.values[ring] - h_quad(pts)
    return ViolationWitness(
        quadratic=h_quad,
        center=idx,
        radius=r,
        margin=alpha * r * r,
        ring_nodes=int(ring.sum()),
        ring_excess=float(excess.max()) if excess.size else -np.inf,
        center_excess=u0 - h_quad(x0),
    )


def witness_record(w: ViolationWitness) -> dict:
    """Serializable form of a witness report."""
    return {
        "center": list(w.center),
        "radius": w.radius,
        "margin": w.margin,
        "c": w.quadratic.c,
        "b": w.quadratic.b.tolist(),
        "curvature": w.quadratic.curvature.tolist(),
        "ring_nodes": w.ring_nodes,
        "ring_excess": w.ring_excess,
        "center_excess": w.center_excess,
        "verified": w.verified,
    }
