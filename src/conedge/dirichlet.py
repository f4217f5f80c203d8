"""Grid Dirichlet solver for minimal cones and edge-quadratic envelopes.

The solver runs Gauss-Seidel sweeps with one node update.  Moving an
interior node's center value by s changes its discrete Hessian to exactly
H - s diag(d) / h^2, where d_i = 2 on a box and grows at cut-cell sides
(the node pencil); every margin functional in this package is Loewner
monotone and shifts exactly by -s * slope under A -> A - s Id.  So a
linear margin <A, W> is solved in closed form, a row with constant d has
the closed-form root h^2 m / (d slope), and any other row bisects inside
the bracket [h^2 m / (slope max d), h^2 m / (slope min d)], vectorized
over the rows of a red-black half-sweep or of a lex front (the nodes of
one key sum_i (n - i) x_i, which never read each other; see _lex_fronts).

Margins of the form <A, W> with diagonal W make the node update plain
Gauss-Seidel on a 2-cyclic, consistently ordered linear system (both
lexicographic and red-black orderings qualify) whose Jacobi matrix has
real eigenvalues.  Young's SOR theory then gives the optimal
over-relaxation factor omega = 2 / (1 + sqrt(1 - rho^2)) from the Jacobi
spectral radius rho, and the sweep count falls from O(h^-2) to O(h^-1).
On a box rho = sum_i w_ii cos(pi / (k_i + 1)) / sum_i w_ii exactly, with
k_i interior nodes along axis i; on a ball the same formula over the
interior's bounding extents bounds rho from above (cut-cell ghosts only
add to the diagonal), which errs towards omega >= omega_opt, where SOR
still converges at rate omega - 1.  Nonlinear margins, W with
off-diagonal entries and the bisection reference keep omega = 1.

Ball domains use cut cells: the boundary value is imposed at the first
exterior node along each axis through a linear interpolation weight, so
the axis ghost value is tied to the center unknown; each node update
reads its own axis ghosts as that extrapolation.  Exterior nodes that
appear as diagonal stencil corners are extrapolated the same way along
the diagonal segment, but lagged within a sweep (their owner is the
center node itself, and folding them into the update would break the
monotone dependence on the center value).  All extrapolations are exact
on affine functions; for curved data the off-diagonal entries near a
curved boundary are first-order accurate, so margins that read them
carry O(h) boundary error on balls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import ConeHandle
from .symspace import SymSubspace, as_rng

THETA_FLOOR = 0.05
LP_TOL = 1e-8


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class GridDomain:
    """Regular lattice over a box or ball with interior/boundary masks."""

    n: int
    shape: tuple
    h: float
    origin: np.ndarray
    kind: str                     # "box" or "ball"
    interior: np.ndarray          # bool, full lattice shape
    boundary: np.ndarray          # bool, full lattice shape
    radius: float | None = None
    center: np.ndarray | None = None

    @staticmethod
    def box(lo, hi, h: float) -> "GridDomain":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        n = lo.size
        if not 1 <= n <= 4:
            raise ValueError("grid dimension must be 1..4")
        _check_positive("h", h)
        counts = []
        for a, b in zip(lo, hi):
            m = (b - a) / h
            mi = int(round(m))
            if abs(m - mi) > 1e-9 or mi < 2:
                raise ValueError("box side must be a positive multiple of h")
            counts.append(mi + 1)
        shape = tuple(counts)
        interior = np.zeros(shape, dtype=bool)
        interior[tuple(slice(1, -1) for _ in range(n))] = True
        boundary = np.ones(shape, dtype=bool)
        boundary[tuple(slice(1, -1) for _ in range(n))] = False
        return GridDomain(n, shape, float(h), lo, "box", interior, boundary)

    @staticmethod
    def ball(radius: float, h: float, center=None, dim: int = 2) -> "GridDomain":
        if center is None:
            center = np.zeros(dim)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        n = center.size
        if not 1 <= n <= 4:
            raise ValueError("grid dimension must be 1..4")
        _check_positive("radius", radius)
        _check_positive("h", h)
        half = int(np.ceil(radius / h)) + 2
        shape = tuple([2 * half + 1] * n)
        origin = center - half * h
        dom = GridDomain(n, shape, float(h), origin, "ball",
                         np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool),
                         radius=float(radius), center=center)
        pts = dom.coords().reshape(-1, n)
        inside = ((pts - center) ** 2).sum(axis=1) < radius**2
        inside = inside.reshape(shape)
        near = _dilate(inside, n)
        object.__setattr__(dom, "interior", inside)
        object.__setattr__(dom, "boundary", near & ~inside)
        return dom

    def coords(self) -> np.ndarray:
        axes = [self.origin[i] + self.h * np.arange(self.shape[i])
                for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_positions(self) -> np.ndarray:
        """Representative positions of boundary nodes (sphere projections
        for balls, the nodes themselves for boxes)."""
        pts = self.coords()[self.boundary]
        if self.kind == "ball":
            rel = pts - self.center
            norms = np.linalg.norm(rel, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            pts = self.center + rel / norms * self.radius
        return pts


def _dilate(mask: np.ndarray, n: int) -> np.ndarray:
    """Nodes reachable from the mask by one stencil offset (incl. corners)."""
    out = mask.copy()
    grown = mask
    for axis in range(n):
        shifted = np.zeros_like(grown)
        sl_fwd = [slice(None)] * n
        sl_bwd = [slice(None)] * n
        sl_fwd[axis] = slice(1, None)
        sl_bwd[axis] = slice(None, -1)
        shifted[tuple(sl_fwd)] |= grown[tuple(sl_bwd)]
        shifted[tuple(sl_bwd)] |= grown[tuple(sl_fwd)]
        grown = grown | shifted
    out |= grown
    return out


@dataclass
class GridField:
    """Scalar values on a grid domain (full lattice storage)."""

    domain: GridDomain
    values: np.ndarray

    def copy(self) -> "GridField":
        return GridField(self.domain, self.values.copy())


def boundary_values(dom: GridDomain, phi) -> np.ndarray:
    """Evaluate the boundary function at the boundary representatives."""
    if callable(phi):
        return np.asarray(phi(dom.boundary_positions()), dtype=float)
    vals = np.asarray(phi, dtype=float)
    if vals.shape[0] != int(dom.boundary.sum()):
        raise ValueError("boundary value array length mismatch")
    return vals


# ----------------------------------------------------------------------
# stencil tables
# ----------------------------------------------------------------------

@dataclass
class _Stencil:
    dom: GridDomain
    flat_interior: np.ndarray          # (M,) flat indices, lex order
    axis_plus: np.ndarray              # (M, n) flat neighbor indices
    axis_minus: np.ndarray
    ghost_plus: np.ndarray             # (M, n) bool: axis neighbor outside
    ghost_minus: np.ndarray
    theta_plus: np.ndarray             # (M, n) crossing fraction in (0, 1]
    theta_minus: np.ndarray
    phi_plus: np.ndarray               # (M, n) boundary data at the crossing
    phi_minus: np.ndarray
    pairs: list                        # [(i, j)] with i < j
    corner_pp: np.ndarray              # (M, P) flat indices
    corner_mm: np.ndarray
    corner_pm: np.ndarray
    corner_mp: np.ndarray
    red_mask: np.ndarray               # (M,) parity coloring of interior nodes
    pencil_d: np.ndarray               # (M, n) center coefficient 1/theta+ + 1/theta-
    # flattened ghost tables, filled by the builder
    g_rows: np.ndarray = None
    g_flat: np.ndarray = None
    g_theta: np.ndarray = None
    g_phi: np.ndarray = None
    g_unique: np.ndarray = None
    g_inverse: np.ndarray = None
    g_counts: np.ndarray = None


def _sphere_crossing(dom: GridDomain, xs: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Unclipped fractions t where the segments x -> x + step, one per row
    of xs, leave the ball's sphere (the larger root)."""
    a = float(step @ step)
    rel = xs - dom.center
    b = 2.0 * (rel @ step)
    cc = np.einsum("mi,mi->m", rel, rel) - dom.radius * dom.radius
    disc = np.maximum(b * b - 4 * a * cc, 0.0)
    return (-b + np.sqrt(disc)) / (2 * a)


def _build_stencil(dom: GridDomain, phi) -> _Stencil:
    n = dom.n
    shape = dom.shape
    strides = np.array([int(np.prod(shape[i + 1:], dtype=np.int64)) for i in range(n)],
                       dtype=np.int64)
    inside_flat = dom.interior.ravel()
    flat_interior = np.flatnonzero(inside_flat)
    multi = np.array(np.unravel_index(flat_interior, shape)).T  # (M, n)
    coords = dom.origin + multi * dom.h

    m = flat_interior.size
    axis_plus = flat_interior[:, None] + strides
    axis_minus = flat_interior[:, None] - strides
    theta_plus = np.ones((m, n))
    theta_minus = np.ones((m, n))
    phi_plus = np.zeros((m, n))
    phi_minus = np.zeros((m, n))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    si = strides[[i for i, _ in pairs]]
    sj = strides[[j for _, j in pairs]]
    corner_pp = flat_interior[:, None] + si + sj
    corner_mm = flat_interior[:, None] - si - sj
    corner_pm = flat_interior[:, None] + si - sj
    corner_mp = flat_interior[:, None] - si + sj

    # ghost segments (rows, ghost flat index, unit direction): axis ghosts,
    # then the diagonal (corner) ghosts, all extrapolated from their owners
    # through the sphere crossing; corners are lagged within a sweep so the
    # node update stays monotone in the center value
    segments = []
    if dom.kind == "ball":
        ghost_plus = ~inside_flat[axis_plus]
        ghost_minus = ~inside_flat[axis_minus]
        for axis in range(n):
            for ghosts, nbs, sign in ((ghost_plus, axis_plus, 1.0),
                                      (ghost_minus, axis_minus, -1.0)):
                rows = np.flatnonzero(ghosts[:, axis])
                direction = np.zeros(n)
                direction[axis] = sign
                segments.append((rows, nbs[rows, axis], direction))
        for idx, (i, j) in enumerate(pairs):
            for table, di, dj in ((corner_pp, 1, 1), (corner_mm, -1, -1),
                                  (corner_pm, 1, -1), (corner_mp, -1, 1)):
                rows = np.flatnonzero(~inside_flat[table[:, idx]])
                if rows.size == 0:
                    continue
                direction = np.zeros(n)
                direction[i], direction[j] = di, dj
                segments.append((rows, table[rows, idx], direction))
    else:
        ghost_plus = np.zeros((m, n), dtype=bool)
        ghost_minus = np.zeros((m, n), dtype=bool)

    thetas, points = [], []
    for rows, _, direction in segments:
        t = np.clip(_sphere_crossing(dom, coords[rows], dom.h * direction), 1e-12, 1.0)
        t = np.maximum(t, THETA_FLOOR)
        thetas.append(t)
        points.append(coords[rows] + (t * dom.h)[:, None] * direction)
    if segments:
        g_rows = np.concatenate([s[0] for s in segments])
        g_flat = np.concatenate([s[1] for s in segments])
        g_theta = np.concatenate(thetas)
        g_phi = np.asarray(phi(np.vstack(points)), dtype=float)
        phis = np.split(g_phi, np.cumsum([t.size for t in thetas])[:-1])
        for axis in range(n):
            for k, table_t, table_phi in ((2 * axis, theta_plus, phi_plus),
                                          (2 * axis + 1, theta_minus, phi_minus)):
                rows = segments[k][0]
                table_t[rows, axis] = thetas[k]
                table_phi[rows, axis] = phis[k]
    else:
        g_rows, g_flat = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        g_theta, g_phi = np.zeros(0), np.zeros(0)

    red_mask = (multi.sum(axis=1) % 2 == 0)
    stencil = _Stencil(dom, flat_interior, axis_plus, axis_minus,
                       ghost_plus, ghost_minus, theta_plus, theta_minus,
                       phi_plus, phi_minus, pairs,
                       corner_pp, corner_mm, corner_pm, corner_mp, red_mask,
                       1.0 / theta_plus + 1.0 / theta_minus)
    stencil.g_rows, stencil.g_flat = g_rows, g_flat
    stencil.g_theta, stencil.g_phi = g_theta, g_phi
    stencil.g_unique, stencil.g_inverse, stencil.g_counts = np.unique(
        g_flat, return_inverse=True, return_counts=True)
    return stencil


def _lex_fronts(stencil: _Stencil) -> list[np.ndarray]:
    """Interior rows grouped by the key sum_i (n - i) x_i, in increasing
    key order.  The weights fall strictly with the axis, so every stencil
    offset has a nonzero key, negative exactly when it precedes the node in
    lex order: one batch per front reads what the node-by-node lex sweep
    reads (under sum_i x_i, e_i - e_j would have key 0)."""
    multi = np.array(np.unravel_index(stencil.flat_interior, stencil.dom.shape)).T
    key = multi @ np.arange(stencil.dom.n, 0, -1)
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _node_pencil(stencil: _Stencil, flat_vals: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Hessians H at the selected interior rows and the pencil
    diagonal d: moving a row's center value by s gives exactly
    H - s diag(d) / h^2.

    Each axis ghost enters as the row's own extrapolation
    t + (phi - t) / theta through the sphere crossing, which makes
    d_i = 1/theta+_i + 1/theta-_i (2 on a box); nothing is written to the
    array.  Corners read the array, lagged within a sweep."""
    dom = stencil.dom
    h2 = dom.h * dom.h

    def at(table):                # take gathers rows faster than indexing
        return table.take(rows, axis=0)

    center = flat_vals[at(stencil.flat_interior)]
    up = flat_vals[at(stencil.axis_plus)]
    dn = flat_vals[at(stencil.axis_minus)]
    for vals, ghost, theta, phi in (
            (up, stencil.ghost_plus, stencil.theta_plus, stencil.phi_plus),
            (dn, stencil.ghost_minus, stencil.theta_minus, stencil.phi_minus)):
        r, c = at(ghost).nonzero()
        if r.size:
            vals[r, c] = center[r] + (phi[rows[r], c] - center[r]) / theta[rows[r], c]
    diag = (up + dn - 2.0 * center[:, None]) / h2
    cross = (flat_vals[at(stencil.corner_pp)] + flat_vals[at(stencil.corner_mm)]
             - flat_vals[at(stencil.corner_pm)] - flat_vals[at(stencil.corner_mp)]) / (4.0 * h2)
    out = np.zeros((rows.size, dom.n, dom.n))
    for i in range(dom.n):
        out[:, i, i] = diag[:, i]
    for idx, (i, j) in enumerate(stencil.pairs):
        out[:, i, j] = out[:, j, i] = cross[:, idx]
    return out, at(stencil.pencil_d)


def central_differences(u: GridField, index) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences (gradient, Hessian) at one
    interior node; both exact on quadratics."""
    dom = u.domain
    idx = tuple(int(i) for i in np.atleast_1d(index))
    if not dom.interior[idx]:
        raise ValueError(f"node {idx} is not interior")
    n = dom.n
    h2 = dom.h * dom.h
    unit = np.eye(n, dtype=int)

    def at(offset):
        return u.values[tuple(np.add(idx, offset))]

    grad = np.array([(at(e) - at(-e)) / (2 * dom.h) for e in unit])
    hess = np.zeros((n, n))
    for i in range(n):
        hess[i, i] = (at(unit[i]) + at(-unit[i]) - 2 * at(0)) / h2
        for j in range(i + 1, n):
            ei, ej = unit[i], unit[j]
            hess[i, j] = hess[j, i] = (at(ei + ej) + at(-ei - ej)
                                       - at(ei - ej) - at(ej - ei)) / (4 * h2)
    return grad, hess


def discrete_hessian(u: GridField, index) -> np.ndarray:
    """Central second differences at one interior node; exact on quadratics."""
    return central_differences(u, index)[1]


def _refresh_ghosts(stencil: _Stencil, flat_vals: np.ndarray):
    """Set every ghost, axis and corner, from its owners (mean over owner
    constraints); node updates read the corner ghosts, lagged."""
    if stencil.dom.kind != "ball" or stencil.g_flat.size == 0:
        return
    t = flat_vals[stencil.flat_interior[stencil.g_rows]]
    vals = t + (stencil.g_phi - t) / stencil.g_theta
    sums = np.zeros(stencil.g_unique.size)
    np.add.at(sums, stencil.g_inverse, vals)
    flat_vals[stencil.g_unique] = sums / stencil.g_counts


@dataclass
class SolveInfo:
    converged: bool
    sweeps: int
    max_update: float
    history: list = field(default_factory=list)
    ordering: str = "lex"
    omega: float = 1.0
    # largest |margin(D^2 u)| met by the node updates of the last sweep
    max_residual: float = 0.0


def _jacobi_radius(dom: GridDomain, weights: np.ndarray) -> float:
    """Jacobi spectral radius of the update for <D^2 u, diag(weights)> = 0.

    Exact on a box; on a ball it is the radius over the interior's bounding
    box, an upper bound (cut-cell ghosts only add to the diagonal)."""
    idx = np.argwhere(dom.interior)
    k = idx.max(axis=0) - idx.min(axis=0) + 1
    return float(weights @ np.cos(np.pi / (k + 1)) / weights.sum())


def perron_solve(cone: ConeHandle, dom: GridDomain, phi, *, tol: float | None = None,
                 max_sweeps: int = 20000, ordering: str = "lex",
                 history_every: int = 1,
                 use_bisection: bool = False) -> tuple[GridField, SolveInfo]:
    """Sweep until every interior discrete Hessian sits on the cone boundary.

    ordering "lex" gives the iterates of a node-by-node lexicographic
    sweep, updating one dependency front at a time (see _lex_fronts);
    "redblack" updates the two parity classes as vectorized half-sweeps
    (same fixed point within tol).  Interior nodes start at the largest
    boundary value.

    Each node moves to the root of its margin along the node pencil (see
    the module docstring): in closed form for linear margins and where d
    is constant, else by bisection to tol h^2 / 10 inside the
    identity-shift bracket.  For a margin <A, W> with diagonal W the sweeps
    are over-relaxed with Young's optimal factor
    omega = 2 / (1 + sqrt(1 - rho^2)), where rho is the closed-form Jacobi
    radius of the grid (exact on boxes, an upper bound on balls); every
    other margin runs plain Gauss-Seidel (omega = 1).

    use_bisection=True is the Gauss-Seidel reference: omega = 1, and every
    node bisects, also where the closed form is exact, inside the bracket
    widened on each side by max(width, h^2); a bracket whose ends do not
    carry opposite margin signs raises RuntimeError.

    SolveInfo reports the factor used (omega), the largest update of the
    last sweep (max_update, the stopping quantity) and the largest
    |margin(D^2 u)| the node updates of the last sweep met before moving
    (max_residual).
    """
    if cone.n != dom.n:
        raise ValueError(f"cone ambient {cone.n} != grid dimension {dom.n}")
    if not callable(phi):
        raise ValueError("phi must be callable on coordinate arrays")
    if ordering not in ("lex", "redblack"):
        raise ValueError(f"ordering must be 'lex' or 'redblack', got {ordering!r}")
    b_vals = boundary_values(dom, phi)
    bad = int(np.count_nonzero(~np.isfinite(b_vals)))
    if bad:
        raise ValueError(f"phi gives {bad} non-finite boundary values")
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.abs(b_vals).max() if b_vals.size else 1.0))
    _check_positive("tol", tol)
    stencil = _build_stencil(dom, phi)

    vals = np.zeros(dom.shape)
    vals[dom.boundary] = b_vals
    vals[dom.interior] = float(b_vals.max()) if b_vals.size else 0.0

    flat = vals.ravel()
    _refresh_ghosts(stencil, flat)

    h2 = dom.h * dom.h
    lin_w = cone.linear_margin_weight
    slope = cone.id_shift_slope
    # the solver's Hessian stacks are symmetric and finite by construction,
    # so they skip margin_batch's input check unless a cone overrides it
    margins = (cone._margin_batch if type(cone).margin_batch is ConeHandle.margin_batch
               else cone.margin_batch)
    eye = np.eye(dom.n)
    tol_s = 0.1 * tol * h2        # bisection resolution of the center shift
    history = []
    converged = False
    sweeps, worst, residual = 0, 0.0, 0.0

    omega = 1.0
    if (lin_w is not None and not use_bisection
            and np.count_nonzero(lin_w - np.diag(np.diag(lin_w))) == 0):
        rho = _jacobi_radius(dom, np.diag(lin_w))
        omega = 2.0 / (1.0 + np.sqrt(1.0 - rho * rho))

    # per-row denominators of the root shift: exact for a linear margin;
    # otherwise Loewner monotonicity and the exact Id shift bracket the
    # root between h^2 m / (slope max d) and h^2 m / (slope min d), a
    # bracket of width zero where d is constant
    if lin_w is not None:
        den_lo = den_hi = stencil.pencil_d @ np.diag(lin_w)
    else:
        den_lo = slope * stencil.pencil_d.max(axis=1)
        den_hi = slope * stencil.pencil_d.min(axis=1)

    def update_rows(rows: np.ndarray) -> tuple[float, float]:
        """Move each row's center by its root shift s of
        margin(H - s diag(d) / h^2); returns the largest change and the
        largest |margin| before the move."""
        if rows.size == 0:
            return 0.0, 0.0
        a0, d = _node_pencil(stencil, flat, rows)
        m0 = margins(a0)

        def shifted(k, s):
            return a0[k] - (s / h2)[:, None, None] * (d[k][:, :, None] * eye)

        lo, hi = h2 * m0 / den_lo[rows], h2 * m0 / den_hi[rows]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if use_bisection:
            pad = np.maximum(hi - lo, h2)
            lo, hi = lo - pad, hi + pad
            every = np.arange(rows.size)
            bad = int(np.count_nonzero((margins(shifted(every, lo)) < 0)
                                       | (margins(shifted(every, hi)) > 0)))
            if bad:
                raise RuntimeError(f"bracket failure: the margin keeps its sign "
                                   f"across the identity-shift bracket at {bad} nodes")
        open_ = np.flatnonzero(hi - lo > tol_s)
        while open_.size:
            lo_o, hi_o = lo[open_], hi[open_]
            mid = 0.5 * (lo_o + hi_o)
            up = margins(shifted(open_, mid)) >= 0
            lo[open_] = np.where(up, mid, lo_o)
            hi[open_] = np.where(up, hi_o, mid)
            # a row also stops once its bracket has no float strictly inside
            open_ = open_[(hi[open_] - lo[open_] > tol_s) & (lo_o < mid) & (mid < hi_o)]
        f_idx = stencil.flat_interior[rows]
        t = flat[f_idx]
        t_new = t + omega * 0.5 * (lo + hi)
        flat[f_idx] = t_new
        return float(np.abs(t_new - t).max()), float(np.abs(m0).max())

    fronts = _lex_fronts(stencil) if ordering == "lex" else None
    red_rows = np.flatnonzero(stencil.red_mask)
    black_rows = np.flatnonzero(~stencil.red_mask)

    for sweeps in range(1, max_sweeps + 1):
        if ordering == "lex":
            steps = [update_rows(rows) for rows in fronts]
        else:
            steps = [update_rows(red_rows)]
            _refresh_ghosts(stencil, flat)
            steps.append(update_rows(black_rows))
        worst, residual = np.max(steps, axis=0)
        _refresh_ghosts(stencil, flat)
        if sweeps % history_every == 0:
            history.append((sweeps, float(worst)))
        if worst < tol:
            converged = True
            break

    field_vals = flat.reshape(dom.shape)
    return (GridField(dom, field_vals),
            SolveInfo(converged, sweeps, float(worst),
                      history, ordering, float(omega), float(residual)))


# ----------------------------------------------------------------------
# edge-quadratic envelope by linear programming
# ----------------------------------------------------------------------

class EnvelopeOrderingError(RuntimeError):
    """The envelope exceeded the sweep solution beyond tolerance."""


def _ball_crossing_points(dom: GridDomain) -> np.ndarray:
    """Sphere crossings of axis segments leaving the ball.  The solver's
    data points differ: it floors each crossing fraction at THETA_FLOOR,
    and it also imposes data where diagonal (corner) segments cross."""
    inside = dom.interior
    idx_in = np.argwhere(inside)
    xs = dom.origin + idx_in * dom.h
    pts = []
    for axis in range(dom.n):
        for sign in (1, -1):
            nb = idx_in.copy()
            nb[:, axis] += sign
            leavers = xs[~inside[tuple(nb.T)]]
            step = np.zeros(dom.n)
            step[axis] = sign * dom.h
            t = np.clip(_sphere_crossing(dom, leavers, step), 0.0, 1.0)
            pts.append(leavers + t[:, None] * step)
    return np.vstack(pts)


def _envelope_constraint_points(dom: GridDomain, phi) -> tuple[np.ndarray, np.ndarray]:
    pts = dom.boundary_positions()
    if dom.kind == "ball":
        crossings = _ball_crossing_points(dom)
        if crossings.size:
            pts = np.vstack([pts, crossings])
    vals = np.asarray(phi(pts), dtype=float)
    # deduplicate (ball projections can collide)
    key = np.round(pts / (dom.h * 1e-6))
    _, keep = np.unique(key, axis=0, return_index=True)
    keep.sort()
    return pts[keep], vals[keep]


def edge_envelope(edge: SymSubspace, dom: GridDomain, phi, x, *,
                  boundary_samples=None, m_bound: float | None = None,
                  check_stability: bool = True) -> tuple[float, dict]:
    """Largest value at x of a quadratic with curvature in the edge that
    stays below phi on the boundary samples.

    Decision variables are the constant, the gradient, and coordinates of
    the curvature in the edge basis; all constraints are linear, solved to
    LP accuracy.  The box bound M on coefficients is a compactness proxy;
    the result must be insensitive to doubling it, else it is flagged.
    """
    n = dom.n
    x = np.asarray(x, dtype=float)
    if boundary_samples is None:
        pts, vals = _envelope_constraint_points(dom, phi)
    else:
        pts = np.asarray(boundary_samples, dtype=float)
        vals = np.asarray(phi(pts), dtype=float)
    if m_bound is None:
        m_bound = 1e3 * (1.0 + float(np.abs(vals).max()))

    k = edge.dim
    n_var = 1 + n + k

    def quad_cols(points):
        if k == 0:
            return np.zeros((points.shape[0], 0))
        return 0.5 * np.einsum("pi,kij,pj->pk", points, edge.basis, points)

    a_ub = np.hstack([np.ones((pts.shape[0], 1)), pts, quad_cols(pts)])
    b_ub = vals
    target = np.concatenate([[1.0], x, quad_cols(x[None, :])[0]])

    # scipy.optimize costs 48 MB and 0.3 s to import; only this LP needs it
    from scipy.optimize import linprog

    def solve(mb):
        res = linprog(-target, A_ub=a_ub, b_ub=b_ub,
                      bounds=[(-mb, mb)] * n_var, method="highs")
        if not res.success:
            raise RuntimeError(f"envelope LP failed: {res.message}")
        return float(-res.fun)

    val = solve(m_bound)
    info = {"m_bound": m_bound, "stable": True, "constraints": int(pts.shape[0])}
    if check_stability:
        val2 = solve(2.0 * m_bound)
        if abs(val2 - val) >= 1e-6 * (1.0 + abs(val)):
            info["stable"] = False
            info["value_at_2M"] = val2
    return val, info


def envelope_report(cone: ConeHandle, dom: GridDomain, phi, *,
                    sample_nodes: int = 50, seed: int = 0,
                    solver_kwargs: dict | None = None,
                    classical_gap_bound: bool = False,
                    ordering_slack: float = 0.0) -> dict:
    """Compare the sweep solution with the edge-quadratic envelope.

    The envelope can never exceed the solution (beyond numerical slack);
    that ordering is enforced.  For the convexity and trace cones the gap
    must close at grid resolution; for every other cone the gap is data.

    ordering_slack widens the hard ordering check: on curved boundaries
    the sweep solution carries signed discretization error while the
    envelope sees exact boundary values, and across creases of the data
    the mixed-derivative stencil is not monotone, so those runs are held
    to the scheme's own consistency order rather than solver tolerance.
    """
    solver_kwargs = dict(solver_kwargs or {})
    field_sol, info = perron_solve(cone, dom, phi, **solver_kwargs)
    rng = as_rng(seed)
    interior_idx = np.argwhere(dom.interior)
    count = min(sample_nodes, interior_idx.shape[0])
    pick = rng.choice(interior_idx.shape[0], size=count, replace=False)
    edge = cone.edge_of()
    pts, vals = _envelope_constraint_points(dom, phi)

    records = []
    worst_violation = -np.inf
    max_gap = -np.inf
    tol = 1e-7 * (1.0 + float(np.abs(vals).max()))
    for row in pick:
        idx = tuple(interior_idx[row])
        x = dom.origin + np.array(idx) * dom.h
        env, env_info = edge_envelope(edge, dom, phi, x,
                                      boundary_samples=pts,
                                      check_stability=False)
        h_val = float(field_sol.values[idx])
        gap = h_val - env
        worst_violation = max(worst_violation, -gap)
        max_gap = max(max_gap, gap)
        records.append({"node": list(map(int, idx)), "envelope": env,
                        "solution": h_val, "gap": gap})
    allowed = max(10 * tol, ordering_slack)
    report = {
        "cone": getattr(cone, "name", None) or "anonymous",
        "domain": dom.kind, "h": dom.h,
        "sampled_nodes": count,
        "max_gap": float(max_gap),
        "worst_ordering_violation": float(worst_violation),
        "ordering_ok": bool(worst_violation <= allowed),
        "ordering_allowance": allowed,
        "solver_converged": info.converged,
        "records": records,
    }
    if worst_violation > allowed:
        raise EnvelopeOrderingError(
            f"envelope exceeds solution by {worst_violation:.3e} "
            f"(allowed {allowed:.3e})")
    if classical_gap_bound:
        report["gap_bound"] = 10 * dom.h
        report["gap_ok"] = bool(max_gap <= 10 * dom.h)
    return report


# ----------------------------------------------------------------------
# grid file round trip
# ----------------------------------------------------------------------

def write_grid_csv(path, field_sol: GridField, provenance: dict | None = None):
    """`# key = value` header lines (the provenance, then the domain keys
    read_grid_csv needs), then one row per interior or boundary node."""
    dom = field_sol.domain
    coords = dom.coords().reshape(-1, dom.n)
    vals = field_sol.values.ravel()
    interior = dom.interior.ravel()
    boundary = dom.boundary.ravel()
    header = {**(provenance or {}),
              "kind": dom.kind, "h": dom.h,
              "shape": "x".join(map(str, dom.shape)),
              "origin": ",".join(repr(float(v)) for v in dom.origin),
              "radius": dom.radius if dom.kind == "ball" else ""}
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in header.items():
            fh.write(f"# {key} = {value}\n")
        cols = [f"x{i}" for i in range(dom.n)]
        fh.write(",".join(cols + ["value", "mask"]) + "\n")
        for row in range(coords.shape[0]):
            if not (interior[row] or boundary[row]):
                continue
            mask = "interior" if interior[row] else "boundary"
            pos = ",".join(repr(float(c)) for c in coords[row])
            fh.write(f"{pos},{float(vals[row])!r},{mask}\n")


def read_grid_csv(path):
    """Rebuild a grid field from a write_grid_csv file; returns the field
    and the header as a dict of strings."""
    prov = {}
    rows = []  # the column header, then one row per node
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                prov[key.strip()] = val.strip()
            else:
                rows.append(line.split(","))
    rows = rows[1:]
    h = float(prov["h"])
    origin = np.array([float(v) for v in prov["origin"].split(",")])
    shape = tuple(int(v) for v in prov["shape"].split("x"))
    n = len(shape)
    if prov["kind"] == "ball":
        dom = GridDomain.ball(float(prov["radius"]), h,
                              center=origin + (np.array(shape) - 1) / 2 * h,
                              dim=n)
    else:
        hi = origin + (np.array(shape) - np.ones(n)) * h
        dom = GridDomain.box(origin, hi, h)
    mask = dom.interior | dom.boundary  # rows come in C order, as written
    if len(rows) != mask.sum():
        raise ValueError("grid file does not match the reconstructed domain")
    vals = np.zeros(dom.shape)
    vals[mask] = [float(row[n]) for row in rows]
    return GridField(dom, vals), prov


def write_grid_ppm(path, field_sol: GridField):
    """Grayscale heatmap of a 2-d grid (portable graymap, plain text)."""
    dom = field_sol.domain
    if dom.n != 2:
        raise ValueError("heatmaps are only emitted for 2-d grids")
    vals = field_sol.values.copy()
    mask = dom.interior | dom.boundary
    finite = vals[mask]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo if hi > lo else 1.0
    img = np.zeros(dom.shape, dtype=int)
    img[mask] = np.clip(((vals[mask] - lo) / span * 255), 0, 255).astype(int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"P2\n{dom.shape[1]} {dom.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")
