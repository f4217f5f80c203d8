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
A linear margin is a fixed affine map of the lattice values, so its rows
read their margins from one weight table built once per solve
(_linear_operator), a gather of stencil values and a weighted sum,
instead of from Hessian stacks; the iteration and its omega are the same.

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

Every lattice neighbourhood (the node pencil, the linear operator and
its column weights, the ghost refresh, central_differences, a ball's
boundary mask) indexes one offset table, _stencil_offsets.  Its
domain-only half, each interior row's lattice index at every offset and a
ball's ghost segments, is built once per domain on its geometry record
(_stencil_geometry); a solve adds only the floored crossing fractions and
the boundary data (_build_stencil).

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
carry O(h) boundary error on balls.  Ghost values are a function of the
interior values: a solve sets them before the sweeps and after the last
one, and inside the sweeps (after each red-black half-sweep and each
sweep) only when a node update reads a ghost from the array, which the
pencil does at corners, and a linear table only if it gives a ghost node
a nonzero weight (an off-diagonal W at a corner ghost; never a diagonal W).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cones import ConeHandle, _positive_int
from .symspace import SymSubspace, as_rng

THETA_FLOOR = 0.05
# an envelope LP returns only once a y <= phi holds to this times 1 + max|phi|
ENVELOPE_LP_RTOL = 1e-9


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_point(name: str, value) -> np.ndarray:
    """value as a finite point with 1..4 coordinates (the grid dimension)."""
    point = np.atleast_1d(np.asarray(value, dtype=float))
    if point.ndim != 1 or not 1 <= point.size <= 4:
        raise ValueError(f"{name} must be a point with 1..4 coordinates "
                         f"(the grid dimension), got shape {point.shape}")
    if not np.isfinite(point).all():
        raise ValueError(f"{name} must be finite, got {point.tolist()!r}")
    return point


def _lattice_axes(origin: np.ndarray, h: float, shape: tuple) -> list[np.ndarray]:
    return [origin[i] + h * np.arange(size) for i, size in enumerate(shape)]


def _lattice_coords(origin: np.ndarray, h: float, shape: tuple) -> np.ndarray:
    axes = _lattice_axes(origin, h, shape)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(frozen=True)
class _Geometry:
    """Lattice tables of one domain, every array read-only."""

    coords: np.ndarray                 # (*shape, n) node coordinates
    interior_flat: np.ndarray          # flat indices of the interior mask
    interior_pts: np.ndarray           # (M, n) their coordinates
    boundary_flat: np.ndarray          # flat indices of the boundary mask
    boundary_pts: np.ndarray
    boundary_positions: np.ndarray     # see GridDomain.boundary_positions
    # (nbs, g_rows, g_cols, g_cross), written once by _stencil_geometry
    stencil: tuple | None = None
    # (points, indices kept after deduplication) of the envelope's
    # boundary samples, written once by _envelope_constraint_points
    envelope: tuple | None = None


@dataclass(frozen=True)
class GridDomain:
    """Regular lattice over a box or ball with interior/boundary masks.

    The lattice tables (coordinates, mask indices and points, boundary
    positions, stencil neighbours and ghost segments, envelope samples)
    form one geometry record, built on first use and kept for the life of
    the domain; its arrays, coords() and boundary_positions() among them,
    are shared and read-only, so a caller that writes into one copies it
    first.  A ball's center is stored as origin + half h, the value a grid
    file's origin rebuilds; it differs from the given center only by the
    rounding of origin."""

    n: int
    shape: tuple
    h: float
    origin: np.ndarray
    kind: str                     # "box" or "ball"
    interior: np.ndarray          # bool, full lattice shape
    boundary: np.ndarray          # bool, full lattice shape
    radius: float | None = None
    center: np.ndarray | None = None
    _geometry: _Geometry | None = field(default=None, init=False,
                                        repr=False, compare=False)

    @staticmethod
    def box(lo, hi, h: float) -> "GridDomain":
        lo, hi = _check_point("lo", lo), _check_point("hi", hi)
        if hi.size != lo.size:
            raise ValueError(f"hi has {hi.size} coordinates, lo has {lo.size}")
        n = lo.size
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
    def ball(radius: float, h: float, center=None, dim: int | None = None) -> "GridDomain":
        if dim is not None and _positive_int("dim", dim) > 4:
            raise ValueError(f"dim must be 1..4 (the grid dimension), got {dim}")
        center = _check_point("center", np.zeros(dim or 2) if center is None else center)
        if dim not in (None, center.size):
            raise ValueError(f"dim is {dim}, but center has {center.size} coordinates")
        n = center.size
        _check_positive("radius", radius)
        _check_positive("h", h)
        half = int(np.ceil(radius / h)) + 2
        shape = tuple([2 * half + 1] * n)
        origin = center - half * h
        center = origin + half * h
        pts = _lattice_coords(origin, float(h), shape).reshape(-1, n)
        inside = ((pts - center) ** 2).sum(axis=1) < radius**2
        inside = inside.reshape(shape)
        return GridDomain(n, shape, float(h), origin, "ball", inside,
                          _dilate(inside, n) & ~inside,
                          radius=float(radius), center=center)

    @property
    def geometry(self) -> _Geometry:
        """The domain's geometry record (see the class docstring)."""
        if self._geometry is None:
            coords = _lattice_coords(self.origin, self.h, self.shape)
            flat = coords.reshape(-1, self.n)
            interior_flat = np.flatnonzero(self.interior)
            boundary_flat = np.flatnonzero(self.boundary)
            pts = flat[boundary_flat]
            positions = pts
            if self.kind == "ball":
                rel = pts - self.center
                norms = np.linalg.norm(rel, axis=1, keepdims=True)
                norms[norms == 0] = 1.0
                positions = self.center + rel / norms * self.radius
            geom = _Geometry(coords, interior_flat, flat[interior_flat],
                             boundary_flat, pts, positions)
            for arr in (coords, interior_flat, geom.interior_pts, boundary_flat,
                        pts, positions):
                arr.setflags(write=False)
            object.__setattr__(self, "_geometry", geom)
        return self._geometry

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*shape, n); shared and read-only."""
        return self.geometry.coords

    def boundary_positions(self) -> np.ndarray:
        """Representative positions of boundary nodes (sphere projections
        for balls, the nodes themselves for boxes); shared and read-only."""
        return self.geometry.boundary_positions


def _dilate(mask: np.ndarray, n: int) -> np.ndarray:
    """The mask and every node one stencil offset away from it, one shifted
    OR per row of _stencil_offsets past the center.  In 1-d and 2-d those
    are all 3^n - 1 lattice directions; from 3-d on a ball's boundary keeps
    only the nodes that some interior row's stencil reads."""
    def window(off):  # the nodes x with x - off on the lattice
        return tuple(slice(max(o, 0), size + min(o, 0)) for o, size in zip(off, mask.shape))

    out = mask.copy()
    for off in _stencil_offsets(n)[0][1:]:
        out[window(off)] |= mask[window(-off)]
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

@functools.cache
def _stencil_offsets(n: int) -> tuple[np.ndarray, tuple]:
    """The stencil's (K, n) lattice offsets, the column order of every
    stencil table: the center, +e_i, -e_i, then e_i + e_j, -e_i - e_j,
    e_i - e_j, e_j - e_i for the pairs i < j, each block in pair order;
    and the pairs as np.triu_indices(n, 1).  Cached and read-only."""
    unit = np.eye(n, dtype=np.int64)
    pairs = np.triu_indices(n, 1)
    ei, ej = unit[pairs[0]], unit[pairs[1]]
    offsets = np.vstack([np.zeros((1, n), dtype=np.int64), unit, -unit,
                         ei + ej, -ei - ej, ei - ej, ej - ei])
    for arr in (offsets, *pairs):
        arr.setflags(write=False)
    return offsets, pairs


def _stencil_hessians(v: np.ndarray, n: int, h2: float) -> np.ndarray:
    """Central second differences (R, n, n) from stencil values (R, K) in
    the column order of _stencil_offsets."""
    _, pairs = _stencil_offsets(n)
    c = v[:, 2 * n + 1:].reshape(v.shape[0], 4, pairs[0].size)
    out = np.zeros((v.shape[0], n, n))
    out.reshape(-1, n * n)[:, ::n + 1] = (
        v[:, 1:n + 1] + v[:, n + 1:2 * n + 1] - 2.0 * v[:, :1]) / h2
    out[:, pairs[0], pairs[1]] = out[:, pairs[1], pairs[0]] = (
        c[:, 0] + c[:, 1] - c[:, 2] - c[:, 3]) / (4.0 * h2)
    return out


def _sphere_crossing(dom: GridDomain, xs: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Unclipped fractions t where the segments x -> x + step, one per row
    of xs, leave the ball's sphere (the larger root)."""
    a = float(step @ step)
    rel = xs - dom.center
    b = 2.0 * (rel @ step)
    cc = np.einsum("mi,mi->m", rel, rel) - dom.radius * dom.radius
    disc = np.maximum(b * b - 4 * a * cc, 0.0)
    return (-b + np.sqrt(disc)) / (2 * a)


def _stencil_geometry(dom: GridDomain) -> tuple:
    """(nbs, g_rows, g_cols, g_cross), built once per domain: the (M, K)
    flat lattice index of every interior row at every stencil offset, and
    a ball's ghost segments, one per (row, offset column) whose node lies
    outside the interior, with the unclipped fraction where the segment
    from the row along the offset leaves the sphere.  The segments run
    column by column, each axis's two sides in turn and then each pair's
    four corners: the order in which the ghost refresh sums owners."""
    geom = dom.geometry
    if geom.stencil is None:
        n, shape = dom.n, dom.shape
        offsets, _ = _stencil_offsets(n)
        strides = np.array([int(np.prod(shape[i + 1:], dtype=np.int64)) for i in range(n)],
                           dtype=np.int64)
        nbs = geom.interior_flat[:, None] + offsets @ strides
        segments = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
        if dom.kind == "ball":
            outside = ~dom.interior.ravel()[nbs]
            sides = np.arange(1, 2 * n + 1).reshape(2, n).T
            corners = np.arange(2 * n + 1, len(offsets)).reshape(4, -1).T
            for col in np.concatenate([sides.ravel(), corners.ravel()]):
                rows = np.flatnonzero(outside[:, col])
                segments.append((rows, np.full(rows.size, col), _sphere_crossing(
                    dom, geom.interior_pts[rows], dom.h * offsets[col])))
        tables = (nbs, *(np.concatenate(part) for part in zip(*segments)))
        for arr in tables:
            arr.setflags(write=False)
        object.__setattr__(geom, "stencil", tables)
    return geom.stencil


@dataclass(frozen=True)
class _Stencil:
    dom: GridDomain
    flat_interior: np.ndarray          # (M,) flat indices, lex order
    nbs: np.ndarray                    # (M, K) flat index at each stencil offset
    # (M, 2n) per axis side s, offset column 1 + s: the neighbour is a
    # ghost, the crossing fraction in (0, 1], the boundary data there
    ghost: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    red_mask: np.ndarray               # (M,) parity coloring of interior nodes
    pencil_d: np.ndarray               # (M, n) center coefficient 1/theta+ + 1/theta-
    # per ghost segment: owner row, ghost flat index, floored fraction and
    # boundary data; the distinct ghosts, each segment's ghost among them
    # and each ghost's owner count
    g_rows: np.ndarray
    g_flat: np.ndarray
    g_theta: np.ndarray
    g_phi: np.ndarray
    g_unique: np.ndarray
    g_inverse: np.ndarray
    g_counts: np.ndarray


def _build_stencil(dom: GridDomain, phi) -> _Stencil:
    """The domain's stencil geometry with each crossing fraction floored at
    THETA_FLOOR and phi evaluated at the floored crossing points; corner
    ghosts are extrapolated like axis ghosts but lagged within a sweep, so
    the node update stays monotone in the center value."""
    n = dom.n
    nbs, g_rows, g_cols, g_cross = _stencil_geometry(dom)
    offsets, _ = _stencil_offsets(n)
    flat_interior = dom.geometry.interior_flat
    g_theta = np.clip(g_cross, THETA_FLOOR, 1.0)
    g_phi = np.zeros(0)
    if g_rows.size:
        g_phi = np.asarray(phi(dom.geometry.interior_pts[g_rows]
                               + (g_theta * dom.h)[:, None] * offsets[g_cols]), dtype=float)
    ghost = np.zeros((flat_interior.size, 2 * n), dtype=bool)
    theta = np.ones(ghost.shape)
    phi_side = np.zeros(ghost.shape)
    axis = g_cols <= 2 * n
    at = (g_rows[axis], g_cols[axis] - 1)
    ghost[at], theta[at], phi_side[at] = True, g_theta[axis], g_phi[axis]
    g_flat = nbs[g_rows, g_cols]
    return _Stencil(dom, flat_interior, nbs, ghost, theta, phi_side,
                    np.argwhere(dom.interior).sum(axis=1) % 2 == 0,
                    1.0 / theta[:, :n] + 1.0 / theta[:, n:],
                    g_rows, g_flat, g_theta, g_phi,
                    *np.unique(g_flat, return_inverse=True, return_counts=True))


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


def _row_groups(stencil: _Stencil, ordering: str) -> list[np.ndarray]:
    """The row sets one sweep updates in turn: the lex fronts, or the red
    and the black parity class."""
    if ordering == "lex":
        return _lex_fronts(stencil)
    return [np.flatnonzero(stencil.red_mask), np.flatnonzero(~stencil.red_mask)]


def _pencil_table(stencil: _Stencil, rows: np.ndarray) -> tuple:
    """_node_pencil's table of some rows: stencil indices, axis ghosts and d."""
    r, c = stencil.ghost[rows].nonzero()
    return (stencil.nbs[rows], r, c + 1, stencil.phi[rows[r], c],
            stencil.theta[rows[r], c], stencil.pencil_d[rows])


def _node_pencil(stencil: _Stencil, flat_vals: np.ndarray,
                 table: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Hessians H at the rows of a _pencil_table and the pencil
    diagonal d: moving a row's center value by s gives exactly
    H - s diag(d) / h^2.

    Each axis ghost enters as the row's own extrapolation
    t + (phi - t) / theta through the sphere crossing, which makes
    d_i = 1/theta+_i + 1/theta-_i (2 on a box); nothing is written to the
    array.  Corners read the array, lagged within a sweep."""
    nbs, r, c, phi, theta, d = table
    v = flat_vals[nbs]
    if r.size:
        t = v[r, 0]
        v[r, c] = t + (phi - t) / theta
    return _stencil_hessians(v, stencil.dom.n, stencil.dom.h * stencil.dom.h), d


def _linear_operator(stencil: _Stencil, weight: np.ndarray):
    """Table (idx, coef, c) with sum_k coef[:, k] flat[idx[:, k]] + c = <H, W>
    at every interior row, H as _node_pencil builds it, over the stencil
    columns of nonzero weight in increasing lattice offset (the sum order).
    Column k weighs <_stencil_hessians(e_k), W>, e_k the k-th unit row of
    stencil values.  Each axis ghost enters as the row's own extrapolation
    t + (phi - t) / theta: its weight w moves to the center as
    w (1 - 1/theta) and to the constant as w phi / theta, +e_i then -e_i
    for each axis; every other node is read from the array."""
    n, (rows, k) = stencil.dom.n, stencil.nbs.shape
    offsets, _ = _stencil_offsets(n)
    unit = _stencil_hessians(np.eye(k), n, stencil.dom.h * stencil.dom.h)
    coef = np.tile(unit.reshape(k, -1) @ weight.ravel(), (rows, 1))
    const = np.zeros(rows)
    for i in range(n):
        for s in (i, n + i):
            g = stencil.ghost[:, s]
            w = coef[g, 1 + s]
            coef[g, 0] += w * (1.0 - 1.0 / stencil.theta[g, s])
            const[g] += w * stencil.phi[g, s] / stencil.theta[g, s]
            coef[g, 1 + s] = 0.0
    cols = np.argsort(offsets @ np.cumprod((1, *stencil.dom.shape[:0:-1]))[::-1])
    cols = cols[coef[:, cols].any(axis=0)]
    return stencil.nbs[:, cols], coef[:, cols], const


def central_differences(u: GridField, index) -> tuple[np.ndarray, np.ndarray]:
    """Central first and second differences (gradient, Hessian) at one
    interior node, n lattice integers; both exact on quadratics.  The
    stencil values, ghosts included, are read from the array in one gather."""
    dom = u.domain
    arr = np.atleast_1d(index)
    if not (arr.shape == (dom.n,) and np.issubdtype(arr.dtype, np.integer)
            and ((arr >= 0) & (arr < dom.shape)).all()):
        raise ValueError(f"node {tuple(arr.tolist())} is not {dom.n} integers inside the lattice")
    idx = tuple(arr.tolist())
    if not dom.interior[idx]:
        raise ValueError(f"node {idx} is not interior")
    n = dom.n
    offsets, _ = _stencil_offsets(n)
    v = u.values[tuple((np.array(idx) + offsets).T)]
    grad = (v[1:n + 1] - v[n + 1:2 * n + 1]) / (2 * dom.h)
    return grad, _stencil_hessians(v[None, :], n, dom.h * dom.h)[0]


def discrete_hessian(u: GridField, index) -> np.ndarray:
    """Central second differences at one interior node; exact on quadratics."""
    return central_differences(u, index)[1]


def _refresh_ghosts(stencil: _Stencil, flat_vals: np.ndarray):
    """Set every ghost, axis and corner, from its owners (mean over owner
    constraints); node updates read the corner ghosts, lagged."""
    if stencil.g_flat.size == 0:
        return
    t = flat_vals[stencil.flat_interior[stencil.g_rows]]
    sums = np.bincount(stencil.g_inverse, weights=t + (stencil.g_phi - t) / stencil.g_theta,
                       minlength=stencil.g_unique.size)
    flat_vals[stencil.g_unique] = sums / stencil.g_counts


def _reads_ghosts(stencil: _Stencil, op) -> bool:
    """Does a node update read a ghost value from the array?  The pencil
    (op None) reads the corners (its axis ghosts are the row's own
    extrapolation); a linear operator table op reads its entries of nonzero
    weight, which hold no axis ghost and, for a diagonal W, no corner."""
    if stencil.g_unique.size == 0:
        return False
    read = op[0][op[1] != 0.0] if op is not None else stencil.nbs[:, 2 * stencil.dom.n + 1:]
    return bool(np.isin(stencil.g_unique, read).any())


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
    identity-shift bracket; each row group's pencil table and bracket are
    built once per solve.  A linear margin <A, W> reads its row margins
    from one weight table precomputed from the stencil, with the same
    iteration and omega.  For a margin <A, W> with diagonal W the sweeps
    are over-relaxed with Young's optimal factor
    omega = 2 / (1 + sqrt(1 - rho^2)), where rho is the closed-form Jacobi
    radius of the grid (exact on boxes, an upper bound on balls); every
    other margin runs plain Gauss-Seidel (omega = 1).

    use_bisection=True is the Gauss-Seidel reference: omega = 1, and every
    node, linear margins included, bisects on its Hessian stack, also where
    the closed form is exact, inside the bracket widened on each side by
    max(width, h^2); a bracket whose ends do not carry opposite margin
    signs raises RuntimeError.  max_sweeps and history_every must be
    positive integers.

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
    max_sweeps = _positive_int("max_sweeps", max_sweeps)
    history_every = _positive_int("history_every", history_every)
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
    linear = lin_w is not None and not use_bisection
    slope = cone.id_shift_slope
    # the solver's Hessian stacks are symmetric and finite by construction,
    # so they go to the margin kernel without margin_batch's input check
    margins = lambda stack: cone._margins_and_witnesses(stack)[0]
    eye = np.eye(dom.n)
    tol_s = 0.1 * tol * h2        # bisection resolution of the center shift
    history = []
    converged = False
    sweeps, worst, residual = 0, 0.0, 0.0

    omega = 1.0
    if linear and np.count_nonzero(lin_w - np.diag(np.diag(lin_w))) == 0:
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

    def pencil_shift(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Group k's margins and root shifts s of margin(H - s diag(d) / h^2)."""
        table, group_lo, group_hi, closed = tables[k]
        a0, d = _node_pencil(stencil, flat, table)
        m0 = margins(a0)
        if closed:
            return m0, h2 * m0 / group_lo

        def shifted(k, s):
            return a0[k] - (s / h2)[:, None, None] * (d[k][:, :, None] * eye)

        lo, hi = h2 * m0 / group_lo, h2 * m0 / group_hi
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if use_bisection:
            pad = np.maximum(hi - lo, h2)
            lo, hi = lo - pad, hi + pad
            every = np.arange(m0.size)
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
        return m0, 0.5 * (lo + hi)

    groups = _row_groups(stencil, ordering)
    centers = [stencil.flat_interior[rows] for rows in groups]
    op = None
    if linear:
        # a linear margin is a fixed map of the lattice values: each group
        # sums one gather through its (K, rows) table in column order, and
        # the shift is exact.  einsum drops a length-1 row axis and then sums
        # out of order, so a one-row group carries its row twice
        op = idx, coef, const = _linear_operator(stencil, lin_w)
        blocks = [(idx[p].T.copy(), coef[p].T.copy(), const[rows], den_lo[rows])
                  for rows in groups for p in [rows.repeat(2) if rows.size == 1 else rows]]
    else:  # pencil tables and bracket ends; a closed bracket (box rows) is the root
        tables = [(_pencil_table(stencil, rows), den_lo[rows], den_hi[rows], not use_bisection
                   and np.array_equal(den_lo[rows], den_hi[rows])) for rows in groups]
    # ghosts are a function of the interior values: refresh them within
    # the sweeps only where an update reads one, and once after the sweeps
    refresh_in_sweeps = _reads_ghosts(stencil, op)

    ends = np.cumsum([0] + [rows.size for rows in groups])  # a sweep's moves and margins
    moves, met = np.zeros(ends[-1]), np.zeros(ends[-1])

    def update_rows(k: int) -> None:
        """Move group k's rows by omega times their root shifts; record moves and margins."""
        rows = groups[k]
        if rows.size == 0:
            return
        if linear:
            idx_t, coef_t, c, den = blocks[k]
            m0 = np.einsum("kr,kr->r", coef_t, flat.take(idx_t))[:rows.size] + c
            shift = h2 * m0 / den
        else:
            m0, shift = pencil_shift(k)
        f_idx = centers[k]
        t = flat[f_idx]
        t_new = t + omega * shift
        flat[f_idx] = t_new
        moves[ends[k]:ends[k + 1]], met[ends[k]:ends[k + 1]] = t_new - t, m0

    for sweeps in range(1, max_sweeps + 1):
        for k in range(len(groups)):
            if k and ordering == "redblack" and refresh_in_sweeps:
                _refresh_ghosts(stencil, flat)
            update_rows(k)
        worst, residual = np.abs(moves).max(initial=0.0), np.abs(met).max(initial=0.0)
        if refresh_in_sweeps:
            _refresh_ghosts(stencil, flat)
        if sweeps % history_every == 0:
            history.append((sweeps, float(worst)))
        if worst < tol:
            converged = True
            break
    _refresh_ghosts(stencil, flat)

    field_vals = flat.reshape(dom.shape)
    return (GridField(dom, field_vals),
            SolveInfo(converged, sweeps, float(worst),
                      history, ordering, float(omega), float(residual)))


# ----------------------------------------------------------------------
# edge-quadratic envelope by linear programming
# ----------------------------------------------------------------------

class EnvelopeOrderingError(RuntimeError):
    """The envelope exceeded the sweep solution beyond tolerance."""


def _envelope_constraint_points(dom: GridDomain, phi) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated boundary samples and phi there: the boundary positions
    and, on a ball, the sphere crossings of the axis ghost segments (the
    solver floors the same fractions at THETA_FLOOR and also imposes data
    where corner segments cross).  The geometry depends on the domain
    alone, so it is built once and kept on the domain; phi is evaluated on
    every call, at all points before deduplication."""
    geom = dom.geometry
    if geom.envelope is None:
        _, g_rows, g_cols, g_cross = _stencil_geometry(dom)
        offsets, _ = _stencil_offsets(dom.n)
        axis = g_cols <= 2 * dom.n
        t = np.clip(g_cross[axis], 0.0, 1.0)
        pts = np.vstack([geom.boundary_positions, geom.interior_pts[g_rows[axis]]
                         + (t * dom.h)[:, None] * offsets[g_cols[axis]]])
        # deduplicate (ball projections can collide)
        key = np.round(pts / (dom.h * 1e-6))
        _, keep = np.unique(key, axis=0, return_index=True)
        keep.sort()
        pts.setflags(write=False)
        keep.setflags(write=False)
        object.__setattr__(geom, "envelope", (pts, keep))
    pts, keep = geom.envelope
    return pts[keep], np.asarray(phi(pts), dtype=float)[keep]


def _envelope_lp(a, phi, t, m_bound):
    """max t.y over a y <= phi, |y|_inf <= m_bound, by the revised simplex
    on its dual min phi.lam + m_bound sum(mu+ + mu-) over lam, mu >= 0 with
    a^T lam + mu+ - mu- = t.  The basis multipliers are y.  Dantzig's rule
    picks the entering column; after d zero-ratio steps in a row Bland's
    smallest-index rule takes over until a step moves, so pivots cannot cycle.
    Returns (t.y, y, c_B.lam_B, pivots) once y is feasible and lam >= 0."""
    m, d = a.shape
    cols = np.vstack([a, np.eye(d), -np.eye(d)])
    cost = np.concatenate([phi, np.full(2 * d, m_bound)])
    basis = m + np.arange(d) + d * (t < 0)        # sign(t_i) e_i, lam_B = |t|
    tol = ENVELOPE_LP_RTOL * (1.0 + np.abs(phi).max())
    eps = 1e-3 * tol + 1e-14 * m_bound
    stalled = 0
    for pivots in range(50 * d + m):
        inv = np.linalg.inv(cols[basis].T)
        lam, y = inv @ t, cost[basis] @ inv
        red = cost - cols @ y
        red[basis] = 0.0                          # zero but for rounding
        bland = stalled >= d
        j = int(np.argmax(red < -eps)) if bland else int(red.argmin())
        if red[j] >= -eps:
            break
        # ratio test on d <= 14 entries: plain floats beat array calls here
        w, mass = (inv @ cols[j]).tolist(), lam.tolist()
        floor = 1e-9 * max(map(abs, w))
        ratio = {i: max(mass[i], 0.0) / w[i] for i in range(d) if w[i] > floor}
        if not ratio:
            raise RuntimeError("envelope LP failed: the dual is unbounded, "
                               "no y meets the constraints")
        theta = min(ratio.values())
        ties = [i for i, r in ratio.items() if r <= theta + 1e-15]
        leave = min(ties, key=basis.__getitem__) if bland else max(ties, key=w.__getitem__)
        basis[leave] = j
        stalled = stalled + 1 if theta <= 1e-15 else 0
    else:
        raise RuntimeError(f"envelope LP failed: no optimum in {pivots + 1} pivots")
    value, dual = float(t @ y), float(cost[basis] @ lam)
    bad = [name for name, ok in (
        ("a y <= phi", (a @ y - phi).max() <= tol),
        ("|y| <= M", np.abs(y).max() <= m_bound + tol),
        ("lam >= 0", lam.min() >= -tol),
        ("t.y = c_B.lam_B", abs(value - dual) <= tol * (1.0 + abs(value))))
        if not ok]
    if bad:
        raise RuntimeError(f"envelope LP failed: certificate breaks {', '.join(bad)}")
    return value, y, dual, pivots


def edge_envelope(edge: SymSubspace, dom: GridDomain, phi, x, *,
                  boundary_samples=None, m_bound: float | None = None,
                  check_stability: bool = True) -> tuple[float, dict]:
    """Largest value at x of a quadratic with curvature in the edge that
    stays below phi on the boundary samples.

    The decision variables y are the constant, the gradient and the
    coordinates of the curvature in the edge basis, so each sample p gives
    the linear constraint a_p.y <= phi(p), a_p = (1, p, q_E(p)), and the
    objective is t.y, t = (1, x, q_E(x)).  The box bound |y|_inf <= M is a
    compactness proxy; the result must be insensitive to doubling it, else
    it is flagged.  The LP runs as a dense revised simplex on its dual:
    a measure lam >= 0 on the samples whose mass, barycenter and edge
    moments match those of the point mass at x up to slacks mu+, mu- >= 0,
    sum_p lam_p a_p + mu+ - mu- = t, at cost phi.lam + M sum(mu+ + mu-).
    The slack columns sign(t_i) e_i are a feasible start (big M, no
    phase 1).  On exit y is feasible and lam >= 0, so t.y and the dual
    cost bracket the optimum; a failed check raises RuntimeError.

    info holds m_bound, stable, constraints (samples), pivots (over every
    solve of the call), dual_bound (the dual cost at M) and coefficients
    (the maximizing y: constant, gradient, edge coordinates).
    """
    n = dom.n
    if edge.ambient_n != n:
        raise ValueError(f"edge ambient {edge.ambient_n} != grid dimension {n}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ValueError(f"x must be a finite point of shape ({n},), got {x!r}")
    if m_bound is not None:
        _check_positive("m_bound", m_bound)
    if boundary_samples is None:
        pts, vals = _envelope_constraint_points(dom, phi)
    else:
        pts = np.asarray(boundary_samples, dtype=float)
        if not (pts.ndim == 2 and pts.shape[0] >= 1 and pts.shape[1] == n
                and np.isfinite(pts).all()):
            raise ValueError(f"boundary_samples must be a finite (p, {n}) array "
                             f"with p >= 1, got shape {pts.shape}")
        vals = np.asarray(phi(pts), dtype=float)
        if vals.shape != pts.shape[:1]:
            raise ValueError(f"phi must give one value per boundary sample, "
                             f"got shape {vals.shape} for {pts.shape[0]} samples")
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise ValueError(f"phi gives {bad} non-finite boundary values")
    if m_bound is None:
        m_bound = 1e3 * (1.0 + float(np.abs(vals).max()))

    half_basis = 0.5 * edge.basis.reshape(edge.dim, n * n).T

    def quad_cols(points):
        return (points[:, :, None] * points[:, None, :]).reshape(-1, n * n) @ half_basis

    a = np.hstack([np.ones((pts.shape[0], 1)), pts, quad_cols(pts)])
    t = np.concatenate([[1.0], x, quad_cols(x[None, :])[0]])
    val, y, dual, pivots = _envelope_lp(a, vals, t, m_bound)
    info = {"m_bound": m_bound, "stable": True, "constraints": int(pts.shape[0]),
            "pivots": pivots, "dual_bound": dual, "coefficients": y}
    if check_stability:
        val2, _, _, more = _envelope_lp(a, vals, t, 2.0 * m_bound)
        info["pivots"] += more
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
    sample_nodes = _positive_int("sample_nodes", sample_nodes)
    solver_kwargs = dict(solver_kwargs or {})
    field_sol, info = perron_solve(cone, dom, phi, **solver_kwargs)
    rng = as_rng(seed)
    interior_idx = np.argwhere(dom.interior)
    count = min(sample_nodes, interior_idx.shape[0])
    pick = rng.choice(interior_idx.shape[0], size=count, replace=False)
    edge = cone.edge_of()
    pts, vals = _envelope_constraint_points(dom, phi)

    records = []
    pivots = 0
    worst_violation = -np.inf
    max_gap = -np.inf
    tol = 1e-7 * (1.0 + float(np.abs(vals).max()))
    for row in pick:
        idx = tuple(interior_idx[row])
        x = dom.origin + np.array(idx) * dom.h
        env, env_info = edge_envelope(edge, dom, phi, x,
                                      boundary_samples=pts,
                                      check_stability=False)
        pivots += env_info["pivots"]
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
        "envelope_pivots": pivots,
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
    read_grid_csv needs), then one row per interior or boundary node, in
    C order; numbers are Python float reprs, each axis's coordinates once."""
    dom = field_sol.domain
    nodes = np.flatnonzero(dom.interior | dom.boundary)
    vals = np.asarray(field_sol.values, dtype=float).ravel()[nodes]
    masks = np.where(dom.interior.ravel()[nodes], "interior", "boundary")
    axes = _lattice_axes(dom.origin, dom.h, dom.shape)
    columns = [np.array(list(map(repr, axis.tolist())), dtype=object)[index].tolist()
               for axis, index in zip(axes, np.unravel_index(nodes, dom.shape))]
    columns += [map(repr, vals.tolist()), masks.tolist()]
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
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def read_grid_csv(path):
    """Rebuild a grid field from a write_grid_csv file; returns the field
    and the header (its leading `# key = value` lines) as a dict of strings.

    The coordinate and value columns are parsed in one pass; a file whose
    rows or coordinates (beyond 1e-9 h) disagree with the lattice rebuilt
    from the header raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    prov = {}
    head = 0  # the header lines, then the column header, then the rows
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, val = line[1:].partition("=")
        prov[key.strip()] = val.strip()
        head += 1
    rows = lines[head + 1:]
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
    table = np.loadtxt(rows, delimiter=",", usecols=range(n + 1), ndmin=2)
    if not np.all(np.abs(table[:, :n] - dom.coords()[mask]) <= 1e-9 * h):
        raise ValueError("grid file coordinates do not match the reconstructed lattice")
    vals = np.zeros(dom.shape)
    vals[mask] = table[:, n]
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
