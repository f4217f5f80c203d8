"""Complex and quaternionic structures on R^N as real matrices.

Conventions (fixed once, used everywhere):
  * complex coordinate l occupies slots 2l, 2l+1 as (x, y);
  * quaternion coordinate l occupies slots 4l..4l+3 as (a, b, c, d);
  * I, J, K are the right scalar multiplications, so applying I then J
    equals applying K (as matrices, J @ I == K under column action).

The module provides the invariant decompositions of Sym2(R^N) under the
four compact groups handled here, their closed-form projectors, samplers
for the associated plane families and group elements, the canonical form
of matrices commuting with I and anti-commuting with J, K, and the
determinant-type operator values built from grouped eigenvalues.

A structure label, "c" (complex) or "i", "j", "k" (quaternionic), names a
matrix `structure(n, label)`.  Each plane family is one `_PLANE_FAMILIES`
row, which its validation, dimension, sampler and relations all read.

Every sampler rests on one structured frame builder, `orthonormal_rows`:
vectors u_l with {u_l} + {M u_l} orthonormal over the structures M.
`plane_sampler` and `group_sampler` build their structures once and are
cached per (frozen) family or group, so `sample_plane` and
`sample_group_element` reuse them; `quaternion_triple` is cached per
dimension and its matrices are read-only.  `sample_planes` draws many
frames of one family from one Gaussian block (`plane_block_sampler`,
`_block_rows`), bit for bit the frames of as many `sample_plane` draws on
one generator.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .symspace import (
    SymSubspace,
    as_rng,
    eigh,
    frob_norm,
    orthonormalize,
    standard_basis,
)

GROUP_KINDS = ("on", "un", "spn", "spn_sp1", "spn_s1")

STRUCT_TOL = 1e-12
FRAME_TOL = 1e-10
GS_TOL = 1e-8     # Gram-Schmidt residual below which a frame candidate is degenerate
CANON_TOL = 1e-8


@dataclass(frozen=True)
class Group:
    """Compact invariance group acting on R^dim."""

    kind: str  # one of GROUP_KINDS
    dim: int   # ambient real dimension N

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if not isinstance(self.dim, numbers.Integral):
            raise ValueError(f"ambient dimension must be an integer, got {self.dim!r}")
        if self.kind == "un" and self.dim % 2:
            raise ValueError("un needs even ambient dimension")
        if self.kind in ("spn", "spn_sp1", "spn_s1") and self.dim % 4:
            raise ValueError(f"{self.kind} needs ambient dimension divisible by 4")
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")


@dataclass(frozen=True)
class QuaternionTriple:
    """Right multiplications by i, j, k on H^n = R^{4n} as real matrices."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray

    @property
    def dim(self) -> int:
        return self.i.shape[0]

    def validate(self) -> None:
        n = self.dim
        eye = np.eye(n)
        for m in (self.i, self.j, self.k):
            if np.abs(m + m.T).max() > STRUCT_TOL:
                raise ValueError("structure matrix is not skew")
            if np.abs(m @ m + eye).max() > STRUCT_TOL:
                raise ValueError("structure matrix does not square to -Id")
        if np.abs(self.j @ self.i - self.k).max() > STRUCT_TOL:
            raise ValueError("composition convention violated (J I != K)")


@functools.lru_cache(maxsize=64)
def complex_structure(n_real: int) -> np.ndarray:
    """Standard complex structure pairing slots (2l, 2l+1) as (x, y), built
    once per dimension; read-only because every caller shares it."""
    if n_real % 2:
        raise ValueError("complex structure needs even dimension")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = np.zeros((n_real, n_real))
    for l in range(n_real // 2):
        out[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] = block
    out.flags.writeable = False
    return out


# Per-coordinate 4x4 blocks of right multiplication by i, j, k under
# q = a + bi + cj + dk -> (a, b, c, d); columns are images of e1..e4.
_BLOCK_I = np.array(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
)
_BLOCK_J = np.array(
    [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float
)
_BLOCK_K = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
)
_IJK = ("i", "j", "k")  # quaternionic structure labels


@functools.lru_cache(maxsize=64)
def quaternion_triple(n: int) -> QuaternionTriple:
    """Blockwise I, J, K on H^n, built and validated once per n; the
    matrices are read-only because every caller shares them."""
    if n < 1:
        raise ValueError("need at least one quaternionic coordinate")
    eye = np.eye(n)
    mats = [np.kron(eye, b) for b in (_BLOCK_I, _BLOCK_J, _BLOCK_K)]
    for m in mats:
        m.flags.writeable = False
    trip = QuaternionTriple(*mats)
    trip.validate()
    return trip


def structure(n: int, label: str) -> np.ndarray:
    """The structure matrix on R^n named by `label`: "c" is the standard
    complex structure, "i", "j", "k" the quaternionic right
    multiplications."""
    if label == "c":
        return complex_structure(n)
    if label not in _IJK:
        raise ValueError(f"unknown structure label {label!r}")
    return getattr(quaternion_triple(n // 4), label)


def right_scalar(trip: QuaternionTriple, q) -> np.ndarray:
    """Right multiplication by the quaternion q = (a, b, c, d)."""
    a, b, c, d = np.asarray(q, dtype=float)
    return a * np.eye(trip.dim) + b * trip.i + c * trip.j + d * trip.k


# ----------------------------------------------------------------------
# closed-form projections
# ----------------------------------------------------------------------

def complex_sym_part(a: np.ndarray, i_mat: np.ndarray) -> np.ndarray:
    """Component commuting with the complex structure: (A - IAI)/2."""
    return 0.5 * (a - i_mat @ a @ i_mat)


def complex_skew_part(a: np.ndarray, i_mat: np.ndarray) -> np.ndarray:
    """Component anti-commuting with the complex structure: (A + IAI)/2."""
    return 0.5 * (a + i_mat @ a @ i_mat)


def quat_sym_part(a: np.ndarray, trip: QuaternionTriple) -> np.ndarray:
    """(A - IAI - JAJ - KAK)/4: commutes with I, J and K."""
    i, j, k = trip.i, trip.j, trip.k
    return 0.25 * (a - i @ a @ i - j @ a @ j - k @ a @ k)


def quat_skew_part(a: np.ndarray, trip: QuaternionTriple) -> np.ndarray:
    """(3A + IAI + JAJ + KAK)/4: complement of the commuting component."""
    i, j, k = trip.i, trip.j, trip.k
    return 0.25 * (3 * a + i @ a @ i + j @ a @ j + k @ a @ k)


def e_structure_part(a: np.ndarray, trip: QuaternionTriple, which: str) -> np.ndarray:
    """Character projector onto the I-, J- or K-aligned skew component.

    These commute with the named structure and anti-commute with the other
    two; the three projectors are idempotent, mutually annihilating and sum
    to quat_skew_part.
    """
    i, j, k = trip.i, trip.j, trip.k
    if which == "i":
        return 0.25 * (a - i @ a @ i + j @ a @ j + k @ a @ k)
    if which == "j":
        return 0.25 * (a + i @ a @ i - j @ a @ j + k @ a @ k)
    if which == "k":
        return 0.25 * (a + i @ a @ i + j @ a @ j - k @ a @ k)
    raise ValueError(f"unknown structure label {which!r}")


def verify_e_structure_projectors(n: int, trials: int = 20, seed: int = 0) -> float:
    """Sanity gate for the derived projectors; returns the worst residual.

    Checks idempotence, mutual annihilation and that the three maps sum to
    quat_skew_part on random symmetric matrices.
    """
    trip = quaternion_triple(n)
    rng = as_rng(seed)
    worst = 0.0
    labels = ("i", "j", "k")
    for _ in range(trials):
        g = rng.normal(size=(4 * n, 4 * n))
        a = 0.5 * (g + g.T)
        parts = {w: e_structure_part(a, trip, w) for w in labels}
        s = sum(parts.values())
        worst = max(worst, np.abs(s - quat_skew_part(a, trip)).max())
        for w in labels:
            worst = max(worst, np.abs(e_structure_part(parts[w], trip, w) - parts[w]).max())
            for w2 in labels:
                if w2 != w:
                    worst = max(worst, np.abs(e_structure_part(parts[w], trip, w2)).max())
    return float(worst)


# ----------------------------------------------------------------------
# invariant decompositions
# ----------------------------------------------------------------------

def _traceless(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return a - (np.trace(a) / n) * np.eye(n)


def _component_map(group: Group):
    """name -> linear map Sym2 -> Sym2 realizing each irreducible projector."""
    n = group.dim
    eye = np.eye(n)

    def id_part(a):
        return (np.trace(a) / n) * eye

    if group.kind == "on":
        return {"id": id_part, "sym0": _traceless}
    if group.kind == "un":
        i_mat = complex_structure(n)
        return {
            "id": id_part,
            "c_sym0": lambda a: _traceless(complex_sym_part(a, i_mat)),
            "c_skew": lambda a: complex_skew_part(a, i_mat),
        }
    trip = quaternion_triple(n // 4)
    base = {
        "id": id_part,
        "h_sym0": lambda a: _traceless(quat_sym_part(a, trip)),
    }
    if group.kind == "spn_sp1":
        base["h_skew3"] = lambda a: quat_skew_part(a, trip)
    else:  # spn / spn_s1 share the finest (plain quaternionic) splitting
        base["e_i"] = lambda a: e_structure_part(a, trip, "i")
        base["e_j"] = lambda a: e_structure_part(a, trip, "j")
        base["e_k"] = lambda a: e_structure_part(a, trip, "k")
    return base


def component_names(group: Group) -> list[str]:
    return list(_component_map(group).keys())


def group_project(group: Group, component: str, a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto one named invariant component."""
    cmap = _component_map(group)
    if component not in cmap:
        raise KeyError(f"unknown component {component!r} for group {group.kind}")
    if a.shape[0] != group.dim:
        raise ValueError(f"matrix is {a.shape[0]}x, group ambient {group.dim}")
    return cmap[component](a)


def irreducible_components(group: Group) -> dict[str, SymSubspace]:
    """Orthonormal bases of the invariant components, keyed by name.

    Bases are produced by pushing the standard basis of Sym2 through each
    projector and orthonormalizing, so they are deterministic.
    """
    n = group.dim
    cmap = _component_map(group)
    out = {}
    for name, proj in cmap.items():
        gens = [proj(b) for b in standard_basis(n)]
        out[name] = orthonormalize(gens, ambient_n=n)
    total = sum(s.dim for s in out.values())
    if total != n * (n + 1) // 2:
        raise ValueError(f"component dimensions sum to {total}, expected {n*(n+1)//2}")
    return out


def reduced_projected_pe(n: int, e) -> np.ndarray:
    """Projection of the rank-one projector P_e onto R.Id + the three
    structure-aligned skew components of Sym2(H^n).

    Closed form: Id/(4n) + (3 P_e - P_{Ie} - P_{Je} - P_{Ke})/4.
    """
    e = np.asarray(e, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > FRAME_TOL:
        raise ValueError("e must be a unit vector")
    trip = quaternion_triple(n)
    pe = np.outer(e, e)
    p = [np.outer(m @ e, m @ e) for m in (trip.i, trip.j, trip.k)]
    return np.eye(4 * n) / (4 * n) + 0.25 * (3 * pe - p[0] - p[1] - p[2])


# ----------------------------------------------------------------------
# plane families
# ----------------------------------------------------------------------

# tag -> (seed structures, row structures, seed count at ambient n and grass
# dimension p).  Seeds are orthonormal against each other's images under the
# seed structures; a frame's rows are each seed and its images under the row
# structures.
_PLANE_FAMILIES = {
    "grass": ((), (), lambda n, p: p),
    "cp": (("c",), ("c",), lambda n, p: 1),
    "lag": (("c",), (), lambda n, p: n // 2),
    "hp": (_IJK, _IJK, lambda n, p: 1),
    "hlag": (_IJK, (), lambda n, p: n // 4),
    "gl_ijk": (_IJK, ("i",), lambda n, p: n // 4),
    "ilag": (("i",), (), lambda n, p: n // 2),
    "jlag": (("j",), (), lambda n, p: n // 2),
    "klag": (("k",), (), lambda n, p: n // 2),
    "cp_j": (("j",), ("j",), lambda n, p: 1),
    "cp_k": (("k",), ("k",), lambda n, p: 1),
}
PLANE_TAGS = tuple(_PLANE_FAMILIES)


@dataclass(frozen=True)
class PlaneFamily:
    """A family of planes in R^ambient closed under the relevant group."""

    tag: str
    ambient: int
    p: int | None = None  # plane dimension, grass only

    def __post_init__(self):
        if self.tag not in PLANE_TAGS:
            raise ValueError(f"unknown plane family {self.tag!r}")
        if not isinstance(self.ambient, numbers.Integral) or self.ambient < 1:
            raise ValueError(f"ambient dimension must be a positive integer, "
                             f"got {self.ambient!r}")
        if self.p is not None and not isinstance(self.p, numbers.Integral):
            raise ValueError(f"plane dimension must be an integer, got {self.p!r}")
        if self.tag == "grass":
            if not self.p or not 1 <= self.p <= self.ambient:
                raise ValueError("grass needs a plane dimension 1..ambient")
        seeds, _, _ = _PLANE_FAMILIES[self.tag]
        modulus = max((4 if s in _IJK else 2 for s in seeds), default=1)
        if self.ambient % modulus:
            raise ValueError(f"{self.tag} needs ambient dimension divisible by {modulus}")

    @property
    def plane_dim(self) -> int:
        _, rows, count = _PLANE_FAMILIES[self.tag]
        return count(self.ambient, self.p) * (1 + len(rows))


def _orthonormal_against(v: np.ndarray, rows: list[np.ndarray], tol: float):
    """Project v off the span of rows and normalize; None if degenerate."""
    w = v.copy()
    for _ in range(2):
        for r in rows:
            w -= (w @ r) * r
    nw = np.linalg.norm(w)
    if nw < tol:
        return None
    return w / nw


def orthonormal_rows(candidates, count: int, mats=()) -> np.ndarray:
    """The first `count` candidates that survive Gram-Schmidt against the
    earlier survivors and their images under `mats`, normalized; degenerate
    candidates (residual norm below GS_TOL) are skipped and running out
    raises ValueError.  Nothing past the last survivor is read, so random
    draws are taken only as needed."""
    rows: list[np.ndarray] = []
    out = []
    for v in candidates:
        u = _orthonormal_against(np.asarray(v, dtype=float), rows, GS_TOL)
        if u is None:
            continue
        out.append(u)
        if len(out) == count:
            return np.array(out)
        rows.append(u)
        rows.extend(m @ u for m in mats)
    raise ValueError(f"degenerate candidates: {len(out)} of {count} "
                     "structured frame vectors found")


def _block_rows(z: np.ndarray, mats) -> tuple[np.ndarray, int]:
    """`orthonormal_rows` on every frame of a (k, count, n) candidate block
    at once, with no candidate skipped: one vectorized Gram-Schmidt step per
    slot, in the sequential order and arithmetic (`np.vecdot` is the BLAS
    dot of `w @ r`; signed-permutation structure images are exact), so a
    frame equals its sequential draw bit for bit.  Returns the rows and the
    index of the first frame with a degenerate candidate (k when there is
    none); rows from that frame on are not valid."""
    out = np.empty_like(z)
    bad = z.shape[0]
    rows: list[np.ndarray] = []
    for j in range(z.shape[1]):
        w = z[:, j].copy()
        for _ in range(2):
            for r in rows:
                w -= np.vecdot(w, r)[:, None] * r
        nw = np.sqrt(np.vecdot(w, w))
        if nw.min(initial=np.inf) < GS_TOL:
            bad = min(bad, int(np.argmax(nw < GS_TOL)))
        out[:, j] = u = w / np.maximum(nw, GS_TOL)[:, None]
        if j + 1 < z.shape[1]:
            rows.append(u)
            rows.extend(u @ m.T for m in mats)
    return out, bad


def _gaussian_rows(rng, count: int, n: int):
    """A (count, n) Gaussian block, then at most 64 single redraws to stand
    in for degenerate draws."""
    yield from rng.normal(size=(count, n))
    for _ in range(64):
        yield rng.normal(size=n)


def _expand(seeds: np.ndarray, mats) -> np.ndarray:
    """Rows: each seed followed by its images under `mats`; a (..., count,
    n) stack of seeds gives a (..., rows, n) stack of frames."""
    *lead, count, n = seeds.shape
    out = np.empty((*lead, count, 1 + len(mats), n))
    out[..., 0, :] = seeds
    for i, m in enumerate(mats, 1):
        out[..., i, :] = seeds @ m.T
    return out.reshape(*lead, count * (1 + len(mats)), n)


def family_spec(family: PlaneFamily):
    """Seed parametrization of a family: (seed_count, gs_mats, row_mats),
    the seed count and the seed and row structure matrices of its
    `_PLANE_FAMILIES` row."""
    seeds, rows, count = _PLANE_FAMILIES[family.tag]
    n = family.ambient
    return (count(n, family.p), [structure(n, s) for s in seeds],
            [structure(n, s) for s in rows])


@functools.lru_cache(maxsize=64)
def plane_sampler(family: PlaneFamily):
    """A `seed or rng -> frame` closure over the family's planes; the
    structure matrices are built once, and the closure is cached per
    family."""
    count, gs_mats, row_mats = family_spec(family)
    n = family.ambient

    def draw(seed) -> np.ndarray:
        rows = _gaussian_rows(as_rng(seed), count, n)
        return _expand(orthonormal_rows(rows, count, gs_mats), row_mats)

    return draw


@functools.lru_cache(maxsize=64)
def plane_block_sampler(family: PlaneFamily):
    """A `(seed or rng, frames) -> (frames, plane_dim, ambient)` closure over
    the family's planes, cached per family: the frames that many
    `plane_sampler` draws on one generator give, bit for bit, and the
    generator left in the same state.

    One Gaussian block serves all frames, and `_block_rows` builds their
    seeds at once.  A sequential draw takes a (count, n) block, then single
    redraws while its candidates degenerate; so when a frame of the block
    has a degenerate candidate, the generator is rewound to that frame,
    the frame is drawn sequentially, and a new block starts after it.
    """
    one = plane_sampler(family)
    count, gs_mats, row_mats = family_spec(family)
    n = family.ambient

    def draw(seed, frames: int) -> np.ndarray:
        rng = as_rng(seed)
        parts = []
        while True:
            state = rng.bit_generator.state
            block, bad = _block_rows(rng.normal(size=(frames, count, n)), gs_mats)
            parts.append(_expand(block[:bad], row_mats))
            frames -= bad
            if not frames:
                break
            rng.bit_generator.state = state
            rng.normal(size=(bad, count, n))
            parts.append(one(rng)[None])
            frames -= 1
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return draw


def sample_plane(family: PlaneFamily, seed) -> np.ndarray:
    """Draw one frame (rows are orthonormal vectors spanning the plane)."""
    return plane_sampler(family)(seed)


def sample_planes(family: PlaneFamily, seed, frames: int) -> np.ndarray:
    """Draw `frames` frames as one block, (frames, plane_dim, ambient): the
    frames that many `sample_plane` calls on one generator give."""
    return plane_block_sampler(family)(seed, frames)


def frame_relations_residual(family: PlaneFamily, frame: np.ndarray) -> float:
    """Worst violation of the family's defining relations: the rows are
    orthonormal, the projector F^T F commutes with each row structure, and
    F M F^T = 0 for each other seed structure M."""
    f = np.asarray(frame)
    seeds, rows, _ = _PLANE_FAMILIES[family.tag]
    n = family.ambient
    res = np.abs(f @ f.T - np.eye(f.shape[0])).max()
    p = f.T @ f
    for label in rows:
        m = structure(n, label)
        res = max(res, np.abs(p @ m - m @ p).max())
    for label in (s for s in seeds if s not in rows):
        res = max(res, np.abs(f @ structure(n, label) @ f.T).max())
    return float(res)


# ----------------------------------------------------------------------
# group element samplers
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def group_sampler(group: Group, direction: str | None = None):
    """A `seed or rng -> g` closure over the group; the structures and the
    reference frame are built once, and the closure is cached per group
    and direction.  `on` takes the Q factor of a Gaussian matrix; the
    others map the reference frame adapted to their structures onto a
    random one, g = F_random^T F_reference, so g commutes with them.

    `direction` names a quaternionic structure, "i", "j" or "k": on `un` it
    is the one g commutes with, in place of the standard complex structure;
    on `spn_s1` the circle factor rotates in its plane ("i" when None).
    """
    n, kind = group.dim, group.kind
    if kind == "on":
        def draw_on(seed) -> np.ndarray:
            q, r = np.linalg.qr(as_rng(seed).normal(size=(n, n)))
            return q * np.sign(np.diag(r))

        return draw_on
    # g commutes with the seed structures of a lagrangian family: "c"
    # ("lag"), one of "i", "j", "k" ("ilag", ...) or all three ("hlag")
    tag = f"{direction or ''}lag" if kind == "un" else "hlag"
    count, mats, _ = family_spec(PlaneFamily(tag, n))
    reference = _expand(orthonormal_rows(np.eye(n), count, mats), mats)

    def draw(seed) -> np.ndarray:
        rng = as_rng(seed)
        seeds = orthonormal_rows(_gaussian_rows(rng, count, n), count, mats)
        g = _expand(seeds, mats).T @ reference
        if kind == "spn_sp1":
            q = rng.normal(size=4)
            return g @ right_scalar(quaternion_triple(n // 4), q / np.linalg.norm(q))
        if kind == "spn_s1":
            theta = rng.uniform(0.0, 2.0 * np.pi)
            circle = structure(n, direction or "i")
            return g @ (np.cos(theta) * np.eye(n) + np.sin(theta) * circle)
        return g

    return draw


def sample_group_element(group: Group, seed, direction: str | None = None) -> np.ndarray:
    """Draw an orthogonal matrix from the given compact group; `direction`
    is as in `group_sampler`."""
    return group_sampler(group, direction)(seed)


# ----------------------------------------------------------------------
# canonical form on the I-aligned component
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalFormEI:
    """A = sum_l lambda_l (P_{e_l} + P_{Ie_l} - P_{Je_l} - P_{Ke_l})."""

    lambdas: np.ndarray       # (n,) nonnegative, descending
    hframe: np.ndarray        # (n, 4n) rows e_l, jointly H-orthonormal

    def reconstruct(self, trip: QuaternionTriple) -> np.ndarray:
        n4 = trip.dim
        out = np.zeros((n4, n4))
        for lam, e in zip(self.lambdas, self.hframe):
            out += lam * (
                np.outer(e, e)
                + np.outer(trip.i @ e, trip.i @ e)
                - np.outer(trip.j @ e, trip.j @ e)
                - np.outer(trip.k @ e, trip.k @ e)
            )
        return out


def canonical_form_ei(a: np.ndarray, trip: QuaternionTriple | None = None) -> CanonicalFormEI:
    """Canonical form of a symmetric matrix in the I-aligned component.

    Eigenvalues come in (lam, lam, -lam, -lam) groups on quaternionic lines;
    the sign convention keeps every lambda nonnegative.
    """
    n4 = a.shape[0]
    if trip is None:
        trip = quaternion_triple(n4 // 4)
    scale = 1.0 + frob_norm(a)
    if np.abs(e_structure_part(a, trip, "i") - a).max() > CANON_TOL * scale:
        raise ValueError("matrix is not in the I-aligned component")
    n = n4 // 4
    spec = eigh(a)
    lam = spec.eigenvalues[::-1]          # descending
    vec = spec.eigenvectors[:, ::-1]
    lambdas = []
    frame_rows: list[np.ndarray] = []
    used: list[np.ndarray] = []           # grows with e, Ie, Je, Ke per line
    tol = CANON_TOL * scale
    idx = 0
    while len(lambdas) < n:
        if idx >= n4:
            raise ValueError("failed to extract quaternionic eigen-lines")
        lam_i = lam[idx]
        if lam_i < -tol:
            raise ValueError("spectrum is not symmetric about zero")
        v = _orthonormal_against(vec[:, idx], used, tol=1e-6)
        idx += 1
        if v is None:
            continue
        # v sits in the eigenspace of +lam_i; its I-image does too, and the
        # J-, K-images span the paired -lam_i eigenspace.
        lambdas.append(max(lam_i, 0.0))
        frame_rows.append(v)
        used.extend([v, trip.i @ v, trip.j @ v, trip.k @ v])
    form = CanonicalFormEI(np.array(lambdas), np.array(frame_rows))
    if frob_norm(a - form.reconstruct(trip)) > CANON_TOL * scale * 10:
        raise ValueError("canonical form reconstruction failed")
    return form


# ----------------------------------------------------------------------
# determinant-type operator values
# ----------------------------------------------------------------------

def _grouped_eigenvalues(a: np.ndarray, multiplicity: int, scale: float) -> np.ndarray:
    """One representative per eigenvalue group of the given multiplicity."""
    lam = np.linalg.eigvalsh(a)
    tol = 1e-7 * (1.0 + scale)
    groups = lam.reshape(-1, multiplicity)
    spread = groups.max(axis=1) - groups.min(axis=1)
    if spread.max() > tol:
        raise ValueError(
            f"eigenvalues do not cluster with multiplicity {multiplicity} "
            f"(worst spread {spread.max():.3e})"
        )
    return groups.mean(axis=1)


def monge_ampere_value(group: Group, a: np.ndarray) -> float:
    """Product of grouped eigenvalues of the structure-compatible part."""
    if a.shape[0] != group.dim:
        raise ValueError("dimension mismatch")
    scale = frob_norm(a)
    if group.kind == "on":
        return float(np.prod(np.linalg.eigvalsh(a)))
    if group.kind == "un":
        i_mat = complex_structure(group.dim)
        paired = _grouped_eigenvalues(complex_sym_part(a, i_mat), 2, scale)
        return float(np.prod(paired))
    if group.kind == "spn_sp1":
        trip = quaternion_triple(group.dim // 4)
        quads = _grouped_eigenvalues(quat_sym_part(a, trip), 4, scale)
        return float(np.prod(quads))
    raise ValueError(f"no determinant operator for group {group.kind}")
