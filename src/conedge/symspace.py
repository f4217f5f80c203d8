"""Frobenius geometry on the space of real symmetric matrices.

Everything downstream works inside Sym2(R^n) equipped with <A, B> = tr(AB).
Matrices are plain (n, n) float arrays; linear subspaces carry an explicit
Frobenius-orthonormal basis stacked into a (k, n, n) array.  All operations
are pure functions; nothing here holds mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 16

# Relative tolerances: every check scales as tol * (1 + input norm).
SYM_RTOL = 1e-12
GRAM_TOL = 1e-10
RECON_RTOL = 1e-9
DROP_RTOL = 1e-9


class DimensionMismatch(ValueError):
    """Operands live over different ambient dimensions."""


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sym_matrix(entries) -> np.ndarray:
    """Validate a square array as symmetric; return the symmetrized copy.

    Asymmetry beyond SYM_RTOL * (1 + max|entry|) is an error, smaller
    asymmetry is silently averaged away.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return sym_stack(a[None])[0].copy()


def sym_stack(entries) -> np.ndarray:
    """sym_matrix on each matrix of an (m, n, n) stack, each judged on its
    own scale.  An exactly symmetric stack is returned as it is, without a
    copy; otherwise the symmetrized copy."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    n = a.shape[1]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    at = a.transpose(0, 2, 1)
    if np.array_equal(a, at):
        return a
    m = a.shape[0]
    skew = np.abs(a - at).reshape(m, -1).max(axis=1)
    if np.any(skew > SYM_RTOL * (1.0 + np.abs(a).reshape(m, -1).max(axis=1))):
        raise ValueError(f"input is not symmetric (asymmetry {skew.max():.3e})")
    return 0.5 * (a + at)


def _check_same_n(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius pairing tr(AB) of two symmetric matrices."""
    _check_same_n(a, b)
    return float(np.einsum("ij,ji->", a, b))


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition with ascending eigenvalues and orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def eigh(a: np.ndarray) -> Spectrum:
    """Deterministic symmetric eigen-decomposition with a residual guard."""
    a = np.asarray(a, dtype=float)
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # degenerate scaling; caller rescales
        raise ValueError(f"eigen-decomposition did not converge: {exc}") from exc
    spec = Spectrum(lam, vec)
    scale = 1.0 + frob_norm(a)
    if frob_norm(a - spec.reconstruct()) > RECON_RTOL * scale:
        raise ValueError("eigen-decomposition residual exceeds tolerance")
    if np.abs(vec.T @ vec - np.eye(a.shape[0])).max() > GRAM_TOL * 10:
        raise ValueError("eigenvector matrix is not orthogonal")
    return spec


def plane_projector(frame) -> np.ndarray:
    """Orthogonal projector onto the span of a row-stacked orthonormal frame.

    `frame` is a (k, n) array (or list of k vectors); rows must pair to the
    identity Gram matrix within GRAM_TOL.
    """
    f = np.atleast_2d(np.asarray(frame, dtype=float))
    gram = f @ f.T
    if np.abs(gram - np.eye(f.shape[0])).max() > GRAM_TOL:
        raise ValueError("frame is not orthonormal")
    return f.T @ f


@dataclass(frozen=True)
class SymSubspace:
    """Linear subspace of Sym2(R^n) with a Frobenius-orthonormal basis."""

    ambient_n: int
    basis: np.ndarray  # (dim, n, n)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def validate(self, tol: float = GRAM_TOL) -> None:
        k = self.dim
        if k > self.ambient_n * (self.ambient_n + 1) // 2:
            raise ValueError("basis longer than dim Sym2")
        if k:
            flat = self.basis.reshape(k, -1)
            gram = flat @ flat.T
            if np.abs(gram - np.eye(k)).max() > tol:
                raise ValueError("basis is not orthonormal")
            skew = np.abs(self.basis - np.transpose(self.basis, (0, 2, 1))).max()
            if skew > 1e-10:
                raise ValueError("basis element is not symmetric")


def zero_subspace(n: int) -> SymSubspace:
    return SymSubspace(n, np.zeros((0, n, n)))


def standard_basis(n: int) -> np.ndarray:
    """Orthonormal basis of Sym2(R^n): E_ii and (E_ij + E_ji)/sqrt(2)."""
    out = []
    for i in range(n):
        m = np.zeros((n, n))
        m[i, i] = 1.0
        out.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            out.append(m)
    return np.array(out)


def full_subspace(n: int) -> SymSubspace:
    return SymSubspace(n, standard_basis(n))


def orthonormalize(gens, ambient_n: int | None = None,
                   drop_rtol: float = DROP_RTOL) -> SymSubspace:
    """Gram-Schmidt in the Frobenius metric over a generator list.

    One re-orthogonalization pass; generators whose residual drops below
    drop_rtol * (1 + largest input norm) are discarded.  Generator order is
    preserved, so the output basis is reproducible.
    """
    gens = [np.asarray(g, dtype=float) for g in gens]
    if not gens:
        if ambient_n is None:
            raise ValueError("cannot infer ambient dimension from empty input")
        return zero_subspace(ambient_n)
    n = gens[0].shape[0]
    if ambient_n is not None and ambient_n != n:
        raise DimensionMismatch(f"generators are {n}x{n}, expected {ambient_n}")
    for g in gens:
        _check_same_n(g, gens[0])
    scale = 1.0 + max(frob_norm(g) for g in gens)
    drop = drop_rtol * scale
    basis: list[np.ndarray] = []
    for g in gens:
        v = g.copy()
        for _ in range(2):  # MGS with one re-orthogonalization pass
            for b in basis:
                v -= inner(v, b) * b
        nv = frob_norm(v)
        if nv >= drop:
            basis.append(v / nv)
    if not basis:
        return zero_subspace(n)
    return SymSubspace(n, np.array(basis))


def subspace_coords(s: SymSubspace, a: np.ndarray) -> np.ndarray:
    """Coefficients of the orthogonal projection of `a` in the basis of `s`."""
    if a.shape[0] != s.ambient_n:
        raise DimensionMismatch(f"matrix is {a.shape[0]}x, subspace ambient {s.ambient_n}")
    if s.dim == 0:
        return np.zeros(0)
    return np.einsum("kij,ij->k", s.basis, a)


def from_coords(s: SymSubspace, c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if s.dim == 0:
        return np.zeros((s.ambient_n, s.ambient_n))
    return np.einsum("k,kij->ij", c, s.basis)


def subspace_project(s: SymSubspace, a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of `a` onto `s`."""
    return from_coords(s, subspace_coords(s, a))


def residual_norm(s: SymSubspace, a: np.ndarray) -> float:
    return frob_norm(a - subspace_project(s, a))


def complement(s: SymSubspace) -> SymSubspace:
    """Orthogonal complement of `s` inside Sym2(R^n)."""
    n = s.ambient_n
    residuals = [b - subspace_project(s, b) for b in standard_basis(n)]
    comp = orthonormalize(residuals, ambient_n=n)
    want = n * (n + 1) // 2 - s.dim
    if comp.dim != want:
        raise ValueError(f"complement dimension {comp.dim}, expected {want}")
    return comp


def direct_sum(*parts: SymSubspace) -> SymSubspace:
    """Concatenate pairwise-orthogonal subspaces into one."""
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        raise ValueError("direct_sum needs at least one nonzero part")
    n = parts[0].ambient_n
    gens = [b for p in parts for b in p.basis]
    out = orthonormalize(gens, ambient_n=n)
    if out.dim != sum(p.dim for p in parts):
        raise ValueError("parts are not linearly independent")
    return out


def subspace_equal(s1: SymSubspace, s2: SymSubspace, tol: float = 1e-8) -> bool:
    """Span equality: same dimension and mutual projection residuals below tol."""
    if s1.ambient_n != s2.ambient_n or s1.dim != s2.dim:
        return False
    r1 = max((residual_norm(s2, b) for b in s1.basis), default=0.0)
    r2 = max((residual_norm(s1, b) for b in s2.basis), default=0.0)
    return max(r1, r2) <= tol


def random_symmetric(n: int, rng, scale: float = 1.0) -> np.ndarray:
    """Gaussian symmetric matrix; used by the sampled checks."""
    g = as_rng(rng).normal(size=(n, n))
    return scale * 0.5 * (g + g.T)
