"""Cone descriptions over Sym2(R^n) and their membership oracles.

Three kinds of handle:

  * EdgeCone(E): the sum of a basic subspace E and the positive cone; its
    membership margin is max over translates e in E of lambda_min(A - e).
    That is a small SDP pair, whose dual is min <A, Z> over the polar base
    {Z >= 0, tr Z = 1, Z perpendicular to E}; translate_sdp solves it by
    batched primal-dual path following, with a certified lower value and
    a feasible dual Z.  A closed form, when the catalog has one for E, is
    a batch kernel over a stack of matrices; a single margin is the batch
    of one.  The basic-edge dichotomy maximizes lambda_min over a trace
    slice by smoothed L-BFGS ascent.
  * HalfspaceCone(N): {A : <A, N> >= 0} for a unit PSD normal.
  * GeometricCone(family): {A : tr(A|_W) >= 0 for all planes W}, probed by
    pre-sampled frames plus local frame descent.

All margins agree in sign with exact membership and shift exactly by -s
(or -s tr N for half-spaces) under A -> A - s Id, which downstream solvers
rely on.  margin, margin_batch, contains and dual_contains check their
input as sym_matrix does (square, finite, symmetric; per matrix for a
stack) and against the cone's size.
Handles are immutable; caches are write-once.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import structures as st
from .symspace import (
    SymSubspace,
    as_rng,
    complement,
    frob_norm,
    from_coords,
    orthonormalize,
    random_symmetric,
    residual_norm,
    subspace_coords,
    subspace_project,
    sym_matrix,
    sym_stack,
    zero_subspace,
)

MEMBERSHIP_RTOL = 1e-7
BASIC_EDGE_TOL = 1e-8
RANK_SVD_RTOL = 1e-8
SUPPORT_ACCEPT = 1e-9
SUPPORT_DEADBAND = 1e-6
CHECK_TOL_SCALE = 10.0
GEOMETRIC_STACK = 512     # matrices per pass of GeometricCone's stacked frame descents


def default_tol(a: np.ndarray) -> float:
    return MEMBERSHIP_RTOL * (1.0 + frob_norm(a))


def _positive_int(name: str, value) -> int:
    """value as an int; ValueError naming `name` unless a positive integer."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


class Verdict(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Membership:
    """Signed-margin membership answer with an optional witness.

    margin > tol: interior; |margin| <= tol: boundary; margin < -tol:
    outside.  The witness is an edge translate, a plane frame, or the
    half-space normal, depending on the cone kind.
    """

    verdict: Verdict
    margin: float
    tol: float
    witness: object = None
    stalled: bool = False

    @property
    def is_member(self) -> bool:
        return self.verdict is not Verdict.OUTSIDE


def _classify(margin: float, tol: float, witness=None, stalled=False) -> Membership:
    if margin > tol:
        v = Verdict.INTERIOR
    elif margin < -tol:
        v = Verdict.OUTSIDE
    else:
        v = Verdict.BOUNDARY
    return Membership(v, float(margin), float(tol), witness, stalled)


# ----------------------------------------------------------------------
# primal-dual translate kernel
# ----------------------------------------------------------------------

SDP_GAP_RTOL = 1e-11
SDP_MAX_ITER = 60


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def _psd_step(l_inv: np.ndarray, d: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Per matrix, the step t <= 1 along d that keeps mat = L L^T positive
    definite: 0.95 of the way to the PSD boundary, read off the smallest
    eigenvalue of L^-1 d L^-T, halved until eigvalsh confirms it."""
    lam = np.linalg.eigvalsh(l_inv @ d @ np.swapaxes(l_inv, -1, -2))[:, 0]
    step = np.minimum(1.0, 0.95 / np.maximum(-lam, 1e-300))
    for _ in range(60):
        bad = np.linalg.eigvalsh(mat + step[:, None, None] * d)[:, 0] <= 0
        if not bad.any():
            break
        step[bad] *= 0.5
    return step


def translate_sdp(a_stack: np.ndarray, gens: np.ndarray):
    """Maximize lambda_min(A - sum_k c_k E_k) over c, for each A of a stack.

    The problem is the SDP pair
        max t      s.t.  S = A - t Id - sum_k c_k E_k >= 0,
        min <A, Z> s.t.  Z >= 0, tr Z = 1, <E_k, Z> = 0,
    solved for the whole stack at once by HKM primal-dual path following
    with Mehrotra's predictor-corrector (Helmberg, Rendl, Vanderbei &
    Wolkowicz 1996).  Start: Z = Id/n, c = 0, t = lambda_min(A) - (1 + |A|),
    strictly feasible for a traceless edge; the residual of <F, Z> = b,
    F = (Id, E), b = (1, 0, ...), rides in the Newton system otherwise.

    The Schur matrix M_ij = tr(F_i Z F_j S^-1) is never formed: with
    Z = Lz Lz^T and S^-1 = Ls Ls^T from eigh, the rows B_i = vec(Lz^T F_i Ls)
    give M = R^T R for R of the QR factorization of B^T, and each direction
    costs two solves, with the triangular R^T and R.  Steps go 0.95 of the way to the PSD
    boundary.  A matrix leaves the active set once its gap <Z, S> is at
    most SDP_GAP_RTOL (1 + |A|); a non-finite direction freezes it at its
    current iterate.  The dual iterate's constraint residual (rounding in
    the columns of Z dS S^-1 that S^-1 blows up) is finally removed by a
    one-sided correction sym(Z H), H in span F, which leaves the near-null
    block of Z alone; a correction that would leave the PSD cone is skipped.

    Returns (lower, coords, z, gap): lower = lambda_min(A - sum_k c_k E_k)
    at the final coords c, a certified lower bound of the maximum; z the
    dual iterate, so <A, z> bounds it from above; gap = <z, S> there.
    """
    a_stack = np.asarray(a_stack, dtype=float)
    m, n, _ = a_stack.shape
    k = gens.shape[0]
    if k == 0:  # no translate: the margin is lambda_min, z its eigenprojector
        lam, vec = np.linalg.eigh(a_stack)
        v = vec[:, :, 0]
        return lam[:, 0], np.zeros((m, 0)), v[:, :, None] * v[:, None, :], np.zeros(m)
    f = np.concatenate([np.eye(n)[None], gens])           # F_0 = Id, F_k = E_k
    f_flat = f.reshape(k + 1, n * n)
    b = np.eye(k + 1)[0]
    scale = 1.0 + np.sqrt(np.einsum("mij,mij->m", a_stack, a_stack))
    y = np.zeros((m, k + 1))                                # (t, c)
    y[:, 0] = np.linalg.eigvalsh(a_stack)[:, 0] - scale
    z = np.repeat(np.eye(n)[None] / n, m, axis=0)

    def slack(idx):
        return a_stack[idx] - (y[idx] @ f_flat).reshape(-1, n, n)

    active = np.arange(m)
    with np.errstate(all="ignore"):  # non-finite directions are caught below
        for _ in range(SDP_MAX_ITER):
            s = slack(active)
            gap = np.einsum("mij,mji->m", z[active], s)
            keep = gap > SDP_GAP_RTOL * scale[active]
            active, s, gap = active[keep], s[keep], gap[keep]
            if not active.size:
                break
            za = z[active]
            wz, vz = np.linalg.eigh(za)
            ws, vs = np.linalg.eigh(s)
            lz = vz * np.sqrt(wz)[:, None, :]
            ls = vs / np.sqrt(ws)[:, None, :]
            ls_t = np.swapaxes(ls, -1, -2)
            # one stack for both step lengths: Z = Lz Lz^T, S = Ls^-T Ls^-1
            mats = np.concatenate([za, s])
            scal = np.concatenate([np.swapaxes(vz / np.sqrt(wz)[:, None, :], -1, -2), ls_t])
            rows = (np.swapaxes(lz, -1, -2)[:, None] @ f @ ls[:, None]).reshape(-1, k + 1, n * n)
            r = np.linalg.qr(np.swapaxes(rows, -1, -2), mode="r")
            ok = (np.isfinite(rows).all(axis=(1, 2))
                  & np.isfinite(scal).reshape(2, -1, n * n).all(axis=(0, 2))
                  & (np.diagonal(r, axis1=1, axis2=2) != 0).all(axis=1))
            r[~ok] = np.eye(k + 1)
            r_t = np.swapaxes(r, -1, -2)
            resid = b - za.reshape(-1, n * n) @ f_flat.T

            def direction(g):
                """dy and the stack (dZ, dS) of the Newton direction with
                dZ = sym(g - Z dS S^-1) and <F_i, Z + dZ> = b_i, where
                Z dS S^-1 = Lz (Lz^T dS Ls) Ls^T and Lz^T dS Ls = -sum dy_i B_i."""
                rhs = resid - g.reshape(-1, n * n) @ f_flat.T
                dy = np.linalg.solve(r, np.linalg.solve(r_t, rhs[..., None]))[..., 0]
                lz_ds_ls = -np.einsum("mk,mkp->mp", dy, rows).reshape(-1, n, n)
                dz = _sym(g - lz @ lz_ds_ls @ ls_t)
                return dy, np.concatenate([dz, -(dy @ f_flat).reshape(-1, n, n)])

            def steps(d):
                """Step lengths of Z and S along d = (dZ, dS); zero where
                the direction is not finite."""
                fine = np.isfinite(d).all(axis=(1, 2)) & np.concatenate([ok, ok])
                t = np.zeros(fine.size)
                t[fine] = _psd_step(scal[fine], d[fine], mats[fine])
                return t[:, None, None]

            d = direction(-za)[1]                                    # predictor
            t = steps(d)
            mu = gap / n
            na = active.size
            moved = mats + t * d
            mu_aff = np.einsum("mij,mji->m", moved[:na], moved[na:]) / n
            sigma = np.clip(mu_aff / mu, 0.0, 1.0) ** 3
            s_inv = ls @ ls_t
            dz_ds = d[:na] @ d[na:] @ s_inv
            dy, d = direction((sigma * mu)[:, None, None] * s_inv - za - dz_ds)  # corrector
            t = steps(d)
            # a matrix with a non-finite direction stays frozen at its iterate
            ok &= np.isfinite(dy).all(axis=1) & (t[:na, 0, 0] > 0)
            z[active[ok]] = (za + t[:na] * d[:na])[ok]
            y[active[ok]] += t[na:, 0][ok] * dy[ok]
            active = active[ok]

    zf = z[:, None] @ f[None]                                       # Z F_j
    gram = np.einsum("kab,mjba->mkj", f, zf)
    resid = b - z.reshape(m, n * n) @ f_flat.T
    h = (np.linalg.pinv(gram, rcond=1e-12) @ resid[..., None])[..., 0]
    fixed = z + _sym(np.einsum("mj,mjab->mab", h, zf))
    psd = np.linalg.eigvalsh(fixed)[:, 0] > 0
    z[psd] = fixed[psd]
    coords = y[:, 1:]
    lower = np.linalg.eigvalsh(a_stack - (coords @ f_flat[1:]).reshape(m, n, n))[:, 0]
    return lower, coords, z, np.einsum("mij,mji->m", z, slack(np.arange(m)))


def edge_translate_margin(a: np.ndarray, edge: SymSubspace):
    """Maximize lambda_min(a - e) over e in the edge subspace: translate_sdp
    on the stack of one.

    Returns (margin, translate, coords, stalled); stalled when the duality
    gap stayed above default_tol(a).
    """
    lower, coords, _, gap = translate_sdp(a[None], edge.basis)
    return (float(lower[0]), from_coords(edge, coords[0]), coords[0],
            bool(gap[0] > default_tol(a)))


# ----------------------------------------------------------------------
# smoothed concave maximization of lambda_min over a trace slice
# ----------------------------------------------------------------------

def _lbfgs(fun_grad, x0: np.ndarray, *, maxiter: int = 80, memory: int = 8,
           gtol: float = 1e-13) -> np.ndarray:
    """Minimize a smooth function with a compact two-loop L-BFGS.

    Armijo backtracking line search; curvature pairs with tiny s.y are
    skipped.  Small enough to keep per-call overhead below the eigenvalue
    work that dominates each evaluation.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho: list[float] = []
    for _ in range(maxiter):
        gn = np.linalg.norm(g)
        if gn < gtol:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, r in zip(reversed(s_list), reversed(y_list), reversed(rho)):
            a = r * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_list:
            ys = y_list[-1] @ y_list[-1]
            gamma = (s_list[-1] @ y_list[-1]) / ys if ys > 0 else 1.0
            q *= gamma
        for (s, y, r), a in zip(zip(s_list, y_list, rho), reversed(alphas)):
            b = r * (y @ q)
            q += (a - b) * s
        d = -q
        slope = g @ d
        if slope >= 0:  # fall back to steepest descent
            d = -g
            slope = -(gn * gn)
        step = 1.0
        accepted = False
        for _ in range(30):
            x_new = x + step * d
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-14 * max(1.0, np.linalg.norm(s_vec) * np.linalg.norm(y_vec)):
            s_list.append(s_vec)
            y_list.append(y_vec)
            rho.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho.pop(0)
        if abs(f - f_new) < 1e-17 * (1.0 + abs(f)):
            x, f, g = x_new, f_new, g_new
            break
        x, f, g = x_new, f_new, g_new
    return x


def _softmin_eig(m: np.ndarray, mu: float):
    """Smoothed minimum eigenvalue and its gradient matrix (Gibbs weights)."""
    lam, vec = np.linalg.eigh(m)
    z = -(lam - lam[0]) / mu
    w = np.exp(z)
    total = w.sum()
    f = lam[0] - mu * np.log(total)
    w /= total
    grad = (vec * w) @ vec.T
    return f, grad


def _max_lambda_min(m0: np.ndarray, gens: np.ndarray, starts, mu_ladder, maxiter: int):
    """Maximize lambda_min(m0 + sum_k c_k gens_k) over coordinates c.

    Concave in c, so each start only safeguards the ascent.  Every start
    runs L-BFGS on the smoothed minimum eigenvalue down the ladder of
    (already scaled) temperatures; the value reported is the exact
    lambda_min at the best point found, a certified lower bound of the
    maximum.  Returns (value, coords, stalled), stalled when some start
    ended on non-finite coordinates.
    """
    neg_gens = -gens  # negated once, not in every gradient of -lambda_min

    def objective(c, mu):
        f, grad_mat = _softmin_eig(m0 + np.einsum("k,kij->ij", c, gens), mu)
        return -f, np.einsum("kij,ij->k", neg_gens, grad_mat)

    best_val, best_c, stalled = -np.inf, starts[0], False
    for c0 in starts:
        c = np.asarray(c0, dtype=float)
        for mu in mu_ladder:
            c = _lbfgs(lambda x: objective(x, mu), c, maxiter=maxiter)
        val = float(np.linalg.eigvalsh(m0 + np.einsum("k,kij->ij", c, gens))[0])
        if val > best_val:
            best_val, best_c = val, c
        if not np.all(np.isfinite(c)):
            stalled = True
    return best_val, best_c, stalled


def _slice_max_lambda_min(space: SymSubspace, *, starts: int = 20, seed: int = 0):
    """Maximize lambda_min(M) over {M in space : tr M = n}.

    The slice is affine and lambda_min concave, so this is a reliable
    concave program; it decides whether the subspace meets the open
    positive cone.  Returns (value, argmax) or (None, None) when the trace
    functional vanishes on the subspace (no PSD ray possible).
    """
    n = space.ambient_n
    trace_coords = subspace_coords(space, np.eye(n))
    tnorm = float(np.linalg.norm(trace_coords))
    if tnorm < 1e-12:
        return None, None
    # affine parametrization of the trace slice: base point plus the
    # basis mapped through the projector off the trace direction
    m0 = from_coords(space, trace_coords * (n / tnorm**2))
    unit = trace_coords / tnorm
    tangent = np.eye(space.dim) - np.outer(unit, unit)
    gens = np.einsum("kj,kab->jab", tangent, space.basis)
    rng = as_rng(seed)
    y_starts = [np.zeros(space.dim)]
    for _ in range(starts - 1):
        y_starts.append(rng.normal(size=space.dim))
    val, y, _ = _max_lambda_min(m0, gens, y_starts,
                                [mu * n for mu in (1e-1, 1e-3, 1e-5, 1e-8)], 80)
    return val, m0 + np.einsum("k,kij->ij", y, gens)


@dataclass(frozen=True)
class BasicEdgeReport:
    basic: bool
    indeterminate: bool
    edge_side_max: float | None   # max lambda_min over the trace slice of E
    span_side_max: float | None   # same over the trace slice of S
    witness: np.ndarray | None    # PD element of S when basic, PSD of E when not


def is_basic_edge(edge: SymSubspace, *, starts: int = 20,
                  seed: int = 0) -> BasicEdgeReport:
    """Decide whether a subspace meets the positive cone only at zero.

    Primal side maximizes lambda_min over trace-normalized elements of the
    subspace (a PSD element must have positive trace); the dual side does
    the same over the orthogonal complement, which by the completeness
    dichotomy must contain a positive-definite element exactly when the
    primal side fails to reach the cone.  Both sides are computed and the
    dichotomy asserted.
    """
    n = edge.ambient_n
    e_val, e_arg = _slice_max_lambda_min(edge, starts=starts, seed=seed)
    span = complement(edge)
    s_val, s_arg = _slice_max_lambda_min(span, starts=starts, seed=seed + 1)

    e_hits = e_val is not None and e_val >= -BASIC_EDGE_TOL  # PSD direction inside edge
    s_hits = s_val is not None and s_val > BASIC_EDGE_TOL    # PD element inside span

    if e_hits and not s_hits:
        return BasicEdgeReport(False, False, e_val, s_val, e_arg)
    if s_hits and not e_hits:
        return BasicEdgeReport(True, False, e_val, s_val, s_arg)
    # both or neither: inside the tolerance band the dichotomy is undecided
    return BasicEdgeReport(s_hits, True, e_val, s_val, s_arg if s_hits else e_arg)


# ----------------------------------------------------------------------
# cone handles
# ----------------------------------------------------------------------

class ConeHandle:
    """Common surface of the three cone variants."""

    n: int
    # weight W with margin(A) = <A, W>, when the margin is linear
    linear_margin_weight: np.ndarray | None = None

    # --- margins -------------------------------------------------------
    def margin(self, a: np.ndarray) -> float:
        return self._margin_with_witness(self._checked(a, "margin"))[0]

    def _margin_with_witness(self, a):
        """(margin, witness or None, stalled) for one matrix."""
        raise NotImplementedError

    def margin_batch(self, a_stack: np.ndarray) -> np.ndarray:
        """Margins of an (m, n, n) stack, each matrix checked as in `margin`."""
        return self._margin_batch(self._checked(a_stack, "margin_batch", stack=True))

    def _margin_batch(self, a_stack: np.ndarray) -> np.ndarray:
        """Margins of a checked stack; unless a handle has a batch kernel,
        each matrix's single margin."""
        return np.array([self._margin_with_witness(a)[0] for a in a_stack])

    @property
    def id_shift_slope(self) -> float:
        """Exact decrease of the margin per unit of A -> A - Id."""
        return 1.0

    # --- membership ----------------------------------------------------
    def _checked(self, a, op: str, stack: bool = False) -> np.ndarray:
        """The symmetric matrix `a` (with `stack`, each matrix of an
        (m, n, n) stack) after sym_matrix's checks (square, finite,
        symmetric) and the cone's size check."""
        try:
            a = sym_stack(a) if stack else sym_matrix(a)
        except ValueError as exc:
            raise ValueError(f"{op}: matrix a rejected: {exc}") from None
        if a.shape[-1] != self.n:
            raise ValueError(f"{op}: matrix a is {a.shape[-1]}x{a.shape[-1]}, "
                             f"cone ambient {self.n}")
        return a

    def contains(self, a: np.ndarray, tol: float | None = None) -> Membership:
        a = self._checked(a, "contains")
        if tol is None:
            tol = default_tol(a)
        m, witness, stalled = self._margin_with_witness(a)
        return _classify(m, tol, witness, stalled)

    def dual_contains(self, a: np.ndarray, tol: float | None = None) -> Membership:
        """Membership in the dual cone: A is dual-inside iff -A is not
        interior; the dual margin is minus the margin of -A."""
        a = self._checked(a, "dual_contains")
        if tol is None:
            tol = default_tol(a)
        m, witness, stalled = self._margin_with_witness(-a)
        return _classify(-m, tol, witness, stalled)

    # --- linear structure ----------------------------------------------
    def edge_of(self) -> SymSubspace:
        raise NotImplementedError

    def span_of(self) -> SymSubspace:
        if getattr(self, "_span", None) is None:
            self._span = complement(self.edge_of())
        return self._span

    def reduced_hessian(self, a: np.ndarray) -> np.ndarray:
        return subspace_project(self.span_of(), a)


class EdgeCone(ConeHandle):
    """Minimal cone attached to a basic edge subspace: E + positive cone."""

    def __init__(self, edge: SymSubspace, *, check: bool = True,
                 fast_margin: Callable | None = None,
                 linear_margin_weight: np.ndarray | None = None,
                 name: str | None = None):
        edge.validate()
        if check:
            rep = is_basic_edge(edge)
            if not rep.basic:
                raise ValueError(
                    "edge subspace meets the positive cone; "
                    f"witness eigenvalue floor {rep.edge_side_max}"
                )
        self.n = edge.ambient_n
        self.edge = edge
        self.name = name
        # closed form as a stack kernel (m, n, n) -> (m,), when there is one
        self._fast_margin = fast_margin
        self.linear_margin_weight = linear_margin_weight
        self._span = None

    def edge_of(self) -> SymSubspace:
        return self.edge

    def _margin_batch(self, a_stack: np.ndarray) -> np.ndarray:
        if self._fast_margin is not None:
            return self._fast_margin(a_stack)
        return translate_sdp(a_stack, self.edge.basis)[0]

    def optimizer_margin(self, a: np.ndarray, warm_coords=None, quick: bool = False):
        """Margin by the primal-dual translate kernel regardless of any fast
        form: edge_translate_margin's (margin, translate, coords, stalled).

        warm_coords and quick have no effect: the kernel always starts from
        the same strictly feasible point and stops on the same gap.  They stay
        because callers pass them (the benchmark's warm probe, criterion #08).
        """
        return edge_translate_margin(a, self.edge)

    def _margin_with_witness(self, a):
        if self._fast_margin is not None:  # a single margin is the batch of one
            return float(self._fast_margin(a[None])[0]), None, False
        m, e, _, stalled = edge_translate_margin(a, self.edge)
        return m, e, stalled


class HalfspaceCone(ConeHandle):
    """{A : <A, N> >= 0} for a unit-norm PSD normal N."""

    def __init__(self, normal: np.ndarray):
        normal = np.asarray(normal, dtype=float)
        nrm = frob_norm(normal)
        if nrm < 1e-14:
            raise ValueError("normal must be nonzero")
        normal = normal / nrm
        lam = np.linalg.eigvalsh(normal)
        if lam[0] < -1e-10:
            raise ValueError("half-space normal must be positive semidefinite")
        self.n = normal.shape[0]
        self.normal = normal
        self.linear_margin_weight = normal
        self._edge = None
        self._span = None

    def _margin_batch(self, a_stack: np.ndarray) -> np.ndarray:
        return np.einsum("mij,ji->m", a_stack, self.normal)

    @property
    def id_shift_slope(self) -> float:
        return float(np.trace(self.normal))

    def edge_of(self) -> SymSubspace:
        if self._edge is None:
            span = orthonormalize([self.normal], ambient_n=self.n)
            self._edge = complement(span)
        return self._edge

    def _margin_with_witness(self, a):
        return float(np.einsum("ij,ji->", a, self.normal)), self.normal, False


class GeometricCone(ConeHandle):
    """{A : tr(A|_W) >= 0 over a plane family}, probed by sampling.

    The frame cache is drawn once per handle (seeded), as one block of
    `structures.sample_planes`.  A margin takes the cached minimum and
    refines the best frames in order by projected descent with
    backtracking, until 5 descents in a row gain nothing (at most
    `descents` of them).  margin_batch runs those descents for the whole
    stack in passes of (matrix, start frame) pairs; every pair takes its
    own Armijo steps, and one stacked exponential per step serves them all.
    A single margin (and its witness frame) is the batch of one.  budget,
    descents and descent_steps must be positive integers, seed an integer.
    """

    def __init__(self, family: st.PlaneFamily, *, budget: int = 2000,
                 descents: int = 50, descent_steps: int = 60, seed: int = 0):
        self.budget = _positive_int("budget", budget)
        self.descents = _positive_int("descents", descents)
        self.descent_steps = _positive_int("descent_steps", descent_steps)
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self.n = family.ambient
        self.family = family
        self._algebra = _algebra_projector(family)
        self._frames = None
        self._projectors = None
        self._edge = None
        self._span = None

    # frame cache -------------------------------------------------------
    def frames(self) -> np.ndarray:
        if self._frames is None:
            self._frames = st.sample_planes(self.family, self.seed, self.budget)
        return self._frames

    def projectors(self) -> np.ndarray:
        if self._projectors is None:
            f = self.frames()
            self._projectors = np.einsum("fki,fkj->fij", f, f)
        return self._projectors

    # margins -------------------------------------------------------------
    def _margin_with_witness(self, a: np.ndarray):
        vals, frames = self._margins_and_witnesses(a[None])
        return float(vals[0]), frames[0], False

    def _margin_batch(self, a_stack: np.ndarray) -> np.ndarray:
        parts = [self._margins_and_witnesses(a_stack[i:i + GEOMETRIC_STACK])[0]
                 for i in range(0, len(a_stack), GEOMETRIC_STACK)]
        return np.concatenate(parts) if parts else np.zeros(0)

    def _margins_and_witnesses(self, a: np.ndarray):
        """Margins and witness frames of a checked (m, n, n) stack.

        A matrix stops after 5 descents in a row without a gain, so one
        whose last g descents gained nothing runs at least its next 5 - g.
        Each pass descends exactly those, for every matrix still going, as
        one stack of (matrix, start frame) pairs, then reads the results in
        the sequential order; so the same descents run as one at a time.
        """
        m, k = len(a), self.family.plane_dim
        frames = self.frames()
        flat = self.projectors().reshape(self.budget, -1)
        # one matrix-vector product per matrix, so a row does not depend on the stack
        vals = (flat @ a.reshape(m, -1, 1))[:, :, 0] / k
        order = np.argsort(vals, axis=1)[:, :self.descents]
        best_val = vals[np.arange(m), order[:, 0]]
        best_frame = frames[order[:, 0]]
        done = np.zeros(m, dtype=int)     # descents run
        no_gain = np.zeros(m, dtype=int)  # of those, the last ones in a row without a gain
        live = np.arange(m)
        while live.size:
            take = np.minimum(5 - no_gain[live], order.shape[1] - done[live])
            first = np.cumsum(take) - take
            mat = np.repeat(live, take)
            rnd = np.arange(take.sum()) - np.repeat(first, take) + done[mat]
            val, fr = _descend_frames(self._algebra, k, frames[order[mat, rnd]], a[mat],
                                      self.descent_steps)
            for j in range(take.max()):
                has = take > j
                i, pos = live[has], first[has] + j
                gain = val[pos] < best_val[i] - 1e-12
                best_val[i[gain]] = val[pos[gain]]
                best_frame[i[gain]] = fr[pos[gain]]
                no_gain[i] = np.where(gain, 0, no_gain[i] + 1)
            done[live] += take
            live = live[(no_gain[live] < 5) & (done[live] < order.shape[1])]
        return best_val, best_frame

    # linear structure ----------------------------------------------------
    def edge_of(self) -> SymSubspace:
        """Orthogonal complement of the span of sampled plane projectors.

        The rank must be stable when the sampling budget doubles; small
        singular values (below RANK_SVD_RTOL of the largest) are zeros.
        """
        if self._edge is None:
            span1 = self._span_from_samples(self.budget, self.seed)
            span2 = self._span_from_samples(2 * self.budget, self.seed + 1)
            if span1.dim != span2.dim:
                raise ValueError(
                    f"unstable span rank under budget doubling "
                    f"({span1.dim} vs {span2.dim}); raise the budget"
                )
            self._span = span2
            self._edge = complement(span2)
        return self._edge

    def _span_from_samples(self, count: int, seed: int) -> SymSubspace:
        f = st.sample_planes(self.family, seed, count)
        flat = np.einsum("fki,fkj->fij", f, f).reshape(count, -1)
        u, s, vt = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > RANK_SVD_RTOL * s[0]))
        gens = [vt[i].reshape(self.n, self.n) for i in range(rank)]
        gens = [0.5 * (g + g.T) for g in gens]
        return orthonormalize(gens, ambient_n=self.n)


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frobenius products <x_i, y_i> over two stacks (tr(x_i y_i) when y_i
    is symmetric), one BLAS dot per matrix."""
    return np.vecdot(x.reshape(len(x), -1), y.reshape(len(y), -1))


def _algebra_projector(family: st.PlaneFamily):
    """Projection of a stack of skew matrices onto the Lie algebra of the
    group that acts transitively on the family (geodesic moves stay inside
    it): the commutant of the structures its frames are built against,
    plus the span of I, J, K for quaternionic lines."""
    _, mats, _ = st.family_spec(family)

    def proj(x):
        out = x
        for m in mats:
            out = out - m @ x @ m
        out = out / (1 + len(mats))
        if family.tag == "hp":  # sp(n) + sp(1)
            for m in mats:
                coef = np.vecdot(x.reshape(len(x), -1), m.ravel()) / np.vdot(m, m)
                out = out + coef[:, None, None] * m
        return out

    return proj


_EXP_FLOOR = np.finfo(float).tiny  # sqrt(0) -> 1.5e-154, where sin(t r)/r is exactly t


def _skew_exp(omega: np.ndarray):
    """(t, rows) -> exp(t_i omega_i) over the given rows of a stack of skew
    matrices, for one t_i per row.

    One real eigh of S = omega^T omega = -omega^2 = V diag(r^2) V^T serves
    every t: exp(t omega) = (V cos(t r) + omega V sin(t r) / r) V^T.
    """
    s, v = np.linalg.eigh(omega.mT @ omega)
    root = np.sqrt(np.maximum(s, _EXP_FLOOR))[:, None, :]
    ov = omega @ v

    def at(t: np.ndarray, rows) -> np.ndarray:
        vr, rr = v[rows], root[rows]
        tr = t[:, None, None] * rr
        return (vr * np.cos(tr) + ov[rows] * (np.sin(tr) / rr)) @ vr.mT

    return at


def _descend_frames(proj: Callable, k: int, frames: np.ndarray, a: np.ndarray,
                    steps: int):
    """Geodesic descent of tr(A_i|_W)/k from each frame of a stack, along
    the transitive group of a plane family of dimension k, whose Lie
    algebra projector is proj; returns the values and the frames reached.

    The derivative of <A, g P g'> along exp(t Omega) is <Omega, [P, A]>, so
    the Riemannian gradient is the algebra projection of the commutator.
    Every pair keeps its own step size eta and stops on its own; Armijo
    backtracking keeps every accepted move a strict decrease.  A step takes
    one stacked `_skew_exp` of the gradients, which each backtracking trial
    evaluates at the -eta of the pairs still trying.
    """
    fr = np.array(frames, dtype=float)
    val = np.empty(len(a))
    live = np.arange(len(a))         # the pairs still descending
    f, al = fr, a
    p = f.mT @ f
    v = _pair(al, p) / k
    scale = 1.0 + np.abs(al).max(axis=(1, 2))
    eta = 0.5 / scale
    for _ in range(steps):
        omega = proj(al @ p - p @ al)
        omega = 0.5 * (omega - omega.mT)
        gn = np.sqrt(_pair(omega, omega))
        slope = -gn * gn / k
        t = np.flatnonzero(gn >= 1e-10 * scale)  # the pairs trying a step
        moved = np.zeros(len(live), dtype=bool)
        if t.size:
            rotation = _skew_exp(omega[t] if t.size < len(live) else omega)
            tried, rows = t.size, slice(None)  # t's rows of the rotation
        for _ in range(16):
            if not t.size:
                break
            s = slice(None) if t.size == len(live) else t
            cand_f = f[s] @ rotation(-eta[s], rows).mT
            cand_p = cand_f.mT @ cand_f
            cand_v = _pair(al[s], cand_p) / k
            ok = cand_v <= v[s] + 1e-4 * eta[s] * slope[s]
            if ok.all():
                f[s], p[s], v[s] = cand_f, cand_p, cand_v
                eta[s] *= 1.5
                moved[s] = True
                break
            if not ok.any():
                eta[s] *= 0.5
                continue
            acc = t[ok]
            f[acc], p[acc], v[acc] = cand_f[ok], cand_p[ok], cand_v[ok]
            eta[s] *= np.where(ok, 1.5, 0.5)
            moved[acc] = True
            rows = np.flatnonzero(~ok) if t.size == tried else rows[~ok]
            t = t[~ok]
        if not moved.all():  # the pairs that did not move stop here
            fr[live], val[live] = f, v
            live, f, al, p, v = live[moved], f[moved], al[moved], p[moved], v[moved]
            scale, eta = scale[moved], eta[moved]
            if not live.size:
                break
    fr[live], val[live] = f, v
    return val, fr


def minimal_cone(edge: SymSubspace, *, name: str | None = None) -> EdgeCone:
    """Build the smallest cone with the given edge; refuses non-basic input."""
    return EdgeCone(edge, check=True, name=name)


# ----------------------------------------------------------------------
# support of a cone
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupportReport:
    support: np.ndarray            # (k, n) rows spanning W
    killed: np.ndarray             # (n-k, n) rows spanning W-perp
    indeterminate: list
    zero_extension_checked: int
    zero_extension_failures: int


def support_of(cone: ConeHandle, *, seed: int = 0) -> SupportReport:
    """Directions e whose rank-one projectors P_e sit inside the edge E are
    inert; the support is their orthogonal complement.

    E is the edge of a cone F stable under adding positive semidefinite
    matrices (F + P in F), which holds for basic EdgeCone edges, half-spaces
    and geometric cones.  Then P_e in E iff e.v = e v^T + v e^T is in E for
    every v (both P_{e+tv} - P_e and P_{e-tv} - P_e lie in F; divide by t,
    let t -> 0), iff 2 v^T S e = <S, e.v> = 0 for every S in the span
    E-perp and every v, iff S e = 0 for every S in the span.  So the inert
    directions are the common null space of the span basis: one SVD of the
    stacked basis (dim S * n, n).  A right singular vector whose squared
    singular value (sum_k |S_k e|^2) is below SUPPORT_ACCEPT is killed, one
    in [SUPPORT_ACCEPT, SUPPORT_DEADBAND) is listed as indeterminate, and
    all but the killed ones span the support.  The zero-extension
    consistency of the restricted cone is spot-checked on 100 samples.
    """
    n = cone.n
    _, sing, vt = np.linalg.svd(cone.span_of().basis.reshape(-1, n),
                                full_matrices=False)
    r = sing ** 2
    killed = vt[r < SUPPORT_ACCEPT]
    support = vt[r >= SUPPORT_ACCEPT]
    indeterminate = [(float(ri), e) for ri, e in zip(r, vt)
                     if SUPPORT_ACCEPT <= ri < SUPPORT_DEADBAND]

    checked = failures = 0
    if 0 < support.shape[0] < n:
        checked, failures = _zero_extension_check(
            cone, support, samples=100, seed=seed + 1
        )
    return SupportReport(support, killed, indeterminate, checked, failures)


def _zero_extension_check(cone: ConeHandle, support: np.ndarray, samples: int, seed: int):
    """Membership of B on the support must match membership of its
    zero-extension to the full space."""
    k = support.shape[0]
    rng = as_rng(seed)
    edge = cone.edge_of()
    # restricted edge: compress the edge basis onto the support coordinates;
    # kept directions may be inert up to SUPPORT_DEADBAND, so residues below
    # the corresponding scale are artifacts of the compression, not structure
    comp = orthonormalize(
        [support @ b @ support.T for b in edge.basis], ambient_n=k,
        drop_rtol=10.0 * SUPPORT_ACCEPT ** 0.25,
    ) if edge.dim else zero_subspace(k)
    if not is_basic_edge(comp, seed=seed).basic:
        return 0, 0  # restricted cone is not minimal-testable this way
    small = np.array([random_symmetric(k, rng) for _ in range(samples)])
    big = support.T @ small @ support
    # opposite verdicts fail; a dead-band (boundary) verdict never does
    signs = (stack_verdicts(EdgeCone(comp, check=False), small, 1.0)[0]
             * stack_verdicts(cone, big, 1.0)[0])
    return samples, int(np.sum(signs < 0))


# ----------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------

def sample_members(cone: ConeHandle, rng, count: int) -> np.ndarray:
    """(count, n, n) random elements of the cone, each an edge translate
    plus a PSD part.  One normal block holds, row by row, the n*n entries of
    each PSD factor and then its edge coordinates, so the stack and the
    generator's final state equal those of count sample_member calls."""
    rng = as_rng(rng)
    n = cone.n
    edge = cone.edge_of()
    draws = rng.normal(size=(count, n * n + edge.dim))
    g = draws[:, :n * n].reshape(count, n, n)
    psd = g @ g.transpose(0, 2, 1) / np.sqrt(n)
    if edge.dim == 0:
        return psd
    return np.einsum("mk,kij->mij", draws[:, n * n:], edge.basis) + psd


def sample_member(cone: ConeHandle, rng) -> np.ndarray:
    """Random element of the cone (edge translate plus a PSD part)."""
    return sample_members(cone, rng, 1)[0]


def sample_polar_element(cone: ConeHandle, rng) -> np.ndarray:
    """Random element of span cap positive cone (the polar of a minimal cone).

    Works whenever the identity has a component in the span: a random span
    element is shifted along pi_S(Id) past the PSD boundary.
    """
    rng = as_rng(rng)
    span = cone.span_of()
    n = cone.n
    pid = subspace_project(span, np.eye(n))
    if frob_norm(pid) < 1e-12:
        raise ValueError("span is trace-free; no PSD elements to sample")
    z = from_coords(span, rng.normal(size=span.dim))
    lam = np.linalg.eigvalsh(z)
    pid_min = np.linalg.eigvalsh(pid)[0]
    if pid_min <= 1e-12:
        # shift direction is not PD by itself; rescale via margin search
        t = 0.0
        step = 1.0 + abs(lam[0])
        for _ in range(200):
            if np.linalg.eigvalsh(z + t * pid)[0] >= 0:
                break
            t += step
        else:
            raise ValueError("could not reach the positive cone along pi_S(Id)")
    else:
        t = max(0.0, -lam[0] / pid_min)
    return z + (t + float(rng.uniform(0.05, 1.0))) * pid


# ----------------------------------------------------------------------
# sampled structural checks
# ----------------------------------------------------------------------

def stack_verdicts(cone: ConeHandle, stack, scale: float):
    """contains's verdicts on a stack, from one margin_batch call.

    Returns (signs, tols): tol = scale * default_tol of each matrix, and
    sign +1 where its margin is above tol (interior), -1 where it is below
    -tol (outside), 0 in the dead band between (boundary).
    """
    stack = np.asarray(stack, dtype=float).reshape(-1, cone.n, cone.n)
    margins = cone.margin_batch(stack)
    tols = scale * np.array([default_tol(a) for a in stack])
    return (margins > tols).astype(int) - (margins < -tols).astype(int), tols


def polar_membership(cone: ConeHandle, a: np.ndarray, budget: int, seed: int) -> float:
    """Bipolar sampling test: min <A, B / (1 + |B|)> over 2 * budget cone
    members B, drawn as one block from a generator seeded by seed."""
    b = sample_members(cone, seed, 2 * budget)
    b /= 1.0 + np.linalg.norm(b, axis=(1, 2))[:, None, None]
    return float(np.einsum("ij,mji->m", a, b).min())


def check_minimality(cone: ConeHandle, budget: int = 200, seed: int = 0) -> dict:
    """Sampled verification of the minimal-cone identities (verdicts at
    CHECK_TOL_SCALE default_tol).

    (i)   membership is decided by the reduced hessian: A and
          pi_S(A) + (random edge element) get the same verdict;
    (ii)  interior points split as edge translate + PD part, and conversely,
          read off one translate_sdp call over all samples;
    (iii) polar = span cap positive cone, both directions sampled;
    (iv)  relative-interior polar elements are positive definite.

    The samples of (i) and (ii) are drawn one at a time, in a fixed order;
    each of the two stacks then gets its verdicts from stack_verdicts.
    """
    _positive_int("budget", budget)
    rng = as_rng(seed)
    n = cone.n
    edge = cone.edge_of()
    span = cone.span_of()
    report = {"cone": getattr(cone, "name", None) or "anonymous", "n": n,
              "budget": budget, "checks": {}, "passed": True}

    def log(key, failures, total, extra=None):
        entry = {"failures": int(failures), "total": total}
        if extra:
            entry.update(extra)
        report["checks"][key] = entry
        if failures:
            report["passed"] = False

    # (i) reduced-hessian consistency: A and its reduced form, side by side
    pairs = []
    for _ in range(budget):
        a = random_symmetric(n, rng, scale=1.0)
        shift = from_coords(edge, rng.normal(size=edge.dim)) if edge.dim else 0.0
        pairs.append((a, subspace_project(span, a) + shift))
    signs = stack_verdicts(cone, pairs, CHECK_TOL_SCALE)[0].reshape(budget, 2)
    log("reduced_hessian", np.sum(signs[:, 0] * signs[:, 1] < 0), budget)

    # (ii) interior decomposition, both directions
    stack = np.array([sample_member(cone, rng) + 0.05 * np.eye(n) if t % 2 == 0
                      else random_symmetric(n, rng) for t in range(budget)])
    positive_part_min = translate_sdp(stack, edge.basis)[0]
    signs, tols = stack_verdicts(cone, stack, CHECK_TOL_SCALE)
    fails = (np.sum((signs > 0) & (positive_part_min <= -tols))
             + np.sum((positive_part_min > tols) & (signs < 0)))
    log("interior_decomposition", fails, budget)

    # (iii) polar identities
    fails = 0
    half = max(1, budget // 2)
    for _ in range(half):
        try:
            z = sample_polar_element(cone, rng)
        except ValueError:
            break
        tol = default_tol(z) * CHECK_TOL_SCALE
        if polar_membership(cone, z, budget=64, seed=rng.integers(2**31)) < -tol:
            fails += 1
    for _ in range(half):
        a = random_symmetric(n, rng)
        in_span = residual_norm(span, a) < 1e-9
        psd = np.linalg.eigvalsh(a)[0] >= -1e-12
        if in_span and psd:
            continue  # only test points outside span cap PSD
        tol = default_tol(a) * CHECK_TOL_SCALE
        # a refuting member: the edge component of A, or a negative eigendirection
        pe = subspace_project(edge, a) if edge.dim else np.zeros_like(a)
        found = False
        if frob_norm(pe) > tol:
            found = min(np.einsum("ij,ji->", a, pe), np.einsum("ij,ji->", a, -pe)) < -tol
        if not found:
            lam, vec = np.linalg.eigh(a)
            if lam[0] < -tol:
                v = vec[:, 0]
                found = np.einsum("i,ij,j->", v, a, v) < -tol
        if not found:
            found = polar_membership(cone, a, budget=128, seed=rng.integers(2**31)) < -tol
        if not found:
            fails += 1
    log("polar_identity", fails, 2 * half)

    # (iv) relative-interior polar points are PD
    fails = 0
    total = 0
    for _ in range(half):
        try:
            z = sample_polar_element(cone, rng)
        except ValueError:
            break
        total += 1
        if np.linalg.eigvalsh(z)[0] <= 0:
            fails += 1
    log("polar_interior_pd", fails, total)
    return report


def self_duality_check(cone: ConeHandle, budget: int = 200, seed: int = 0) -> dict:
    """Is the projection of the positive cone onto the span equal to the
    polar?  Confirmed by sampling; refuted by a projected rank-one
    projector that fails to be PSD.
    """
    _positive_int("budget", budget)
    rng = as_rng(seed)
    n = cone.n
    span = cone.span_of()
    worst = np.inf
    witness = None
    for _ in range(budget):
        e = rng.normal(size=n)
        e /= np.linalg.norm(e)
        z = subspace_project(span, np.outer(e, e))
        lam = float(np.linalg.eigvalsh(z)[0])
        if lam < worst:
            worst, witness = lam, e
    self_dual = worst >= -1e-9
    return {
        "cone": getattr(cone, "name", None) or "anonymous",
        "self_dual": bool(self_dual),
        "worst_projected_eigenvalue": worst,
        "witness_direction": None if self_dual else witness.tolist(),
    }


def check_dual_inclusion(cone: ConeHandle, budget: int = 1000, seed: int = 0) -> dict:
    """Sampled members of a minimal cone lie in its dual cone (verdicts at
    CHECK_TOL_SCALE default_tol).

    The members are one sample_members block.  A is dual-outside when -A is
    interior, so the failures are the interior verdicts of stack_verdicts on
    the negated block.
    """
    _positive_int("budget", budget)
    stack = sample_members(cone, seed, budget)
    fails = int(np.sum(stack_verdicts(cone, -stack, CHECK_TOL_SCALE)[0] > 0))
    return {"cone": getattr(cone, "name", None) or "anonymous",
            "budget": budget, "failures": fails, "passed": fails == 0}


def cross_validate_oracles(primary: ConeHandle, reference, budget: int = 1000,
                           seed: int = 0, margin_floor: float = 1e-5,
                           inclusion_only: bool = False) -> dict:
    """Compare two membership oracles on random matrices.

    `reference` is a cone handle or a margin callable.  Matrices whose
    margin under either oracle falls below `margin_floor` in magnitude are
    dead-band cases and are skipped.  With `inclusion_only`, membership in
    the primary must imply membership in the reference, and reverse
    counterexamples are only counted, never judged.  Each handle's margins
    come from one margin_batch call (a geometric reference thus runs its
    frame descents over the whole stack); a callable reference is called
    one matrix at a time.
    """
    _positive_int("budget", budget)
    rng = as_rng(seed)
    n = primary.n
    agree = disagree = skipped = 0
    reverse_candidates = 0
    examples = []
    stack = np.array([sample_member(primary, rng) if t % 3 == 0
                      else random_symmetric(n, rng) for t in range(budget)])
    if isinstance(reference, ConeHandle):
        ref_margins = reference.margin_batch(stack)
    else:
        ref_margins = [float(reference(a)) for a in stack]
    for a, m1, m2 in zip(stack, primary.margin_batch(stack), ref_margins):
        if min(abs(m1), abs(m2)) <= margin_floor:
            skipped += 1
        elif (m1 > 0) == (m2 > 0):
            agree += 1
        elif inclusion_only and m2 > 0:  # reference only: not judged
            reverse_candidates += 1
        else:
            disagree += 1
            if len(examples) < 5:
                examples.append(a.tolist())
    out = {
        "cone": getattr(primary, "name", None) or "anonymous",
        "budget": budget, "agree": agree, "disagree": disagree,
        "dead_band_skipped": skipped, "examples": examples,
    }
    if inclusion_only:
        out["reverse_candidates"] = reverse_candidates
    return out
