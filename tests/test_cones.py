import numpy as np
import pytest

from conedge import catalog as cat
from conedge import cones as cn
from conedge import dirichlet as dh
from conedge import structures as st
from conedge import symspace as ss


def scan_margin_1d(a, direction, lo=-30.0, hi=30.0, steps=60001):
    """Brute-force oracle for a one-dimensional edge: max over t of
    lambda_min(a - t * direction)."""
    ts = np.linspace(lo, hi, steps)
    best = -np.inf
    for t in ts:
        best = max(best, np.linalg.eigvalsh(a - t * direction)[0])
    return best


@pytest.fixture(scope="module")
def traceless2():
    return ss.orthonormalize([np.diag([1.0, -1.0])])


class TestEdgeConeMembership:
    def test_interior_example(self, traceless2):
        cone = cn.EdgeCone(traceless2, check=True)
        a = np.diag([-3.0, 5.0])
        verdict = cone.contains(a)
        # oracle: 1-d scan over the edge line (optimum 1.0 at t = -4)
        oracle = scan_margin_1d(a, traceless2.basis[0] * np.sqrt(2))
        assert verdict.verdict is cn.Verdict.INTERIOR
        assert verdict.margin == pytest.approx(oracle, abs=1e-4)
        assert verdict.margin == pytest.approx(1.0, abs=1e-9)

    def test_outside_example(self, traceless2):
        cone = cn.EdgeCone(traceless2, check=False)
        a = np.diag([-1.0, -1.0])
        verdict = cone.contains(a)
        assert verdict.verdict is cn.Verdict.OUTSIDE
        assert verdict.margin == pytest.approx(-1.0, abs=1e-9)

    def test_zero_edge_is_psd_cone(self, rng):
        cone = cn.EdgeCone(ss.zero_subspace(3), check=True)
        for _ in range(25):
            a = ss.random_symmetric(3, rng)
            lam = np.linalg.eigvalsh(a)[0]
            assert cone.margin(a) == pytest.approx(lam, abs=1e-12)

    def test_witness_is_edge_translate(self, traceless2, rng):
        cone = cn.EdgeCone(traceless2, check=False)
        a = ss.random_symmetric(2, rng)
        verdict = cone.contains(a)
        e = verdict.witness
        assert ss.residual_norm(traceless2, e) <= 1e-9
        assert np.linalg.eigvalsh(a - e)[0] == pytest.approx(verdict.margin, abs=1e-12)

    def test_margin_id_shift_affine(self, rng):
        cone = cat.build_cone("P_LAG", 4)
        for _ in range(10):
            a = ss.random_symmetric(4, rng)
            s = rng.uniform(-2, 2)
            assert cone.margin(a - s * np.eye(4)) == pytest.approx(
                cone.margin(a) - s, abs=1e-9)

    def test_geometric_membership_example(self):
        psd = cn.GeometricCone(st.PlaneFamily("grass", 2, 1), budget=300, seed=0)
        verdict = psd.contains(np.diag([1.0, -0.1]))
        assert verdict.verdict is cn.Verdict.OUTSIDE
        # witness plane concentrates on the negative axis
        w = verdict.witness
        assert abs(abs(w[0, 1]) - 1.0) < 1e-6

    def test_halfspace_membership(self):
        hs = cn.HalfspaceCone(np.eye(2))
        assert hs.contains(np.diag([3.0, -1.0])).verdict is cn.Verdict.INTERIOR
        assert hs.contains(np.diag([1.0, -1.0])).verdict is cn.Verdict.BOUNDARY
        assert hs.contains(np.diag([-2.0, 1.0])).verdict is cn.Verdict.OUTSIDE

    def test_halfspace_requires_psd_normal(self):
        with pytest.raises(ValueError):
            cn.HalfspaceCone(np.diag([1.0, -1.0]))


class TestOracleInputChecks:
    """contains and dual_contains reject bad matrices where they enter,
    with a ValueError that names the argument."""

    CONES = {
        "closed_form": lambda: cat.build_cone("P_C", 4),
        "optimizer": lambda: cat.build_cone("P_EI", 4),
        "halfspace": lambda: cn.HalfspaceCone(np.eye(4)),
    }

    @pytest.fixture(params=sorted(CONES))
    def cone(self, request):
        return self.CONES[request.param]()

    @pytest.mark.parametrize("op", ["contains", "dual_contains"])
    def test_wrong_size(self, cone, op):
        with pytest.raises(ValueError, match=rf"^{op}: matrix a is 3x3, cone ambient 4"):
            getattr(cone, op)(np.eye(3))

    @pytest.mark.parametrize("op", ["contains", "dual_contains"])
    def test_nan_entry(self, cone, op):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match=rf"^{op}: matrix a rejected: .*finite"):
            getattr(cone, op)(a)

    @pytest.mark.parametrize("op", ["contains", "dual_contains"])
    def test_asymmetric(self, cone, op):
        a = np.eye(4)
        a[0, 1] = 0.5
        with pytest.raises(ValueError, match=rf"^{op}: matrix a rejected: .*not symmetric"):
            getattr(cone, op)(a)


class TestMarginInputChecks:
    """margin checks its matrix as contains does."""

    @pytest.fixture(params=sorted(TestOracleInputChecks.CONES))
    def cone(self, request):
        return TestOracleInputChecks.CONES[request.param]()

    def test_wrong_size(self, cone):
        with pytest.raises(ValueError, match=r"^margin: matrix a is 3x3, cone ambient 4"):
            cone.margin(np.eye(3))

    def test_nan_entry(self, cone):
        a = np.eye(4)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"^margin: matrix a rejected: .*finite"):
            cone.margin(a)

    def test_asymmetric(self, cone):
        a = np.eye(4)
        a[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"^margin: matrix a rejected: .*not symmetric"):
            cone.margin(a)


class TestOptimizerInputChecks:
    """The input checks above on a cone whose margin runs the translate
    optimizer: P_EI(4) has a closed form (the lagrangian cone of I), while
    at n = 8 the edge keeps its h_sym0 part and has none."""

    OPS = ["contains", "dual_contains", "margin"]

    @pytest.fixture(scope="class")
    def cone(self):
        cone = cat.build_cone("P_EI", 8)
        assert cone._fast_margin is None
        return cone

    @pytest.mark.parametrize("op", OPS)
    def test_wrong_size(self, cone, op):
        with pytest.raises(ValueError, match=rf"^{op}: matrix a is 4x4, cone ambient 8"):
            getattr(cone, op)(np.eye(4))

    @pytest.mark.parametrize("op", OPS)
    def test_nan_entry(self, cone, op):
        a = np.eye(8)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match=rf"^{op}: matrix a rejected: .*finite"):
            getattr(cone, op)(a)

    @pytest.mark.parametrize("op", OPS)
    def test_asymmetric(self, cone, op):
        a = np.eye(8)
        a[0, 1] = 0.5
        with pytest.raises(ValueError, match=rf"^{op}: matrix a rejected: .*not symmetric"):
            getattr(cone, op)(a)


class TestMarginBatchInputChecks:
    """margin_batch checks every matrix of its stack as margin does."""

    CONES = {
        "edge": lambda: cat.build_cone("P", 2),
        "halfspace": lambda: cn.HalfspaceCone(np.eye(2)),
        "geometric": lambda: cn.GeometricCone(st.PlaneFamily("grass", 2, 1), budget=20),
    }

    @pytest.fixture(params=sorted(CONES))
    def cone(self, request):
        return self.CONES[request.param]()

    def test_nan_entry(self, cone):
        a = np.eye(2)
        a[0, 1] = np.nan  # one triangle only: eigvalsh alone would not see it
        with pytest.raises(ValueError, match=r"^margin_batch: matrix a rejected: .*finite"):
            cone.margin_batch(np.array([np.eye(2), a]))

    def test_asymmetric(self, cone):
        a = np.eye(2)
        a[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"^margin_batch: matrix a rejected: .*not symmetric"):
            cone.margin_batch(np.array([np.eye(2), a]))

    def test_wrong_size(self, cone):
        with pytest.raises(ValueError, match=r"^margin_batch: matrix a is 3x3, cone ambient 2"):
            cone.margin_batch(np.array([np.eye(3)]))


class TestBatchOfOne:
    """margin_batch(stack)[i] is margin(stack[i]) on every kind of handle,
    and stack_verdicts gives contains's verdicts."""

    CONES = {
        "closed_form": lambda: cat.build_cone("P_C", 4),
        "closed_form_p_ei": lambda: cat.build_cone("P_EI", 4),
        "translate_kernel": lambda: cn.EdgeCone(
            st.irreducible_components(st.Group("un", 4))["c_skew"], check=False),
        "halfspace": lambda: cn.HalfspaceCone(np.diag([1.0, 0.5, 0.0, 2.0])),
        "geometric": lambda: cn.GeometricCone(st.PlaneFamily("lag", 4), budget=300),
    }
    SIGN = {cn.Verdict.INTERIOR: 1, cn.Verdict.BOUNDARY: 0, cn.Verdict.OUTSIDE: -1}

    @pytest.fixture(params=sorted(CONES))
    def cone(self, request):
        return self.CONES[request.param]()

    def test_batch_equals_single(self, cone, rng):
        stack = np.array([ss.random_symmetric(4, rng) + rng.uniform(-4.0, 4.0) * np.eye(4)
                          for _ in range(30)])
        # half of them moved onto the boundary, into the dead band
        stack[::2] -= np.array([cone.margin(a) / cone.id_shift_slope
                                for a in stack[::2]])[:, None, None] * np.eye(4)
        single = np.array([cone.margin(a) for a in stack])
        scale = 1.0 + np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(cone.margin_batch(stack) - single) <= 1e-12 * scale)
        signs = cn.stack_verdicts(cone, stack, 1.0)[0]
        assert list(signs) == [self.SIGN[cone.contains(a).verdict] for a in stack]
        assert 0 in signs and 1 in signs and -1 in signs

    def test_kernel_batch_at_dimension_8(self, rng):
        cone = cat.build_cone("P_HSYM", 8)
        stack = np.array([ss.random_symmetric(8, rng) for _ in range(6)])
        single = np.array([cone.margin(a) for a in stack])
        scale = 1.0 + np.linalg.norm(stack, axis=(1, 2))
        assert np.all(np.abs(cone.margin_batch(stack) - single) <= 1e-12 * scale)

    def test_empty_stack(self, cone):
        signs, tols = cn.stack_verdicts(cone, [], 1.0)
        assert signs.shape == tols.shape == (0,)


class TestOptimizerAgainstClosedForms:
    @pytest.mark.parametrize("name,n", [("P_C", 4), ("P_LAG", 4), ("P_H", 4),
                                        ("GL_IJK", 8), ("laplace", 3)])
    def test_translate_optimizer_matches(self, name, n, rng):
        cone = cat.build_cone(name, n)
        for _ in range(15):
            a = ss.random_symmetric(n, rng)
            m_opt, _, _, _ = cn.edge_translate_margin(a, cone.edge)
            assert m_opt == pytest.approx(cone.margin(a), abs=1e-8)


class TestTranslateKernel:
    """translate_sdp against the closed forms: its lower value is certified
    (never above the maximum) and its dual iterate is feasible."""

    PAIRS = [("P", 3), ("laplace", 3), ("P_C", 4), ("P_LAG", 4), ("P_H", 4),
             ("GL_IJK", 4), ("P_EI", 4), ("P_C", 6), ("P_LAG", 6),
             ("GL_IJK", 8), ("P_C", 8), ("P_H", 8)]

    @staticmethod
    def stacks(cone, seed):
        """1000 random matrices, and the same matrices moved onto the cone
        boundary (A - margin(A) Id)."""
        rng = np.random.default_rng(seed)
        a = np.array([ss.random_symmetric(cone.n, rng) for _ in range(1000)])
        boundary = a - cone.margin_batch(a)[:, None, None] * np.eye(cone.n)
        return {"random": a, "boundary": boundary}

    @pytest.mark.parametrize("name, n", PAIRS)
    def test_lower_matches_closed_form(self, name, n):
        cone = cat.build_cone(name, n)
        assert cone._fast_margin is not None
        for kind, a in self.stacks(cone, 80).items():
            closed = cone.margin_batch(a)
            lower, coords, z, gap = cn.translate_sdp(a, cone.edge.basis)
            scale = 1.0 + np.linalg.norm(a, axis=(1, 2))
            assert np.all(lower <= closed + 1e-12 * scale), kind
            assert np.all(np.abs(lower - closed) <= 1e-10 * scale), kind
            # lower is lambda_min at the returned translate
            translated = a - np.einsum("mk,kij->mij", coords, cone.edge.basis)
            assert np.all(np.abs(lower - np.linalg.eigvalsh(translated)[:, 0])
                          <= 1e-14 * scale), kind

    @pytest.mark.parametrize("name, n", PAIRS)
    def test_dual_iterate_is_feasible(self, name, n):
        cone = cat.build_cone(name, n)
        for kind, a in self.stacks(cone, 81).items():
            closed = cone.margin_batch(a)
            _, _, z, gap = cn.translate_sdp(a, cone.edge.basis)
            assert np.all(np.abs(np.trace(z, axis1=1, axis2=2) - 1) <= 1e-10), kind
            assert np.all(np.abs(np.einsum("kij,mji->mk", cone.edge.basis, z)) <= 1e-10)
            assert np.all(np.linalg.eigvalsh(z)[:, 0] >= -1e-10), kind
            upper = np.einsum("mij,mji->m", a, z)
            tols = np.array([cn.default_tol(x) for x in a])
            assert np.all(upper >= closed - tols), kind
            assert np.all(gap <= tols), kind

    @pytest.mark.parametrize("name", ["P_EI", "P_HSYM"])
    def test_batch_equals_single(self, name):
        cone = cat.build_cone(name, 8)
        assert cone._fast_margin is None
        rng = np.random.default_rng(82)
        a = np.array([ss.random_symmetric(8, rng) for _ in range(12)])
        batch = cone.margin_batch(a)
        single = np.array([cone.margin(x) for x in a])
        assert np.all(np.abs(batch - single) <= 1e-12)
        # the single-matrix entries are the same kernel
        assert np.all(np.abs(batch - [cone.optimizer_margin(x)[0] for x in a]) <= 1e-12)

    def test_zero_edge_is_lambda_min(self):
        rng = np.random.default_rng(83)
        a = np.array([ss.random_symmetric(3, rng) for _ in range(5)])
        lower, coords, z, gap = cn.translate_sdp(a, np.zeros((0, 3, 3)))
        lam, vec = np.linalg.eigh(a)
        assert np.array_equal(lower, lam[:, 0]) and coords.shape == (5, 0)
        assert np.allclose(np.einsum("mij,mji->m", a, z), lam[:, 0], atol=1e-12)
        assert np.all(gap == 0)

    def test_non_finite_direction_freezes(self, monkeypatch):
        # a direction poisoned after the first Newton solve leaves every
        # matrix at its first iterate, whose lower value stays certified
        cone = cat.build_cone("P_C", 4)
        rng = np.random.default_rng(84)
        a = np.array([ss.random_symmetric(4, rng) for _ in range(3)])
        solve = np.linalg.solve
        monkeypatch.setattr(cn.np.linalg, "solve",
                            lambda r, rhs: np.full(np.shape(solve(r, rhs)), np.nan))
        lower, coords, z, gap = cn.translate_sdp(a, cone.edge.basis)
        monkeypatch.undo()
        assert np.all(coords == 0)
        assert np.array_equal(lower, np.linalg.eigvalsh(a)[:, 0])
        assert np.all(lower <= cone.margin_batch(a))
        assert np.all(gap > 1.0)

    def test_stalled_means_gap_not_closed(self, monkeypatch):
        cone = cat.build_cone("P_C", 4)
        a = ss.random_symmetric(4, np.random.default_rng(85))
        assert not cone.optimizer_margin(a)[3]
        monkeypatch.setattr(cn, "SDP_MAX_ITER", 2)
        m, _, _, stalled = cone.optimizer_margin(a)
        assert stalled and m <= cone.margin(a)

    def test_red_black_solve_without_closed_form(self):
        # the hand-built c_skew cone has no closed form, so every half-sweep
        # runs the kernel on the whole stack; its fixed point is P_C(4)'s
        comps = st.irreducible_components(st.Group("un", 4))
        plain = cn.EdgeCone(comps["c_skew"], check=False)
        closed = cat.build_cone("P_C", 4)
        assert plain._fast_margin is None
        dom = dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5)

        def phi(p):
            return np.cos(p[:, 0]) * np.exp(0.5 * p[:, 1]) + p[:, 2] * p[:, 3]

        tol = 1e-9
        u1, info1 = dh.perron_solve(plain, dom, phi, ordering="redblack", tol=tol)
        u2, info2 = dh.perron_solve(closed, dom, phi, ordering="redblack", tol=tol)
        assert info1.converged and info2.converged
        assert np.abs(u1.values - u2.values).max() <= 10 * tol

    def test_lex_solve_without_closed_form(self):
        # lex runs the kernel once per dependency front; the node-by-node
        # lex sweep took 40 sweeps on this problem, and both orderings
        # share one fixed point
        comps = st.irreducible_components(st.Group("un", 4))
        plain = cn.EdgeCone(comps["c_skew"], check=False)
        dom = dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5)

        def phi(p):
            return np.cos(p[:, 0]) * np.exp(0.5 * p[:, 1]) + p[:, 2] * p[:, 3]

        tol = 1e-9
        u1, info1 = dh.perron_solve(plain, dom, phi, ordering="lex", tol=tol)
        u2, info2 = dh.perron_solve(plain, dom, phi, ordering="redblack", tol=tol)
        assert info1.converged and info2.converged
        assert info1.sweeps == 40
        assert np.abs(u1.values - u2.values).max() <= 10 * tol


class TestBasicEdge:
    def test_traceless_line_is_basic(self, traceless2):
        rep = cn.is_basic_edge(traceless2)
        assert rep.basic and not rep.indeterminate
        # witness: a positive-definite element of the complement
        assert np.linalg.eigvalsh(rep.witness)[0] > 0

    def test_psd_direction_not_basic(self):
        rep = cn.is_basic_edge(ss.orthonormalize([np.diag([1.0, 0.0])]))
        assert not rep.basic and not rep.indeterminate
        lam = np.linalg.eigvalsh(rep.witness)
        assert lam[0] >= -1e-9  # PSD witness inside the edge

    def test_component_sums_are_basic(self):
        comps = st.irreducible_components(st.Group("spn_s1", 8))
        for name in ("h_sym0", "e_i", "e_j", "e_k"):
            sub = comps[name]
            for b in sub.basis:
                assert abs(ss.inner(b, np.eye(8))) <= 1e-10
            rep = cn.is_basic_edge(sub, starts=8)
            assert rep.basic and not rep.indeterminate, name

    def test_zero_and_full(self):
        assert cn.is_basic_edge(ss.zero_subspace(2)).basic
        rep = cn.is_basic_edge(ss.full_subspace(2))
        assert not rep.basic

    def test_dichotomy_on_random_subspaces(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 10))
            gens = [ss.random_symmetric(4, rng) for _ in range(k)]
            sub = ss.orthonormalize(gens)
            rep = cn.is_basic_edge(sub, starts=10, seed=int(rng.integers(2**31)))
            assert not rep.indeterminate


class TestEdgeSpanOperations:
    def test_halfspace_edge_is_traceless(self, rng):
        hs = cn.HalfspaceCone(np.eye(3))
        edge = hs.edge_of()
        comps = st.irreducible_components(st.Group("on", 3))
        assert ss.subspace_equal(edge, comps["sym0"], 1e-9)

    def test_geometric_zero_edge(self):
        gc = cn.GeometricCone(st.PlaneFamily("grass", 3, 1), budget=400, seed=1)
        assert gc.edge_of().dim == 0

    def test_geometric_lag_edge(self):
        gc = cn.GeometricCone(st.PlaneFamily("lag", 4), budget=500, seed=1)
        comps = st.irreducible_components(st.Group("un", 4))
        assert ss.subspace_equal(gc.edge_of(), comps["c_sym0"], 1e-8)

    def test_reduced_hessian_trace_cone(self, rng):
        lap = cat.build_cone("laplace", 3)
        for _ in range(10):
            a = ss.random_symmetric(3, rng)
            assert np.allclose(lap.reduced_hessian(a), np.trace(a) / 3 * np.eye(3),
                               atol=1e-10)

    def test_reduced_hessian_psd_cone(self, rng):
        cone = cat.build_cone("P", 3)
        a = ss.random_symmetric(3, rng)
        assert np.allclose(cone.reduced_hessian(a), a, atol=1e-10)

    def test_reduced_hessian_complex(self, rng):
        cone = cat.build_cone("P_C", 4)
        i4 = st.complex_structure(4)
        for _ in range(10):
            a = ss.random_symmetric(4, rng)
            assert np.allclose(cone.reduced_hessian(a),
                               st.complex_sym_part(a, i4), atol=1e-9)

    def test_reduced_constraint_consistency(self, rng):
        cone = cat.build_cone("P_C", 4)
        edge = cone.edge_of()
        for _ in range(20):
            a = ss.random_symmetric(4, rng)
            shift = ss.from_coords(edge, rng.normal(size=edge.dim))
            v1 = cone.contains(a, 1e-6)
            v2 = cone.contains(cone.reduced_hessian(a) + shift, 1e-6)
            if cn.Verdict.BOUNDARY in (v1.verdict, v2.verdict):
                continue
            assert v1.verdict == v2.verdict

    def test_edge_basis_never_interior(self, rng):
        for name in ("laplace", "P_C"):
            cone = cat.build_cone(name, 4 if name == "P_C" else 3)
            for b in cone.edge_of().basis[:4]:
                assert cone.contains(b).verdict is not cn.Verdict.INTERIOR

    def test_unstable_rank_raises(self):
        gc = cn.GeometricCone(st.PlaneFamily("lag", 8), budget=2, seed=0)
        with pytest.raises(ValueError):
            gc.edge_of()


class TestSupport:
    def test_halfspace_axis(self):
        hs = cn.HalfspaceCone(np.diag([1.0, 0.0]))
        rep = cn.support_of(hs)
        assert rep.support.shape[0] == 1
        assert abs(abs(rep.support[0, 0]) - 1.0) <= 1e-3
        assert rep.killed.shape[0] == 1
        assert abs(abs(rep.killed[0, 1]) - 1.0) <= 1e-3
        assert rep.zero_extension_failures == 0
        assert rep.zero_extension_checked > 0

    def test_two_deflations(self):
        # only e1 carries the normal: e2 and e3 are killed one after another
        rep = cn.support_of(cn.HalfspaceCone(np.diag([1.0, 0.0, 0.0])))
        assert rep.killed.shape == (2, 3)
        assert rep.support.shape == (1, 3)
        assert abs(abs(rep.support[0, 0]) - 1.0) <= 1e-3
        assert np.abs(rep.killed[:, 0]).max() <= 1e-3

    def test_rank_two_normal_support_is_its_range(self):
        # a rotated rank-2 normal N in R^4: support = range N, killed = ker N
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
        normal = q[:, :2] @ np.diag([2.0, 0.5]) @ q[:, :2].T
        rep = cn.support_of(cn.HalfspaceCone(normal))
        assert rep.support.shape == (2, 4) and rep.killed.shape == (2, 4)
        rng_proj = q[:, :2] @ q[:, :2].T
        assert np.abs(rep.support.T @ rep.support - rng_proj).max() <= 1e-12
        assert np.abs(rep.killed.T @ rep.killed - (np.eye(4) - rng_proj)).max() <= 1e-12
        assert rep.indeterminate == []

    def test_psd_cone_full_support(self):
        rep = cn.support_of(cat.build_cone("P", 3))
        assert rep.support.shape[0] == 3

    def test_trace_cone_full_support(self):
        rep = cn.support_of(cat.build_cone("laplace", 3))
        assert rep.support.shape[0] == 3


class TestMinimalCone:
    def test_zero_edge_gives_psd(self, rng):
        cone = cn.minimal_cone(ss.zero_subspace(2), name="psd")
        for _ in range(30):
            a = ss.random_symmetric(2, rng)
            member = cone.contains(a).is_member
            assert member == (np.linalg.eigvalsh(a)[0] >= -1e-7 * (1 + ss.frob_norm(a)))

    def test_traceless_gives_trace_halfspace(self, rng):
        comps = st.irreducible_components(st.Group("on", 3))
        cone = cn.minimal_cone(comps["sym0"])
        for _ in range(100):
            a = ss.random_symmetric(3, rng)
            if abs(np.trace(a)) < 1e-5:
                continue
            assert cone.contains(a).is_member == (np.trace(a) > 0)

    def test_complex_skew_gives_hermitian_positivity(self, rng):
        comps = st.irreducible_components(st.Group("un", 4))
        cone = cn.minimal_cone(comps["c_skew"])
        i4 = st.complex_structure(4)
        for _ in range(40):
            a = ss.random_symmetric(4, rng)
            lam = np.linalg.eigvalsh(st.complex_sym_part(a, i4))[0]
            if abs(lam) < 1e-5:
                continue
            assert cone.contains(a).is_member == (lam > 0)

    def test_refuses_non_basic(self):
        bad = ss.orthonormalize([np.diag([1.0, 0.0])])
        with pytest.raises(ValueError):
            cn.minimal_cone(bad)

    def test_edge_roundtrip(self):
        comps = st.irreducible_components(st.Group("un", 4))
        cone = cn.minimal_cone(comps["c_skew"])
        assert ss.subspace_equal(cone.edge_of(), comps["c_skew"], 1e-10)


class TestSampledProperties:
    @pytest.mark.parametrize("name,n", [("P", 2), ("laplace", 3), ("P_C", 4)])
    def test_positivity(self, name, n, rng):
        cone = cat.build_cone(name, n)
        for _ in range(60):
            a = cn.sample_member(cone, rng)
            g = rng.normal(size=(n, n))
            assert cone.contains(a + g @ g.T).verdict is not cn.Verdict.OUTSIDE

    @pytest.mark.parametrize("name,n", [("P", 2), ("P_C", 4)])
    def test_cone_scaling_and_averaging(self, name, n, rng):
        cone = cat.build_cone(name, n)
        for _ in range(50):
            a = cn.sample_member(cone, rng)
            b = cn.sample_member(cone, rng)
            t = float(rng.uniform(0.1, 5.0))
            assert cone.contains(t * a).verdict is not cn.Verdict.OUTSIDE
            assert cone.contains(0.5 * (a + b)).verdict is not cn.Verdict.OUTSIDE

    def test_topological_property(self, rng):
        cone = cat.build_cone("P_C", 4)
        found = 0
        for _ in range(300):
            a = ss.random_symmetric(4, rng)
            v = cone.contains(a)
            if v.verdict is cn.Verdict.BOUNDARY:
                found += 1
                bumped = cone.contains(a + 10 * v.tol * np.eye(4))
                assert bumped.verdict is cn.Verdict.INTERIOR
        # boundary hits are rare for random matrices; force some
        b = cn.sample_member(cone, rng)
        m = cone.margin(b)
        exact_boundary = b - m * np.eye(4)
        v = cone.contains(exact_boundary)
        assert v.verdict is cn.Verdict.BOUNDARY
        assert cone.contains(exact_boundary + 10 * v.tol * np.eye(4)).verdict \
            is cn.Verdict.INTERIOR

    def test_edge_span_orthogonality(self):
        for name, n in (("laplace", 3), ("P_C", 4), ("GL_IJK", 4)):
            cone = cat.build_cone(name, n)
            edge, span = cone.edge_of(), cone.span_of()
            for e in edge.basis:
                for s in span.basis:
                    assert abs(ss.inner(e, s)) <= 1e-9


class TestMinimalityChecks:
    @pytest.mark.parametrize("name,n", [("P", 2), ("laplace", 2), ("P_C", 4)])
    def test_check_minimality_clean(self, name, n):
        cone = cat.build_cone(name, n)
        report = cn.check_minimality(cone, budget=60, seed=3)
        assert report["passed"], report

    @pytest.mark.parametrize("shift", [0.5, -0.5])
    def test_check_minimality_catches_a_shifted_margin(self, shift):
        # the P_C(4) edge with its closed form moved off the translate
        # kernel's margin: check (ii) sees verdicts that the positive
        # parts contradict
        comps = st.irreducible_components(st.Group("un", 4))
        closed = cat.build_cone("P_C", 4)._fast_margin
        cone = cn.EdgeCone(comps["c_skew"], check=False,
                           fast_margin=lambda s: closed(s) + shift)
        report = cn.check_minimality(cone, budget=60, seed=3)
        assert report["checks"]["interior_decomposition"] == {"failures": 6, "total": 60}
        assert not report["passed"]

    def test_check_dual_inclusion_catches_a_shifted_margin(self):
        # the c_skew closed form raised by 2: -A is then interior for the
        # members whose complex part has its top eigenvalue below 2, so they
        # leave the dual cone (a shift of 0.5 leaves none of 60 out)
        comps = st.irreducible_components(st.Group("un", 4))
        closed = cat.build_cone("P_C", 4)._fast_margin
        cone = cn.EdgeCone(comps["c_skew"], check=False,
                           fast_margin=lambda s: closed(s) + 2.0)
        report = cn.check_dual_inclusion(cone, budget=60, seed=3)
        assert (report["failures"], report["passed"]) == (12, False)

    @pytest.mark.parametrize("budget", [0, -5])
    @pytest.mark.parametrize("check", [
        cn.check_minimality, cn.check_dual_inclusion, cn.self_duality_check,
        lambda cone, budget: cn.cross_validate_oracles(cone, cone, budget=budget),
    ], ids=["minimality", "dual_inclusion", "self_duality", "cross_validate"])
    def test_budget_must_be_positive(self, check, budget):
        with pytest.raises(ValueError, match="budget"):
            check(cat.build_cone("P_C", 4), budget=budget)

    def test_self_duality_verdicts(self):
        assert cn.self_duality_check(cat.build_cone("P", 2), budget=100)["self_dual"]
        assert cn.self_duality_check(cat.build_cone("laplace", 2), budget=100)["self_dual"]
        assert cn.self_duality_check(cat.build_cone("P_C", 4), budget=100)["self_dual"]
        assert cn.self_duality_check(cat.build_cone("P_H", 8), budget=100)["self_dual"]
        lag = cn.self_duality_check(cat.build_cone("P_LAG", 4), budget=200)
        assert not lag["self_dual"]
        assert lag["worst_projected_eigenvalue"] == pytest.approx(-0.25, abs=1e-6)

    def test_dual_examples(self):
        lap = cat.build_cone("laplace", 2)
        a = np.diag([2.0, -1.0])
        assert lap.dual_contains(a).is_member == lap.contains(a).is_member
        psd = cat.build_cone("P", 2)
        a = np.diag([1.0, -5.0])
        assert psd.dual_contains(a).is_member
        assert not psd.contains(a).is_member

    def test_dual_inclusion(self):
        rep = cn.check_dual_inclusion(cat.build_cone("P_C", 4), budget=150, seed=1)
        assert rep["passed"]

    def test_polar_element_sampler(self, rng):
        cone = cat.build_cone("P_LAG", 4)
        span = cone.span_of()
        for _ in range(20):
            z = cn.sample_polar_element(cone, rng)
            assert np.linalg.eigvalsh(z)[0] >= -1e-10
            assert ss.residual_norm(span, z) <= 1e-9

    def test_trace_cone_polar_is_identity_ray(self, rng):
        lap = cat.build_cone("laplace", 3)
        for _ in range(20):
            z = cn.sample_polar_element(lap, rng)
            off = z - np.trace(z) / 3 * np.eye(3)
            assert ss.frob_norm(off) <= 1e-10
            assert np.trace(z) >= 0


class TestCrossValidation:
    def test_complex_cone_against_closed_form(self):
        comps = st.irreducible_components(st.Group("un", 4))
        plain = cn.EdgeCone(comps["c_skew"], check=False, name="P_C-optimizer")
        closed = cat.build_cone("P_C", 4)
        rep = cn.cross_validate_oracles(plain, closed, budget=120, seed=5)
        assert rep["disagree"] == 0

    def test_gl_ijk_edge_vs_geometric(self):
        edge_cone = cat.build_cone("GL_IJK", 8)
        geo = cn.GeometricCone(st.PlaneFamily("gl_ijk", 8), budget=800,
                               descents=20, descent_steps=80, seed=2)
        rep = cn.cross_validate_oracles(edge_cone, geo, budget=60, seed=6)
        assert rep["disagree"] == 0

    def test_ei_inclusion_in_three_families(self, rng):
        # members of the I-aligned minimal cone pass the three geometric
        # oracles; the reverse direction is only counted
        ei = cat.build_cone("P_EI", 4)
        geos = [cn.GeometricCone(st.PlaneFamily(tag, 4), budget=500,
                                 descents=10, descent_steps=60, seed=3)
                for tag in ("ilag", "cp_j", "cp_k")]
        for _ in range(15):
            a = cn.sample_member(ei, rng)
            for g in geos:
                assert g.contains(a).verdict is not cn.Verdict.OUTSIDE

        def intersection_margin(a):
            return min(g.margin(a) for g in geos)

        rep = cn.cross_validate_oracles(ei, intersection_margin, budget=60,
                                        seed=7, inclusion_only=True)
        assert rep["disagree"] == 0
        assert "reverse_candidates" in rep
