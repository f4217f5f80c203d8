import numpy as np
import pytest

from conedge import catalog as cat
from conedge import cones as cn
from conedge import dirichlet as dh
from conedge import edgefuncs as ef
from conedge import symspace as ss


@pytest.fixture(scope="module")
def lap1():
    return cat.build_cone("laplace", 1)


@pytest.fixture(scope="module")
def pc2():
    return cat.build_cone("P_C", 2)


def grid_from(fn, dom):
    pts = dom.coords().reshape(-1, dom.n)
    return dh.GridField(dom, np.asarray(fn(pts)).reshape(dom.shape))


class TestEdgeQuadratic:
    def test_affine_eval(self):
        h = ef.make_edge_quadratic(ss.zero_subspace(2), 1.0, np.array([2.0, 0.0]),
                                   np.zeros((2, 2)))
        assert h(np.array([1.0, 0.0])) == pytest.approx(3.0)

    def test_harmonic_quadratic_eval(self):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        h = ef.make_edge_quadratic(edge, 0.5, np.array([1.0, 1.0]),
                                   np.diag([1.0, -1.0]))
        x = np.array([1.0, 1.0])
        assert h(x) == pytest.approx(0.5 + 2.0 + 0.0)

    def test_refuses_curvature_off_edge(self):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        with pytest.raises(ValueError):
            ef.make_edge_quadratic(edge, 0.0, np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("c, b, curv", [
        (0.0, np.zeros(2), np.diag([np.nan, -1.0])),
        (0.0, np.array([np.nan, 0.0]), np.diag([1.0, -1.0])),
        (np.inf, np.zeros(2), np.diag([1.0, -1.0])),
    ])
    def test_refuses_non_finite_input(self, c, b, curv):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="finite"):
            ef.make_edge_quadratic(edge, c, b, curv)

    @pytest.mark.parametrize("b, curv", [
        (np.zeros(3), np.diag([1.0, -1.0])),
        (np.zeros(2), np.zeros(2)),
        (np.zeros(2), np.float64(1.0)),
        (np.zeros(2), np.zeros((2, 3))),
    ])
    def test_refuses_mis_sized_input(self, b, curv):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        with pytest.raises(ValueError, match="shape"):
            ef.make_edge_quadratic(edge, 0.0, b, curv)

    def test_projects_tiny_residue(self):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        curv = np.diag([1.0, -1.0]) + 1e-9 * np.eye(2)
        h = ef.make_edge_quadratic(edge, 0.0, np.zeros(2), curv)
        assert ss.residual_norm(edge, h.curvature) <= 1e-12

    def test_vectorized_eval(self, rng):
        edge = ss.orthonormalize([np.diag([1.0, -1.0])])
        h = ef.make_edge_quadratic(edge, 0.3, rng.normal(size=2),
                                   0.7 * np.diag([1.0, -1.0]))
        pts = rng.normal(size=(10, 2))
        vals = h(pts)
        for p, v in zip(pts, vals):
            assert h(p) == pytest.approx(v)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_matches_three_operand_formula(self, rng, n):
        # the quadratic term is evaluated as rowsum((x B) * x); it must agree
        # with the plain x' B x to rounding, relative to |B| |x|^2
        for scale in (1e-3, 1.0, 1e3):
            raw = rng.normal(size=(n, n)) * scale
            curv = raw + raw.T
            h = ef.EdgeQuadratic(rng.normal(), rng.normal(size=n), curv)
            pts = rng.normal(size=(4225, n)) * rng.uniform(0.1, 10.0, size=(4225, 1))
            old = (h.c + pts @ h.b
                   + 0.5 * np.einsum("pi,ij,pj->p", pts, curv, pts))
            bound = 1e-14 * (1.0 + np.linalg.norm(curv) * (pts ** 2).sum(axis=1))
            assert (np.abs(h(pts) - old) <= bound).all()
            assert h(pts[0]) == pytest.approx(old[0], rel=0, abs=bound[0])

    @pytest.mark.parametrize("points", [0, 1, 7, 500])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_points_and_explicit_sum(self, n, points):
        # a stack's values are the one-point values bit for bit, and agree
        # with c + sum b_i x_i + sum B_ij x_i x_j / 2 to rounding
        rng = np.random.default_rng([n, points])
        for scale in (1e-3, 1.0, 1e3):
            raw = rng.normal(size=(n, n)) * scale
            h = ef.EdgeQuadratic(float(rng.normal()), rng.normal(size=n), raw + raw.T)
            pts = rng.normal(size=(points, n)) * rng.uniform(0.1, 10.0, size=(points, 1))
            vals = h(pts)
            assert vals.shape == (points,)
            assert np.array([h(x) for x in pts]).tobytes() == vals.tobytes()
            c, b, curv = h.c, h.b, h.curvature
            for x, v in zip(pts.tolist(), vals):
                explicit = (c + sum(b[i] * x[i] for i in range(n))
                            + 0.5 * sum(curv[i, j] * x[i] * x[j]
                                        for i in range(n) for j in range(n)))
                norm = np.linalg.norm(x)
                bound = 1e-13 * (1.0 + abs(c) + np.linalg.norm(b) * norm
                                 + np.linalg.norm(curv) * norm ** 2)
                assert abs(v - explicit) <= bound


class TestSampling:
    def test_affine_family(self):
        out = ef.sample_edge_quadratics(ss.zero_subspace(2), 10, 1.0, 3)
        assert len(out) == 10
        assert all(np.abs(h.curvature).max() == 0.0 for h in out)

    def test_all_validate(self, pc2):
        out = ef.sample_edge_quadratics(pc2.edge, 20, 2.0, 5)
        for h in out:
            ef.make_edge_quadratic(pc2.edge, h.c, h.b, h.curvature)
            assert ss.frob_norm(h.curvature) <= 2.0 + 1e-9

    def test_seed_repeat(self, pc2):
        a = ef.sample_edge_quadratics(pc2.edge, 5, 1.0, 11)
        b = ef.sample_edge_quadratics(pc2.edge, 5, 1.0, 11)
        for ha, hb in zip(a, b):
            assert ha.c == hb.c
            assert np.array_equal(ha.b, hb.b)
            assert np.array_equal(ha.curvature, hb.curvature)


class TestSubTest:
    def test_strictly_below(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        h = ef.make_edge_quadratic(ss.zero_subspace(1), 1.0, np.zeros(1),
                                   np.zeros((1, 1)))
        u = grid_from(lambda p: h(p) - 1.0, dom)
        ok, info = ef.sub_test(u, h)
        assert ok and info["premise_holds"]

    def test_convex_below_cap(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: p[:, 0] ** 2, dom)
        h = ef.make_edge_quadratic(ss.zero_subspace(1), 1.0, np.zeros(1),
                                   np.zeros((1, 1)))
        ok, info = ef.sub_test(u, h, tol=1e-12)
        assert ok and info["premise_holds"] and not info["vacuous"]

    def test_concave_bump_cases(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: -p[:, 0] ** 2 + 1.0, dom)
        cap_one = ef.make_edge_quadratic(ss.zero_subspace(1), 1.0, np.zeros(1),
                                         np.zeros((1, 1)))
        ok, info = ef.sub_test(u, cap_one, tol=1e-12)
        assert ok  # u(0) = 1 <= 1
        cap_zero = ef.make_edge_quadratic(ss.zero_subspace(1), 0.0, np.zeros(1),
                                          np.zeros((1, 1)))
        ok, info = ef.sub_test(u, cap_zero, tol=1e-12)
        assert not ok and info["premise_holds"]
        assert info["interior_excess"] == pytest.approx(1.0)

    def test_vacuous_flag(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: np.full(len(p), 2.0), dom)
        h = ef.make_edge_quadratic(ss.zero_subspace(1), 0.0, np.zeros(1),
                                   np.zeros((1, 1)))
        ok, info = ef.sub_test(u, h)
        assert ok and info["vacuous"] and not info["premise_holds"]

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tol(self, tol):
        # unchecked, tol=nan gives (True, {"vacuous": True}), a false "holds"
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: -p[:, 0] ** 2 + 1.0, dom)
        h = ef.make_edge_quadratic(ss.zero_subspace(1), 0.0, np.zeros(1),
                                   np.zeros((1, 1)))
        with pytest.raises(ValueError, match=r"^sub_test: tol must be finite"):
            ef.sub_test(u, h, tol=tol)

    @staticmethod
    def full_lattice_sub_test(u, h, tol):
        """sub_test with the quadratic evaluated on the whole lattice."""
        dom = u.domain
        diff = u.values - h(dom.coords().reshape(-1, dom.n)).reshape(dom.shape)
        boundary = float(diff[dom.boundary].max()) if dom.boundary.any() else -np.inf
        interior = float(diff[dom.interior].max()) if dom.interior.any() else -np.inf
        info = {"boundary_excess": boundary, "interior_excess": interior,
                "premise_holds": bool(boundary <= tol)}
        info["vacuous"] = not info["premise_holds"]
        return (True if info["vacuous"] else bool(interior <= tol)), info

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.box([-1.0], [1.0], 0.25),
        dh.GridDomain.box([-1.0, 0.0], [1.0, 1.5], 0.25),
        dh.GridDomain.box([-1.0] * 3, [1.0] * 3, 0.5),
        dh.GridDomain.ball(1.0, 0.125, dim=1),
        dh.GridDomain.ball(1.0, 0.2, center=[0.3, -0.1]),
        dh.GridDomain.ball(1.0, 0.3, dim=3),
    ], ids=["box1", "box2", "box3", "ball1", "disk", "ball3"])
    def test_equals_the_full_lattice_reference(self, rng, dom):
        n, premises = dom.n, set()
        for _ in range(40):
            u = dh.GridField(dom, rng.normal(size=dom.shape))
            g = rng.normal(size=(n, n))
            h = ef.EdgeQuadratic(float(rng.normal()), rng.normal(size=n), g + g.T)
            if rng.uniform() < 0.5:
                # lift h over the boundary values, so the premise holds
                # and the interior decides
                excess = self.full_lattice_sub_test(u, h, 0.0)[1]["boundary_excess"]
                h = ef.EdgeQuadratic(h.c + excess - rng.uniform(0.0, 0.2), h.b, h.curvature)
            tol = float(rng.uniform(0.0, 0.5))
            ok, info = ef.sub_test(u, h, tol=tol)
            assert (ok, info) == self.full_lattice_sub_test(u, h, tol)
            premises.add(info["premise_holds"])
        assert premises == {True, False}


class TestEdgeQuadraticsAreHarmonic:
    @pytest.mark.parametrize("name,n", [("laplace", 2), ("P_C", 2), ("P", 2)])
    def test_two_sided_membership_of_hessian(self, name, n, rng):
        cone = cat.build_cone(name, n)
        dom = dh.GridDomain.box([-1.0] * n, [1.0] * n, 0.25)
        for h in ef.sample_edge_quadratics(cone.edge, 5, 1.0, 17):
            u = grid_from(lambda p: h(p), dom)
            interior = np.argwhere(dom.interior)
            for row in interior[:: max(1, len(interior) // 20)]:
                hess = dh.discrete_hessian(u, tuple(row))
                assert cone.contains(hess).verdict is not cn.Verdict.OUTSIDE
                assert cone.contains(-hess).verdict is not cn.Verdict.OUTSIDE


class TestViolationWitness:
    def test_hand_example_1d(self, lap1):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: -p[:, 0] ** 2, dom)
        w = ef.violation_witness(u, lap1, (4,))
        assert w is not None
        # P = 2, alpha = 1, r = 3h: the shifted cap is the constant -alpha r^2
        assert w.margin == pytest.approx(1.0 * (3 * 0.25) ** 2)
        assert abs(w.quadratic.curvature).max() <= 1e-8
        assert w.verified

    def test_no_witness_for_convex(self, lap1):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        u = grid_from(lambda p: p[:, 0] ** 2, dom)
        assert ef.violation_witness(u, lap1, (4,)) is None

    def test_complex_line_collapse(self, pc2):
        # in one complex dimension the cone is the trace half-space
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        u = grid_from(lambda p: -(p ** 2).sum(axis=1), dom)
        center = (4, 4)
        w = ef.violation_witness(u, pc2, center)
        assert w is not None and w.verified

    def test_witness_iff_dual_outside(self, pc2, rng):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        for trial in range(10):
            coeffs = rng.normal(size=(3,))
            def fn(p, c=coeffs):
                return (c[0] * p[:, 0] ** 2 + c[1] * p[:, 0] * p[:, 1]
                        + c[2] * p[:, 1] ** 2)
            u = grid_from(fn, dom)
            idx = (4, 4)
            hess = dh.discrete_hessian(u, idx)
            dual = pc2.dual_contains(hess)
            w = ef.violation_witness(u, pc2, idx)
            if dual.verdict is cn.Verdict.BOUNDARY:
                continue
            assert (w is not None) == (dual.verdict is cn.Verdict.OUTSIDE)

    def test_bump_construction_with_subtest(self, pc2):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.125)
        quads = ef.sample_edge_quadratics(pc2.edge, 3, 1.0, 23)
        for q in quads:
            pts = dom.coords().reshape(-1, 2)
            beta = 0.9
            vals = q(pts) - beta * (pts ** 2).sum(axis=1)
            u = dh.GridField(dom, vals.reshape(dom.shape))
            center = tuple(np.array(dom.shape) // 2)
            w = ef.violation_witness(u, pc2, center)
            assert w is not None and w.verified
            # confirm the failure on the local ball patch around the center
            patch = dh.GridDomain.ball(w.radius, dom.h, center=np.zeros(2))
            ppts = patch.coords().reshape(-1, 2)
            pvals = q(ppts) - beta * (ppts ** 2).sum(axis=1)
            up = dh.GridField(patch, pvals.reshape(patch.shape))
            ok, info = ef.sub_test(up, w.quadratic, tol=1e-8)
            assert not ok and info["premise_holds"]

    def test_certified_dual_subharmonic_no_witness(self, pc2, rng):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        quads = ef.sample_edge_quadratics(pc2.edge, 3, 1.0, 29)
        for q in quads:
            pts = dom.coords().reshape(-1, 2)
            vals = q(pts) + 0.4 * (pts ** 2).sum(axis=1)
            u = dh.GridField(dom, vals.reshape(dom.shape))
            for idx in np.argwhere(dom.interior)[::5]:
                hess = dh.discrete_hessian(u, tuple(idx))
                assert pc2.dual_contains(hess).is_member
                assert ef.violation_witness(u, pc2, tuple(idx)) is None

    def test_dual_certified_passes_sub_test(self, pc2, rng):
        # dual members stay below every edge quadratic that caps them on
        # the boundary
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        pts = dom.coords().reshape(-1, 2)
        base = ef.sample_edge_quadratics(pc2.edge, 1, 0.5, 31)[0]
        u_vals = base(pts) + 0.3 * (pts ** 2).sum(axis=1)
        u = dh.GridField(dom, u_vals.reshape(dom.shape))
        checked = 0
        for h in ef.sample_edge_quadratics(pc2.edge, 200, 1.0, 37):
            hv = h(pts).reshape(dom.shape)
            shift = float((u.values - hv)[dom.boundary].max())
            h_above = ef.EdgeQuadratic(h.c + shift, h.b, h.curvature)
            ok, info = ef.sub_test(u, h_above, tol=1e-9)
            assert info["premise_holds"]
            assert ok
            checked += 1
        assert checked == 200

    def test_witness_record_roundtrip(self, lap1):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.25)
        pts = dom.coords().reshape(-1, 1)
        u = dh.GridField(dom, (-pts[:, 0] ** 2).reshape(dom.shape))
        w = ef.violation_witness(u, lap1, (4,))
        rec = ef.witness_record(w)
        assert rec["verified"] is True
        assert rec["center"] == [4]
        assert len(rec["b"]) == 1
