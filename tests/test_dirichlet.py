import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conedge import catalog as cat
from conedge import cones as cn
from conedge import dirichlet as dh
from conedge import symspace as ss


def exact_field(dom, fn):
    pts = dom.coords().reshape(-1, dom.n)
    return np.asarray(fn(pts)).reshape(dom.shape)


class TestGridDomain:
    def test_box_masks(self):
        dom = dh.GridDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
        assert dom.shape == (5, 5)
        assert dom.interior.sum() == 9
        assert dom.boundary.sum() == 16

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            dh.GridDomain.box([0.0], [1.0], 0.3)

    def test_ball_interior_has_neighbors(self):
        dom = dh.GridDomain.ball(1.0, 0.2)
        idx = np.argwhere(dom.interior)
        nodes = dom.interior | dom.boundary
        for i in idx:
            for axis in range(2):
                for sign in (1, -1):
                    nb = i.copy()
                    nb[axis] += sign
                    assert nodes[tuple(nb)] or dom.interior[tuple(nb)]

    def test_boundary_positions_on_sphere(self):
        dom = dh.GridDomain.ball(1.0, 0.25)
        pts = dom.boundary_positions()
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            dh.GridDomain.box([0.0] * 5, [1.0] * 5, 0.5)

    @pytest.mark.parametrize("h", [0.0, -0.25, np.nan, np.inf])
    def test_bad_spacing_named(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            dh.GridDomain.box([0.0], [1.0], h)
        with pytest.raises(ValueError, match="h must be positive and finite"):
            dh.GridDomain.ball(1.0, h)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_bad_radius_named(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            dh.GridDomain.ball(radius, 0.25)


class TestGeometry:
    DOMAINS = [dh.GridDomain.box([-1.0], [0.5], 0.25),
               dh.GridDomain.box([-1.0, 0.0], [1.0, 1.5], 0.5),
               dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5),
               dh.GridDomain.ball(1.0, 0.25, dim=1),
               dh.GridDomain.ball(1.0, 0.2, center=[0.3, -0.1]),
               dh.GridDomain.ball(1.0, 0.5, dim=3)]

    @pytest.mark.parametrize("dom", DOMAINS, ids=["box1", "box2", "box4", "ball1",
                                                  "disk", "ball3"])
    def test_coords_shared_read_only_and_exact(self, dom):
        coords = dom.coords()
        assert dom.coords() is coords
        with pytest.raises(ValueError):
            coords[(0,) * dom.n] = 7.0
        with pytest.raises(ValueError):
            dom.boundary_positions()[0] = 7.0
        axes = [dom.origin[i] + dom.h * np.arange(dom.shape[i]) for i in range(dom.n)]
        fresh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        assert np.array_equal(coords, fresh)
        geom = dom.geometry
        for mask, flat, pts in ((dom.interior, geom.interior_flat, geom.interior_pts),
                                (dom.boundary, geom.boundary_flat, geom.boundary_pts)):
            assert np.array_equal(flat, np.flatnonzero(mask))
            assert np.array_equal(pts, fresh[mask])


class TestDiscreteHessian:
    def test_quadratic_exact(self, rng):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        for _ in range(10):
            b = ss.random_symmetric(2, rng)
            u = dh.GridField(dom, exact_field(
                dom, lambda p: 0.5 * np.einsum("pi,ij,pj->p", p, b, p)))
            hess = dh.discrete_hessian(u, (4, 4))
            assert np.abs(hess - b).max() <= 1e-9 * (1 + np.abs(b).max())

    def test_affine_zero(self):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        u = dh.GridField(dom, exact_field(dom, lambda p: 2 * p[:, 0] - p[:, 1]))
        assert np.abs(dh.discrete_hessian(u, (3, 5))).max() <= 1e-12

    def test_cross_term(self):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        u = dh.GridField(dom, exact_field(dom, lambda p: p[:, 0] * p[:, 1]))
        hess = dh.discrete_hessian(u, (4, 4))
        assert np.allclose(hess, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)

    def test_rejects_boundary_node(self):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        u = dh.GridField(dom, np.zeros(dom.shape))
        with pytest.raises(ValueError):
            dh.discrete_hessian(u, (0, 3))

    def test_central_differences_exact_on_quadratics(self, rng):
        dom = dh.GridDomain.box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 0.25)
        b, g = ss.random_symmetric(3, rng), rng.normal(size=3)
        u = dh.GridField(dom, exact_field(
            dom, lambda p: p @ g + 0.5 * np.einsum("pi,ij,pj->p", p, b, p)))
        idx = (3, 5, 4)
        x0 = dom.origin + np.array(idx) * dom.h
        grad, hess = dh.central_differences(u, idx)
        assert np.abs(grad - (g + b @ x0)).max() <= 1e-12
        assert np.abs(hess - b).max() <= 1e-12
        assert np.array_equal(hess, dh.discrete_hessian(u, idx))
        with pytest.raises(ValueError):
            dh.central_differences(u, (0, 3, 3))

    @staticmethod
    def loop_central_differences(u, idx):
        """One scalar read per stencil value: the reference for the gather."""
        dom = u.domain
        n, h2 = dom.n, dom.h * dom.h
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

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5),
        dh.GridDomain.ball(1.0, 1 / 8),
        dh.GridDomain.ball(1.0, 0.25, dim=3),
    ], ids=["box4", "disk", "ball3"])
    def test_central_differences_equal_the_scalar_loop(self, rng, dom):
        # every lattice value random, ghosts and unused nodes included
        u = dh.GridField(dom, rng.normal(size=dom.shape))
        for idx in map(tuple, np.argwhere(dom.interior)):
            grad, hess = dh.central_differences(u, idx)
            ref_grad, ref_hess = self.loop_central_differences(u, idx)
            assert np.array_equal(grad, ref_grad) and np.array_equal(hess, ref_hess)
        for idx in map(tuple, np.argwhere(dom.boundary)[:5]):
            with pytest.raises(ValueError):
                dh.central_differences(u, idx)


class TestPerronSolve:
    def test_1d_linear(self):
        lap = cat.build_cone("laplace", 1)
        dom = dh.GridDomain.box([0.0], [1.0], 1 / 16)
        u, info = dh.perron_solve(lap, dom, lambda p: p[:, 0], tol=1e-11)
        assert info.converged
        err = np.abs(u.values - exact_field(dom, lambda p: p[:, 0]))
        assert err[dom.interior].max() <= 1e-9

    def test_1d_bisection_matches_threshold(self):
        # the prescribed bracket-and-bisect route agrees with the exact
        # affine-shift solve
        lap = cat.build_cone("laplace", 1)
        dom = dh.GridDomain.box([0.0], [1.0], 1 / 8)
        u1, _ = dh.perron_solve(lap, dom, lambda p: p[:, 0] ** 3, tol=1e-10)
        u2, _ = dh.perron_solve(lap, dom, lambda p: p[:, 0] ** 3, tol=1e-10,
                                use_bisection=True)
        assert np.abs(u1.values - u2.values)[dom.interior].max() <= 1e-7

    def test_disk_harmonic(self):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 16)
        u, info = dh.perron_solve(lap, dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
                                  ordering="redblack", tol=1e-10, max_sweeps=30000)
        assert info.converged
        err = np.abs(u.values - exact_field(dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2))
        h = dom.h
        assert err[dom.interior].max() <= 5 * h * h

    def test_box_affine_psd_cone(self):
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        phi = lambda p: 0.4 * p[:, 0] - 0.2 * p[:, 1] + 0.3
        u, info = dh.perron_solve(cone, dom, phi, ordering="redblack",
                                  tol=1e-12, max_sweeps=5000)
        err = np.abs(u.values - exact_field(dom, phi))
        assert err[dom.interior].max() <= 1e-6

    def test_solution_is_harmonic_on_boundary_of_cone(self):
        cone = cat.build_cone("P_C", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.3 * p[:, 1]
        u, info = dh.perron_solve(cone, dom, phi, ordering="redblack", tol=1e-11)
        assert info.converged
        for idx in np.argwhere(dom.interior)[::29]:
            hess = dh.discrete_hessian(u, tuple(idx))
            v = cone.contains(hess)
            assert abs(v.margin) <= 100 * v.tol

    def test_orderings_agree(self):
        cone = cat.build_cone("P_C", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.3 * p[:, 1]
        u1, _ = dh.perron_solve(cone, dom, phi, ordering="lex", tol=1e-11)
        u2, _ = dh.perron_solve(cone, dom, phi, ordering="redblack", tol=1e-11)
        assert np.abs(u1.values - u2.values)[dom.interior].max() <= 1e-8

    def test_comparison_in_boundary_data(self, rng):
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        for _ in range(5):
            c = rng.normal(size=3)
            phi1 = lambda p: c[0] * p[:, 0] + c[1] * np.cos(p[:, 1]) + c[2]
            phi2 = lambda p: phi1(p) + 0.5
            u1, _ = dh.perron_solve(cone, dom, phi1, tol=1e-10)
            u2, _ = dh.perron_solve(cone, dom, phi2, tol=1e-10)
            assert (u2.values - u1.values)[dom.interior].min() >= -1e-8

    def test_maximum_principle(self, rng):
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1])
        u, _ = dh.perron_solve(cone, dom, phi, tol=1e-10)
        top = dh.boundary_values(dom, phi).max()
        assert u.values[dom.interior].max() <= top + 1e-8

    def test_mesh_consistency_disk(self):
        lap = cat.build_cone("laplace", 2)
        errs = []
        for h in (1 / 16, 1 / 32):
            dom = dh.GridDomain.ball(1.0, h)
            u, _ = dh.perron_solve(lap, dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
                                   ordering="redblack", tol=1e-10, max_sweeps=40000)
            err = np.abs(u.values - exact_field(
                dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2))[dom.interior].max()
            errs.append(err)
        assert errs[1] < errs[0]

    def test_variable_split_reduction(self):
        # a half-space cone reading only the first diagonal entry decouples
        # the rows: the 2-d solve equals independent 1-d solves
        hs = cn.HalfspaceCone(np.diag([1.0, 0.0]))
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: p[:, 0] ** 3 + 0.5 * p[:, 1]
        u, info = dh.perron_solve(hs, dom, phi, tol=1e-11, max_sweeps=5000)
        assert info.converged
        lap1 = cn.HalfspaceCone(np.eye(1))
        dom1 = dh.GridDomain.box([-1.0], [1.0], 1 / 4)
        ny = dom.shape[1]
        for j in range(1, ny - 1):
            y = dom.origin[1] + j * dom.h
            phi1 = lambda p, yy=y: p[:, 0] ** 3 + 0.5 * yy
            u1, _ = dh.perron_solve(lap1, dom1, phi1, tol=1e-12)
            assert np.abs(u.values[1:-1, j] - u1.values[1:-1]).max() <= 1e-7

    def test_ball_with_eigen_margin_uses_bisection(self):
        # eigen-margin cones on curved boundaries run the bracketed
        # bisection; affine data is reproduced exactly even there
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.ball(1.0, 0.25)
        phi = lambda p: 0.5 * p[:, 0] - 0.2 * p[:, 1] + 0.1
        u, info = dh.perron_solve(cone, dom, phi, tol=1e-9, max_sweeps=2000)
        assert info.converged
        err = np.abs(u.values - exact_field(dom, phi))[dom.interior].max()
        assert err <= 1e-6

    def test_nonconvergence_flag(self):
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        u, info = dh.perron_solve(cone, dom, lambda p: p[:, 0], max_sweeps=3,
                                  tol=1e-14)
        assert not info.converged
        assert info.sweeps == 3

    def test_history_records_updates(self):
        cone = cat.build_cone("laplace", 1)
        dom = dh.GridDomain.box([0.0], [1.0], 0.25)
        _, info = dh.perron_solve(cone, dom, lambda p: p[:, 0], tol=1e-10)
        assert len(info.history) == info.sweeps
        sweeps, updates = zip(*info.history)
        assert list(sweeps) == list(range(1, info.sweeps + 1))

    @pytest.mark.parametrize("every", [10, 1000])
    def test_max_update_is_the_last_sweep(self, every):
        # the solve converges at sweep 188: with every = 10 the last record
        # is sweep 180's update, above tol; with every = 1000 there is none
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.3 * p[:, 1]
        tol = 1e-9
        _, info = dh.perron_solve(cone, dom, phi, tol=tol, history_every=every)
        _, full = dh.perron_solve(cone, dom, phi, tol=tol)
        assert info.converged and info.sweeps == full.sweeps == 188
        assert 0.0 < info.max_update < tol
        assert info.max_update == full.max_update == full.history[-1][1]
        assert [s for s, _ in info.history] == list(range(every, 189, every))


class TestNodeUpdate:
    def test_pencil_center_shift_is_exact(self, rng):
        # H(t + s) recomputed by plain central differences, after writing
        # t + s and the row's own axis ghosts, is H(t) - s diag(d) / h^2
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        st = dh._build_stencil(dom, lambda p: np.cos(2 * p[:, 0]) + p[:, 1])
        flat = rng.normal(size=dom.interior.size)
        rows = np.arange(st.flat_interior.size)
        h0, d = dh._node_pencil(st, flat, rows)
        assert (d[~st.ghost_plus & ~st.ghost_minus] == 2.0).all()
        assert (d > 2.0).any()
        shifts = rng.normal(size=rows.size)
        for row, s in zip(rows, shifts):
            moved = flat.copy()
            t = flat[st.flat_interior[row]] + s
            moved[st.flat_interior[row]] = t
            for nbs, ghost, theta, phi in (
                    (st.axis_plus, st.ghost_plus, st.theta_plus, st.phi_plus),
                    (st.axis_minus, st.ghost_minus, st.theta_minus, st.phi_minus)):
                for axis in np.flatnonzero(ghost[row]):
                    moved[nbs[row, axis]] = t + (phi[row, axis] - t) / theta[row, axis]
            idx = np.unravel_index(st.flat_interior[row], dom.shape)
            h1 = dh.discrete_hessian(dh.GridField(dom, moved.reshape(dom.shape)), idx)
            expect = h0[row] - s * np.diag(d[row]) / dom.h ** 2
            assert np.abs(h1 - expect).max() <= 1e-12

    def test_disk_orderings_agree_with_eigen_margin(self):
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 4)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.5 * p[:, 1] ** 2
        u1, info1 = dh.perron_solve(cone, dom, phi, ordering="lex", tol=1e-10)
        u2, info2 = dh.perron_solve(cone, dom, phi, ordering="redblack", tol=1e-10)
        assert info1.converged and info2.converged
        assert np.abs(u1.values - u2.values)[dom.interior].max() <= 1e-8

    def test_disk_bracket_matches_bisection_reference(self):
        cone = cat.build_cone("P_C", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 4)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.5 * p[:, 1] ** 2
        u1, _ = dh.perron_solve(cone, dom, phi, ordering="redblack", tol=1e-10)
        u2, info2 = dh.perron_solve(cone, dom, phi, ordering="redblack", tol=1e-10,
                                    use_bisection=True)
        assert info2.converged
        assert np.abs(u1.values - u2.values)[dom.interior].max() <= 1e-8

    @pytest.mark.parametrize("name", ["laplace", "P"])
    def test_residual_is_the_margin_behind_the_update(self, name):
        # on a box d = 2 and the slope is 1, so each update moves the node
        # by omega h^2 margin / 2: the recorded residual follows from the
        # recorded update
        cone = cat.build_cone(name, 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.3 * p[:, 1]
        _, info = dh.perron_solve(cone, dom, phi, ordering="redblack",
                                  tol=1e-14, max_sweeps=5)
        assert not info.converged
        expect = 2.0 * info.max_update / (info.omega * dom.h ** 2)
        assert info.max_residual == pytest.approx(expect, rel=1e-9)

    def test_bisection_reference_checks_its_bracket(self):
        class RisingMargin(cn.ConeHandle):
            """A broken oracle: the margin grows under A -> A - s Id."""
            n = 2

            def margin_batch(self, a_stack):
                return -np.trace(a_stack, axis1=1, axis2=2)

        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        with pytest.raises(RuntimeError, match="bracket failure"):
            dh.perron_solve(RisingMargin(), dom, lambda p: p[:, 0] ** 2,
                            use_bisection=True)


TRACE2 = cat.parse_catalog("[trace2]\ngroup = on\nn = 2\nedge = sym0\n")
OFF_DIAGONAL = np.array([[1.0, 0.3], [0.3, 1.0]])


def linear_cone(name, n):
    if name == "trace2":
        return cat.build_cone("trace2", specs=TRACE2)
    if name == "halfspace":
        return cn.HalfspaceCone(OFF_DIAGONAL)
    return cat.build_cone(name, n)


class TestLinearOperator:
    @pytest.mark.parametrize("ordering", ["lex", "redblack"])
    @pytest.mark.parametrize("name, dom", [
        ("laplace", dh.GridDomain.box([-1.0, 0.0], [1.0, 1.0], 1 / 8)),
        ("laplace", dh.GridDomain.ball(1.0, 1 / 8, center=[0.1, -0.2])),
        ("laplace", dh.GridDomain.box([0.0] * 3, [1.0, 0.75, 1.25], 1 / 4)),
        ("laplace", dh.GridDomain.ball(1.0, 1 / 4, dim=3)),
        ("trace2", dh.GridDomain.ball(1.0, 1 / 8)),
        ("halfspace", dh.GridDomain.box([-1.0, 0.0], [1.0, 1.0], 1 / 8)),
        ("halfspace", dh.GridDomain.ball(1.0, 1 / 8)),
    ], ids=["laplace2-box", "laplace2-disk", "laplace3-box", "laplace3-ball",
            "trace2-disk", "halfspace-box", "halfspace-disk"])
    def test_operator_equals_pencil_margins(self, name, dom, ordering, rng):
        # on random lattice values (ghosts and corners included) each row
        # block of op @ flat + c is the margin of the pencil's Hessians;
        # the half-space's off-diagonal W reads the lagged corner ghosts
        cone = linear_cone(name, dom.n)
        st = dh._build_stencil(dom, lambda p: np.cos(2 * p[:, 0]) + p[:, -1])
        op, const = dh._linear_operator(st, cone.linear_margin_weight)
        flat = rng.normal(size=dom.interior.size)
        groups = dh._row_groups(st, ordering)
        assert np.array_equal(np.sort(np.concatenate(groups)),
                              np.arange(st.flat_interior.size))
        for rows in groups:
            hess, _ = dh._node_pencil(st, flat, rows)
            expect = cone.margin_batch(hess)
            got = op[rows] @ flat + const[rows]
            scale = 1.0 + np.abs(hess).reshape(rows.size, -1).max(axis=1)
            assert (np.abs(got - expect) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("ordering", ["lex", "redblack"])
    def test_linear_route_builds_no_hessians(self, ordering, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Hessian stack built on the linear route")
        monkeypatch.setattr(dh, "_node_pencil", fail)
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        for name in ("laplace", "halfspace"):
            _, info = dh.perron_solve(linear_cone(name, 2), dom, smooth2,
                                      ordering=ordering, tol=1e-10)
            assert info.converged


def smooth2(p):
    return np.cos(2 * p[:, 0]) + 0.5 * p[:, 1] ** 2


def smooth3(p):
    return np.cos(2 * p[:, 0]) + 0.5 * p[:, 1] ** 2 + 0.3 * p[:, 2]


def smooth4(p):
    return np.cos(p[:, 0]) * np.exp(0.5 * p[:, 1]) + p[:, 2] * p[:, 3]


BOX4 = dict(lo=[-1.0] * 4, hi=[1.0] * 4, h=0.5)


class TestLexFronts:
    @pytest.mark.parametrize("dom", [
        dh.GridDomain.box([0.0], [1.0], 1 / 8),
        dh.GridDomain.box([0.0, 0.0], [1.0, 0.75], 1 / 8),
        dh.GridDomain.box([0.0] * 3, [1.0, 0.75, 1.25], 1 / 4),
        dh.GridDomain.box([0.0] * 4, [1.0, 0.75, 1.25, 1.0], 1 / 4),
        dh.GridDomain.ball(1.0, 1 / 8, dim=1),
        dh.GridDomain.ball(1.0, 1 / 8, center=[0.1, -0.2]),
        dh.GridDomain.ball(1.0, 1 / 4, dim=3),
        dh.GridDomain.ball(1.0, 1 / 2, dim=4),
    ], ids=lambda d: f"{d.kind}{d.n}")
    def test_fronts_are_dependency_fronts(self, dom):
        # no two nodes of a front are stencil neighbours, every lex-earlier
        # neighbour lies in an earlier front and every lex-later one in a
        # later front
        st = dh._build_stencil(dom, lambda p: np.zeros(len(p)))
        fronts = dh._lex_fronts(st)
        rows = np.concatenate(fronts)
        assert np.array_equal(np.sort(rows), np.arange(st.flat_interior.size))
        front_of = np.full(dom.interior.size, -1)
        for k, front in enumerate(fronts):
            front_of[st.flat_interior[front]] = k
        multi = np.argwhere(dom.interior)          # lex order, as flat_interior
        mine = front_of[st.flat_interior]
        zero = (0,) * dom.n
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=dom.n)
                   if 1 <= np.count_nonzero(o) <= 2]
        assert len(offsets) == 2 * dom.n * dom.n
        for offset in offsets:
            nbs = np.ravel_multi_index((multi + offset).T, dom.shape)
            inner = dom.interior.ravel()[nbs]
            theirs, own = front_of[nbs[inner]], mine[inner]
            if offset < zero:
                assert (theirs < own).all()
            else:
                assert (theirs > own).all()

    # sha256 of u.values and the sweep count, computed with the node-by-node
    # lex sweep: the fronts must reproduce it bit for bit wherever the
    # margin is a closed form.  The linear laplace case pins the sparse
    # operator's sum order instead; its field lies within 2.1e-15 of the
    # node-by-node one, in the same 128 sweeps
    @pytest.mark.parametrize("name, n, dom, phi, kwargs, digest, sweeps", [
        ("P_EI", 4, dh.GridDomain.box(**BOX4), smooth4, {},
         "9c7cf994aefd82d3109dad4b44c6623c9c563126e19cb472f1e040e440c583c6", 43),
        ("P", 2, dh.GridDomain.box([-1.0] * 2, [1.0] * 2, 1 / 8), smooth2, {},
         "9cc69ed8b41f35d24d598d3cbda60414ebde1dd31735b10556c424f5ee1886d1", 572),
        ("P", 2, dh.GridDomain.ball(1.0, 1 / 4), smooth2, {},
         "5c68f1c2a0fc590d4110bf4442b717ecbc0bb8cdd56393d76a91b88f7d6771f7", 126),
        ("laplace", 2, dh.GridDomain.ball(1.0, 1 / 16), smooth2, {},
         "f21d8634c2f719cf9740834f0233ea6a51fb0bf149d07537e40eb2b977c8711f", 128),
        ("P_C", 4, dh.GridDomain.box(**BOX4), smooth4, {},
         "dae3117c557c6cb123edcd10a4316910e5a6eae8ad813cc8d721e4ad3d11fef8", 40),
        ("P", 2, dh.GridDomain.ball(1.0, 1 / 4), smooth2,
         {"use_bisection": True, "tol": 1e-7},
         "ff03ba0b7cc44c84bca78897f108c1ef7fd7e9f5a6e9fabea931f7bc11b4bea0", 97),
        ("P", 3, dh.GridDomain.ball(1.0, 1 / 4, dim=3), smooth3, {"tol": 1e-7},
         "9ecbd4e20bb0448babd785953917758604a805ae2c4420c8e444a6f0ce91d374", 96),
    ], ids=["P_EI4-box", "P2-box", "P2-disk", "laplace2-disk-sor", "P_C4-box",
            "P2-disk-bisection", "P3-ball"])
    def test_pinned_lex_solves(self, name, n, dom, phi, kwargs, digest, sweeps):
        kwargs = {"tol": 1e-9, **kwargs}
        u, info = dh.perron_solve(cat.build_cone(name, n), dom, phi,
                                  ordering="lex", **kwargs)
        assert info.converged and info.sweeps == sweeps
        assert hashlib.sha256(u.values.tobytes()).hexdigest() == digest


def dense_jacobi_radius(dom, weights):
    """Spectral radius of the dense Jacobi matrix of <D^2 u, diag(w)> = 0,
    assembled node by node from the stencil tables (ghost sides weigh
    1/theta on the diagonal and couple to no unknown)."""
    st = dh._build_stencil(dom, lambda p: np.zeros(len(p)))
    m = st.flat_interior.size
    pos = np.full(int(np.prod(dom.shape)), -1)
    pos[st.flat_interior] = np.arange(m)
    jac = np.zeros((m, m))
    diag = np.zeros(m)
    for axis, w in enumerate(weights):
        for nbs, thetas in ((st.axis_plus, st.theta_plus),
                            (st.axis_minus, st.theta_minus)):
            col = pos[nbs[:, axis]]
            inner = np.flatnonzero(col >= 0)
            jac[inner, col[inner]] += w
            diag += w / thetas[:, axis]
    return float(np.abs(np.linalg.eigvals(jac / diag[:, None])).max())


class TestOverRelaxation:
    @pytest.mark.parametrize("lo, hi, h, weights", [
        ([0.0], [1.0], 1 / 8, [1.0]),
        ([0.0, 0.0], [1.0, 0.75], 1 / 8, [0.5, 0.5]),
        ([0.0, 0.0], [1.0, 0.75], 1 / 8, [1.0, 0.0]),
        ([0.0, 0.0], [1.0, 0.75], 1 / 8, [0.7, 0.3]),
        ([0.0, 0.0, 0.0], [1.0, 0.75, 1.25], 1 / 4, [0.2, 0.5, 0.3]),
    ])
    def test_radius_exact_on_boxes(self, lo, hi, h, weights):
        dom = dh.GridDomain.box(lo, hi, h)
        w = np.array(weights)
        assert dh._jacobi_radius(dom, w) == pytest.approx(
            dense_jacobi_radius(dom, w), abs=1e-12)

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.ball(1.0, 1 / 4),
        dh.GridDomain.ball(1.0, 1 / 8),
        dh.GridDomain.ball(1.0, 0.3, dim=3),
    ], ids=["disk-1/4", "disk-1/8", "ball3-0.3"])
    def test_radius_bounds_balls(self, dom):
        w = np.full(dom.n, 1.0 / dom.n)
        dense = dense_jacobi_radius(dom, w)
        assert dense <= dh._jacobi_radius(dom, w) < 1.0

    def test_disk_sweeps_linear_in_inverse_h(self):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 32)
        harm = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        u, info = dh.perron_solve(lap, dom, harm, ordering="redblack", tol=1e-10)
        assert info.converged and info.sweeps <= 400
        assert info.omega > 1.0
        err = np.abs(u.values - exact_field(dom, harm))[dom.interior].max()
        assert err <= 5e-2

    def test_matches_gauss_seidel_reference(self):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, 0.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: np.cos(2 * p[:, 0]) + p[:, 0] * p[:, 1] ** 2
        u1, info1 = dh.perron_solve(lap, dom, phi, ordering="redblack", tol=1e-11)
        u2, info2 = dh.perron_solve(lap, dom, phi, tol=1e-11, use_bisection=True)
        assert info1.converged and info2.converged
        assert info1.omega > 1.0 and info2.omega == 1.0
        assert np.abs(u1.values - u2.values)[dom.interior].max() <= 1e-8

    def test_plain_routes_report_unit_omega(self):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: p[:, 0] ** 2
        for cone in (cat.build_cone("P", 2),
                     cn.HalfspaceCone(np.array([[1.0, 0.3], [0.3, 1.0]]))):
            _, info = dh.perron_solve(cone, dom, phi, ordering="redblack",
                                      tol=1e-10)
            assert info.converged and info.omega == 1.0


class TestGhostRefresh:
    @staticmethod
    def solve_counting(monkeypatch, cone, dom, ordering, force=False):
        calls = []
        refresh = dh._refresh_ghosts
        monkeypatch.setattr(dh, "_refresh_ghosts",
                            lambda st, flat: (calls.append(1), refresh(st, flat)))
        if force:
            monkeypatch.setattr(dh, "_reads_ghosts", lambda st, op: True)
        u, info = dh.perron_solve(cone, dom, smooth2, ordering=ordering)
        monkeypatch.undo()
        return u, info, len(calls)

    @pytest.mark.parametrize("ordering", ["lex", "redblack"])
    def test_diagonal_weight_refreshes_only_around_the_sweeps(self, monkeypatch, ordering):
        cone, dom = cat.build_cone("laplace", 2), dh.GridDomain.ball(1.0, 1 / 16)
        u, info, calls = self.solve_counting(monkeypatch, cone, dom, ordering)
        assert info.converged and calls == 2
        forced, forced_info, forced_calls = self.solve_counting(
            monkeypatch, cone, dom, ordering, force=True)
        per_sweep = 1 if ordering == "lex" else 2
        assert forced_calls == 2 + per_sweep * forced_info.sweeps
        assert forced_info.sweeps == info.sweeps
        assert np.array_equal(u.values, forced.values)

    @pytest.mark.parametrize("ordering", ["lex", "redblack"])
    def test_off_diagonal_weight_refreshes_inside_the_sweeps(self, monkeypatch, ordering):
        # the corner columns of <H, W> read corner ghosts on the disk
        cone = cn.HalfspaceCone(OFF_DIAGONAL)
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        _, info, calls = self.solve_counting(monkeypatch, cone, dom, ordering)
        per_sweep = 1 if ordering == "lex" else 2
        assert info.converged and calls == 2 + per_sweep * info.sweeps

    def test_pencil_reads_corner_ghosts(self):
        st = dh._build_stencil(dh.GridDomain.ball(1.0, 1 / 4), smooth2)
        assert dh._reads_ghosts(st, None)
        st = dh._build_stencil(dh.GridDomain.ball(1.0, 1 / 4, dim=1), lambda p: p[:, 0])
        assert st.g_unique.size and not dh._reads_ghosts(st, None)
        assert not dh._reads_ghosts(
            dh._build_stencil(dh.GridDomain.box([-1.0] * 2, [1.0] * 2, 0.25), smooth2), None)


class TestSolverInput:
    @pytest.fixture
    def no_stencil(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stencil built before the input was checked")
        monkeypatch.setattr(dh, "_build_stencil", fail)

    @pytest.mark.parametrize("kwargs, name", [
        ({"ordering": "zigzag"}, "ordering"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-9}, "tol"),
        ({"tol": np.nan}, "tol"),
        ({"tol": np.inf}, "tol"),
        ({"max_sweeps": 0}, "max_sweeps"),
        ({"max_sweeps": -1}, "max_sweeps"),
        ({"history_every": 0}, "history_every"),
        ({"history_every": -3}, "history_every"),
    ])
    def test_bad_options(self, no_stencil, kwargs, name):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 4)
        with pytest.raises(ValueError, match=name):
            dh.perron_solve(lap, dom, lambda p: p[:, 0], **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_values(self, no_stencil, bad):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 4)
        phi = lambda p: np.where(p[:, 0] > 0.5, bad, p[:, 1])
        with pytest.raises(ValueError, match="phi"):
            dh.perron_solve(lap, dom, phi, ordering="redblack")


class TestEnvelope:
    def test_hand_lp_symmetric(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        val, info = dh.edge_envelope(ss.zero_subspace(1), dom,
                                     lambda p: np.ones(len(p)), np.array([0.0]))
        assert val == pytest.approx(1.0, abs=1e-8)
        assert info["stable"]

    def test_hand_lp_asymmetric(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        val, _ = dh.edge_envelope(ss.zero_subspace(1), dom,
                                  lambda p: (p[:, 0] + 1) / 2, np.array([0.0]))
        assert val == pytest.approx(0.5, abs=1e-8)

    def test_disk_harmonic_center(self):
        lap = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        phi = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        val, _ = dh.edge_envelope(lap.edge_of(), dom, phi, np.zeros(2))
        assert val == pytest.approx(0.0, abs=1e-6)
        u, _ = dh.perron_solve(lap, dom, phi, ordering="redblack", tol=1e-10,
                               max_sweeps=20000)
        center = tuple(np.array(dom.shape) // 2)
        assert u.values[center] == pytest.approx(val, abs=1e-2)

    def test_geometry_kept_on_the_domain_and_phi_read_per_call(self):
        # a second boundary function on the same domain reuses the sample
        # geometry, not the first function's values
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        edge = cat.build_cone("laplace", 2).edge_of()
        x = np.array([0.1, -0.2])
        for phi in (lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
                    lambda p: np.cos(2 * p[:, 0]) + p[:, 1]):
            kept, info = dh.edge_envelope(edge, dom, phi, x, check_stability=False)
            fresh, _ = dh.edge_envelope(edge, dh.GridDomain.ball(1.0, 1 / 8), phi, x,
                                        check_stability=False)
            assert kept == fresh
        assert dom.geometry.envelope is not None
        assert info["constraints"] == dom.geometry.envelope[1].size

    def test_monotone_in_bound(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        vals = []
        for mb in (0.1, 1.0, 10.0):
            v, _ = dh.edge_envelope(ss.zero_subspace(1), dom,
                                    lambda p: np.ones(len(p)), np.array([0.0]),
                                    m_bound=mb, check_stability=False)
            vals.append(v)
        assert vals == sorted(vals)

    @pytest.mark.parametrize("change, match", [
        ({"phi": lambda p: np.where(p[:, 0] > 0, np.nan, 0.0)},
         r"phi gives \d+ non-finite boundary values"),
        ({"phi": lambda p: np.full(len(p), np.inf)}, "phi gives 16 non-finite"),
        ({"x": np.zeros(3)}, r"x must be a finite point of shape \(2,\)"),
        ({"x": np.array([0.0, np.nan])}, "x must be a finite point"),
        ({"x": 0.0}, "x must be a finite point"),
        ({"edge": ss.zero_subspace(3)}, "edge ambient 3 != grid dimension 2"),
        ({"m_bound": 0.0}, "m_bound must be positive"),
        ({"m_bound": -1.0}, "m_bound must be positive"),
        ({"m_bound": np.nan}, "m_bound must be positive"),
        ({"m_bound": np.inf}, "m_bound must be positive"),
        ({"boundary_samples": np.zeros(4)}, r"boundary_samples must be a finite \(p, 2\)"),
        ({"boundary_samples": np.zeros((4, 3))}, "boundary_samples must be"),
        ({"boundary_samples": np.zeros((0, 2))}, "boundary_samples must be"),
        ({"boundary_samples": np.array([[0.0, 1.0], [np.nan, 0.0]])},
         "boundary_samples must be"),
        ({"boundary_samples": np.ones((4, 2)), "phi": lambda p: 1.0},
         "one value per boundary sample"),
    ], ids=["phi-nan", "phi-inf", "x-size", "x-nan", "x-scalar", "edge-dim",
            "m-zero", "m-negative", "m-nan", "m-inf", "samples-1d", "samples-width",
            "samples-empty", "samples-nan", "phi-scalar"])
    def test_bad_input(self, change, match):
        args = {"edge": cat.build_cone("laplace", 2).edge_of(),
                "dom": dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.5),
                "phi": lambda p: p[:, 0], "x": np.zeros(2), **change}
        with pytest.raises(ValueError, match=match):
            dh.edge_envelope(**args)

    def test_envelope_report_psd_maxaff(self):
        # kinked data: both directions of the gap close at grid resolution
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        a = np.array([1.0, 0.5])
        b = np.array([-1.0, 0.2])
        phi = lambda p: np.maximum(p @ a, p @ b)
        rep = dh.envelope_report(cone, dom, phi, sample_nodes=25, seed=2,
                                 solver_kwargs={"ordering": "redblack",
                                                "tol": 1e-10},
                                 classical_gap_bound=True,
                                 ordering_slack=10 * dom.h)
        assert rep["ordering_ok"]
        assert rep["gap_ok"], rep["max_gap"]
        assert rep["worst_ordering_violation"] <= 10 * dom.h

    def test_envelope_report_psd_affine_tight(self):
        # smooth data on a box: the tight solver-tolerance ordering holds
        cone = cat.build_cone("P", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        phi = lambda p: 0.7 * p[:, 0] - 0.4 * p[:, 1] + 0.2
        rep = dh.envelope_report(cone, dom, phi, sample_nodes=25, seed=5,
                                 solver_kwargs={"ordering": "redblack",
                                                "tol": 1e-11},
                                 classical_gap_bound=True)
        assert rep["ordering_ok"] and rep["gap_ok"]
        assert abs(rep["max_gap"]) <= 1e-6

    def test_envelope_report_trace_disk(self):
        # curved boundary: solution error is signed, so ordering holds at
        # scheme resolution
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        phi = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        rep = dh.envelope_report(cone, dom, phi, sample_nodes=25, seed=3,
                                 solver_kwargs={"ordering": "redblack",
                                                "tol": 1e-10,
                                                "max_sweeps": 30000},
                                 classical_gap_bound=True,
                                 ordering_slack=10 * dom.h)
        assert rep["ordering_ok"] and rep["gap_ok"]

    def test_envelope_report_trace_box_tight(self):
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 8)
        phi = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        rep = dh.envelope_report(cone, dom, phi, sample_nodes=25, seed=4,
                                 solver_kwargs={"ordering": "redblack",
                                                "tol": 1e-11},
                                 classical_gap_bound=True)
        assert rep["ordering_ok"] and rep["gap_ok"]


def _linprog_envelope(edge, pts, vals, x, m_bound):
    """The envelope LP in its primal form, solved by HiGHS: the reference.
    HiGHS's default feasibility tolerances (1e-7, absolute) move its optimum
    by about that much on data of size 1e-3, so they are tightened."""
    from scipy.optimize import linprog
    quad = lambda p: 0.5 * np.einsum("pi,kij,pj->pk", p, edge.basis, p)
    a = np.hstack([np.ones((len(pts), 1)), pts, quad(pts)])
    t = np.concatenate([[1.0], x, quad(x[None, :])[0]])
    res = linprog(-t, A_ub=a, b_ub=vals, bounds=[(-m_bound, m_bound)] * t.size,
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return -res.fun, a, t


def assert_matches_linprog(edge, dom, phi, x, **kwargs):
    """edge_envelope's value equals linprog's to 1e-9 (1 + |v|), and its y
    is feasible, attains the value and meets the dual bound."""
    x = np.asarray(x, dtype=float)
    val, info = dh.edge_envelope(edge, dom, phi, x, check_stability=False, **kwargs)
    pts = kwargs.get("boundary_samples")
    if pts is None:
        pts = dh._envelope_constraint_points(dom, phi)[0]
    vals = phi(pts)
    ref, a, t = _linprog_envelope(edge, pts, vals, x, info["m_bound"])
    tol = 1e-9 * (1.0 + abs(ref))
    assert abs(val - ref) <= tol, (x, val, ref)
    y = info["coefficients"]
    assert (a @ y - vals).max() <= 1e-9 * (1.0 + np.abs(vals).max())
    assert np.abs(y).max() <= info["m_bound"] * (1.0 + 1e-12)
    assert abs(t @ y - val) <= tol and abs(info["dual_bound"] - val) <= tol
    return val, info


def _nodes(dom, count, seed):
    """The center node and count - 1 seeded interior nodes, as points."""
    idx = np.argwhere(dom.interior)
    pick = np.random.default_rng(seed).choice(len(idx), size=count - 1, replace=False)
    center = np.array(dom.shape) // 2
    return [dom.origin + i * dom.h for i in [center, *idx[pick]]]


class TestEnvelopeLP:
    """The dense dual simplex of edge_envelope against scipy's HiGHS."""

    @pytest.mark.parametrize("phi, x", [
        (lambda p: np.ones(len(p)), 0.0),
        (lambda p: (p[:, 0] + 1) / 2, 0.0),
        (lambda p: (p[:, 0] + 1) / 2, 0.3),
        (lambda p: np.abs(p[:, 0]) - 2.0, -0.7),
    ], ids=["const", "affine-center", "affine-offcenter", "kink"])
    def test_hand_lps(self, phi, x):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        assert_matches_linprog(ss.zero_subspace(1), dom, phi, [x])

    def test_box_bound_active(self):
        # |y| <= 0.1 caps the constant below phi = 1
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        val, info = assert_matches_linprog(ss.zero_subspace(1), dom,
                                           lambda p: np.ones(len(p)), [0.0],
                                           m_bound=0.1)
        assert val == pytest.approx(0.1, abs=1e-12)
        assert np.abs(info["coefficients"]).max() == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("case", [
        "laplace2-disk-harmonic", "pc2-disk", "laplace3-ball", "ph4-box", "phsym4-box",
    ])
    def test_catalog_lps(self, case):
        smooth2 = lambda p: np.cos(2 * p[:, 0]) + 0.5 * p[:, 1]
        smooth4 = lambda p: (np.cos(1.5 * p[:, 0]) + 0.4 * p[:, 1] * p[:, 2]
                             - 0.3 * p[:, 3])
        name, n, dom, phi = {
            # x^2 - y^2 lies in the edge: every sample is tight at the optimum
            "laplace2-disk-harmonic": ("laplace", 2, dh.GridDomain.ball(1.0, 1 / 16),
                                       lambda p: p[:, 0] ** 2 - p[:, 1] ** 2),
            "pc2-disk": ("P_C", 2, dh.GridDomain.ball(1.0, 1 / 8), smooth2),
            "laplace3-ball": ("laplace", 3, dh.GridDomain.ball(1.0, 1 / 4, dim=3),
                              lambda p: np.cos(2 * p[:, 0]) + p[:, 1] ** 2 / 2
                              + 0.3 * p[:, 2]),
            # d = 1 + 4 + 9 = 14 LP variables
            "ph4-box": ("P_H", 4, dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5), smooth4),
            "phsym4-box": ("P_HSYM", 4, dh.GridDomain.box([-1.0] * 4, [1.0] * 4, 0.5),
                           smooth4),
        }[case]
        edge = cat.build_cone(name, n).edge_of()
        for x in _nodes(dom, 8, seed=len(case)):
            _, info = assert_matches_linprog(edge, dom, phi, x)
            assert info["pivots"] >= 1

    def test_harmonic_disk_is_exact(self):
        # the data is an edge quadratic, so it is its own envelope at every
        # node, axis nodes (zero entries of t, a degenerate start) included
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        edge = cat.build_cone("laplace", 2).edge_of()
        harm = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        idx = np.argwhere(dom.interior)
        for x in dom.origin + idx[(idx == np.array(dom.shape) // 2).any(axis=1)] * dom.h:
            val, _ = dh.edge_envelope(edge, dom, harm, x, check_stability=False)
            assert val == pytest.approx(x[0] ** 2 - x[1] ** 2, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(min_value=0, max_value=2**32 - 1),
           count=hst.integers(min_value=3, max_value=40),
           k=hst.integers(min_value=0, max_value=3))
    def test_random_clouds(self, seed, count, k):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :k].T
        edge = ss.SymSubspace(2, np.einsum("ka,aij->kij", basis, ss.standard_basis(2)))
        pts = rng.uniform(-1.0, 1.0, size=(count, 2))
        coef, freq, phase = (rng.normal(size=4), rng.normal(scale=3.0, size=(2, 4)),
                             rng.uniform(0.0, 2 * np.pi, size=4))
        phi = lambda p: np.cos(p @ freq + phase) @ coef
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.5)
        assert_matches_linprog(edge, dom, phi, rng.uniform(-1.0, 1.0, size=2),
                               boundary_samples=pts)

    @pytest.mark.parametrize("seed", [498, 1438])
    def test_rounded_reduced_cost_of_a_basic_column(self, seed):
        # 3-d clouds with half-integer x: at some basis the reduced cost of
        # a basic column rounds to about -1e-10 (y is of size M); it must
        # not enter the basis it is already in
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 7))
        basis = np.linalg.qr(rng.normal(size=(6, 6)))[0][:, :k].T
        edge = ss.SymSubspace(3, np.einsum("ka,aij->kij", basis, ss.standard_basis(3)))
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(10, 30)), 3))
        coef, freq, phase = (3 * rng.normal(size=4), rng.normal(size=(3, 4)),
                             rng.uniform(0.0, 6.0, size=4))
        phi = lambda p: np.cos(p @ freq + phase) @ coef
        x = np.round(rng.uniform(-1.0, 1.0, size=3) * 2) / 2
        dom = dh.GridDomain.box([-1.0] * 3, [1.0] * 3, 0.5)
        assert_matches_linprog(edge, dom, phi, x, boundary_samples=pts)

    def test_info_counts_pivots_of_both_solves(self):
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        edge = cat.build_cone("laplace", 2).edge_of()
        phi = lambda p: np.cos(2 * p[:, 0]) + 0.5 * p[:, 1]
        x = np.array([0.25, -0.125])
        _, one = dh.edge_envelope(edge, dom, phi, x, check_stability=False)
        _, twice = dh.edge_envelope(edge, dom, phi, x, m_bound=2 * one["m_bound"],
                                    check_stability=False)
        _, both = dh.edge_envelope(edge, dom, phi, x)
        assert both["pivots"] == one["pivots"] + twice["pivots"]
        assert both["dual_bound"] == one["dual_bound"]

    def test_report_totals_pivots(self):
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 4)
        phi = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        rep = dh.envelope_report(cone, dom, phi, sample_nodes=6, seed=1,
                                 solver_kwargs={"tol": 1e-10})
        pts = dh._envelope_constraint_points(dom, phi)[0]
        total = sum(dh.edge_envelope(cone.edge_of(), dom, phi,
                                     dom.origin + np.array(r["node"]) * dom.h,
                                     boundary_samples=pts,
                                     check_stability=False)[1]["pivots"]
                    for r in rep["records"])
        assert rep["envelope_pivots"] == total > 0


class TestGridIO:
    def test_csv_roundtrip(self, tmp_path):
        cone = cat.build_cone("laplace", 2)
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.5)
        u, _ = dh.perron_solve(cone, dom, lambda p: p[:, 0], tol=1e-10)
        path = tmp_path / "grid.csv"
        dh.write_grid_csv(path, u, {"kind": "box", "h": dom.h,
                                    "origin": "-1.0,-1.0", "shape": "5x5"})
        text = path.read_text()
        assert text.startswith("#")
        assert "interior" in text and "boundary" in text

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.box([-1.0, 0.0], [1.0, 1.5], 0.5),
        dh.GridDomain.ball(1.0, 0.25),
    ], ids=["box", "disk"])
    def test_csv_roundtrip_without_provenance(self, tmp_path, dom):
        # the writer supplies the domain keys; the reader needs nothing else
        pts = dom.coords().reshape(-1, dom.n)
        u = dh.GridField(dom, (pts[:, 0] - 2.0 * pts[:, 1]).reshape(dom.shape))
        path = tmp_path / "grid.csv"
        dh.write_grid_csv(path, u)
        back, prov = dh.read_grid_csv(path)
        assert prov["kind"] == dom.kind
        assert back.domain.shape == dom.shape
        assert np.array_equal(back.domain.interior, dom.interior)
        assert np.array_equal(back.domain.boundary, dom.boundary)
        mask = dom.interior | dom.boundary
        assert np.array_equal(back.values[mask], u.values[mask])

    @staticmethod
    def row_by_row_csv(path, field_sol, provenance):
        """The writer as one formatted row per lattice node: the reference."""
        dom = field_sol.domain
        coords = dom.coords().reshape(-1, dom.n)
        vals = field_sol.values.ravel()
        interior, boundary = dom.interior.ravel(), dom.boundary.ravel()
        header = {**provenance, "kind": dom.kind, "h": dom.h,
                  "shape": "x".join(map(str, dom.shape)),
                  "origin": ",".join(repr(float(v)) for v in dom.origin),
                  "radius": dom.radius if dom.kind == "ball" else ""}
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in header.items():
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join([f"x{i}" for i in range(dom.n)] + ["value", "mask"]) + "\n")
            for row in range(coords.shape[0]):
                if not (interior[row] or boundary[row]):
                    continue
                mask = "interior" if interior[row] else "boundary"
                pos = ",".join(repr(float(c)) for c in coords[row])
                fh.write(f"{pos},{float(vals[row])!r},{mask}\n")

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.box([-1.0, 0.0, -0.5], [1.0, 1.5, 0.5], 0.25),
        dh.GridDomain.ball(1.0, 1 / 16, center=[0.1, -0.3]),
    ], ids=["box3", "disk"])
    def test_csv_bytes_equal_the_row_by_row_writer(self, tmp_path, rng, dom):
        u = dh.GridField(dom, rng.normal(size=dom.shape) * 10.0 ** rng.integers(
            -20, 20, size=dom.shape))
        u.values[(1,) * dom.n] = -0.0
        prov = {"seed": 3, "note": "x"}
        dh.write_grid_csv(tmp_path / "new.csv", u, prov)
        self.row_by_row_csv(tmp_path / "ref.csv", u, prov)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def row_by_row_read(path):
        """The reader as one parsed line at a time: the reference.  It
        reads the value column only, never the coordinates."""
        prov, rows = {}, []
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
            dom = dh.GridDomain.ball(float(prov["radius"]), h,
                                     center=origin + (np.array(shape) - 1) / 2 * h, dim=n)
        else:
            dom = dh.GridDomain.box(origin, origin + (np.array(shape) - 1) * h, h)
        vals = np.zeros(dom.shape)
        vals[dom.interior | dom.boundary] = [float(row[n]) for row in rows]
        return dh.GridField(dom, vals), prov

    @pytest.mark.parametrize("dom", [
        dh.GridDomain.ball(1.0, 1 / 32),
        dh.GridDomain.box([-1.0, 0.0, -0.5], [1.0, 1.5, 0.5], 0.25),
        dh.GridDomain.ball(1.0, 1 / 16, center=[0.5, -0.25]),
        dh.GridDomain.box([-2.5], [3.0], 0.125),
    ], ids=["disk", "box3", "offcenter_disk", "interval"])
    def test_csv_read_equals_the_row_by_row_reader(self, tmp_path, rng, dom):
        u = dh.GridField(dom, rng.normal(size=dom.shape) * 10.0 ** rng.integers(
            -20, 20, size=dom.shape))
        u.values[(1,) * dom.n] = -0.0
        path = tmp_path / "grid.csv"
        dh.write_grid_csv(path, u, {"seed": 3, "note": "a = b"})
        back, prov = dh.read_grid_csv(path)
        ref, ref_prov = self.row_by_row_read(path)
        assert prov == ref_prov
        assert back.domain.shape == ref.domain.shape
        assert np.array_equal(back.domain.interior, ref.domain.interior)
        assert np.array_equal(back.values, ref.values)
        assert np.array_equal(np.signbit(back.values), np.signbit(ref.values))

    @pytest.mark.parametrize("column", [0, 1])
    def test_csv_edited_coordinate_raises(self, tmp_path, column):
        dom = dh.GridDomain.ball(1.0, 0.25)
        u = dh.GridField(dom, np.ones(dom.shape))
        path = tmp_path / "grid.csv"
        dh.write_grid_csv(path, u)
        lines = path.read_text().splitlines()
        row = lines[-5].split(",")
        row[column] = repr(float(row[column]) + 0.01 * dom.h)
        lines[-5] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert self.row_by_row_read(path)[0].values.shape == dom.shape  # never noticed
        with pytest.raises(ValueError, match="coordinates do not match"):
            dh.read_grid_csv(path)

    def test_ppm(self, tmp_path):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.5)
        u = dh.GridField(dom, np.linspace(0, 1, 25).reshape(5, 5))
        path = tmp_path / "grid.pgm"
        dh.write_grid_ppm(path, u)
        header = path.read_text().splitlines()
        assert header[0] == "P2"
        assert header[1] == "5 5"
