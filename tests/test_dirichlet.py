import hashlib
import itertools

import numpy as np
import pytest

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
    # margin is a closed form or linear
    @pytest.mark.parametrize("name, n, dom, phi, kwargs, digest, sweeps", [
        ("P_EI", 4, dh.GridDomain.box(**BOX4), smooth4, {},
         "9c7cf994aefd82d3109dad4b44c6623c9c563126e19cb472f1e040e440c583c6", 43),
        ("P", 2, dh.GridDomain.box([-1.0] * 2, [1.0] * 2, 1 / 8), smooth2, {},
         "9cc69ed8b41f35d24d598d3cbda60414ebde1dd31735b10556c424f5ee1886d1", 572),
        ("P", 2, dh.GridDomain.ball(1.0, 1 / 4), smooth2, {},
         "5c68f1c2a0fc590d4110bf4442b717ecbc0bb8cdd56393d76a91b88f7d6771f7", 126),
        ("laplace", 2, dh.GridDomain.ball(1.0, 1 / 16), smooth2, {},
         "04b564fcd86f8fb4c3be33d1add2ed162d897dea79c0f6889ccb02085d8dbfd0", 128),
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

    def test_monotone_in_bound(self):
        dom = dh.GridDomain.box([-1.0], [1.0], 0.5)
        vals = []
        for mb in (0.1, 1.0, 10.0):
            v, _ = dh.edge_envelope(ss.zero_subspace(1), dom,
                                    lambda p: np.ones(len(p)), np.array([0.0]),
                                    m_bound=mb, check_stability=False)
            vals.append(v)
        assert vals == sorted(vals)

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

    def test_ppm(self, tmp_path):
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.5)
        u = dh.GridField(dom, np.linspace(0, 1, 25).reshape(5, 5))
        path = tmp_path / "grid.pgm"
        dh.write_grid_ppm(path, u)
        header = path.read_text().splitlines()
        assert header[0] == "P2"
        assert header[1] == "5 5"
