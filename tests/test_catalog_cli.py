import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conedge import catalog as cat
from conedge import classify as cl
from conedge import cli
from conedge import cones as cn
from conedge import dirichlet as dh
from conedge import structures as st
from conedge import symspace as ss


class TestCatalog:
    def test_default_names(self):
        names = cat.catalog_names()
        assert {"P", "laplace", "P_C", "P_LAG", "P_H", "GL_IJK"} <= set(names)

    def test_round_trip(self):
        text = cat.dump_catalog()
        specs = cat.parse_catalog(text)
        assert specs == list(cat.DEFAULT_SPECS)

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cat.txt"
        path.write_text("[onlyone]\ngroup = on\nn = 2\nedge = sym0\n")
        monkeypatch.setenv(cat.ENV_CATALOG, str(path))
        specs = cat.load_default_specs()
        assert [s.name for s in specs] == ["onlyone"]
        cone = cat.build_cone("onlyone", specs=specs)
        assert cone.edge.dim == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            cat.build_cone("nope")

    def test_zero_dimension_rejected(self):
        # n = 0 is a dimension, not "use the default"
        with pytest.raises(ValueError):
            cat.build_cone("P", 0)
        assert run_cli(["check-cone", "--name", "P", "--n", "0", "--dry-run"]) == 2

    def test_fast_margins_match_optimizer(self, rng):
        for name, n in (("P", 3), ("laplace", 3), ("P_C", 4), ("P_LAG", 4),
                        ("P_H", 4), ("GL_IJK", 4)):
            cone = cat.build_cone(name, n)
            assert cone._fast_margin is not None
            for _ in range(5):
                a = ss.random_symmetric(n, rng)
                m_opt, *_ = cone.optimizer_margin(a)
                assert abs(m_opt - cone.margin(a)) <= 1e-8

    def test_batch_margin_consistent(self, rng):
        for name, n in (("P_C", 4), ("P_LAG", 4), ("GL_IJK", 8), ("P_H", 8)):
            cone = cat.build_cone(name, n)
            stack = np.array([ss.random_symmetric(n, rng) for _ in range(7)])
            batch = cone.margin_batch(stack)
            single = [cone.margin(a) for a in stack]
            assert np.allclose(batch, single, atol=1e-12)

    def test_build_check_mode(self):
        cone = cat.build_cone("P_C", 4, check=True)
        assert cone.edge.dim == 6


class TestClosedFormDispatch:
    """A closed form follows the cone's edge, not the entry's name."""

    TEXT = """
[my_pc]
group = un
n = 4
edge = c_skew

[trace2]
group = on
n = 2
edge = sym0

[gl_permuted]
group = spn_s1
n = 8
edge = e_k,h_sym0,e_j

[lag_i]
group = spn_s1
n = 8
edge = h_sym0,e_i
"""
    SPECS = cat.parse_catalog(TEXT) + list(cat.DEFAULT_SPECS)

    @pytest.mark.parametrize("name, reference, n", [
        ("my_pc", "P_C", 4), ("gl_permuted", "GL_IJK", 8)])
    def test_edge_picks_closed_form(self, name, reference, n, rng):
        cone = cat.build_cone(name, specs=cat.parse_catalog(self.TEXT))
        ref = cat.build_cone(reference, n)
        assert cone._fast_margin is not None
        stack = np.array([ss.random_symmetric(n, rng) for _ in range(20)])
        assert np.abs(cone.margin_batch(stack) - ref.margin_batch(stack)).max() <= 1e-12
        for a in stack:
            assert abs(cone.margin(a) - ref.margin(a)) <= 1e-12

    def test_trace_edge_is_linear(self):
        cone = cat.build_cone("trace2", specs=cat.parse_catalog(self.TEXT))
        assert np.array_equal(cone.linear_margin_weight, np.eye(2) / 2)
        dom = dh.GridDomain.ball(1.0, 1 / 8)
        _, info = dh.perron_solve(cone, dom, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2,
                                  ordering="redblack", tol=1e-10)
        assert info.converged and info.omega > 1.0

    def test_zero_edge_gets_psd_kernel(self, rng):
        # h_sym0 vanishes at one quaternionic dimension: P_HSYM(4)'s edge is 0
        cone = cat.build_cone("P_HSYM", 4)
        assert cone.edge.dim == 0 and cone.linear_margin_weight is None
        stack = np.array([ss.random_symmetric(4, rng) for _ in range(20)])
        assert np.array_equal(cone.margin_batch(stack),
                              np.linalg.eigvalsh(stack)[:, 0])

    @pytest.mark.parametrize("name, n", [("P_EI", 4), ("lag_i", 8)])
    def test_i_lagrangian_kernel(self, name, n, rng):
        # (tr A - nuclear norm of (A + IAI)/2) / n, I the quaternionic i
        cone = cat.build_cone(name, n, specs=self.SPECS)
        i_mat = st.quaternion_triple(n // 4).i
        for _ in range(20):
            a = ss.random_symmetric(n, rng)
            skew = np.linalg.eigvalsh(st.complex_skew_part(a, i_mat))
            expect = (np.trace(a) - np.abs(skew).sum()) / n
            assert abs(cone.margin(a) - expect) <= 1e-12

    @pytest.mark.parametrize("name", ["P_EI", "P_HSYM"])
    def test_surviving_h_sym0_keeps_optimizer(self, name):
        assert cat.build_cone(name, 8)._fast_margin is None

    @pytest.mark.parametrize("name, n", [("P_EI", 4), ("P_HSYM", 4), ("lag_i", 8)])
    def test_new_closed_forms_match_optimizer(self, name, n, rng):
        cone = cat.build_cone(name, n, specs=self.SPECS)
        assert cone._fast_margin is not None
        for _ in range(5):
            a = ss.random_symmetric(n, rng)
            m_opt, *_ = cone.optimizer_margin(a)
            assert abs(m_opt - cone.margin(a)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    def test_h_sym0_e_i_edge_is_i_lagrangian(self, n):
        group = st.Group("spn_s1", n)
        edge = cat.edge_from_components(group, ("h_sym0", "e_i"))
        i_mat = st.quaternion_triple(n // 4).i
        commuting = [st.complex_sym_part(b, i_mat) for b in ss.standard_basis(n)]
        gens = [c - np.trace(c) / n * np.eye(n) for c in commuting]
        assert ss.subspace_equal(edge, ss.orthonormalize(gens, ambient_n=n))

    # (cone, n) pairs of the README's closed-form table -> (linear weight?,
    # sha256 of margin_batch on a seeded stack, None when the cone has no
    # kernel): the kernel each cone gets is pinned bit for bit
    PINNED = {
        ("P", 1): (True, "c85fc8501e14b9b028dc65f493b74f417f30fa4e55ed7103ad4e7e3e723f3025"),
        ("P", 2): (False, "5a263e2c9d4994205fc2cedd4da0779434d6685419d2076931098f064edb15ba"),
        ("P", 3): (False, "5735fd089bf7c49893e35a773a927e1e1f4bf3c7a83e4bf316b585e748c5114f"),
        ("laplace", 1): (True, "c85fc8501e14b9b028dc65f493b74f417f30fa4e55ed7103ad4e7e3e723f3025"),
        ("laplace", 2): (True, "c7d17b62b711614bde49e24fd9024c4ddba4412a05d2b31eef865b41cbda37c6"),
        ("laplace", 3): (True, "e1ad71cdbaa82eba960900f3372bdf8b56fd8ed8c9c24cbf2f663c75f6342283"),
        ("P_C", 2): (False, "c7d17b62b711614bde49e24fd9024c4ddba4412a05d2b31eef865b41cbda37c6"),
        ("P_C", 4): (False, "04c35f10425ae4201f08f3da2aff6f8a62be008bc0c58bc11a7421dfaeb8bc7c"),
        ("P_C", 6): (False, "0eb7bb492d3bae7524ef3eb19245574eb6833fe49bfdb13dd3e0eefa07c987cf"),
        ("P_LAG", 2): (False, "5a263e2c9d4994205fc2cedd4da0779434d6685419d2076931098f064edb15ba"),
        ("P_LAG", 4): (False, "d131d705a617906c36f584023c464a2154551688487ad1fff9820f8504b696e5"),
        ("P_LAG", 6): (False, "adb3fd85750297a47f232d07b21285111eb6f1fca094c7b2c0318d4b3d087260"),
        ("P_H", 4): (False, "b03ca781148aa43025a8ebc6a8a316f54a7ce4e5b0e95adc148e26695d56cce0"),
        ("P_H", 8): (False, "37947ae6a92b6bfb58e874282348f2ba1fe0a4062ecf1fc890a026c0305c52cd"),
        ("GL_IJK", 4): (False, "8e711b2ddffb1466a8650cbf7b1387d419ea62e8c9edea4ceed605b8b4266ccb"),
        ("GL_IJK", 8): (False, "981a64ee5d018cf24bd465d65fc417b633fed2dcba49ab14244a033bab55ef1c"),
        ("P_HSYM", 4): (False, "9e35b9530fe9b1822ac74a946b2e90013c33081c2285ac591862a8e038eb9156"),
        ("P_HSYM", 8): (False, None),
        ("P_EI", 4): (False, "e6235523adac38366696b0a564fb3f1e3393a3350fb932a2d46acfa6ec680132"),
        ("P_EI", 8): (False, None),
    }

    @pytest.mark.parametrize("name, n", list(PINNED))
    def test_pinned_dispatch(self, name, n):
        weight, digest = self.PINNED[(name, n)]
        cone = cat.build_cone(name, n)
        assert (cone.linear_margin_weight is not None) == weight
        assert (cone._fast_margin is None) == (digest is None)
        if digest is not None:
            g = np.random.default_rng(n).normal(size=(16, n, n))
            margins = cone.margin_batch(0.5 * (g + g.transpose(0, 2, 1)))
            assert hashlib.sha256(margins.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [4, 8])
    def test_classification_cones_share_kernels(self, n, rng):
        entries = cl.enumerate_basic_edges(st.Group("spn_s1", n))
        stack = np.array([ss.random_symmetric(n, rng) for _ in range(10)])
        for entry in entries:
            spec = cat.CatalogSpec("entry", "spn_s1", entry.components, n)
            ref = cat.build_cone("entry", specs=[spec])
            assert (entry.cone._fast_margin is None) == (ref._fast_margin is None)
            assert (entry.cone.linear_margin_weight is None) \
                == (ref.linear_margin_weight is None)
            if ref._fast_margin is not None:
                assert np.array_equal(entry.cone.margin_batch(stack),
                                      ref.margin_batch(stack))
        with_kernel = {e.components for e in entries if e.cone._fast_margin}
        assert {(), ("h_sym0", "e_i"), ("h_sym0", "e_j", "e_k")} <= with_kernel


# every closed-form kernel with the group its margin is invariant under;
# P_HSYM(4) and P_EI(4) get theirs from the surviving-component dispatch
KERNEL_CONES = [("P", 3), ("laplace", 3), ("P_C", 4), ("P_LAG", 4), ("P_H", 8),
                ("GL_IJK", 8), ("P_HSYM", 4), ("P_EI", 4), ("lag_i", 8)]
KERNEL_SPECS = TestClosedFormDispatch.SPECS


def _kernel_cone(name, n):
    cone = cat.build_cone(name, n, specs=KERNEL_SPECS)
    assert cone._fast_margin is not None
    return cone, cat.group_for(cat.find_spec(name, KERNEL_SPECS), n)


SEEDS = hst.integers(min_value=0, max_value=2**32 - 1)
SCALES = hst.floats(min_value=1e-3, max_value=1e3)


@pytest.mark.parametrize("name, n", KERNEL_CONES)
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, scale=SCALES, shift=hst.floats(min_value=-1e3, max_value=1e3))
def test_kernel_id_shift_slope_is_exact(name, n, seed, scale, shift):
    cone, _ = _kernel_cone(name, n)
    a = ss.random_symmetric(n, np.random.default_rng(seed), scale)
    moved = cone.margin(a - shift * np.eye(n))
    tol = 1e-12 * (1 + ss.frob_norm(a) + abs(shift)) * n
    assert abs(moved - (cone.margin(a) - shift * cone.id_shift_slope)) <= tol


@pytest.mark.parametrize("name, n", KERNEL_CONES)
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, scale=SCALES, rank=hst.integers(min_value=1, max_value=8))
def test_kernel_adding_psd_never_lowers(name, n, seed, scale, rank):
    cone, _ = _kernel_cone(name, n)
    rng = np.random.default_rng(seed)
    a = ss.random_symmetric(n, rng, scale)
    b = rng.normal(size=(n, min(rank, n))) * scale
    tol = 1e-12 * (1 + ss.frob_norm(a) + ss.frob_norm(b @ b.T)) * n
    assert cone.margin(a + b @ b.T) >= cone.margin(a) - tol


@pytest.mark.parametrize("name, n", KERNEL_CONES)
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, scale=SCALES)
def test_kernel_invariant_under_its_group(name, n, seed, scale):
    cone, group = _kernel_cone(name, n)
    rng = np.random.default_rng(seed)
    a = ss.random_symmetric(n, rng, scale)
    g = st.sample_group_element(group, rng)
    tol = 1e-12 * (1 + ss.frob_norm(a)) * n
    assert abs(cone.margin(g.T @ a @ g) - cone.margin(a)) <= tol


@pytest.mark.parametrize("name, n", KERNEL_CONES)
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, scale=SCALES, boundary=hst.booleans())
def test_kernel_inside_translate_sdp_interval(name, n, seed, scale, boundary):
    # the primal-dual kernel brackets the maximum between its certified
    # lower value and <A, z> for its feasible dual iterate z
    cone, _ = _kernel_cone(name, n)
    a = ss.random_symmetric(n, np.random.default_rng(seed), scale)
    if boundary:
        a = a - cone.margin(a) * np.eye(n)
    closed = cone.margin(a)
    lower, _, z, _ = cn.translate_sdp(a[None], cone.edge.basis)
    tol = 1e-10 * (1 + ss.frob_norm(a))
    assert lower[0] - tol <= closed <= float(np.einsum("ij,ji->", a, z[0])) + tol


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_catalog_listing(self, capsys):
        assert run_cli(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "P_C" in out and "laplace" in out

    def test_dry_runs(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2\n1 0\n0 2\n")
        assert run_cli(["catalog", "--dry-run"]) == 0
        assert run_cli(["decompose", "--group", "on", "--matrix", str(mat),
                        "--dry-run"]) == 0
        assert run_cli(["check-cone", "--name", "P", "--dry-run"]) == 0
        assert run_cli(["classify", "--group", "un", "--n", "2", "--dry-run"]) == 0
        assert run_cli(["solve", "--cone", "laplace", "--dry-run"]) == 0
        assert run_cli(["envelope", "--cone", "P", "--dry-run"]) == 0

    def test_decompose(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text("4\n" + "\n".join(" ".join("1" if i == j else "0"
                                                  for j in range(4))
                                         for i in range(4)))
        out_path = tmp_path / "rec.jsonl"
        code = run_cli(["decompose", "--group", "un", "--matrix", str(mat),
                        "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["provenance"]["tool"] == "conedge"
        comps = [json.loads(l) for l in lines[1:]]
        norms = {c["component"]: c["norm"] for c in comps}
        assert norms["id"] == pytest.approx(2.0)  # |Id_4| = 2
        assert norms["c_skew"] == pytest.approx(0.0, abs=1e-12)

    def test_decompose_warns_on_asymmetry(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text("2\n0 1\n0 0\n")
        run_cli(["decompose", "--group", "on", "--matrix", str(mat)])
        assert "symmetrizing" in capsys.readouterr().err

    def test_matrix_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 0 0\n")
        assert run_cli(["decompose", "--group", "on", "--matrix", str(bad)]) == 2

    def test_check_cone_pass(self, tmp_path):
        out = tmp_path / "checks.jsonl"
        code = run_cli(["check-cone", "--name", "P_C", "--n", "2",
                        "--budget", "40", "--out", str(out)])
        assert code == 0
        records = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        names = {r["check"] for r in records}
        assert {"basic_edge", "support", "minimality", "self_duality",
                "dual_inclusion"} <= names

    def test_classify_cli(self, capsys):
        code = run_cli(["classify", "--group", "spn-s1", "--n", "1",
                        "--samples", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if "->" in l]) == 16

    def test_solve_writes_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run_cli(["solve", "--cone", "laplace", "--n", "2",
                        "--domain", "disk", "--h", "0.125", "--phi", "x2-y2",
                        "--radius", "1.0", "--out", str(out)])
        assert code == 0
        assert "sup error vs exact" in capsys.readouterr().out
        field, prov = cli.read_grid_csv(out)
        assert prov["kind"] == "ball"
        assert field.domain.interior.sum() > 0

    def test_solve_reports_residual(self, tmp_path, capsys):
        run_cli(["solve", "--cone", "P", "--n", "2", "--domain", "box",
                 "--h", "0.25", "--phi", "affine", "--out", str(tmp_path / "g.csv")])
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("converged:")][0]
        assert "max residual" in line

    def test_solve_grid_roundtrip_box(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_cli(["solve", "--cone", "P", "--n", "2", "--domain", "box",
                 "--h", "0.25", "--phi", "affine", "--out", str(out)])
        field, prov = cli.read_grid_csv(out)
        assert field.domain.kind == "box"
        assert field.domain.shape == (9, 9)

    def test_witness_scan(self, tmp_path, capsys):
        # a strictly concave grid fails the dual test at every node
        grid = tmp_path / "grid.csv"
        from conedge import dirichlet as dh
        dom = dh.GridDomain.box([-1.0, -1.0], [1.0, 1.0], 0.25)
        pts = dom.coords().reshape(-1, 2)
        u = dh.GridField(dom, (-(pts ** 2).sum(axis=1)).reshape(dom.shape))
        dh.write_grid_csv(grid, u, {"kind": "box", "h": 0.25,
                                    "origin": "-1.0,-1.0", "shape": "9x9"})
        out = tmp_path / "wit.jsonl"
        code = run_cli(["witness", "--cone", "laplace", "--n", "2",
                        "--grid", str(grid), "--out", str(out)])
        assert code == 0
        txt = capsys.readouterr().out
        assert "witnesses found at 49 of 49" in txt

    def test_envelope_cli(self, tmp_path):
        out = tmp_path / "env.jsonl"
        code = run_cli(["envelope", "--cone", "P", "--n", "2", "--domain", "box",
                        "--h", "0.25", "--phi", "affine", "--nodes", "10",
                        "--out", str(out)])
        assert code == 0

    def test_config_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 0.5\nphi = affine\n")
        code = run_cli(["solve", "--cone", "laplace", "--n", "2",
                        "--h", "0.125", "--config", str(cfg), "--dry-run"])
        assert code == 0
        assert "h=0.5" in capsys.readouterr().out

    def test_config_values_take_flag_types(self, tmp_path, capsys):
        # options whose default is None get the flag's type from the config
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("tol = 1e-9\n")
        code = run_cli(["solve", "--cone", "laplace", "--n", "2", "--h", "0.5",
                        "--config", str(cfg), "--out", str(tmp_path / "g.csv")])
        assert code == 0
        cfg = tmp_path / "check.cfg"
        cfg.write_text("n = 4\n")
        code = run_cli(["check-cone", "--name", "P_C", "--config", str(cfg),
                        "--dry-run"])
        assert code == 0
        assert "at n=4" in capsys.readouterr().out

    def test_config_values_take_flag_choices(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ordering = sideways\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--cone", "laplace", "--config", str(cfg), "--dry-run"])
        assert exc.value.code == 2

    def test_config_switch_off_overrides_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dry-run = false\n")
        assert run_cli(["catalog", "--dry-run", "--config", str(cfg)]) == 0
        assert "laplace" in capsys.readouterr().out  # the listing, not the dry run

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            run_cli(["check-cone", "--name", "laplace", "--n", "2",
                     "--budget", "25", "--seed", "7", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_solve(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["solve", "--cone", "P_C", "--n", "2", "--domain", "disk",
                     "--h", "0.25", "--phi", "trig", "--seed", "7",
                     "--out", str(path)])
        assert a.stat().st_size > 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ["check-cone", "--name", "P", "--budget", "-5"],
        ["classify", "--group", "on", "--samples", "0"],
        ["envelope", "--cone", "P", "--nodes", "0"],
        ["solve", "--cone", "P", "--max-sweeps", "0"],
    ], ids=["budget", "samples", "nodes", "max-sweeps"])
    def test_count_flags_must_be_positive(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_count_flags_from_config_must_be_positive(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = 0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["check-cone", "--name", "P", "--config", str(cfg), "--dry-run"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve", "envelope"])
    def test_zero_spacing_is_a_usage_error(self, command, capsys):
        assert run_cli([command, "--cone", "P", "--h", "0", "--dry-run"]) == 2
        assert "h must be positive and finite" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve"])  # missing required --cone
        assert exc.value.code == 2

    def test_boundary_function_catalog(self):
        fn, ext = cli.make_boundary_function("x2-y2", 2)
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(fn(pts), [1.0, -1.0])
        fn2, _ = cli.make_boundary_function("maxaff:1,0,-1,0", 2)
        assert np.allclose(fn2(pts), [1.0, 0.0])
        fn3, _ = cli.make_boundary_function("trig:3", 2)
        assert fn3(pts).shape == (2,)
        with pytest.raises(ValueError):
            cli.make_boundary_function("nope", 2)
