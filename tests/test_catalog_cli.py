import json

import numpy as np
import pytest

from conedge import catalog as cat
from conedge import cli
from conedge import dirichlet as dh
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
"""

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
