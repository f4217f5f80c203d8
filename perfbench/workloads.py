"""The three benchmark workloads.

Each workload is one closed loop: one process, one caller, each call into
conedge made only after the previous one returned.  A workload has

* ``setup``  - what a user pays before the first answer (cone handles,
  grids, the geometric frame cache); repeated and timed as ``setup_s``;
* ``inputs`` - everything drawn from the benchmark seed; conedge only
  ever sees the generated inputs, never the seed;
* ``run``    - one timed repetition: every conedge call, each wrapped in
  a span named ``<module>.<function>``;
* ``verify`` - pure comparisons of run's outputs against references, so a
  corrupted output can be fed to it directly;
* ``counts`` - work counts that must repeat exactly on every repetition.

``FULL`` parameters define the benchmark; ``REDUCED`` ones keep the same
code paths small enough for the benchmark's own tests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conedge import catalog as cat
from conedge import classify as cl
from conedge import cli
from conedge import cones as cn
from conedge import dirichlet as dh
from conedge import edgefuncs as ef
from conedge import structures as st
from conedge import symspace as ss


class Checks:
    """Output checks of one run: each ``expect`` is one attempted check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"check": name, "detail": detail})


def call(tr, name: str, fn, *args, **kwargs):
    """Call into conedge inside a span named ``<module>.<function>``."""
    with tr.span(name):
        return fn(*args, **kwargs)


def harmonic(p):
    return p[:, 0] ** 2 - p[:, 1] ** 2


def smooth4(p):
    return np.cos(1.5 * p[:, 0]) + 0.4 * p[:, 1] * p[:, 2] - 0.3 * p[:, 3]


def _pick_nodes(dom, count: int, rng) -> list[tuple]:
    interior = np.argwhere(dom.interior)
    pick = rng.choice(interior.shape[0], size=min(count, interior.shape[0]),
                      replace=False)
    return [tuple(int(i) for i in interior[r]) for r in pick]


class DiskLaplace:
    """Laplace Dirichlet problem on the unit disk, then envelopes, shifted
    sub-tests and a grid CSV round trip on the solution."""

    name = "disk_laplace"
    FULL = {"h": 1 / 32, "envelopes": 50, "sub_tests": 200}
    REDUCED = {"h": 1 / 8, "envelopes": 4, "sub_tests": 8}
    # sup error against x^2 - y^2; bound of acceptance criterion 10 at h = 1/32
    ACCURACY = ("max_error", 5e-2)
    SUB_TEST_TOL = 1e-9
    # counts measured at the baseline of this benchmark (full parameters)
    BASELINE = {"dirichlet.sweeps": 6242, "dirichlet.edge_envelope.calls": 50}

    def __init__(self, reduced: bool = False):
        self.p = self.REDUCED if reduced else self.FULL

    def setup(self, tr):
        cone = call(tr, "catalog.build_cone", cat.build_cone, "laplace", 2)
        dom = dh.GridDomain.ball(1.0, self.p["h"])
        return {"cone": cone, "dom": dom}

    def inputs(self, state, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        edge = state["cone"].edge_of()
        quads = []
        for _ in range(self.p["sub_tests"]):
            g = rng.normal(size=(2, 2))
            curv = 0.5 * (g + g.T)
            curv -= 0.5 * np.trace(curv) * np.eye(2)
            quads.append(ef.make_edge_quadratic(edge, rng.normal(),
                                                rng.normal(size=2), curv))
        return {"nodes": _pick_nodes(state["dom"], self.p["envelopes"], rng),
                "quads": quads}

    def run(self, state, inp, tr, work_dir: Path) -> dict:
        cone, dom = state["cone"], state["dom"]
        with tr.phase("bench.solve"):
            u, info = call(tr, "dirichlet.perron_solve", dh.perron_solve,
                           cone, dom, harmonic, ordering="redblack", tol=1e-10)
        return {"u": u, "info": info, **self.post(state, inp, u, tr, work_dir)}

    def post(self, state, inp, u, tr, work_dir: Path) -> dict:
        """Envelopes, shifted sub-tests and the CSV round trip on a solution."""
        cone, dom = state["cone"], state["dom"]
        edge = cone.edge_of()
        envelopes, constraints = [], set()
        with tr.phase("bench.envelopes"):
            for idx in inp["nodes"]:
                x = dom.origin + np.array(idx) * dom.h
                val, env_info = call(tr, "dirichlet.edge_envelope",
                                     dh.edge_envelope, edge, dom, harmonic, x,
                                     check_stability=False)
                envelopes.append(val)
                constraints.add(env_info["constraints"])
        sub_results = []
        with tr.phase("bench.sub_tests"):
            pts = dom.coords().reshape(-1, dom.n)
            for q in inp["quads"]:
                excess = (u.values - q(pts).reshape(dom.shape))[dom.boundary].max()
                above = ef.EdgeQuadratic(q.c + float(excess), q.b, q.curvature)
                sub_results.append(call(tr, "edgefuncs.sub_test", ef.sub_test,
                                        u, above, tol=self.SUB_TEST_TOL))
        with tr.phase("bench.csv"):
            path = work_dir / "disk_laplace.csv"
            prov = {"kind": dom.kind, "h": dom.h,
                    "shape": "x".join(map(str, dom.shape)),
                    "origin": ",".join(repr(float(v)) for v in dom.origin),
                    "radius": dom.radius}
            call(tr, "dirichlet.write_grid_csv", dh.write_grid_csv, path, u, prov)
            csv_bytes = path.stat().st_size
            read_back, _ = call(tr, "cli.read_grid_csv", cli.read_grid_csv, path)
            path.unlink()
        return {"envelopes": envelopes,
                "constraints": sorted(constraints), "sub_results": sub_results,
                "read_back": read_back, "csv_bytes": csv_bytes}

    def verify(self, state, inp, out, checks: Checks) -> dict:
        dom, u = state["dom"], out["u"]
        checks.expect("solve converged", out["info"].converged,
                      {"sweeps": out["info"].sweeps})
        exact = harmonic(dom.coords().reshape(-1, dom.n)).reshape(dom.shape)
        max_error = float(np.abs(u.values - exact)[dom.interior].max())
        checks.expect("max_error <= 5e-2", max_error <= self.ACCURACY[1], max_error)
        slack = 10 * dom.h
        for idx, env in zip(inp["nodes"], out["envelopes"]):
            gap = env - float(u.values[idx])
            checks.expect("envelope <= solution + 10h", gap <= slack,
                          {"node": idx, "excess": gap})
        for k, (ok, info) in enumerate(out["sub_results"]):
            checks.expect("shifted sub_test holds", ok and info["premise_holds"],
                          {"quadratic": k, **info})
        mask = dom.interior | dom.boundary
        back = out["read_back"]
        same = (back.domain.shape == dom.shape
                and np.array_equal(back.values[mask], u.values[mask]))
        checks.expect("CSV round trip reproduces the values", bool(same))
        return {"accuracy": max_error}

    def counts(self, out) -> dict:
        return {"dirichlet.sweeps": out["info"].sweeps,
                "dirichlet.edge_envelope.calls": len(out["envelopes"]),
                "dirichlet.envelope_constraints": out["constraints"],
                "edgefuncs.sub_test.calls": len(out["sub_results"]),
                "dirichlet.csv_bytes": out["csv_bytes"],
                "dirichlet.interior_nodes": int(out["u"].domain.interior.sum())}


class BoxPEI:
    """P_EI(4) Dirichlet problem on a 4-d box (translate optimizer at every
    node update), then a margin probe at seeded interior nodes."""

    name = "box_pei"
    FULL = {"h": 0.5, "probes": 16}
    REDUCED = {"h": 1.0, "probes": 1}
    # |margin(D^2 u)| at the probe nodes; measured 0.9e-7 to 1.6e-7 at the baseline
    ACCURACY = ("max_residual", 1e-6)
    BASELINE = {"dirichlet.sweeps": 81}

    def __init__(self, reduced: bool = False):
        self.p = self.REDUCED if reduced else self.FULL

    def setup(self, tr):
        cone = call(tr, "catalog.build_cone", cat.build_cone, "P_EI", 4)
        dom = dh.GridDomain.box([-1.0] * 4, [1.0] * 4, self.p["h"])
        return {"cone": cone, "dom": dom}

    def inputs(self, state, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {"nodes": _pick_nodes(state["dom"], self.p["probes"], rng)}

    def run(self, state, inp, tr, work_dir: Path) -> dict:
        cone, dom = state["cone"], state["dom"]
        with tr.phase("bench.solve"):
            u, info = call(tr, "dirichlet.perron_solve", dh.perron_solve,
                           cone, dom, smooth4, ordering="lex", tol=1e-9,
                           max_sweeps=300)
        return {"u": u, "info": info, **self.probe(state, inp, u, tr)}

    def probe(self, state, inp, u, tr) -> dict:
        """Cone margin of the discrete Hessian at the probe nodes, by a cold
        and by a warm-started translate optimizer run."""
        cone = state["cone"]
        cold = []
        with tr.phase("bench.probe"):
            for idx in inp["nodes"]:
                a = call(tr, "dirichlet.discrete_hessian",
                         dh.discrete_hessian, u, idx)
                # P_EI has no closed form: cone.margin(a) is exactly this
                # cold optimizer run, which also returns the warm-start coords
                m, _, coords, _ = call(tr, "cones.optimizer_margin.cold",
                                       cone.optimizer_margin, a)
                call(tr, "cones.optimizer_margin.warm",
                     cone.optimizer_margin, a, warm_coords=coords)
                cold.append(m)
        return {"cold": cold}

    def verify(self, state, inp, out, checks: Checks) -> dict:
        checks.expect("solve converged", out["info"].converged,
                      {"sweeps": out["info"].sweeps})
        for idx, m in zip(inp["nodes"], out["cold"]):
            checks.expect("|margin(D2u)| <= residual bound",
                          abs(m) <= self.ACCURACY[1], {"node": idx, "margin": m})
        return {"accuracy": float(max(abs(m) for m in out["cold"]))}

    def counts(self, out) -> dict:
        return {"dirichlet.sweeps": out["info"].sweeps,
                "dirichlet.interior_nodes": int(out["u"].domain.interior.sum())}


ORACLE_CONES = ("P", "laplace", "P_C", "P_LAG", "P_H", "GL_IJK")
CLASSIFY_GROUPS = (("on", 3), ("un", 6), ("spn_sp1", 8), ("spn_s1", 8))
EXPECTED_ENTRIES = {"on": 2, "un": 4, "spn_sp1": 4, "spn_s1": 16}


class CatalogChecks:
    """Membership oracles, structural checks and classification with no
    grid: the batch and single-call routes of the closed forms, the
    basic-edge dichotomy, plane sampling, the geometric cone, and the
    invariant-edge tables."""

    name = "catalog_checks"
    FULL = {"batch": 20000, "single": 2000, "shifted": 200, "planes": 200,
            "geo_budget": 2000, "geo_margins": 20, "classify_samples": 100}
    REDUCED = {"batch": 200, "single": 20, "shifted": 20, "planes": 5,
               "geo_budget": 200, "geo_margins": 3, "classify_samples": 20}
    BATCH_SINGLE_ATOL = 1e-12      # test_batch_margin_consistent
    ID_SHIFT_ATOL = 1e-9           # test_margin_id_shift_affine
    FRAME_RESIDUAL = 1e-10         # test_structures sampler relations
    ENHANCED_NEW = 6
    ENHANCED_BREAK_SHARE = 0.95
    BASELINE = {"classify.entries": 26, "cones.contains.calls": 12000}

    def __init__(self, reduced: bool = False):
        self.p = self.REDUCED if reduced else self.FULL

    def setup(self, tr):
        cones = {name: call(tr, "catalog.build_cone", cat.build_cone, name)
                 for name in cat.catalog_names()}
        gl8 = call(tr, "catalog.build_cone", cat.build_cone, "GL_IJK", 8)
        geo = cn.GeometricCone(st.PlaneFamily("gl_ijk", 8), budget=self.p["geo_budget"])
        call(tr, "cones.geometric_frames", geo.projectors)
        return {"cones": cones, "gl8": gl8, "geo": geo}

    def inputs(self, state, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        stacks, shifts = {}, {}
        for name in ORACLE_CONES:
            n = state["cones"][name].n
            g = rng.normal(size=(self.p["batch"], n, n))
            stacks[name] = 0.5 * (g + g.transpose(0, 2, 1))
            shifts[name] = rng.uniform(-2.0, 2.0, size=self.p["shifted"])
        plane_seeds = rng.integers(2**31, size=(len(st.PLANE_TAGS), self.p["planes"]))
        g = rng.normal(size=(self.p["geo_margins"], 8, 8))
        return {"stacks": stacks, "shifts": shifts, "plane_seeds": plane_seeds,
                "geo_mats": 0.5 * (g + g.transpose(0, 2, 1)),
                "classify_seed": int(rng.integers(2**31))}

    def run(self, state, inp, tr, work_dir: Path) -> dict:
        out = {"oracle": {}, "basic": {}, "frame_residuals": {}, "classify": {}}
        n_single, n_shift = self.p["single"], self.p["shifted"]
        with tr.phase("bench.oracle"):
            for name in ORACLE_CONES:
                cone, stack = state["cones"][name], inp["stacks"][name]
                batch = call(tr, "cones.margin_batch", cone.margin_batch, stack)
                single = [call(tr, "cones.contains", cone.contains, a)
                          for a in stack[:n_single]]
                for a in stack[:n_single]:
                    call(tr, "cones.dual_contains", cone.dual_contains, a)
                shift = inp["shifts"][name][:, None, None] * np.eye(cone.n)
                shifted = stack[:n_shift] - shift
                shifted_batch = call(tr, "cones.margin_batch",
                                     cone.margin_batch, shifted)
                out["oracle"][name] = {
                    "batch": batch, "single": single,
                    "shifted_batch": shifted_batch, "slope": cone.id_shift_slope,
                    "matrices": stack.shape[0] + shifted.shape[0]}
        with tr.phase("bench.basic_edges"):
            for name, cone in state["cones"].items():
                out["basic"][name] = call(tr, "cones.is_basic_edge",
                                          cn.is_basic_edge, cone.edge)
        with tr.phase("bench.planes"):
            for tag, seeds in zip(st.PLANE_TAGS, inp["plane_seeds"]):
                # only grass takes a plane dimension; any 1..8 serves
                fam = st.PlaneFamily(tag, 8, 3 if tag == "grass" else None)
                res = []
                for s in seeds:
                    frame = call(tr, "structures.sample_plane",
                                 st.sample_plane, fam, int(s))
                    res.append(call(tr, "structures.frame_relations_residual",
                                    st.frame_relations_residual, fam, frame))
                out["frame_residuals"][tag] = res
        with tr.phase("bench.geometric"):
            # a fresh handle, so edge_of is computed rather than read from cache
            fresh = cn.GeometricCone(st.PlaneFamily("gl_ijk", 8),
                                     budget=self.p["geo_budget"])
            edge = call(tr, "cones.geometric_edge_of", fresh.edge_of)
            out["geo_edge_equal"] = call(tr, "symspace.subspace_equal",
                                         ss.subspace_equal, edge, state["gl8"].edge, 1e-8)
            out["geo_margins"] = [
                (call(tr, "cones.geometric_margin", state["geo"].margin, a),
                 call(tr, "cones.margin", state["gl8"].margin, a))
                for a in inp["geo_mats"]]
        with tr.phase("bench.classify"):
            for kind, n in CLASSIFY_GROUPS:
                try:
                    out["classify"][kind] = call(
                        tr, "classify.reproduce_catalog", cl.reproduce_catalog,
                        st.Group(kind, n), samples=self.p["classify_samples"],
                        seed=inp["classify_seed"])
                except cl.ClassificationError as exc:
                    out["classify"][kind] = {"error": str(exc), "entries": []}
        return out

    def verify(self, state, inp, out, checks: Checks) -> dict:
        n_single = self.p["single"]
        decided = 0
        for name, rec in out["oracle"].items():
            single = np.array([m.margin for m in rec["single"]])
            diff = float(np.abs(rec["batch"][:n_single] - single).max())
            checks.expect(f"{name}: batch margin equals single margin",
                          diff <= self.BATCH_SINGLE_ATOL, diff)
            base = rec["batch"][:rec["shifted_batch"].size]
            expect = base - inp["shifts"][name] * rec["slope"]
            diff = float(np.abs(rec["shifted_batch"] - expect).max())
            checks.expect(f"{name}: Id-shift slope is exact",
                          diff <= self.ID_SHIFT_ATOL, diff)
            decided += sum(m.verdict is not cn.Verdict.BOUNDARY for m in rec["single"])
        for name, rep in out["basic"].items():
            checks.expect(f"{name}: edge is basic with no indeterminate",
                          rep.basic and not rep.indeterminate,
                          {"basic": rep.basic, "indeterminate": rep.indeterminate})
        for tag, res in out["frame_residuals"].items():
            for r in res:
                checks.expect(f"{tag}: frame relations residual <= 1e-10",
                              r <= self.FRAME_RESIDUAL, r)
        checks.expect("geometric edge equals GL_IJK(8) edge", out["geo_edge_equal"])
        for a, (geo_m, closed_m) in zip(inp["geo_mats"], out["geo_margins"]):
            checks.expect("geometric margin >= closed-form margin - tol",
                          geo_m >= closed_m - cn.default_tol(a),
                          {"geometric": geo_m, "closed": closed_m})
        samples = self.p["classify_samples"]
        for kind, expected in EXPECTED_ENTRIES.items():
            entries = out["classify"].get(kind, {}).get("entries", [])
            checks.expect(f"{kind}: {expected} classification entries",
                          len(entries) == expected,
                          out["classify"].get(kind, {}).get("error", len(entries)))
            for rec in entries:
                checks.expect(f"{kind}: entry basic and invariant",
                              rec["basic"] and rec["own_invariance"]
                              and rec["larger_invariance"], rec["components"])
        s1 = out["classify"].get("spn_s1", {}).get("entries", [])
        breaks = [r["enhanced_breaks"] for r in s1 if "enhanced_breaks" in r]
        checks.expect("six circle-extended entries", len(breaks) == self.ENHANCED_NEW,
                      len(breaks))
        for b in breaks:
            checks.expect("enhanced invariance breaks >= 95/100",
                          b >= self.ENHANCED_BREAK_SHARE * samples, b)
        calls = len(out["oracle"]) * n_single
        return {"decided_ratio": decided / calls if calls else 0.0}

    def counts(self, out) -> dict:
        return {
            "cones.contains.calls": sum(len(r["single"]) for r in out["oracle"].values()),
            "cones.margin_batch.matrices":
                sum(r["matrices"] for r in out["oracle"].values()),
            "cones.is_basic_edge.calls": len(out["basic"]),
            "classify.entries": sum(len(r.get("entries", []))
                                    for r in out["classify"].values()),
        }


WORKLOADS = {wl.name: wl for wl in (DiskLaplace, BoxPEI, CatalogChecks)}
