"""Command-line front end.

Subcommands: catalog, decompose, check-cone, classify, solve, envelope,
witness.  Every run is reproducible from (config, seed); machine-readable
outputs carry a provenance header and identical inputs produce identical
bytes.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import catalog as cat
from . import classify as cl
from . import cones as cn
from . import dirichlet as dh
from . import edgefuncs as ef
from . import structures as st
from .dirichlet import read_grid_csv
from .symspace import frob_norm


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _provenance(args, extra=None) -> dict:
    out = {
        "tool": "conedge",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", 0),
        "membership_rtol": cn.MEMBERSHIP_RTOL,
        "lp_tol": dh.ENVELOPE_LP_RTOL,
    }
    if extra:
        out.update(extra)
    return out


def _emit_records(path, records, provenance):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def read_matrix_file(path) -> np.ndarray:
    """Plain text: first line n, then n rows of n numbers; symmetrized on
    read, warning above 1e-8 relative asymmetry."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty matrix file")
    n = int(tokens[0]) if tokens[0].isdecimal() else 0
    if n < 1:
        raise ValueError(f"{path}: n must be a positive integer, got {tokens[0]!r}")
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(f"expected {n*n} entries, found {len(vals)}")
    a = np.array(vals).reshape(n, n)
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix entries must be finite")
    skew = np.abs(a - a.T).max()
    if skew > 1e-8 * (1.0 + np.abs(a).max()):
        print(f"warning: symmetrizing input with asymmetry {skew:.3e}",
              file=sys.stderr)
    return 0.5 * (a + a.T)


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    if int(text) < 1:  # argparse reports a ValueError from int() itself
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _apply_config(argv, args, parser):
    """Parse again with each config line `key = value` appended as the flag
    `--key=value`, or for a switch `--key` added (true) or removed (false):
    config values get the flags' types and choices and override flags."""
    path = getattr(args, "config", None)
    if not path:
        return args
    extra = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"malformed config line: {raw!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                extra.append(f"{flag}={val}")
            elif val.lower() in ("1", "true", "yes"):
                extra.append(flag)
            else:
                argv = [a for a in argv if a != flag]
    return parser.parse_args([*argv, *extra])


# ----------------------------------------------------------------------
# boundary data catalog
# ----------------------------------------------------------------------

def make_boundary_function(spec: str, n: int):
    """Named boundary data: affine, quadratic, max-of-affines, trig.

    Returns (callable on point arrays, quadratic extension or None).
    The extension, an `edgefuncs.EdgeQuadratic` when present, lets the
    solver report an exact error whenever its Hessian lies on the cone
    boundary.
    """
    name, _, param_str = spec.partition(":")
    params = [float(p) for p in param_str.split(",") if p] if param_str else []

    if name == "affine":
        coef = params or [0.3 * (i + 1) for i in range(n)]
        coef = (coef + [0.0] * n)[:n]
        const = params[n] if len(params) > n else 0.1
        fn = lambda p: p @ np.array(coef) + const
        return fn, ef.EdgeQuadratic(const, np.array(coef), np.zeros((n, n)))
    if name == "x2-y2":
        if n < 2:
            raise ValueError("x2-y2 needs dimension >= 2")
        fn = lambda p: p[:, 0] ** 2 - p[:, 1] ** 2
        curv = np.zeros((n, n))
        curv[0, 0], curv[1, 1] = 2.0, -2.0
        return fn, ef.EdgeQuadratic(0.0, np.zeros(n), curv)
    if name == "abs2":
        fn = lambda p: (p ** 2).sum(axis=1)
        return fn, ef.EdgeQuadratic(0.0, np.zeros(n), 2.0 * np.eye(n))
    if name == "maxaff":
        a = params[:n] if len(params) >= n else [1.0] * n
        b = params[n:2 * n] if len(params) >= 2 * n else [-1.0] * n
        a, b = np.array(a), np.array(b)
        fn = lambda p: np.maximum(p @ a, p @ b)
        return fn, None
    if name == "trig":
        freq = params[0] if params else 2.0
        fn = lambda p: np.cos(freq * p[:, 0]) + np.sin(freq * p[:, -1])
        return fn, None
    raise ValueError(f"unknown boundary function {name!r}; "
                     "choose affine, x2-y2, abs2, maxaff or trig")


def make_domain(args) -> dh.GridDomain:
    n = args.n
    if args.domain == "box":
        lo = [args.lo] * n
        hi = [args.hi] * n
        return dh.GridDomain.box(lo, hi, args.h)
    if args.domain == "disk" or args.domain == "ball":
        return dh.GridDomain.ball(args.radius, args.h, dim=n)
    raise ValueError(f"unknown domain {args.domain!r}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_catalog(args) -> int:
    specs = cat.load_default_specs()
    if args.dry_run:
        print(f"catalog: {len(specs)} cones")
        return 0
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(cat.dump_catalog(specs))
    for s in specs:
        edge_desc = ",".join(s.components) or "(zero)"
        print(f"{s.name:<10} group={s.group_kind:<8} n={s.default_n:<3} "
              f"edge={edge_desc:<24} {s.description}")
    return 0


def cmd_decompose(args) -> int:
    a = read_matrix_file(args.matrix)
    group = st.Group(args.group.replace("-", "_"), a.shape[0])
    if args.dry_run:
        print(f"decompose: group {group.kind} on R^{group.dim}")
        return 0
    records = []
    total = np.zeros_like(a)
    for name in st.component_names(group):
        part = st.group_project(group, name, a)
        total += part
        records.append({"component": name, "norm": frob_norm(part),
                        "matrix": part.tolist()})
        print(f"{name:<10} |part| = {frob_norm(part):.6e}")
    resid = frob_norm(a - total)
    print(f"reconstruction residual: {resid:.3e}")
    if args.out:
        _emit_records(args.out, records, _provenance(args, {"group": group.kind}))
    return 0 if resid <= 1e-9 * (1 + frob_norm(a)) else 1


def cmd_check_cone(args) -> int:
    cone = cat.build_cone(args.name, args.n)
    if args.dry_run:
        print(f"check-cone: {args.name} at n={cone.n}")
        return 0
    records = []
    ok = True

    edge = cone.edge_of()
    span = cone.span_of()
    records.append({"check": "edge_span_dims", "edge_dim": edge.dim,
                    "span_dim": span.dim,
                    "total": edge.dim + span.dim,
                    "expected": cone.n * (cone.n + 1) // 2})

    rep = cn.is_basic_edge(edge, seed=args.seed)
    records.append({"check": "basic_edge", "passed": rep.basic,
                    "indeterminate": rep.indeterminate})
    ok &= rep.basic and not rep.indeterminate

    sup = cn.support_of(cone, seed=args.seed)
    records.append({"check": "support", "support_dim": int(sup.support.shape[0]),
                    "complete": sup.support.shape[0] == cone.n,
                    "indeterminate": len(sup.indeterminate)})
    ok &= sup.support.shape[0] == cone.n  # minimal cones are complete

    # positivity spot check
    rng = np.random.default_rng(args.seed)
    stack = []
    for _ in range(args.budget // 4):
        a = cn.sample_member(cone, rng)
        g = rng.normal(size=(cone.n, cone.n))
        stack.append(a + g @ g.T / cone.n)
    fails = int(np.sum(cn.stack_verdicts(cone, stack, 1.0)[0] < 0))
    records.append({"check": "positivity", "failures": fails})
    ok &= fails == 0

    mini = cn.check_minimality(cone, budget=args.budget, seed=args.seed)
    records.append({"check": "minimality", **mini})
    ok &= mini["passed"]

    sd = cn.self_duality_check(cone, budget=args.budget, seed=args.seed)
    records.append({"check": "self_duality", **sd})

    dual = cn.check_dual_inclusion(cone, budget=args.budget, seed=args.seed)
    records.append({"check": "dual_inclusion", **dual})
    ok &= dual["passed"]

    for rec in records:
        status = rec.get("passed", "-")
        print(f"{rec['check']:<20} {status}")
    if args.out:
        _emit_records(args.out, records, _provenance(args, {"cone": args.name}))
    if not ok:
        failing = [r for r in records if r.get("passed") is False]
        print("FAILED:", json.dumps(failing, sort_keys=True, default=_json_default))
    return 0 if ok else 1


def cmd_classify(args) -> int:
    kind = args.group.replace("-", "_")
    ambient = args.n * st.coordinate_width(st.GROUP_KINDS[kind][0])
    if args.dry_run:
        print(f"classify: group {kind} ambient R^{ambient}")
        return 0
    try:
        report = cl.reproduce_catalog(st.Group(kind, ambient),
                                      samples=args.samples, seed=args.seed)
    except cl.ClassificationError as exc:
        print(f"FAILED: {exc}")
        return 1
    width = max(len("+".join(r["components"]) or "(zero)")
                for r in report["entries"])
    for rec in report["entries"]:
        comps = "+".join(rec["components"]) or "(zero)"
        extra = ""
        if "enhanced_breaks" in rec:
            extra = f"  breaks enhanced invariance {rec['enhanced_breaks']}/{args.samples}"
        print(f"{comps:<{width}}  dim {rec['edge_dim']:>3}  -> "
              f"{rec['identified_with']:<12} under {rec['larger_group']}{extra}")
    if args.out:
        _emit_records(args.out, report["entries"],
                      _provenance(args, {"group": kind, "ambient": ambient}))
    return 0


def cmd_solve(args) -> int:
    cone = cat.build_cone(args.cone, args.n)
    dom = make_domain(args)
    phi, extension = make_boundary_function(args.phi, args.n)
    if args.dry_run:
        print(f"solve: cone {args.cone}, {args.domain} grid h={args.h}, "
              f"{int(dom.interior.sum())} interior nodes")
        return 0
    field_sol, info = dh.perron_solve(
        cone, dom, phi, tol=args.tol, max_sweeps=args.max_sweeps,
        ordering=args.ordering)
    for sweep, upd in info.history[:: max(1, len(info.history) // 12)]:
        print(f"sweep {sweep:>6}  max update {upd:.3e}")
    print(f"converged: {info.converged} after {info.sweeps} sweeps"
          f" (omega {info.omega:.4f}, max residual {info.max_residual:.3e})")
    if extension is not None:
        curv = extension.curvature
        if abs(cone.margin(curv)) <= 100 * cn.default_tol(curv):
            exact = extension(dom.coords().reshape(-1, dom.n))
            err = np.abs(field_sol.values.ravel() - exact)[dom.interior.ravel()]
            print(f"sup error vs exact extension: {err.max():.6e}")
    prov = _provenance(args, {"cone": args.cone, "domain": args.domain,
                              "phi": args.phi, "ordering": args.ordering})
    out = args.out or "grid.csv"
    dh.write_grid_csv(out, field_sol, prov)
    print(f"grid written to {out}")
    if args.ppm:
        dh.write_grid_ppm(args.ppm, field_sol)
    return 0 if info.converged else 1


def cmd_envelope(args) -> int:
    cone = cat.build_cone(args.cone, args.n)
    dom = make_domain(args)
    phi, _ = make_boundary_function(args.phi, args.n)
    if args.dry_run:
        print(f"envelope: cone {args.cone} on {args.domain}, h={args.h}")
        return 0
    classical = args.cone in ("P", "laplace")
    try:
        report = dh.envelope_report(
            cone, dom, phi, sample_nodes=args.nodes, seed=args.seed,
            solver_kwargs={"ordering": args.ordering, "tol": args.tol,
                           "max_sweeps": args.max_sweeps},
            classical_gap_bound=classical)
    except dh.EnvelopeOrderingError as exc:
        print(f"FAILED: {exc}")
        return 1
    print(f"max gap (solution - envelope): {report['max_gap']:.6e}")
    print(f"ordering ok: {report['ordering_ok']}")
    if classical:
        print(f"gap bound 10h = {report['gap_bound']:.4e}: "
              f"{'ok' if report['gap_ok'] else 'EXCEEDED'}")
    if args.out:
        _emit_records(args.out, report.pop("records"), _provenance(args, report))
    if classical and not report.get("gap_ok", True):
        return 1
    return 0


def cmd_witness(args) -> int:
    cone = cat.build_cone(args.cone, args.n)
    field_sol, prov = read_grid_csv(args.grid)
    if args.dry_run:
        print(f"witness: cone {args.cone} over grid {args.grid}")
        return 0
    dom = field_sol.domain
    if args.node:
        nodes = [tuple(int(v) for v in args.node.split(","))]
    else:
        nodes = [tuple(idx) for idx in np.argwhere(dom.interior)]
    records = []
    for idx in nodes:
        w = ef.violation_witness(field_sol, cone, idx)
        if w is not None:
            records.append(ef.witness_record(w))
    print(f"witnesses found at {len(records)} of {len(nodes)} nodes")
    if args.out:
        _emit_records(args.out, records, _provenance(args, {"cone": args.cone}))
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedge",
        description="cone membership oracles, classification and grid solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def kind_choices(kinds):  # group kinds as flag values, spn_s1 as spn-s1
        return [k.replace("_", "-") for k in kinds]

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="machine-readable output path")
        p.add_argument("--config", default=None,
                       help="key=value file overriding the flags")
        p.add_argument("--dry-run", action="store_true", dest="dry_run",
                       help="validate the configuration without computing")

    p = sub.add_parser("catalog", help="list named cones")
    p.add_argument("--write", default=None, help="write the catalog file")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("decompose", help="split a matrix into invariant components")
    p.add_argument("--group", required=True, choices=kind_choices(st.GROUP_KINDS))
    p.add_argument("--matrix", required=True, help="matrix file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-cone", help="structural checks for a named cone")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, default=None, help="ambient real dimension")
    p.add_argument("--budget", type=positive_int, default=200)
    common(p)
    p.set_defaults(func=cmd_check_cone)

    p = sub.add_parser("classify", help="enumerate invariant basic edges")
    p.add_argument("--group", required=True, choices=kind_choices(cl.EXPECTED_COUNTS))
    p.add_argument("--n", type=int, default=2,
                   help="coordinate count (real/complex/quaternionic)")
    p.add_argument("--samples", type=positive_int, default=100)
    common(p)
    p.set_defaults(func=cmd_classify)

    def solver_flags(p):
        p.add_argument("--cone", required=True)
        p.add_argument("--n", type=int, default=2, help="ambient real dimension")
        p.add_argument("--domain", default="box", choices=["box", "disk", "ball"])
        p.add_argument("--h", type=float, default=1 / 16)
        p.add_argument("--lo", type=float, default=-1.0)
        p.add_argument("--hi", type=float, default=1.0)
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--phi", default="affine")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-sweeps", type=positive_int, default=20000, dest="max_sweeps")
        p.add_argument("--ordering", default="redblack", choices=["lex", "redblack"])

    p = sub.add_parser("solve", help="sweep the grid Dirichlet problem")
    solver_flags(p)
    p.add_argument("--ppm", default=None, help="write a 2-d heatmap")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("envelope", help="edge-quadratic envelope vs solution")
    solver_flags(p)
    p.add_argument("--nodes", type=positive_int, default=50)
    common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("witness", help="dual-subharmonicity witnesses on a grid")
    p.add_argument("--cone", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", required=True, help="grid CSV from `solve`")
    p.add_argument("--node", default=None, help="comma-separated node index")
    common(p)
    p.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _apply_config(argv, parser.parse_args(argv), parser)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
