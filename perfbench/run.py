"""conedge benchmark: one workload, one closed loop, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload disk_laplace --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``disk_laplace``, ``box_pei``,
``catalog_checks``.  The run imports conedge from ``src/`` next to this
directory, pins BLAS to one thread, sets the workload up several times
(each time also timing the imports in a fresh interpreter, since a
process imports only once), then repeats the workload body until
``--seconds`` would be exceeded (at least twice), checking every output.

Standard output gets two JSON lines.  The first is the detailed report:
every end-to-end metric of the workload with its unit (timings as median,
highest percentile with ten samples beyond it, and sample count), the
counts that must repeat, the failed checks and the provenance.  The last
is the result:

    {"correct": ..., "attempted": <checks>, "failed": <failed checks>,
     "metrics": {<name>: {"value": ..., "unit": ...}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``setup_s`` and ``wall_s`` in reference-speed seconds (see speed.py:
the host's clock drift is measured during the run and divided out; the raw
wall-clock values are in the detailed report).  Every call into conedge
is a span of one recorder (tracer.py) in either mode; the end-to-end
latencies are read from those spans.  With ``--trace 1`` the repetitions
alternate untraced and traced, a traced one also records the benchmark's
phases (so its spans form a tree), the metrics are the per-layer ones taken
from the spans of the traced repetitions (raw wall-clock), and the spans
are written to ``.perfbench-out/``.

Counts that must repeat exactly are stored in ``.perfbench-out/counts.json``
under the workload, the input scale and the sha256 of ``src/conedge``: the
first run of a given source stores them, and every later run of the same
source compares against them and fails its checks on any difference.
Changed sources start a fresh entry.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# a fresh interpreter's import of numpy, scipy and conedge, timed on the
# clock the parent reads (perf_counter is system-wide monotonic on Linux)
CHILD_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import workloads; print(t0, time.perf_counter())")
MIN_REPS = 2                   # one gives no median; traced runs need one of each kind
SELF_TIME_TOL_S = 1e-4         # span bookkeeping outside the root phase span
LAYERS = ("symspace", "structures", "cones", "edgefuncs", "dirichlet",
          "classify", "cli", "bench")

# per-layer metric -> unit; the order is the output order
PER_LAYER_UNITS = {
    "dirichlet.sweeps": "count",
    "dirichlet.ms_per_sweep": "ms",
    "dirichlet.node_updates_per_s": "1/s",
    "dirichlet.perron_solve.s": "s",
    "dirichlet.edge_envelope.calls": "count",
    "dirichlet.edge_envelope.ms_per_call": "ms",
    "dirichlet.envelope_constraints": "count",
    "dirichlet.write_grid_csv.s": "s",
    "dirichlet.csv_bytes": "bytes",
    "cli.read_grid_csv.s": "s",
    "edgefuncs.sub_test.calls": "count",
    "edgefuncs.sub_test.us_per_call": "us",
    "cones.optimizer_margin.cold_ms_per_call": "ms",
    "cones.optimizer_margin.warm_ms_per_call": "ms",
    "dirichlet.discrete_hessian.us_per_call": "us",
    "cones.margin_batch.matrices": "count",
    "cones.margin_batch.s": "s",
    "cones.contains.calls": "count",
    "cones.contains.us_per_call": "us",
    "cones.dual_contains.us_per_call": "us",
    "cones.contains.decided_ratio": "ratio",
    "cones.is_basic_edge.calls": "count",
    "cones.is_basic_edge.s": "s",
    "cones.geometric_edge_of.s": "s",
    "cones.geometric_margin.ms_per_call": "ms",
    "structures.sample_plane.us_per_call": "us",
    "classify.reproduce_catalog.s": "s",
    "classify.entries": "count",
    "catalog.build_cone.calls": "count",
    "catalog.build_cone.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def summarize(samples: list[float], unit: str) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it (none below eleven samples), with the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs) if xs else None, "unit": unit, "n": n,
           "tail": None, "tail_pct": None}
    if n >= 11:
        out["tail"] = xs[n - 11]
        out["tail_pct"] = round(100.0 * (n - 10) / n, 4)
    return out


def blas_threads():
    """Thread count OpenBLAS reports, read from numpy's bundled library."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def src_sha256(root: Path = ROOT) -> str:
    """Identity of the measured code: sha256 over src/conedge's sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "conedge").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy as np
    import scipy

    revision = None            # a checkout without .git is identified by src_sha256
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_revision": revision,
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": {k: os.environ.get(k) for k in BLAS_PINS},
        "blas_threads_reported": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def compare_counts(counts: dict, key: str, state_file: Path, checks) -> None:
    """Counts must repeat exactly across every run stored under `key`."""
    stored = {}
    if state_file.exists():
        stored = json.loads(state_file.read_text(encoding="utf-8"))
    if key not in stored:
        stored[key] = counts
        tmp = state_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, state_file)
        return
    for name, value in counts.items():
        first = stored[key].get(name)
        checks.expect(f"count {name} repeats across runs", first == value,
                      {"first_run": first, "this_run": value})


def run_reps(wl, state, inputs, tr, seconds: float, trace: bool, work_dir: Path,
             checks) -> list[dict]:
    """Repeat the workload body until the next repetition would end after
    `seconds`, with at least MIN_REPS repetitions.  Traced runs alternate
    untraced and traced repetitions; a traced one also records the phases.
    Each repetition keeps the index range of its spans."""
    reps: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        tr.phases = traced = trace and len(reps) % 2 == 1
        lo = tr.mark()
        t0 = time.perf_counter()
        try:
            with tr.phase("bench.rep"):
                out = wl.run(state, inputs, tr, work_dir)
        except Exception as exc:  # a failing call is a failed check, not a crash
            checks.expect("repetition completed", False, repr(exc))
            t1 = time.perf_counter()
            reps.append({"wall": t1 - t0, "span": (t0, t1), "traced": traced,
                         "range": (lo, tr.mark()), "derived": {}, "counts": {}})
            return reps
        t1 = time.perf_counter()
        rng = (lo, tr.mark())
        derived = wl.verify(state, inputs, out, checks)
        counts = wl.counts(out)
        if reps and reps[0]["counts"] != counts:
            checks.expect("counts repeat across repetitions", False,
                          {"first": reps[0]["counts"], "this": counts})
        reps.append({"wall": t1 - t0, "span": (t0, t1), "traced": traced,
                     "range": rng, "derived": derived, "counts": counts})
        longest = max(longest, t1 - t0)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + longest > seconds:
            return reps


def end_to_end(tr, reps, setups, import_span, probe, wl, checks) -> tuple[dict, dict]:
    """(gated metrics of BENCHMARK.json, full end-to-end report).  Every
    time is the program's own: the probe samples that ran inside it are
    taken out.  setup_s and wall_s are in reference-speed seconds
    (speed.py); the wall-clock values are reported beside them.  Set-up
    i is child import i plus in-process set-up i; the child's import ran
    beside the probe, not under it, so none is taken out of it."""
    own = probe.own_seconds
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_ref = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in
                 (s["child_import"] for s in setups)]
    report = {
        "setup_s": summarize([imp + probe.reference_seconds(*s["span"])
                              for imp, s in zip(child_ref, setups)], "s"),
        "wall_s": summarize([probe.reference_seconds(*r["span"]) for r in reps], "s"),
        "setup_raw_s": summarize([t1 - t0 + own(*s["span"]) for s in setups
                                  for t0, t1 in [s["child_import"]]], "s"),
        "wall_raw_s": summarize([own(*r["span"]) for r in reps], "s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "failed_check_ratio": {"value": checks.failed / max(checks.attempted, 1),
                               "unit": "ratio"},
        "probe_samples": len(probe.samples),
    }
    report["import_s"] = summarize(child_ref, "s")
    report["import_in_process_s"] = {"value": probe.reference_seconds(*import_span),
                                     "unit": "s"}
    calls = tr.by_name(r["range"] for r in reps)

    def durations(*names):
        return [own(t0, t1) for name in names for t0, t1 in calls.get(name, [])]

    solves = durations("dirichlet.perron_solve")
    if solves:
        report["solve_s"] = summarize(solves, "s")
    accuracy = [r["derived"]["accuracy"] for r in reps if "accuracy" in r["derived"]]
    if accuracy:
        name, bound = wl.ACCURACY
        report[name] = {"value": max(accuracy), "unit": "1", "bound": bound}
    single_t = durations("cones.contains", "cones.dual_contains")
    if single_t:
        report["single_decisions_per_s"] = {"value": len(single_t) / sum(single_t),
                                            "unit": "1/s"}
        report["single_decision_us"] = summarize([1e6 * t for t in single_t], "us")
    batch_t = sum(durations("cones.margin_batch"))
    if batch_t:
        matrices = sum(r["counts"].get("cones.margin_batch.matrices", 0) for r in reps)
        report["batch_margins_per_s"] = {"value": matrices / batch_t, "unit": "1/s"}
    gated = {
        "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
        "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return gated, report


def layer_self_times(tr, traced, checks) -> dict[str, float]:
    """Summed per-layer self times of the traced repetitions.  Checks that
    each repetition's self times add up to its wall time as run_reps
    measured it, outside the spans: a span tree with a lost or misplaced
    child would not."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for r in traced:
        selfs = tr.self_times(*r["range"])
        residual = abs(sum(selfs.values()) - r["wall"])
        checks.expect("layer self times add up to the repetition wall time",
                      residual <= SELF_TIME_TOL_S,
                      {"residual_s": residual, "wall_s": r["wall"]})
        for layer, t in selfs.items():
            if layer not in totals:
                checks.expect("span names start with a known layer", False, layer)
                continue
            totals[layer] += t
    return totals


def per_layer(tr, reps, setups, checks) -> dict:
    """Per-layer metrics from the spans of the traced repetitions (and of
    the set-ups for catalog.build_cone)."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    n = max(len(traced), 1)
    spans = {name: [t1 - t0 for t0, t1 in xs]
             for name, xs in tr.by_name(r["range"] for r in traced).items()}

    def per_rep(name):
        return sum(spans.get(name, [])) / n

    def per_call(name, scale):
        xs = spans.get(name, [])
        return scale * sum(xs) / len(xs) if xs else 0.0

    counts = traced[-1]["counts"] if traced else {}
    derived = traced[-1]["derived"] if traced else {}
    solve_s = per_rep("dirichlet.perron_solve")
    sweeps = counts.get("dirichlet.sweeps", 0)
    values = {
        "dirichlet.sweeps": sweeps,
        "dirichlet.ms_per_sweep": 1e3 * solve_s / sweeps if sweeps else 0.0,
        "dirichlet.node_updates_per_s": (
            sweeps * counts.get("dirichlet.interior_nodes", 0) / solve_s
            if solve_s else 0.0),
        "dirichlet.perron_solve.s": solve_s,
        "dirichlet.edge_envelope.calls": counts.get("dirichlet.edge_envelope.calls", 0),
        "dirichlet.edge_envelope.ms_per_call": per_call("dirichlet.edge_envelope", 1e3),
        "dirichlet.envelope_constraints":
            max(counts.get("dirichlet.envelope_constraints", []), default=0),
        "dirichlet.write_grid_csv.s": per_rep("dirichlet.write_grid_csv"),
        "dirichlet.csv_bytes": counts.get("dirichlet.csv_bytes", 0),
        "cli.read_grid_csv.s": per_rep("cli.read_grid_csv"),
        "edgefuncs.sub_test.calls": counts.get("edgefuncs.sub_test.calls", 0),
        "edgefuncs.sub_test.us_per_call": per_call("edgefuncs.sub_test", 1e6),
        "cones.optimizer_margin.cold_ms_per_call":
            per_call("cones.optimizer_margin.cold", 1e3),
        "cones.optimizer_margin.warm_ms_per_call":
            per_call("cones.optimizer_margin.warm", 1e3),
        "dirichlet.discrete_hessian.us_per_call":
            per_call("dirichlet.discrete_hessian", 1e6),
        "cones.margin_batch.matrices": counts.get("cones.margin_batch.matrices", 0),
        "cones.margin_batch.s": per_rep("cones.margin_batch"),
        "cones.contains.calls": counts.get("cones.contains.calls", 0),
        "cones.contains.us_per_call": per_call("cones.contains", 1e6),
        "cones.dual_contains.us_per_call": per_call("cones.dual_contains", 1e6),
        "cones.contains.decided_ratio": derived.get("decided_ratio", 0.0),
        "cones.is_basic_edge.calls": counts.get("cones.is_basic_edge.calls", 0),
        "cones.is_basic_edge.s": per_rep("cones.is_basic_edge"),
        "cones.geometric_edge_of.s": per_rep("cones.geometric_edge_of"),
        "cones.geometric_margin.ms_per_call": per_call("cones.geometric_margin", 1e3),
        "structures.sample_plane.us_per_call": per_call("structures.sample_plane", 1e6),
        "classify.reproduce_catalog.s": per_rep("classify.reproduce_catalog"),
        "classify.entries": counts.get("classify.entries", 0),
    }
    builds = tr.by_name(su["range"] for su in setups).get("catalog.build_cone", [])
    values["catalog.build_cone.calls"] = len(builds) // len(setups)
    values["catalog.build_cone.s"] = sum(t1 - t0 for t0, t1 in builds) / len(setups)

    self_totals = layer_self_times(tr, traced, checks)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_totals[layer] / n
    traced_wall = statistics.median(r["wall"] for r in traced) if traced else 0.0
    untraced_wall = statistics.median(r["wall"] for r in untraced) if untraced else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = sum(hi - lo for lo, hi in (r["range"] for r in traced)) // n
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def load_and_run(args):
    """Import conedge, set the workload up SETUP_REPEATS times and run its
    repetitions.  Returns an exit code on a bad checkout or workload."""
    t0 = time.perf_counter()
    import workloads           # numpy, scipy and every conedge module
    import_span = (t0, time.perf_counter())
    import conedge
    if Path(conedge.__file__).resolve().parent != ROOT / "src" / "conedge":
        print(f"imported conedge from {conedge.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](reduced=args.reduced)
    work_dir = args.out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer(phases=bool(args.trace))
    checks = workloads.Checks()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            lo = tr.mark()
            t0 = time.perf_counter()
            with tr.phase("bench.setup"):
                state = wl.setup(tr)
            span = (t0, time.perf_counter())
            child = subprocess.run(
                [sys.executable, "-c", CHILD_IMPORT, str(HERE), str(ROOT / "src")],
                capture_output=True, text=True, timeout=120, check=True)
            child_import = tuple(float(v) for v in child.stdout.split())
            setups.append({"span": span, "range": (lo, tr.mark()),
                           "child_import": child_import})
        inputs = wl.inputs(state, args.seed)
        reps = run_reps(wl, state, inputs, tr, args.seconds, bool(args.trace),
                        work_dir, checks)
    finally:
        for leftover in work_dir.glob("*"):
            leftover.unlink()
        work_dir.rmdir()
    return wl, tr, checks, reps, setups, import_span


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs on the same code paths (benchmark tests)")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench-out",
                        help="where counts, spans and scratch files go")
    args = parser.parse_args(argv)

    for key in BLAS_PINS:      # before numpy is imported anywhere
        os.environ[key] = "1"
    if not (ROOT / "src" / "conedge" / "__init__.py").is_file():
        print(f"conedge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the probe only serves the end-to-end timings; spans stay free of it
    probe = None if args.trace else speed.SpeedProbe()
    with probe or contextlib.nullcontext():
        loaded = load_and_run(args)
    if isinstance(loaded, int):
        return loaded
    wl, tr, checks, reps, setups, import_span = loaded

    counts = reps[-1]["counts"]
    scale = "reduced" if args.reduced else "full"
    prov = provenance()
    if counts:
        compare_counts(counts, f"{wl.name}/{scale}/{prov['src_sha256']}",
                       args.out_dir / "counts.json", checks)
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale, "closed_loop_clients": 1,
        "repetitions": len(reps), "counts": counts,
        # reported, not checked: later solver work is meant to change them
        "baseline_counts": {} if args.reduced else {
            name: {"expected": expected, "measured": counts.get(name),
                   "match": counts.get(name) == expected}
            for name, expected in wl.BASELINE.items()},
        "provenance": prov,
    }
    if args.trace:
        metrics = per_layer(tr, reps, setups, checks)
        trace_path = args.out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        tr.dump(trace_path)
        detail["trace_file"] = str(trace_path)
    else:
        metrics, detail["end_to_end"] = end_to_end(tr, reps, setups, import_span,
                                                   probe, wl, checks)
    detail["failed_checks"] = checks.failures[:20]
    print(json.dumps(detail, sort_keys=True, default=str))
    for name, m in metrics.items():
        print(f"{wl.name:>15} {name:<42} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
