"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench -q

The command-line runs use ``--reduced`` (same code paths, small grids and
batches); the corruption tests feed deliberately wrong outputs to each
workload's checks to show that none of them is vacuous.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run         # noqa: E402
import speed       # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, seed, trace, out_dir, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--reduced",
           "--out-dir", str(out_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_checks_on_two_seeds(workload, tmp_path):
    expected = {"end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for seed, trace in ((1, 0), (2, 1)):
        proc = run_bench(workload, seed, trace, tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        detail = json.loads(lines[-2])
        assert result["correct"] and result["failed"] == 0, detail["failed_checks"]
        assert result["attempted"] >= 1
        want = expected["per_layer" if trace else "end_to_end"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if not trace:
            assert detail["end_to_end"]["failed_check_ratio"]["value"] == 0.0
            pins = detail["provenance"]["blas_threads_pinned"]
            assert pins["OPENBLAS_NUM_THREADS"] == "1"
    # the second run compared its counts with the first one's
    assert (tmp_path / "counts.json").exists()
    assert (tmp_path / f"trace-{workload}-seed2.json").exists()


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("disk_laplace", 1, 0, tmp_path / "out", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_count_drift_fails_the_run(tmp_path):
    counts = tmp_path / "counts.json"
    key = f"box_pei/reduced/{run.src_sha256()}"
    counts.write_text(json.dumps({key: {"dirichlet.sweeps": 999999,
                                        "dirichlet.interior_nodes": 1}}))
    proc = run_bench("box_pei", 3, 0, tmp_path)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_changed_sources_start_fresh_counts(tmp_path):
    """Counts stored for other sources (say, the parent commit) are not
    compared: a run of changed code may do less work and still be correct."""
    counts = tmp_path / "counts.json"
    other = f"box_pei/reduced/{'0' * 64}"
    counts.write_text(json.dumps({other: {"dirichlet.sweeps": 999999,
                                          "dirichlet.interior_nodes": 1}}))
    proc = run_bench("box_pei", 3, 0, tmp_path)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    stored = json.loads(counts.read_text())
    assert set(stored) == {other, f"box_pei/reduced/{run.src_sha256()}"}


def _fresh(cls):
    wl = cls(reduced=True)
    state = wl.setup(tracer.Tracer())
    inp = wl.inputs(state, 5)
    return wl, state, inp


def _failures(wl, state, inp, out):
    checks = workloads.Checks()
    wl.verify(state, inp, out, checks)
    return {f["check"] for f in checks.failures}


def test_disk_laplace_catches_perturbed_solution(tmp_path):
    wl, state, inp = _fresh(workloads.DiskLaplace)
    tr = tracer.Tracer()
    out = wl.run(state, inp, tr, tmp_path)
    assert _failures(wl, state, inp, out) == set()

    u = out["u"].copy()
    node = inp["nodes"][0]
    u.values[node] += 5.0
    bad = {**out, "u": u, **wl.post(state, inp, u, tr, tmp_path)}
    assert {"max_error <= 5e-2", "shifted sub_test holds"} <= _failures(wl, state, inp, bad)

    back = out["read_back"].copy()
    back.values[node] += 1e-12
    assert _failures(wl, state, inp, {**out, "read_back": back}) == {
        "CSV round trip reproduces the values"}

    u = out["u"].copy()
    u.values[node] -= 3.0      # the envelope now exceeds it by more than 10h
    assert "envelope <= solution + 10h" in _failures(wl, state, inp, {**out, "u": u})


def test_box_pei_catches_perturbed_solution(tmp_path):
    wl, state, inp = _fresh(workloads.BoxPEI)
    tr = tracer.Tracer()
    out = wl.run(state, inp, tr, tmp_path)
    assert _failures(wl, state, inp, out) == set()

    u = out["u"].copy()
    u.values[inp["nodes"][0]] += 1e-3
    bad = {**out, "u": u, **wl.probe(state, inp, u, tr)}
    assert _failures(wl, state, inp, bad) == {"|margin(D2u)| <= residual bound"}


def test_catalog_checks_catch_wrong_outputs(tmp_path):
    wl, state, inp = _fresh(workloads.CatalogChecks)
    out = wl.run(state, inp, tracer.Tracer(), tmp_path)
    assert _failures(wl, state, inp, out) == set()

    un = dict(out["classify"]["un"], entries=out["classify"]["un"]["entries"][:-1])
    bad = {**out, "classify": {**out["classify"], "un": un}}
    assert _failures(wl, state, inp, bad) == {"un: 4 classification entries"}

    rec = dict(out["oracle"]["P_C"])
    rec["batch"] = rec["batch"].copy()
    rec["batch"][0] += 1e-6
    bad = {**out, "oracle": {**out["oracle"], "P_C": rec}}
    assert _failures(wl, state, inp, bad) == {
        "P_C: batch margin equals single margin", "P_C: Id-shift slope is exact"}

    bad = {**out, "geo_edge_equal": False}
    assert _failures(wl, state, inp, bad) == {"geometric edge equals GL_IJK(8) edge"}


def test_reference_seconds_remove_probe_time_and_host_speed():
    probe = speed.SpeedProbe()
    # a host at half the reference speed: the probe kernel takes twice as long
    probe.samples = [(10.0, 2 * speed.REFERENCE_S), (10.5, 2 * speed.REFERENCE_S)]
    expect = (2.0 - 4 * speed.REFERENCE_S) / 2
    assert probe.reference_seconds(9.5, 11.5) == pytest.approx(expect)
    # a call the first sample interrupted: its own time leaves the sample out
    assert probe.own_seconds(9.9, 10.1) == pytest.approx(0.2 - 2 * speed.REFERENCE_S)
    assert probe.own_seconds(10.1, 10.4) == pytest.approx(0.3)


def _traced_rep():
    """One traced repetition as run_reps records it: the wall time is
    taken outside the spans."""
    tr = tracer.Tracer(phases=True)
    lo = tr.mark()
    t0 = time.perf_counter()
    with tr.phase("bench.rep"):
        with tr.span("dirichlet.perron_solve"):
            time.sleep(0.003)
        with tr.phase("bench.csv"):
            with tr.span("cli.read_grid_csv"):
                time.sleep(0.002)
            time.sleep(0.001)
    rep = {"wall": time.perf_counter() - t0, "range": (lo, tr.mark())}
    return tr, rep


def test_self_times_add_up_to_the_repetition_wall():
    tr, rep = _traced_rep()
    checks = workloads.Checks()
    selfs = run.layer_self_times(tr, [rep], checks)
    assert checks.attempted == 1 and checks.failed == 0
    assert selfs["dirichlet"] >= 0.003 and selfs["cli"] >= 0.002
    assert selfs["bench"] >= 0.001 and selfs["cones"] == 0.0


def test_self_time_check_catches_a_broken_span_tree():
    tr, rep = _traced_rep()
    tr.spans[3][3] = -1         # cli.read_grid_csv loses its parent bench.csv
    checks = workloads.Checks()
    run.layer_self_times(tr, [rep], checks)
    assert [f["check"] for f in checks.failures] == [
        "layer self times add up to the repetition wall time"]
