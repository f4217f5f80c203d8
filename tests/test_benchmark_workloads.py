"""Each benchmark workload once at its reduced size, in process.

The benchmark (perfbench/) drives conedge through workloads.py; a change
to the package's API that breaks a workload fails here with its traceback,
rather than only as a failed benchmark run.  The test reads the
benchmark's workloads and tracer and changes nothing under perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer      # noqa: E402
import workloads   # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_workload_passes_its_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](reduced=True)
    tr = tracer.Tracer(phases=True)
    state = wl.setup(tr)
    inputs = wl.inputs(state, 1)
    out = wl.run(state, inputs, tr, tmp_path)
    checks = workloads.Checks()
    wl.verify(state, inputs, out, checks)
    assert checks.attempted >= 1
    assert checks.failed == 0, checks.failures
    assert wl.counts(out)
    # every span the run opened was closed, and nothing was left in the work dir
    assert tr.spans and all(end is not None for _, _, end, _ in tr.spans)
    assert not any(tmp_path.iterdir())
