"""Every script in scripts/ runs end to end at a small size, in a fresh
interpreter with the package on PYTHONPATH, and prints a report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ("run_classification.py", ["--quaternionic-n", "1", "--low-n", "2", "--samples", "10"]),
    ("run_cone_checks.py", ["--budget", "8"]),
    ("run_dirichlet_experiments.py", ["--max-level", "1"]),
    ("run_envelope_gaps.py", ["--nodes", "2"]),
    ("run_inclusion_experiments.py", ["--budget", "6"]),
]


def test_every_script_has_a_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(s for s, _ in RUNS)


@pytest.mark.parametrize("script, args", RUNS, ids=[s for s, _ in RUNS])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
