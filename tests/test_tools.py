"""Smoke tests of the scripts under ``tools/``: each runs as a subprocess, as it is run by hand."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def test_gate_sweep_runs_one_seed_of_planar_corpus():
    run = _tool("gate_sweep.py", "--workload", "planar-corpus", "--seeds", "0")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "total: 0/41 checks failed over 1 seeds"


def test_gate_sweep_rejects_an_empty_seed_range():
    run = _tool("gate_sweep.py", "--workload", "planar-corpus", "--seeds", "3..1")
    assert run.returncode == 2
    assert "is empty" in run.stderr


def test_census_runs_the_workloads_and_the_cli():
    run = _tool("census.py", "--seed", "0")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "# statements that no run executed (workloads, cli)"
