"""Tests of the scripts under ``tools/``.

The smoke tests run each script as a subprocess, as it is run by hand; the
summary of ``bench_pairs.py`` is checked on canned results, without a run.
"""

import importlib.util
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


def test_gate_sweep_runs_one_seed_of_derivative_check():
    run = _tool("gate_sweep.py", "--workload", "derivative-check", "--seeds", "0")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "total: 0/9 checks failed over 1 seeds"


def test_gate_sweep_rejects_an_empty_seed_range():
    run = _tool("gate_sweep.py", "--workload", "planar-corpus", "--seeds", "3..1")
    assert run.returncode == 2
    assert "is empty" in run.stderr


def test_census_runs_the_workloads_and_the_cli():
    run = _tool("census.py", "--seed", "0")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "# statements that no run executed (workloads, cli)"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(**values):
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def test_bench_pairs_summary_counts_wins_and_ratios():
    summarize = _load_tool("bench_pairs").summarize
    # (parent, head) per pair; the second pair ties on both metrics, the fifth on points_per_ref
    walls = [(10.0, 8.0), (12.0, 12.0), (11.0, 13.0), (9.0, 7.0), (14.0, 10.0)]
    points = [(1.0, 1.5), (2.0, 2.0), (3.0, 2.5), (4.0, 4.5), (5.0, 5.0)]
    pairs = [
        (_result(wall_ref=pw, points_per_ref=pp), _result(wall_ref=hw, points_per_ref=hp))
        for (pw, hw), (pp, hp) in zip(walls, points)
    ]
    declared = [
        {"name": "wall_ref", "better": "lower"},
        {"name": "points_per_ref", "better": "higher"},
        {"name": "setup_s", "better": "lower"},
    ]
    header, *rows = summarize(pairs, declared)
    assert header.split() == ["metric", "parent", "q1/med/q3", "head", "q1/med/q3", "ratio", "p.iqr", "wins"]
    # a declared metric that no result holds gets no line
    assert [row.split() for row in rows] == [
        # parent 9, 10, 11, 12, 14 and head 7, 8, 10, 12, 13: ratio 10/11, parent IQR 2/11
        ["wall_ref", "10/11/12", "8/10/12", "0.909", "0.182", "3/5"],
        # parent 1..5 and head 1.5, 2, 2.5, 4.5, 5: ratio 2.5/3, parent IQR 2/3
        ["points_per_ref", "2/3/4", "2/2.5/4.5", "0.833", "0.667", "2/5"],
    ]
