"""Smoke test of the benchmark itself, at a tiny sample budget.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

gp = run.import_geomprob()
import tracing  # noqa: E402  (needs geomprob on the path)
import workloads  # noqa: E402

TINY = 0.01
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    plain = run.run_workload(name, seed=3, seconds=0, trace=False, scale=TINY, setup_repeats=1)
    assert plain["correct"] and plain["attempted"] >= run.MIN_PASSES
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run.run_workload(name, seed=3, seconds=0, trace=True, scale=TINY)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")
    assert traced["metrics"]["trace.digest_match"]["value"] == 1.0


def test_sampler_path_labels():
    half3 = gp.half_ball(3)
    cases = [
        (gp.Ball(np.zeros(3), 1.0), "ball"),
        (gp.HalfBallCone(3, 0.1), "cone"),
        (half3, "reflect"),
        (gp.cut_family(half3, [1.0, 0.0, 0.0]).cut(0.4), "slab"),
        (gp.cut_family(gp.isotropic_half_ball(3), [1.0, 0.0, 0.0]).cut(0.4), "base_reject"),
        (gp.unit_cube(3), "box_reject"),
        (gp.isotropic_simplex(3), "box_reject"),
        (gp.Polygon2D([[0, 0], [1, 0], [0, 1]]), "box_reject"),
        (gp.isotropic_half_ball(3), "reflect"),
    ]
    for body, path in cases:
        assert tracing.sampler_path(body) == path, (body, path)
        # the direct paths are exactly those the library samples without rejection
        direct = gp.sampling._direct_sampler(body) is not None
        assert direct == (path not in tracing.REJECT_PATHS)


def test_forced_failures_are_counted():
    def bad_gate(inputs):
        return workloads.Outcome((1.0,), False, 9.9, "forced")

    def raises(inputs):
        raise gp.DegenerateBodyError("forced")

    extra = [workloads.Check("forced/gate", 1, bad_gate), workloads.Check("forced/raise", 1, raises)]
    result = run.run_workload("planar-corpus", seed=3, seconds=0, trace=False,
                              scale=TINY, setup_repeats=1, extra_checks=extra)
    checks = len(workloads.planar_corpus(3).checks) + len(extra)
    passes = result["attempted"] // checks
    assert result["attempted"] == passes * checks
    assert result["failed"] >= 2 * passes
    assert result["metrics"]["checks_passed"]["value"] <= 1.0 - 2.0 / checks
    assert not result["correct"]  # an exception is an error, not only a failed gate


def test_tracer_restores_every_binding():
    before = (gp.sample_body, gp.estimators.sample_body, gp.SampleStream.uniform,
              gp.Polygon2D.contains_batch, gp.exact.kappa, gp.cli.detcov_counterexample)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gp.estimators.sample_body is not before[1]
        gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 64 * 64, seed=0)
    finally:
        tracer.uninstall()
    after = (gp.sample_body, gp.estimators.sample_body, gp.SampleStream.uniform,
             gp.Polygon2D.contains_batch, gp.exact.kappa, gp.cli.detcov_counterexample)
    assert all(a is b for a, b in zip(before, after))
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"estimators.moment_estimate", "sampling.sample_body", "sampling.uniform"} <= names


def test_tail_is_highest_percentile_with_ten_beyond():
    # 12 checks a pass, 3 passes: 36 latencies, of which the 26th leaves 10 above
    p = run.tail_percentile(12)
    assert p == 72
    assert run.percentile([float(i) for i in range(1, 37)], p) == 26.0
    assert run.percentile([float(i) for i in range(1, 73)], p) == 52.0


def test_layer_predictions_name_known_metrics():
    layers = json.loads((run.HERE / "layers.json").read_text())
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
    for info in layers["workloads"].values():
        assert set(info["time_shares"]) <= set(_units("per_layer"))
    for row in layers["predictions"]:
        assert set(row["layer_metrics"]) <= set(_units("per_layer"))
        assert set(row["moves"]) <= set(_units("end_to_end"))
        assert set(row["on"]) | set(row.get("not_on", [])) <= set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moment-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
