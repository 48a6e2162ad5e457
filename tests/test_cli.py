"""Command-line drivers: argument handling, output formats, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

import geomprob as gp
from geomprob.cli import main

BALL2 = json.dumps({"type": "ball", "center": [0.0, 0.0], "radius": 1.0})
SQUARE = json.dumps(
    {
        "type": "hpoly",
        "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "offsets": [0, -1, 0, -1],
        "bound": {"lo": [0, 0], "hi": [1, 1]},
    }
)
DIAMOND = json.dumps({"type": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]})


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_exact_table_csv_matches_module(tmp_path):
    path = tmp_path / "table.csv"
    assert main(["exact-table", "--d", "2..4", "--k", "1..2", "--out", str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        d, k = int(row["d"]), int(row["k"])
        assert math.isclose(
            float(row["ball_moment"]), gp.ball_simplex_moment(d, k).to_float(), rel_tol=1e-9
        )
        assert math.isclose(
            float(row["pinned_moment"]), gp.ball_pinned_moment(d, k).to_float(), rel_tol=1e-9
        )
        if d < 4:
            assert row["chain_bound"] == "nan"


def test_estimate_matches_library_bitwise(capsys):
    code, lines = run_lines(capsys, ["estimate", "--body", BALL2, "--n", "50000", "--seed", "5"])
    assert code == 0
    direct = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 50000, 5)
    assert lines[0]["mean"] == float(f"{direct.mean:.12g}")
    assert lines[0]["n"] == direct.n


def test_estimate_pinned_flag(capsys):
    code, lines = run_lines(
        capsys,
        ["estimate", "--body", BALL2, "--pinned", "0,0", "--n", "50000", "--seed", "5"],
    )
    assert code == 0
    direct = gp.pinned_moment_estimate(gp.Ball(np.zeros(2), 1.0), [0, 0], 1, 50000, 5)
    assert lines[0]["mean"] == float(f"{direct.mean:.12g}")


@pytest.mark.parametrize("flag", ["--out", "--json"])
def test_estimate_rejects_dropped_output_flags(tmp_path, flag):
    path = tmp_path / "t.csv"
    argv = ["estimate", "--body", BALL2, "--n", "6400", flag] + ([str(path)] if flag == "--out" else [])
    assert main(argv) == 2
    assert not path.exists()


def test_env_seed_is_used(capsys, monkeypatch):
    monkeypatch.setenv("GEOMPROB_SEED", "5")
    code, lines = run_lines(capsys, ["estimate", "--body", BALL2, "--n", "50000"])
    assert code == 0
    direct = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 50000, 5)
    assert lines[0]["mean"] == float(f"{direct.mean:.12g}")
    assert lines[0]["seed"] == 5


def test_derivative_check_analytic_square(capsys):
    code, lines = run_lines(
        capsys,
        [
            "derivative-check",
            "--body", SQUARE,
            "--v", "1,0",
            "--t", "0.0",
            "--f", "coordsum",
            "--n", "200000",
            "--seed", "4",
        ],
    )
    assert code == 0
    rec = lines[0]
    assert abs(rec["rhs"] - 0.5) <= 4 * rec["rhs_stderr"]
    assert rec["rel_err"] < 0.2


def test_symmetrize_shake_diamond(capsys):
    code, lines = run_lines(
        capsys, ["symmetrize", "--poly", DIAMOND, "--op", "shake", "--line", "-1.0"]
    )
    assert code == 0
    poly = gp.body_from_json(lines[0])
    assert np.allclose(poly.vertices, [[-1, -1], [1, -1], [0, 1]], atol=1e-12)


def test_symmetrize_rejects_non_polygon(capsys):
    code = main(["symmetrize", "--poly", BALL2, "--op", "steiner"])
    assert code == 2
    assert "polygon" in capsys.readouterr().err


def test_counterexample_verdicts(capsys):
    code, lines = run_lines(
        capsys, ["counterexample", "--d", "2", "--eps", "0.1", "--n", "100000", "--seed", "6"]
    )
    assert code == 0
    assert lines[0]["verdict"] == "pass"
    assert lines[0]["metrics"]["delta"] < 0


def test_d3_probe_is_report_only(capsys):
    code, lines = run_lines(capsys, ["d3-probe", "--n", "100000", "--seed", "8"])
    assert code == 0
    assert lines[0]["verdict"] == "inconclusive"
    assert "delta" in lines[0]["metrics"]
    assert "delta_stderr" in lines[0]["metrics"]


def test_k0_scan_values(capsys, tmp_path):
    path = tmp_path / "k0.csv"
    code, lines = run_lines(capsys, ["k0-scan", "--d", "2..4", "--out", str(path)])
    assert code == 0
    assert [(rec["d"], rec["k0"]) for rec in lines] == [(2, 8), (3, 3), (4, 1)]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k0"]) for r in rows] == [8, 3, 1]


def test_detcov_counterexample_square_variant(capsys):
    code, lines = run_lines(
        capsys, ["detcov-counterexample", "--variant", "square", "--n", "200000", "--seed", "1"]
    )
    assert code == 0
    rec = lines[0]
    assert rec["verdict"] == "pass"
    assert rec["metrics"]["edge_rhs_max"] < 0


def test_detcov_counterexample_ball_variant(capsys):
    code, lines = run_lines(capsys, ["detcov-counterexample", "--variant", "ball"])
    assert code == 0
    assert lines[0]["verdict"] == "inconclusive"


def test_monotonicity_2d_small_run(capsys):
    code, lines = run_lines(
        capsys, ["monotonicity-2d", "--pairs", "3", "--n", "50000", "--seed", "9"]
    )
    assert code == 0
    rec = lines[0]
    assert rec["verdict"] == "pass"
    assert rec["metrics"]["det_violations"] == 0


def test_malformed_body_is_usage_error(capsys):
    code = main(["estimate", "--body", "{not json", "--n", "1000"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_fail_verdict_maps_to_exit_one(capsys):
    # doctored failing report exercises the exit-code path
    from geomprob.cli import _report_exit

    report = gp.ExperimentReport(
        name="synthetic", verdict="fail", seed=0, n=0, params={}, metrics={}, wall_time_s=0.0
    )
    assert _report_exit(report) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"
