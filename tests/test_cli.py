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


def test_exact_table_prints_json_lines(capsys):
    code, lines = run_lines(capsys, ["exact-table", "--d", "2..4", "--k", "1..2"])
    assert code == 0
    assert [(rec["d"], rec["k"]) for rec in lines] == [(d, k) for d in (2, 3, 4) for k in (1, 2)]
    for rec in lines:
        moment = gp.ball_simplex_moment(rec["d"], rec["k"]).to_float()
        assert rec["ball_moment"] == float(f"{moment:.12g}")
        assert (rec["chain_bound"] is None) == (rec["d"] < 4)


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


def test_derivative_check_tangent_slice_rhs_is_zero(capsys):
    # the default t is the support minimum, where the slice of a ball is a point
    ball3 = json.dumps({"type": "ball", "center": [0, 0, 0], "radius": 1})
    code, lines = run_lines(
        capsys, ["derivative-check", "--body", ball3, "--v", "1,0,0", "--n", "6400", "--f", "coordsum"]
    )
    assert code == 0
    assert lines[0]["t"] == -1.0
    assert lines[0]["rhs"] == 0.0 and lines[0]["rhs_stderr"] == 0.0


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


def _as_emitted(obj):
    return json.loads(json.dumps(gp.round_floats(obj)))


def _polygon_json(poly) -> str:
    return json.dumps(poly.to_json())


def test_symmetrize_steiner_matches_library(capsys):
    text = _polygon_json(gp.random_convex_polygon(gp.SampleStream(31, 0)))
    code, lines = run_lines(capsys, ["symmetrize", "--poly", text, "--op", "steiner", "--angle", "0.7"])
    assert code == 0
    assert lines == [_as_emitted(gp.steiner_symmetrize(gp.body_from_json(text), 0.7).to_json())]


def test_plane_check_prints_pipeline_record(capsys):
    text = _polygon_json(gp.bottom_pinned_polygon(gp.SampleStream(32, 0)))
    argv = ["plane-check", "--poly", text, "--x", "0,0", "--n", "3200", "--seed", "9"]
    code, lines = run_lines(capsys, argv)
    report = gp.plane_bound_pipeline(gp.body_from_json(text), [0.0, 0.0], 3200, 9).to_dict()
    for rec in lines + [report]:
        del rec["wall_time_s"]
    assert lines == [_as_emitted(report)]
    assert code == (1 if report["verdict"] == "fail" else 0)


def test_plane_check_rejects_non_polygon(capsys):
    code = main(["plane-check", "--poly", BALL2, "--x", "0,-1", "--n", "3200"])
    assert code == 2
    assert "polygon" in capsys.readouterr().err


def test_env_seed_is_read_only_by_seeded_subcommands(capsys, monkeypatch):
    monkeypatch.setenv("GEOMPROB_SEED", "not-a-seed")
    assert main(["symmetrize", "--poly", DIAMOND, "--op", "steiner"]) == 0
    assert main(["estimate", "--body", BALL2, "--n", "6400"]) == 2


def test_unparsable_env_seed_error_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("GEOMPROB_SEED", "abc")
    assert main(["estimate", "--body", BALL2, "--n", "6400"]) == 2
    err = capsys.readouterr().err
    assert "GEOMPROB_SEED" in err
    assert "'abc'" in err


def test_env_seed_is_printed_masked_to_64_bits(capsys, monkeypatch):
    # the seed a SampleStream uses: -3 mod 2**64
    monkeypatch.setenv("GEOMPROB_SEED", "-3")
    _, lines = run_lines(capsys, ["estimate", "--body", BALL2, "--n", "6400"])
    assert lines[0]["seed"] == 18446744073709551613
    text = _polygon_json(gp.bottom_pinned_polygon(gp.SampleStream(32, 0)))
    _, lines = run_lines(capsys, ["plane-check", "--poly", text, "--x", "0,0", "--n", "3200"])
    assert lines[0]["seed"] == 18446744073709551613


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


def test_d3_probe_is_counterexample_at_d3(capsys):
    argv = ["--eps", "0.2", "--n", "20000", "--seed", "8"]
    _, probe = run_lines(capsys, ["d3-probe"] + argv)
    _, direct = run_lines(capsys, ["counterexample", "--d", "3"] + argv)
    assert len(probe) == len(direct) == 1
    for rec in probe + direct:
        del rec["wall_time_s"]
    assert probe == direct


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


@pytest.mark.parametrize("pairs", ["0", "-2"])
def test_monotonicity_2d_without_pairs_is_usage_error(capsys, pairs):
    code = main(["monotonicity-2d", "--pairs", pairs, "--n", "6400"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("pairs", [0, -2])
def test_monotonicity_2d_rejects_fewer_than_one_pair(pairs):
    with pytest.raises(ValueError, match="pairs"):
        gp.monotonicity_2d(pairs, 6400)


def test_experiments_keep_their_cli_names():
    # perfbench/tracing.py (CLI_FNS) wraps these by their cli names and
    # perfbench/workloads.py:120 calls cli.detcov_counterexample, so the CLI
    # must hold the library's own function objects
    assert gp.cli.detcov_counterexample is gp.derivatives.detcov_counterexample
    assert gp.cli.monotonicity_2d is gp.symmetry2d.monotonicity_2d


def test_malformed_body_is_usage_error(capsys):
    code = main(["estimate", "--body", "{not json", "--n", "1000"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_hpoly_bound_that_truncates_the_body_is_usage_error(capsys):
    square = json.loads(SQUARE)
    square["bound"]["hi"] = [0.5, 1]
    assert main(["estimate", "--body", json.dumps(square), "--n", "6400"]) == 2
    assert "bound" in capsys.readouterr().err


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
