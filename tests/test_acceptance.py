"""The thirteen acceptance checks, one test and one printed verdict line each.

Every check restates its tolerance and sample budget inline. Verdict lines
go to the unbuffered stdout so they appear in captured logs as well.
"""

import math
import sys
import time

import numpy as np
import pytest

import geomprob as gp

SIGMA = 4.0
Z_SEP = 3.0
LOG_TOL = 1e-12

N_KINGMAN = 10**6
N_DET_IDENTITY = 10**6
N_BLASCHKE = 10**6
N_PLANE = 10**6
N_CORPUS_EACH = 2 * 10**5
N_SANDWICH = 10**7
N_MATRIX = 4 * 10**6
H_MATRIX = 0.02
N_PAIR_EST = 2 * 10**5
N_DETCOV_CX = 2 * 10**6
N_PROBE = 10**7


_CAP = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    """Hold the capture fixture so verdict lines bypass output capture."""
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def record(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {label}: {status}"
    if detail:
        line += f"  [{detail}]"
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def log_rel_close(value, expected: float, tol: float = LOG_TOL) -> bool:
    return abs(value.log_mag - math.log(abs(expected))) <= tol


# ---------------------------------------------------------------------------


def test_criterion_01_exact_formula_suite():
    t0 = time.perf_counter()
    ok = log_rel_close(gp.ball_simplex_moment(1, 1), 2.0 / 3.0)
    ok &= log_rel_close(gp.ball_pinned_moment(2, 1), 4.0 / (9.0 * math.pi))
    for d in range(1, 7):
        direct = gp.busemann_min_ratio(d)
        via = gp.ball_pinned_moment(d, 1) / gp.kappa(d)
        ok &= abs(direct.log_mag - via.log_mag) <= LOG_TOL
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    record(1, "exact formula suite", ok, f"{elapsed:.3f}s")


def test_criterion_02_kingman_cross_check():
    ok = True
    worst = 0.0
    for d in (2, 3, 4):
        for k in (1, 2):
            t0 = time.perf_counter()
            est = gp.moment_estimate(gp.Ball(np.zeros(d), 1.0), k, N_KINGMAN, seed=100 + 10 * d + k)
            z = est.z_against(gp.ball_simplex_moment(d, k).to_float())
            elapsed = time.perf_counter() - t0
            ok &= abs(z) <= SIGMA and elapsed < 60.0
            worst = max(worst, abs(z))
    record(2, "ball moments match closed forms", ok, f"worst |z| {worst:.2f}")


def test_criterion_03_det_covariance_identity():
    bodies = [gp.half_ball(2), gp.half_ball(3), gp.half_ball(4), gp.HalfBallCone(3, 0.1, 0.02)]
    ok = True
    worst = 0.0
    for i, body in enumerate(bodies):
        d = body.dim
        factor = math.factorial(d) / (d + 1.0)
        det = gp.det_cov_estimate(body, N_DET_IDENTITY, seed=200 + 2 * i)
        mom = gp.moment_estimate(body, 2, N_DET_IDENTITY, seed=201 + 2 * i)
        se = math.hypot(det.stderr, factor * mom.stderr)
        z = (det.mean - factor * mom.mean) / se
        ok &= abs(z) <= SIGMA
        worst = max(worst, abs(z))
    record(3, "det A equals (d!/(d+1)) E V^2", ok, f"worst |z| {worst:.2f}")


def test_criterion_04_triangle_maximum_disk_value():
    tri = gp.Polygon2D([[0, 0], [1, 0], [0, 1]])
    est_tri = gp.moment_estimate(tri, 1, N_BLASCHKE, seed=210)
    ratio_tri = est_tri.mean / 0.5
    se_tri = est_tri.stderr / 0.5
    ok = abs(ratio_tri - 1.0 / 12.0) <= SIGMA * se_tri

    est_disk = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, N_BLASCHKE, seed=211)
    ratio_disk = est_disk.mean / math.pi
    se_disk = est_disk.stderr / math.pi
    want_disk = 35.0 / (48.0 * math.pi**2)
    ok &= abs(ratio_disk - want_disk) <= SIGMA * se_disk
    ok &= ratio_disk + Z_SEP * se_disk < 1.0 / 12.0
    record(4, "triangle ratio 1/12, disk strictly below", ok,
           f"tri {ratio_tri:.6f} disk {ratio_disk:.6f}")


def test_criterion_05_planar_pinned_bound():
    bound = gp.PLANE_PINNED_BOUND
    half_disk = gp.half_ball(2)
    est = gp.pinned_moment_estimate(half_disk, [0.0, 0.0], 1, N_PLANE, seed=220)
    area = half_disk.volume()
    ratio = est.mean / area
    se = est.stderr / area
    ok = abs(ratio - bound) <= SIGMA * se

    corpus_stream = gp.SampleStream(221, 0)
    worst = math.inf
    for i in range(20):
        poly = gp.bottom_pinned_polygon(corpus_stream.substream(i))
        pe = gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, N_CORPUS_EACH, seed=gp.stream_key(222, i))
        r = pe.mean / poly.area()
        worst = min(worst, (r - bound) / (pe.stderr / poly.area()))
    ok &= worst > -Z_SEP

    rep = gp.plane_bound_pipeline(gp.half_disk_polygon(64), [0.0, 0.0], n=N_PLANE, seed=223)
    ok &= rep.verdict == "pass"
    record(5, "half-disk attains 8/(9 pi^2), corpus above", ok,
           f"ratio {ratio:.6f} corpus worst z {worst:.1f} pipeline {rep.verdict}")


def test_criterion_06_dimension_four_counterexample():
    pinned_exact = gp.ball_pinned_moment(4, 1).to_float()
    half_moment_floor = gp.ball_simplex_moment(4, 1).to_float() / 2.0
    ok = math.isclose(pinned_exact, 0.004098879685916203, rel_tol=1e-6)
    ok &= math.isclose(half_moment_floor, 0.004404389896372324, rel_tol=1e-6)
    ok &= pinned_exact < half_moment_floor

    t0 = time.perf_counter()
    body = gp.half_ball(4)
    moment = gp.moment_estimate(body, 1, N_SANDWICH, seed=230)
    pinned = gp.pinned_moment_estimate(body, np.zeros(4), 1, N_SANDWICH, seed=231)
    delta = moment.mean - pinned.mean
    z = delta / math.hypot(moment.stderr, pinned.stderr)
    elapsed = time.perf_counter() - t0
    ok &= z >= Z_SEP and elapsed < 300.0

    for k in range(1, 21):
        ratio = gp.moment_ratio_bound(4, k).to_float()
        ok &= ratio < 1.0 and ratio <= gp.chain_bound(4, k) + 1e-15
    record(6, "pinned moment drops below E V in d=4", ok,
           f"delta {delta:.3e} z {z:.1f} ({elapsed:.0f}s)")


def test_criterion_07_moment_thresholds():
    ok = gp.find_k0(3) == 3
    ok &= abs(gp.moment_ratio_bound(3, 2).log_mag) <= LOG_TOL
    ok &= gp.find_k0(2) == 8
    scan = next(
        k for k in range(1, 201) if gp.moment_ratio_bound(2, k).log_mag < math.log1p(-1e-12)
    )
    ok &= scan == 8
    ok &= gp.moment_ratio_bound(2, 60).to_float() < 1e-3
    record(7, "higher-moment thresholds k0", ok, "k0(2)=8 k0(3)=3 k0(4)=1")


def test_criterion_08_ball_volume_ratio_bracket():
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 201):
        lower, ratio, upper = gp.kappa_ratio_bounds(d)
        ok &= lower < ratio < upper
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    record(8, "volume ratio bracket d=1..200", ok, f"{elapsed:.3f}s")


def _crofton_statistic(f):
    if f.arity == 1:
        def stat(body, n, stream):
            return gp.expectation_estimate(body, f.eval_batch, 1, n, stream)
    else:
        def stat(body, n, stream):
            return gp.moment_estimate(body, 1, n, stream)
    return stat


def test_criterion_09_derivative_formulas_match_fd():
    ok = True
    details = []

    cases = [
        ("cube2", gp.unit_cube(2), [1.0, 0.0]),
        ("cube3", gp.unit_cube(3), [1.0, 0.0, 0.0]),
        ("halfball3", gp.half_ball(3), [1.0, 0.0, 0.0]),
        ("halfball4", gp.half_ball(4), [1.0, 0.0, 0.0, 0.0]),
    ]
    seed = 9000
    for name, body, v in cases:
        fam = gp.cut_family(body, v)
        for f_name in ("simplexvol", "coordsum"):
            f = gp.sf_simplex_volume(body.dim) if f_name == "simplexvol" else gp.sf_coordinate_sum()
            stat = _crofton_statistic(f)
            for frac in (0.2, 0.4, 0.6):
                t = fam.a + frac * (fam.b - fam.a)
                rhs = gp.crofton_derivative_rhs(fam, t, f, N_MATRIX, seed=seed)
                fd = gp.finite_difference(fam, t, H_MATRIX, stat, N_MATRIX, seed=seed + 1)
                seed += 2
                diff = abs(rhs.mean - fd.mean)
                good = diff <= 0.05 * abs(fd.mean) or diff <= 3.0 * math.hypot(rhs.stderr, fd.stderr)
                ok &= good
                if not good:
                    details.append(f"{name}/{f_name}@{frac}")

    detcov_cases = [
        ("simplex-facet", gp.isotropic_simplex(3), gp.regular_simplex_vertices(3)[0]),
        ("halfball-flat", gp.isotropic_half_ball(3), [1.0, 0.0, 0.0]),
    ]
    def det_stat(body, n, stream):
        return gp.det_cov_estimate(body, n, stream)
    for name, body, v in detcov_cases:
        fam = gp.cut_family(body, v)
        rhs = gp.detcov_derivative_rhs(fam, fam.a, N_MATRIX, seed=seed)
        fd = gp.finite_difference(fam, fam.a, H_MATRIX, det_stat, N_MATRIX, seed=seed + 1)
        seed += 2
        diff = abs(rhs.mean - fd.mean)
        good = diff <= 0.05 * abs(fd.mean) or diff <= 3.0 * math.hypot(rhs.stderr, fd.stderr)
        ok &= good
        if not good:
            details.append(name)

    # h-refinement on the analytic half-ball coordinate family: error halves
    fam = gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0])
    f = gp.sf_coordinate_sum()
    rows = gp.h_refinement_report(fam, 0.2, _crofton_statistic(f), 0.4, N_MATRIX, seed=0)
    truth = 72.0 / 121.0
    errs = [abs(r["fd"] - truth) for r in rows]
    ok &= errs[0] > errs[1] > errs[2]
    if not errs[0] > errs[1] > errs[2]:
        details.append("h-refinement")

    const = gp.crofton_derivative_rhs(fam, 0.2, gp.sf_one(), 10**5, seed=1)
    ok &= const.mean == 0.0 and const.stderr == 0.0
    record(9, "cut derivatives match finite differences", ok,
           "; ".join(details) if details else "26 combos within 5% or 3 sigma")


def test_criterion_10_planar_det_monotonicity():
    rep = gp.monotonicity_2d(50, N_PAIR_EST, seed=240)
    ok = rep.verdict == "pass" and rep.metrics["det_violations"] == 0
    record(10, "nested pairs keep det A ordered in d=2", ok,
           f"worst det z {rep.metrics['worst_det_z']:.2f}")


def test_criterion_11_det_covariance_counterexample_d3():
    rep = gp.detcov_counterexample(n=N_DETCOV_CX, seed=0, variant="simplex")
    m = rep.metrics
    ok = rep.verdict == "pass"
    ok &= abs(m["facet_center_norm"] - math.sqrt(5.0 / 3.0)) <= 0.01
    ok &= m["rhs_z"] >= Z_SEP and m["rhs"] > 0
    ok &= m["det_increase_z"] >= Z_SEP and m["det_increase"] > 0
    record(11, "det A grows under a cut near a hull point", ok,
           f"rhs z {m['rhs_z']:.0f} fd z {m['det_increase_z']:.0f}")


def test_criterion_12_symmetrization_properties():
    ok = True
    gen = gp.SampleStream(250, 0)
    for i in range(20):
        poly = gp.bottom_pinned_polygon(gen.substream(i))
        angle = float(gen.substream(1000 + i).uniform(1)[0]) * math.pi
        steinered = gp.steiner_symmetrize(poly, angle)
        ok &= math.isclose(steinered.area(), poly.area(), rel_tol=1e-12)
        shaken = gp.blaschke_shake(poly, 0.0)
        ok &= math.isclose(shaken.area(), poly.area(), rel_tol=1e-12)
        again = gp.blaschke_shake(shaken, 0.0)
        ok &= np.allclose(shaken.vertices, again.vertices, atol=1e-12)

    worst = math.inf
    for i in range(20):
        poly = gp.symmetric_bottom_polygon(gen.substream(2000 + i))
        shaken = gp.blaschke_shake(poly, 0.0)
        before = gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, N_CORPUS_EACH, seed=gp.stream_key(251, 2 * i))
        after = gp.pinned_moment_estimate(shaken, [0.0, 0.0], 1, N_CORPUS_EACH, seed=gp.stream_key(251, 2 * i + 1))
        worst = min(worst, (before.mean - after.mean) / math.hypot(before.stderr, after.stderr))
    ok &= worst > -SIGMA
    record(12, "symmetrization preserves area, shaking shrinks", ok,
           f"shaking worst z {worst:.1f}")


def test_criterion_13_open_case_probe():
    rep = gp.counterexample_derivative_test(3, 0.1, N_PROBE, seed=260)
    m = rep.metrics
    ok = rep.verdict == "inconclusive"
    ok &= math.isfinite(m["delta"]) and m["delta_stderr"] > 0
    record(13, "d=3 probe reports and stays open", ok,
           f"delta {m['delta']:.3e} +- {m['delta_stderr']:.1e}")
