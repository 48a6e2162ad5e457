"""Cut-family derivative formulas against analytic values and finite differences."""

import math
import warnings

import numpy as np
import pytest

import geomprob as gp
import test_golden_digests as golden
from test_golden_digests import BODIES

N_FAST = 200000
SIGMA = 4.0


def det_stat(body, n, stream):
    return gp.det_cov_estimate(body, n, stream)


def moment_stat(body, n, stream):
    return gp.moment_estimate(body, 1, n, stream)


def coordsum_stat(body, n, stream):
    f = gp.sf_coordinate_sum()
    return gp.expectation_estimate(body, f.eval_batch, 1, n, stream)


# ---------------------------------------------------------------------------
# support intervals and cut families


def test_support_interval_ball_exact():
    lo, hi = gp.support_interval(gp.Ball(np.array([1.0, 0.0]), 2.0), [1.0, 0.0])
    assert (lo, hi) == (-1.0, 3.0)


def test_support_interval_box_facets_exact():
    lo, hi = gp.support_interval(gp.unit_cube(3), [0.0, 1.0, 0.0])
    assert (lo, hi) == (0.0, 1.0)


def test_support_interval_simplex_facet_minimum_exact():
    sim = gp.isotropic_simplex(3)
    u = gp.regular_simplex_vertices(3)[0]
    lo, hi = gp.support_interval(sim, u)
    assert abs(lo + math.sqrt(15.0) / 3.0) <= 1e-12
    # the opposite extreme is a lone vertex
    assert abs(hi - math.sqrt(15.0)) <= 1e-12


def test_support_interval_affine_image():
    img = gp.affine_image(gp.Ball(np.zeros(2), 1.0), np.diag([2.0, 0.5]), [1.0, 0.0])
    lo, hi = gp.support_interval(img, [1.0, 0.0])
    assert math.isclose(lo, -1.0, rel_tol=1e-12)
    assert math.isclose(hi, 3.0, rel_tol=1e-12)


def test_support_interval_half_ball_cone_axis():
    cone = gp.HalfBallCone(3, 0.25, 0.05)
    lo, hi = gp.support_interval(cone, [1.0, 0.0, 0.0])
    assert math.isclose(lo, -0.2, rel_tol=1e-12)
    assert hi == 1.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_support_interval_cut_axis_exact(sign):
    lo, hi = gp.support_interval(gp.half_ball(3), [sign, 0.0, 0.0])
    assert (lo, hi) == ((0.0, 1.0) if sign > 0 else (-1.0, 0.0))


@pytest.mark.parametrize("affine", [False, True])
def test_support_interval_cut_oblique_exact(affine):
    # along a unit u = (a, b, 0) with a, b > 0 the half-ball spans exactly [-b, 1]
    v = np.array([0.6, 0.8, 0.0])
    if affine:
        body = gp.isotropic_half_ball(3)
        w = body.matrix.T @ v
        scale, off = float(np.linalg.norm(w)), float(v @ body.shift)
        u = w / scale
    else:
        body, scale, off, u = gp.half_ball(3), 1.0, 0.0, v
    lo_exact, hi_exact = scale * -u[1] + off, scale + off
    lo, hi = gp.support_interval(body, v)
    assert abs(lo - lo_exact) <= 1e-12 and abs(hi - hi_exact) <= 1e-12


GATE_BODIES = sorted(name for name in BODIES if name != "cut_cone")


@pytest.mark.parametrize("name", GATE_BODIES)
def test_support_interval_contains_sampled_extremes(name, monkeypatch):
    # along 100 seeded random directions the exact interval holds every one of
    # 10^5 sampled points, and computing it draws no sample
    body = BODIES[name]()
    pts = gp.sample_body(gp.SampleStream(50, 0), body, 10**5)
    dirs = np.random.default_rng(51).normal(size=(100, body.dim))
    calls = []
    original = gp.sampling.sample_body

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # derivatives draws body points only through the estimators
    for module in (gp, gp.sampling, gp.estimators):
        monkeypatch.setattr(module, "sample_body", counting)
    intervals = np.array([gp.support_interval(body, v) for v in dirs])
    assert calls == []
    proj = pts @ (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)).T
    # sampled points pass membership within MEMBERSHIP_ATOL of the boundary
    assert np.all(intervals[:, 0] <= proj.min(axis=0) + 1e-9)
    assert np.all(proj.max(axis=0) <= intervals[:, 1] + 1e-9)
    # and come within 5% of the width (3.2% at most here): the interval is not a loose bound
    slack = 0.05 * (intervals[:, 1] - intervals[:, 0])
    assert np.all(proj.min(axis=0) <= intervals[:, 0] + slack)
    assert np.all(intervals[:, 1] - slack <= proj.max(axis=0))


def test_support_interval_of_cut_cone_raises():
    with pytest.raises(gp.InvalidBodyError):
        gp.support_interval(BODIES["cut_cone"](), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("name", sorted(BODIES))
@pytest.mark.parametrize("fill", [0.0, math.nan, math.inf])
def test_cut_family_rejects_a_zero_or_non_finite_direction(name, fill):
    body = BODIES[name]()
    v = np.zeros(body.dim)
    v[0] = fill
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction must be nonzero and finite"):
            gp.cut_family(body, v)
        # the constructor checks the direction itself, as in CutFamily(body, [nan, 1.0], 0, 1)
        if fill != 0.0 and body.dim > 1:
            v[-1] = 1.0
        with pytest.raises(ValueError, match="direction must be nonzero and finite"):
            gp.CutFamily(body, v, 0.0, 1.0)


def test_cut_family_normalizes_and_cuts():
    fam = gp.cut_family(gp.Ball(np.zeros(2), 1.0), [3.0, 0.0])
    assert np.allclose(fam.v, [1.0, 0.0])
    kt = fam.cut(0.25)
    pts = gp.sample_body(gp.SampleStream(30, 0), kt, 5000)
    assert np.all(pts[:, 0] >= 0.25 - 1e-9)
    with pytest.raises(ValueError):
        gp.CutFamily(gp.Ball(np.zeros(2), 1.0), [0.0, 0.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        gp.CutFamily(gp.Ball(np.zeros(2), 1.0), [1.0, 0.0], 1.0, -1.0)


# ---------------------------------------------------------------------------
# symmetric functions


def test_simplex_volume_function_is_permutation_invariant():
    f = gp.sf_simplex_volume(2)
    assert f.arity == 3
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    vals = f.eval_batch(pts[[(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)]])
    assert len(set(np.round(vals, 14))) == 1


# ---------------------------------------------------------------------------
# Crofton formula


def test_crofton_analytic_square():
    # K_t = [t, 1] x [0, 1], f = coordinate sum: E f = (1 + t)/2 + 1/2,
    # derivative 1/2 independent of t
    fam = gp.cut_family(gp.unit_cube(2), [1.0, 0.0])
    est = gp.crofton_derivative_rhs(fam, 0.0, gp.sf_coordinate_sum(), N_FAST, seed=31)
    assert abs(est.z_against(0.5)) <= SIGMA


def test_crofton_constant_function_is_exactly_zero():
    fam = gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0])
    est = gp.crofton_derivative_rhs(fam, 0.2, gp.sf_one(), 50000, seed=32)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_crofton_matches_finite_difference():
    fam = gp.cut_family(gp.unit_cube(2), [1.0, 0.0])
    f = gp.sf_simplex_volume(2)

    def stat(body, n, stream):
        return gp.expectation_estimate(body, f.eval_batch, 3, n, stream)

    rhs = gp.crofton_derivative_rhs(fam, 0.2, f, 400000, seed=33)
    fd = gp.finite_difference(fam, 0.2, 0.02, stat, 400000, seed=34)
    diff = abs(rhs.mean - fd.mean)
    assert diff <= 0.05 * abs(fd.mean) or diff <= 3.0 * math.hypot(rhs.stderr, fd.stderr)


def test_crofton_sign_volume_loss():
    # cutting shifts mass toward larger first coordinate, so the coordinate
    # mean grows: positive derivative
    fam = gp.cut_family(gp.Ball(np.zeros(2), 1.0), [1.0, 0.0])
    est = gp.crofton_derivative_rhs(fam, 0.0, gp.sf_coordinate_sum(), N_FAST, seed=35)
    assert est.mean > 3 * est.stderr


# ---------------------------------------------------------------------------
# det-covariance formula


def test_detcov_requires_isotropic_body():
    fam = gp.cut_family(gp.unit_cube(3), [1.0, 0.0, 0.0])
    with pytest.raises(gp.NonIsotropicBodyError):
        gp.detcov_derivative_rhs(fam, 0.0, 50000, seed=36)


def test_detcov_gates_a_polytope_on_its_exact_covariance(monkeypatch):
    # K_t of a polytope family is a polytope, so the isotropy gate reads its
    # exact moments and draws no covariance estimate; substream 0 fed only the
    # gate, so the outputs keep their pinned bits
    def fail(*args, **kwargs):
        raise AssertionError("covariance_estimate was called")

    for module in (gp.estimators, gp.derivatives):
        monkeypatch.setattr(module, "covariance_estimate", fail)
    assert golden._digest(*golden._detcov_simplex()) == golden.GOLDEN["derivative/detcov_simplex"]
    assert golden._digest(*golden._detcov_square()) == golden.GOLDEN["derivative/detcov_square"]
    fam = gp.cut_family(gp.unit_cube(3), [1.0, 0.0, 0.0])
    with pytest.raises(gp.NonIsotropicBodyError):
        gp.detcov_derivative_rhs(fam, 0.0, 50000, seed=36)


def test_detcov_tangent_slice_is_exactly_zero():
    R = math.sqrt(5.0)
    fam = gp.cut_family(gp.Ball(np.zeros(3), R), [1.0, 0.0, 0.0])
    est = gp.detcov_derivative_rhs(fam, fam.a, 50000, seed=37)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_detcov_matches_finite_difference_at_simplex_facet():
    sim = gp.isotropic_simplex(3)
    fam = gp.cut_family(sim, gp.regular_simplex_vertices(3)[0])
    rhs = gp.detcov_derivative_rhs(fam, fam.a, 400000, seed=38)
    fd = gp.finite_difference(fam, fam.a, 0.02, det_stat, 400000, seed=39)
    assert rhs.mean < 0 and fd.mean < 0
    diff = abs(rhs.mean - fd.mean)
    assert diff <= 0.05 * abs(fd.mean) or diff <= 3.0 * math.hypot(rhs.stderr, fd.stderr)


# ---------------------------------------------------------------------------
# finite differences and refinement


def test_finite_difference_constant_statistic_is_zero():
    fam = gp.cut_family(gp.Ball(np.zeros(2), 1.0), [1.0, 0.0])

    def const_stat(body, n, stream):
        return gp.MomentEstimate(mean=1.0, stderr=0.0, n=n)

    est = gp.finite_difference(fam, 0.0, 0.1, const_stat, 1000, seed=40)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_finite_difference_validates_step():
    fam = gp.cut_family(gp.Ball(np.zeros(2), 1.0), [1.0, 0.0])
    with pytest.raises(ValueError):
        gp.finite_difference(fam, 0.0, -0.1, moment_stat, 1000, seed=41)
    with pytest.raises(ValueError):
        gp.finite_difference(fam, 0.9, 0.5, moment_stat, 1000, seed=41)


def test_non_finite_cut_and_step_raise():
    fam = gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0])
    with pytest.raises(gp.InvalidBodyError, match="finite"):
        fam.cut(math.nan)
    with pytest.raises(ValueError, match="step must be positive"):
        gp.finite_difference(fam, 0.2, math.nan, moment_stat, 1000, seed=41)


def test_finite_difference_ball_cap_loss_rate():
    # volume statistic: d/dt vol = -slice area = -pi at the equator
    fam = gp.cut_family(gp.Ball(np.zeros(3), 1.0), [1.0, 0.0, 0.0])

    def vol_stat(body, n, stream):
        return gp.volume_estimate(body, n, stream)

    fd = gp.finite_difference(fam, 0.0, 0.05, vol_stat, 400000, seed=42)
    assert abs(fd.z_against(-math.pi)) <= SIGMA


def test_h_refinement_validates_step():
    fam = gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        gp.h_refinement_report(fam, 0.2, moment_stat, -0.1, 1000, seed=44)
    with pytest.raises(ValueError):
        gp.h_refinement_report(fam, 0.9, moment_stat, 0.4, 1000, seed=44)


def test_h_refinement_errors_shrink_on_analytic_family():
    # half-ball coordinate-sum family has derivative (A/V)(g - t) with
    # g = (pi (1-t^2)^2 / 4) / V(t); discretization error halves with h
    fam = gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0])
    rows = gp.h_refinement_report(fam, 0.2, coordsum_stat, 0.4, 10**6, seed=43)
    assert [round(r["h"], 12) for r in rows] == [0.4, 0.2, 0.1]
    truth = 72.0 / 121.0
    errs = [abs(r["fd"] - truth) for r in rows]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# shared-sample determinant increase


def test_det_cov_increase_is_the_estimator():
    # derivatives imports it, so a tracer that wraps derivatives.det_cov_increase wraps the estimator
    assert gp.det_cov_increase is gp.derivatives.det_cov_increase is gp.estimators.det_cov_increase


def test_det_cov_increase_noop_cut_is_exactly_zero():
    body = gp.isotropic_simplex(3)
    # halfspace keeps everything: the two covariance accumulations coincide
    est = gp.det_cov_increase(body, gp.Halfspace.through([1.0, 0.0, 0.0], -10.0), 100000, seed=44)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_det_cov_increase_starves_on_empty_cut():
    body = gp.isotropic_simplex(3)
    with pytest.raises(gp.NonIsotropicBodyError):
        gp.det_cov_increase(body, gp.Halfspace.through([1.0, 0.0, 0.0], 100.0), 100000, seed=45)


def test_det_cov_increase_detects_variance_drop():
    # cutting the ball in half drops the covariance determinant
    iso_ball = gp.Ball(np.zeros(3), math.sqrt(5.0))
    est = gp.det_cov_increase(iso_ball, gp.Halfspace.through([1.0, 0.0, 0.0], 0.0), 200000, seed=46)
    assert est.mean < -3 * est.stderr


# ---------------------------------------------------------------------------
# apex comparison experiment


def test_counterexample_rejects_dimension_one():
    with pytest.raises(gp.DimensionError):
        gp.counterexample_derivative_test(1, 0.1, 1000, seed=47)


def test_counterexample_plane_is_monotone():
    rep = gp.counterexample_derivative_test(2, 0.1, N_FAST, seed=48)
    assert rep.verdict == "pass"
    assert rep.metrics["delta"] < 0
    assert rep.metrics["z"] <= -3


def test_counterexample_d3_reports_only():
    rep = gp.counterexample_derivative_test(3, 0.1, 50000, seed=49)
    assert rep.verdict == "inconclusive"
    for key in ("moment", "pinned_apex", "delta", "delta_stderr", "z"):
        assert key in rep.metrics


def test_counterexample_isotropizes_the_simplex_exactly():
    rep = gp.detcov_counterexample(n=128_000, seed=0, variant="simplex")
    assert abs(rep.metrics["facet_center_norm"] - math.sqrt(5.0 / 3.0)) <= 1e-12
