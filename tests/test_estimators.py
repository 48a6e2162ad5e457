"""Monte Carlo estimators against closed forms and internal identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import geomprob as gp
from geomprob.estimators import VOLUME_CHUNK, _det, _edges

N_FAST = 200000
SIGMA = 4.0


def test_simplex_volume_triangle():
    assert math.isclose(gp.batch_simplex_volumes(np.array([[[0, 0], [1, 0], [0, 1]]]))[0], 0.5, rel_tol=1e-12)
    tetrahedron = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert math.isclose(gp.batch_simplex_volumes(tetrahedron)[0], 1 / 6, rel_tol=1e-12)


def test_batch_volumes_match_scalar():
    rng = np.random.default_rng(0)
    pts = rng.random((50, 4, 3))
    x = np.array([0.25, 0.5, -0.25])
    pinned = gp.batch_pinned_volumes(x, pts[:, :3, :])
    for i in range(50):
        stacked = np.vstack([x[None, :], pts[i, :3, :]])
        assert math.isclose(pinned[i], gp.batch_simplex_volumes(stacked[None])[0], rel_tol=1e-12)


def _hadamard(m: np.ndarray) -> np.ndarray:
    """Product of the row norms, the bound on |det| that scales its rounding error."""
    return np.prod(np.linalg.norm(m, axis=-1), axis=-1)


def _assert_det_matches_lapack(m: np.ndarray) -> None:
    got = _det(m)
    assert got.shape == (m.shape[0],)
    assert np.all(np.abs(got - np.linalg.det(m)) <= 1e-12 * _hadamard(m))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_det_matches_lapack_on_random_stacks(d):
    rng = np.random.default_rng(100 + d)
    _assert_det_matches_lapack(rng.standard_normal((2000, d, d)))
    _assert_det_matches_lapack(rng.random((2000, d + 1, d))[:, 1:, :] - rng.random((2000, 1, d)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    m=st.integers(1, 4).flatmap(
        lambda d: arrays(np.int64, st.tuples(st.integers(0, 6), st.just(d), st.just(d)), elements=st.integers(-1024, 1024))
    ),
    scale=st.sampled_from([1.0, 1.0 / 1024, 1e-3, 37.5]),
)
def test_det_matches_lapack_property(m, scale):
    _assert_det_matches_lapack(m * scale)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_volume_kernels_exact_on_unit_simplex(d):
    corners = np.vstack([np.zeros(d), np.eye(d)])
    assert gp.batch_simplex_volumes(corners[None])[0] == 1.0 / math.factorial(d)
    assert gp.batch_pinned_volumes(np.zeros(d), corners[None, 1:])[0] == 1.0 / math.factorial(d)
    assert _det(np.eye(d)[None])[0] == 1.0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_volume_kernels_zero_for_repeated_point(d):
    rng = np.random.default_rng(200 + d)
    x = rng.standard_normal(d)
    for i in range(1, d + 1):
        pts = rng.standard_normal((50, d + 1, d))
        pts[:, i] = pts[:, 0]
        assert np.all(gp.batch_simplex_volumes(pts) == 0.0)
        pinned = rng.standard_normal((50, d, d))
        pinned[:, i - 1] = x
        assert np.all(gp.batch_pinned_volumes(x, pinned) == 0.0)


def test_det_beyond_four_is_lapack():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((300, 5, 5))
    assert np.array_equal(_det(m), np.linalg.det(m))
    pts = rng.standard_normal((300, 6, 5))
    want = np.abs(np.linalg.det(pts[:, 1:] - pts[:, :1])) / math.factorial(5)
    assert np.array_equal(gp.batch_simplex_volumes(pts), want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_volume_kernels_chunked_bits_match_one_pass(d):
    rng = np.random.default_rng(300 + d)
    n = 2 * VOLUME_CHUNK + 3
    pts = rng.standard_normal((n, d + 1, d))
    x = rng.standard_normal(d)
    whole = np.abs(_det(_edges(pts[:, 1:], pts[:, :1]))) / math.factorial(d)
    assert np.array_equal(gp.batch_simplex_volumes(pts), whole)
    pinned = np.abs(_det(_edges(pts[:, 1:], x[None, None, :]))) / math.factorial(d)
    assert np.array_equal(gp.batch_pinned_volumes(x, pts[:, 1:]), pinned)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_volume_kernels_reject_non_square_stacks(d):
    rng = np.random.default_rng(d)
    with pytest.raises(np.linalg.LinAlgError):
        gp.batch_pinned_volumes(np.zeros(d), rng.random((10, d + 1, d)))
    with pytest.raises(np.linalg.LinAlgError):
        gp.batch_pinned_volumes(np.zeros(d), rng.random((10, d - 1, d)))
    with pytest.raises(np.linalg.LinAlgError):
        gp.batch_simplex_volumes(rng.random((10, d + 2, d)))
    with pytest.raises(np.linalg.LinAlgError):
        gp.batch_simplex_volumes(rng.random((10, d, d)))


@pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1)])
def test_moment_estimate_matches_closed_form(d, k):
    est = gp.moment_estimate(gp.Ball(np.zeros(d), 1.0), k, N_FAST, seed=d * 10 + k)
    want = gp.ball_simplex_moment(d, k).to_float()
    assert abs(est.z_against(want)) <= SIGMA


def test_pinned_moment_at_center():
    est = gp.pinned_moment_estimate(gp.Ball(np.zeros(2), 1.0), [0.0, 0.0], 1, N_FAST, seed=3)
    assert abs(est.z_against(4.0 / (9.0 * math.pi))) <= SIGMA


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_pin_point_raises(bad):
    with pytest.raises(ValueError, match="pin point must be finite"):
        gp.pinned_moment_estimate(gp.Ball(np.zeros(2), 1.0), [bad, 0.0], 1, 1000, seed=3)


def test_pinned_point_may_lie_outside_the_body():
    # pinning at the cone apex of the truncated body still integrates cleanly
    inner, outer = gp.HalfBallCone(3, 0.2, 0.1), gp.HalfBallCone(3, 0.2, 0.0)
    est = gp.pinned_moment_estimate(inner, outer.apex, 1, 50000, seed=4)
    assert est.mean > 0


def test_det_vs_simplex_second_moment_identity():
    # det A(K) = (d!/(d+1)) E V^2 for any convex body
    body = gp.half_ball(2)
    det = gp.det_cov_estimate(body, N_FAST, seed=5)
    mom = gp.moment_estimate(body, 2, N_FAST, seed=6)
    want = mom.mean * 2.0 / 3.0
    se = math.hypot(det.stderr, mom.stderr * 2.0 / 3.0)
    assert abs(det.mean - want) <= SIGMA * se


def test_det_second_moment_identity_pinned_form():
    # det E[Y Y^T] = (1/d!) E det[Y_1 .. Y_d]^2 with Y uniform on the body;
    # the right side is d! times the squared-volume pinned moment at 0
    body = gp.unit_cube(2)
    cov = gp.covariance_estimate(body, N_FAST, seed=7)
    second = cov.matrix + np.outer(cov.centroid, cov.centroid)
    pinned = gp.pinned_moment_estimate(body, [0.0, 0.0], 2, N_FAST, seed=8)
    lhs = float(np.linalg.det(second))
    rhs = 2.0 * pinned.mean
    # determinant noise bounded by gradient-size 4 max|entry| times entry stderr
    lhs_se = 4.0 * float(np.abs(second).max()) * cov.stderr_scale
    assert abs(lhs - rhs) <= SIGMA * math.hypot(lhs_se, 2.0 * pinned.stderr)


def test_jensen_moment_ordering():
    est1 = gp.moment_estimate(gp.Ball(np.zeros(3), 1.0), 1, N_FAST, seed=9)
    est2 = gp.moment_estimate(gp.Ball(np.zeros(3), 1.0), 2, N_FAST, seed=10)
    se = math.hypot(2 * est1.mean * est1.stderr, est2.stderr)
    assert est1.mean**2 <= est2.mean + SIGMA * se


def test_blaschke_groemer_ball_is_minimum():
    # among bodies of the same volume the ball minimizes E V; compare the
    # half-ball against the volume-matched ball
    hb = gp.half_ball(3)
    r = (0.5) ** (1.0 / 3.0)
    ball = gp.Ball(np.zeros(3), r)
    e_hb = gp.moment_estimate(hb, 1, N_FAST, seed=11)
    e_ball = gp.moment_estimate(ball, 1, N_FAST, seed=12)
    z = (e_hb.mean - e_ball.mean) / math.hypot(e_hb.stderr, e_ball.stderr)
    assert z > 3.0


def test_stderr_halves_when_n_quadruples():
    a = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 100000, seed=13)
    b = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 400000, seed=13)
    assert abs(b.stderr / a.stderr - 0.5) < 0.15


def test_estimates_are_reproducible():
    a = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 50000, seed=99)
    b = gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 50000, seed=99)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = gp.det_cov_estimate(gp.unit_cube(2), 50000, seed=98)
    d = gp.det_cov_estimate(gp.unit_cube(2), 50000, seed=98)
    assert c.mean == d.mean and c.stderr == d.stderr


def test_covariance_estimate_cube():
    cov = gp.covariance_estimate(gp.unit_cube(2), N_FAST, seed=14)
    tol = SIGMA * cov.stderr_scale
    assert np.allclose(np.diag(cov.matrix), 1 / 12, atol=tol)
    assert abs(cov.matrix[0, 1]) <= tol
    assert np.allclose(cov.centroid, 0.5, atol=0.01)


def test_det_cov_estimate_ball3():
    det = gp.det_cov_estimate(gp.Ball(np.zeros(3), 1.0), N_FAST, seed=15)
    assert det.stderr > 0
    assert abs(det.z_against((1 / 5) ** 3)) <= SIGMA


def test_volume_estimate_box_is_exact():
    est = gp.volume_estimate(gp.unit_cube(3), 10000, seed=16)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_volume_estimate_ball():
    est = gp.volume_estimate(gp.Ball(np.zeros(3), 1.0), N_FAST, seed=17)
    assert abs(est.z_against(gp.kappa(3).to_float())) <= SIGMA


def test_volume_with_stderr_prefers_closed_form():
    value, se = gp.volume_with_stderr(gp.Ball(np.zeros(4), 1.0), 1000, gp.SampleStream(18, 0))
    assert se == 0.0
    assert math.isclose(value, gp.kappa(4).to_float(), rel_tol=1e-12)


def test_isotropic_transform_produces_identity_covariance():
    body = gp.affine_image(
        gp.unit_cube(2), np.array([[3.0, 1.0], [0.0, 0.5]]), [2.0, -1.0]
    )
    iso = gp.isotropic_transform(body, N_FAST, seed=19)
    cov = gp.covariance_estimate(iso, N_FAST, seed=20)
    assert cov.max_deviation_from_identity() < 0.02
    assert np.allclose(cov.centroid, 0.0, atol=0.02)


@pytest.mark.parametrize("radius", [1e-5, 1e5])
def test_isotropic_transform_judges_singularity_by_scale(radius):
    # the unit ball's covariance is I/5, so the map is about sqrt(5)/radius times the identity
    iso = gp.isotropic_transform(gp.Ball(np.zeros(3), radius), N_FAST, seed=21)
    assert np.allclose(iso.matrix * radius / math.sqrt(5.0), np.eye(3), atol=0.02)


def test_isotropic_transform_rejects_a_flat_body():
    # variances 1/12 and 1e-12/12: the ratio is below the floor
    with pytest.raises(gp.SingularTransformError):
        gp.isotropic_transform(gp.box_body([0.0, 0.0], [1.0, 1e-6]), N_FAST, seed=22)


def test_isotropic_transform_of_a_polytope_is_exact(monkeypatch):
    body, _ = gp.simplex_with_hull_point(1.2)
    first = gp.isotropic_transform(body, N_FAST, seed=23)
    second = gp.isotropic_transform(body, 64 * 10, seed=24)
    assert first.matrix.tobytes() == second.matrix.tobytes()
    assert first.shift.tobytes() == second.shift.tobytes()
    _, centroid, cov = body.moments()
    assert np.abs(first.matrix @ cov @ first.matrix.T - np.eye(3)).max() <= 1e-12
    assert np.abs(first.matrix @ centroid + first.shift).max() <= 1e-12
    # a polytope draws nothing, so the flat box raises from its exact covariance

    def no_draws(*args):
        raise AssertionError("covariance_estimate was called")

    monkeypatch.setattr(gp.estimators, "covariance_estimate", no_draws)
    gp.isotropic_transform(body, N_FAST, seed=25)
    with pytest.raises(gp.SingularTransformError):
        gp.isotropic_transform(gp.box_body([0.0, 0.0], [1.0, 1e-6]), N_FAST, seed=22)


def test_expectation_estimate_checks_small_n():
    with pytest.raises(ValueError):
        gp.moment_estimate(gp.Ball(np.zeros(2), 1.0), 1, 10, seed=0)
