"""Membership, volume, and construction invariants for the body types."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import geomprob as gp
from geomprob.bodies import DIM_CAP, MEMBERSHIP_ATOL, _ball_axis_cdf, _ball_axis_ppf, _inside

MEMBERSHIP_N = 4000
VOL_REL_TOL = 1e-12


def cloud(seed, d, n=MEMBERSHIP_N, scale=2.0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, d)) * 2.0 - 1.0) * scale


# ---------------------------------------------------------------------------
# membership


def test_ball_membership_matches_norm():
    ball = gp.Ball(np.array([0.5, -0.25, 0.0]), 0.75)
    pts = cloud(1, 3)
    want = np.linalg.norm(pts - ball.center, axis=1) <= ball.radius + 1e-12
    assert np.array_equal(ball.contains_batch(pts), want)


def test_box_membership():
    box = gp.box_body([0.0, -1.0], [2.0, 1.0])
    pts = cloud(2, 2, scale=3.0)
    want = (pts[:, 0] >= -1e-12) & (pts[:, 0] <= 2 + 1e-12)
    want &= (pts[:, 1] >= -1 - 1e-12) & (pts[:, 1] <= 1 + 1e-12)
    assert np.array_equal(box.contains_batch(pts), want)


def test_simplex_contains_centroid_not_vertex_overshoot():
    sim = gp.regular_simplex(3, 1.0)
    verts = gp.regular_simplex_vertices(3, 1.0)
    assert gp.contains(sim, np.zeros(3))
    assert gp.contains(sim, verts[0])
    assert not gp.contains(sim, verts[0] * 1.01)


def test_half_ball_cone_membership_pieces():
    cone = gp.HalfBallCone(3, 0.5, 0.0)
    assert gp.contains(cone, [0.2, 0.3, 0.1])
    assert gp.contains(cone, cone.apex)
    assert gp.contains(cone, [-0.25, 0.2, 0.0])  # inside the cone piece
    assert not gp.contains(cone, [-0.25, 0.6, 0.0])  # outside the cone slope
    assert not gp.contains(cone, [-0.51, 0.0, 0.0])
    assert not gp.contains(cone, [0.0, 1.01, 0.0])
    truncated = gp.HalfBallCone(3, 0.5, 0.2)
    assert not gp.contains(truncated, [-0.35, 0.0, 0.0])
    assert gp.contains(truncated, [-0.25, 0.0, 0.0])


def test_cut_and_affine_membership_compose():
    base = gp.Ball(np.zeros(2), 1.0)
    cut = gp.intersect_halfspace(base, gp.Halfspace.through([1.0, 0.0], 0.0))
    pts = cloud(3, 2)
    want = (np.linalg.norm(pts, axis=1) <= 1 + 1e-12) & (pts[:, 0] >= -1e-12)
    assert np.array_equal(cut.contains_batch(pts), want)

    mat = np.array([[2.0, 0.5], [0.0, 1.0]])
    img = gp.affine_image(cut, mat, [1.0, -1.0])
    back = (pts - np.array([1.0, -1.0])) @ np.linalg.inv(mat).T
    assert np.array_equal(img.contains_batch(pts), cut.contains_batch(back))


# ---------------------------------------------------------------------------
# exact volumes


def test_exact_volumes_closed_forms():
    assert math.isclose(gp.Ball(np.zeros(3), 2.0).volume(), (4 * math.pi / 3) * 8, rel_tol=VOL_REL_TOL)
    assert math.isclose(gp.unit_cube(4).volume(), 1.0, rel_tol=VOL_REL_TOL)
    assert math.isclose(gp.half_ball(4).volume(), gp.kappa(4).to_float() / 2, rel_tol=VOL_REL_TOL)
    tri = gp.Polygon2D([[0, 0], [2, 0], [0, 1]])
    assert math.isclose(tri.volume(), 1.0, rel_tol=VOL_REL_TOL)


def test_half_ball_cone_volume_formula():
    # half ball plus a cone of height eps over the flat disk, tip truncated at delta
    for d, eps, delta in [(2, 0.5, 0.0), (3, 0.1, 0.02), (4, 0.3, 0.1)]:
        cone = gp.HalfBallCone(d, eps, delta)
        kd = gp.kappa(d).to_float()
        kdm1 = gp.kappa(d - 1).to_float()
        want = kd / 2 + kdm1 * (eps / d) * (1.0 - (delta / eps) ** d)
        assert math.isclose(cone.volume(), want, rel_tol=VOL_REL_TOL)
    assert math.isclose(
        gp.HalfBallCone(2, 0.5, 0.0).volume(), math.pi / 2 + 0.5, rel_tol=VOL_REL_TOL
    )


def test_half_ball_cone_volume_against_rejection():
    cone = gp.HalfBallCone(3, 0.1, 0.02)
    est = gp.volume_estimate(cone, 200000, 7)
    assert abs(est.mean - cone.volume()) <= 4 * est.stderr


def test_affine_image_volume_scales_by_det():
    mat = np.array([[1.0, 2.0], [0.0, 3.0]])
    img = gp.affine_image(gp.Ball(np.zeros(2), 1.0), mat, [5.0, 5.0])
    assert math.isclose(img.volume(), 3.0 * math.pi, rel_tol=VOL_REL_TOL)


def test_cut_through_ball_center_has_half_volume():
    cut = gp.intersect_halfspace(gp.Ball(np.zeros(3), 1.5), gp.Halfspace.through([0.0, 1.0, 0.0], 0.0))
    assert math.isclose(cut.volume(), gp.kappa(3).to_float() * 1.5**3 / 2, rel_tol=VOL_REL_TOL)


# ---------------------------------------------------------------------------
# bounding boxes


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.Ball(np.array([1.0, -2.0]), 0.5),
        lambda: gp.half_ball(3),
        lambda: gp.HalfBallCone(3, 0.25, 0.1),
        lambda: gp.Polygon2D([[0, 0], [3, 1], [1, 4]]),
        lambda: gp.affine_image(gp.unit_cube(2), np.array([[1.0, 1.0], [0.0, 1.0]]), [0.0, 0.0]),
        lambda: gp.intersect_halfspace(gp.Ball(np.zeros(3), 1.0), gp.Halfspace.through([1, 1, 1], 0.2)),
    ],
)
def test_bounding_box_contains_all_samples(make):
    body = make()
    box = gp.bounding_box(body)
    pts = gp.sample_body(gp.SampleStream(11, 0), body, 2000)
    assert np.all(pts >= box.lo - 1e-9)
    assert np.all(pts <= box.hi + 1e-9)


def test_intersect_halfspace_tightens_axis_cut():
    cube = gp.unit_cube(3)
    cut = gp.intersect_halfspace(cube, gp.Halfspace.through([1.0, 0.0, 0.0], 0.75))
    box = gp.bounding_box(cut)
    assert math.isclose(box.lo[0], 0.75, rel_tol=VOL_REL_TOL)
    assert math.isclose(box.volume(), 0.25, rel_tol=VOL_REL_TOL)


def _inside_reference(pts, normals, offsets):
    """The membership formula before the (k, m) layout, kept as the bit reference."""
    return np.all(pts @ normals.T >= offsets - MEMBERSHIP_ATOL, axis=-1)


def _boundary_points(body, seed):
    """Points of the body moved onto <n_i, x> = t_i - MEMBERSHIP_ATOL for each row i,
    and one and two ulps to either side, so that the last bit of each projection decides."""
    normals, offsets = body.normals, body.offsets
    base = gp.sample_body(gp.SampleStream(seed), body, 64)
    pts = []
    for n, t in zip(normals, offsets):
        on = base + (t - MEMBERSHIP_ATOL - base @ n)[:, None] * n
        for step in (-2, -1, 0, 1, 2):
            pts.append(on + step * np.spacing(np.abs(on)) * n)
    return np.vstack(pts)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.simplex_with_hull_point()[0],
        lambda: gp.unit_cube(3),
        lambda: gp.isotropic_simplex(4),
        lambda: gp.half_disk_polygon(12),
    ],
)
def test_inside_matches_the_reference_formula_bit_for_bit(make):
    body = make()
    normals, offsets = body.normals, body.offsets
    d = body.dim
    box = gp.bounding_box(body)
    around = box.lo + (box.hi - box.lo) * (np.random.default_rng(7).random((MEMBERSHIP_N, d)) * 1.2 - 0.1)
    # the cube's rows are axis aligned, so its boundary points sit exactly at t_i - ATOL
    for pts in (around, _boundary_points(body, 8)):
        expected = _inside_reference(pts, normals, offsets)
        assert np.array_equal(_inside(pts, normals, offsets), expected)
        assert 0 < expected.sum() < len(pts)
        grid = pts[: 30 * (len(pts) // 30)].reshape(6, 5, -1, d)
        got = _inside(grid, normals, offsets)
        assert got.shape == grid.shape[:-1]
        assert np.array_equal(got, _inside_reference(grid, normals, offsets))
        for p in pts[:40]:
            one = _inside(p, normals, offsets)
            assert isinstance(one, np.bool_) and one == _inside_reference(p, normals, offsets)
    empty = _inside(np.empty((0, d)), normals, offsets)
    assert empty.shape == (0,) and empty.dtype == bool


# ---------------------------------------------------------------------------
# polygons


def test_polygon_canonicalization_is_input_order_invariant():
    verts = [[0, 0], [2, 0], [2, 1], [0, 1]]
    a = gp.Polygon2D(verts)
    b = gp.Polygon2D(verts[::-1])  # clockwise input
    c = gp.Polygon2D([[2, 1], [0, 0], [2, 0], [0, 1], [2, 0.5]])  # edge midpoint added
    for other in (b, c):
        assert a.vertices.shape == other.vertices.shape
        roll = np.argmin([np.linalg.norm(v - a.vertices[0]) for v in other.vertices])
        assert np.allclose(np.roll(other.vertices, -roll, axis=0), a.vertices, atol=1e-12)


def test_polygon_box_is_the_vertex_extremes_after_copy_and_json():
    poly = gp.half_disk_polygon(16)
    for body in (poly, copy.deepcopy(poly), gp.body_from_json(poly.to_json())):
        box = body.box()
        assert np.array_equal(box.lo, body.vertices.min(axis=0))
        assert np.array_equal(box.hi, body.vertices.max(axis=0))


def test_polygon_rejects_degenerate_input():
    with pytest.raises(gp.InvalidBodyError):
        gp.Polygon2D([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(gp.InvalidBodyError):
        gp.Polygon2D([[0, 0], [1, 0]])


def test_polygon_membership_half_disk():
    poly = gp.half_disk_polygon(64)
    pts = cloud(5, 2, scale=1.2)
    inside = poly.contains_batch(pts)
    # every accepted point lies in the true half disk
    true_in = (np.linalg.norm(pts, axis=1) <= 1 + 1e-9) & (pts[:, 1] >= -1e-9)
    assert np.all(true_in[inside])
    area = poly.volume()
    assert area < math.pi / 2
    assert math.isclose(area, math.pi / 2, rel_tol=0.01)


# ---------------------------------------------------------------------------
# special constructors


def test_regular_simplex_vertices_geometry():
    for d in (2, 3, 4, 5):
        verts = gp.regular_simplex_vertices(d)
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)
        assert np.allclose(verts.sum(axis=0), 0.0, atol=1e-12)
        gram = verts @ verts.T
        off = gram[~np.eye(d + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / d, atol=1e-12)


def test_isotropic_simplex_covariance():
    sim = gp.isotropic_simplex(3)
    cov = gp.covariance_estimate(sim, 400000, 13)
    assert cov.max_deviation_from_identity() < 0.02
    assert np.allclose(cov.centroid, 0.0, atol=0.02)


def test_half_ball_moments_match_quadrature():
    for d in (2, 3, 4, 5):
        c, var1 = gp.half_ball_moments(d)
        dens = lambda t: (1.0 - t * t) ** ((d - 1) / 2.0)
        mass, _ = quad(dens, 0.0, 1.0)
        mean, _ = quad(lambda t: t * dens(t), 0.0, 1.0)
        second, _ = quad(lambda t: t * t * dens(t), 0.0, 1.0)
        assert math.isclose(c, mean / mass, rel_tol=1e-10)
        assert math.isclose(var1, second / mass - (mean / mass) ** 2, rel_tol=1e-10)
    c3, var3 = gp.half_ball_moments(3)
    assert math.isclose(c3, 3.0 / 8.0, rel_tol=1e-12)
    assert math.isclose(var3, 19.0 / 320.0, rel_tol=1e-12)


def test_isotropic_half_ball_covariance():
    body = gp.isotropic_half_ball(3)
    cov = gp.covariance_estimate(body, 400000, 17)
    assert cov.max_deviation_from_identity() < 0.02
    assert np.allclose(cov.centroid, 0.0, atol=0.02)


def test_simplex_with_hull_point_geometry():
    body, xa = gp.simplex_with_hull_point(1.2)
    verts = gp.regular_simplex_vertices(3, math.sqrt(15.0))
    # pushed point sits outside the base simplex but inside the new body
    base = gp.regular_simplex(3, math.sqrt(15.0))
    assert not gp.contains(base, xa)
    assert gp.contains(body, xa)
    for v in verts:
        assert gp.contains(body, v)
    # slightly beyond the pushed point is outside
    assert not gp.contains(body, xa * 1.01)
    with pytest.raises(gp.InvalidBodyError):
        gp.simplex_with_hull_point(1.0)
    with pytest.raises(gp.InvalidBodyError):
        gp.simplex_with_hull_point(2.0)


def test_make_counterexample_pair_is_nested():
    inner, outer = gp.make_counterexample_pair(3, 0.2, 0.05)
    pts = gp.sample_body(gp.SampleStream(19, 0), inner, 4000)
    assert outer.contains_batch(pts).all()
    assert inner.volume() < outer.volume()
    with pytest.raises(gp.InvalidBodyError):
        gp.make_counterexample_pair(3, 0.1, 0.1)


# ---------------------------------------------------------------------------
# validation and serialization


def test_halfspace_normalizes():
    h = gp.Halfspace.through([3.0, 4.0], 10.0)
    assert math.isclose(np.linalg.norm(h.normal), 1.0, rel_tol=1e-12)
    assert math.isclose(h.offset, 2.0, rel_tol=1e-12)
    assert h.contains_batch(np.array([[2.0, 2.0]]))[0]


def test_affine_image_rejects_singular_matrix():
    with pytest.raises(gp.SingularTransformError):
        gp.affine_image(gp.unit_cube(2), np.array([[1.0, 1.0], [1.0, 1.0]]), [0.0, 0.0])


def test_dimension_cap_enforced():
    with pytest.raises(gp.DimensionError):
        gp.Ball(np.zeros(9), 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.Ball(np.array([0.5, -1.0]), 0.75),
        lambda: gp.unit_cube(3),
        lambda: gp.HalfBallCone(3, 0.25, 0.1),
        lambda: gp.Polygon2D([[0, 0], [3, 1], [1, 4]]),
        lambda: gp.intersect_halfspace(gp.Ball(np.zeros(2), 1.0), gp.Halfspace.through([1, 1], 0.1)),
        lambda: gp.affine_image(gp.half_ball(2), np.array([[2.0, 1.0], [0.0, 1.0]]), [1.0, 0.0]),
    ],
)
def test_json_round_trip_preserves_membership_and_volume(make):
    body = make()
    text = json.dumps(body.to_json())
    back = gp.body_from_json(text)
    pts = cloud(23, body.dim, scale=3.0)
    assert np.array_equal(body.contains_batch(pts), back.contains_batch(pts))
    va, vb = body.volume(), back.volume()
    assert (va is None and vb is None) or math.isclose(va, vb, rel_tol=1e-12)


def test_body_from_json_rejects_malformed():
    with pytest.raises(gp.InvalidBodyError):
        gp.body_from_json({"type": "nosuch"})
    with pytest.raises(gp.InvalidBodyError):
        gp.body_from_json({"type": "ball", "center": [0, 0]})
    with pytest.raises(gp.InvalidBodyError):
        gp.body_from_json({"type": "hpoly", "normals": [[1, 0]], "offsets": [0], "bound": [[0], [1]]})
    with pytest.raises(gp.InvalidBodyError):
        gp.body_from_json([1, 2, 3])


def test_body_from_json_checks_hpoly_bound():
    square = gp.unit_cube(2).to_json()
    assert isinstance(gp.body_from_json(square), gp.HPolytope)
    with pytest.raises(gp.InvalidBodyError, match="bound"):
        gp.body_from_json({**square, "bound": {"lo": [0, 0], "hi": [1, 0.5]}})
    with pytest.raises(gp.InvalidBodyError, match="unbounded"):
        gp.body_from_json({**square, "normals": [[1, 0], [0, 1]], "offsets": [0, 0]})


# ---------------------------------------------------------------------------
# spherical caps and slabs


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("t", [-0.3, 0.0, 0.45, 0.8])
def test_cap_volume_matches_quadrature(d, t):
    e1 = [1.0] + [0.0] * (d - 1)
    cap = gp.intersect_halfspace(gp.Ball(np.zeros(d), 1.0), gp.Halfspace.through(e1, t))
    section = gp.kappa(d - 1).to_float()
    want = quad(lambda u: section * (1.0 - u * u) ** ((d - 1) / 2.0), t, 1.0,
                epsabs=1e-13, epsrel=1e-13)[0]
    assert math.isclose(cap.volume(), want, rel_tol=1e-10)


def test_slab_volume_from_two_parallel_cuts():
    ball = gp.Ball(np.zeros(3), 1.0)
    slab = gp.intersect_halfspace(
        gp.intersect_halfspace(ball, gp.Halfspace.through([1, 0, 0], 0.2)),
        gp.Halfspace.through([-1, 0, 0], -0.6),
    )
    # pi * integral of (1 - u^2) over [0.2, 0.6]
    want = math.pi * ((0.6 - 0.6**3 / 3.0) - (0.2 - 0.2**3 / 3.0))
    assert math.isclose(slab.volume(), want, rel_tol=1e-12)


def test_cap_volume_off_center_ball():
    cap = gp.intersect_halfspace(
        gp.Ball(np.array([2.0, 0.0]), 0.5), gp.Halfspace.through([1, 0], 2.0)
    )
    assert math.isclose(cap.volume(), math.pi * 0.25 / 2.0, rel_tol=1e-12)


def test_non_parallel_cuts_have_no_closed_volume():
    ball = gp.Ball(np.zeros(3), 1.0)
    wedge = gp.intersect_halfspace(
        gp.intersect_halfspace(ball, gp.Halfspace.through([1, 0, 0], 0.0)),
        gp.Halfspace.through([0, 1, 0], 0.0),
    )
    assert wedge.volume() is None


def test_cap_bounding_box_shrinks_transverse_axes():
    cap = gp.intersect_halfspace(
        gp.Ball(np.zeros(4), 1.0), gp.Halfspace.through([1, 0, 0, 0], 0.6)
    )
    box = gp.bounding_box(cap)
    width = math.sqrt(1.0 - 0.6**2)
    assert np.allclose(box.lo, [0.6, -width, -width, -width])
    assert np.allclose(box.hi, [1.0, width, width, width])


# ---------------------------------------------------------------------------
# ball-axis quantiles (the slab sampler's inverse CDF)

# (d, q, s) with _ball_axis_cdf(d, s) = q, from a 40-digit mpmath reference;
# see test_ball_axis_ppf_matches_reference for the snippet that made them.
AXIS_QUANTILES = [
    (1, 1e-16, -0.9999999999999998),
    (1, 1e-08, -0.99999998),
    (1, 0.001, -0.998),
    (1, 0.05, -0.9),
    (1, 0.0999, -0.8002),
    (1, 0.1, -0.8),
    (1, 0.2, -0.6),
    (1, 0.25, -0.5),
    (1, 0.4, -0.19999999999999996),
    (1, 0.499999999, -2.0000000544584395e-09),
    (1, 0.5, 0.0),
    (1, 0.5000000010000001, 2.000000165480742e-09),
    (1, 0.6, 0.19999999999999996),
    (1, 0.75, 0.5),
    (1, 0.8, 0.6000000000000001),
    (1, 0.9, 0.8),
    (1, 0.9001, 0.8002),
    (1, 0.95, 0.8999999999999999),
    (1, 0.999, 0.998),
    (1, 0.99999999, 0.9999999799999999),
    (1, 0.9999999999999999, 0.9999999999999998),
    (2, 1e-16, -0.9999999999697218),
    (2, 1e-08, -0.9999934767447048),
    (2, 0.001, -0.9859262426526358),
    (2, 0.05, -0.8053836365201198),
    (2, 0.0999, -0.687265037673248),
    (2, 0.1, -0.6870488261325406),
    (2, 0.2, -0.4918618327637099),
    (2, 0.25, -0.4039727532995172),
    (2, 0.4, -0.15773619380001577),
    (2, 0.499999999, -1.570796369566455e-09),
    (2, 0.5, 0.0),
    (2, 0.5000000010000001, 1.5707964567631676e-09),
    (2, 0.6, 0.15773619380001577),
    (2, 0.75, 0.4039727532995172),
    (2, 0.8, 0.49186183276371),
    (2, 0.9, 0.6870488261325406),
    (2, 0.9001, 0.687265037673248),
    (2, 0.95, 0.8053836365201197),
    (2, 0.999, 0.9859262426526358),
    (2, 0.99999999, 0.999993476744683),
    (2, 0.9999999999999999, 0.9999999999675359),
    (3, 1e-16, -0.9999999884529946),
    (3, 1e-08, -0.999884527723833),
    (3, 0.001, -0.9632594922823767),
    (3, 0.05, -0.7292992756568324),
    (3, 0.0999, -0.6086115227073415),
    (3, 0.1, -0.6083997886818165),
    (3, 0.2, -0.4257185491665191),
    (3, 0.25, -0.3472963553338607),
    (3, 0.4, -0.13413784570453643),
    (3, 0.499999999, -1.3333333696389598e-09),
    (3, 0.5, 0.0),
    (3, 0.5000000010000001, 1.333333443653828e-09),
    (3, 0.6, 0.13413784570453643),
    (3, 0.75, 0.3472963553338607),
    (3, 0.8, 0.42571854916651913),
    (3, 0.9, 0.6083997886818167),
    (3, 0.9001, 0.6086115227073415),
    (3, 0.95, 0.7292992756568323),
    (3, 0.999, 0.9632594922823767),
    (3, 0.99999999, 0.9998845277235429),
    (3, 0.9999999999999999, 0.9999999878332528),
    (4, 1e-16, -0.9999995953956945),
    (4, 1e-08, -0.9993586573024938),
    (4, 0.001, -0.9349644225320604),
    (4, 0.05, -0.6694394666886839),
    (4, 0.0999, -0.5510654966854867),
    (4, 0.1, -0.5508627951792869),
    (4, 0.2, -0.380328894916035),
    (4, 0.25, -0.3090725125885851),
    (4, 0.4, -0.11864297699089424),
    (4, 0.499999999, -1.1780972771748413e-09),
    (4, 0.5, 0.0),
    (4, 0.5000000010000001, 1.1780973425723756e-09),
    (4, 0.6, 0.11864297699089424),
    (4, 0.75, 0.3090725125885851),
    (4, 0.8, 0.3803288949160351),
    (4, 0.9, 0.5508627951792869),
    (4, 0.9001, 0.5510654966854867),
    (4, 0.95, 0.6694394666886838),
    (4, 0.999, 0.9349644225320604),
    (4, 0.99999999, 0.9993586573012047),
    (4, 0.9999999999999999, 0.9999995781145056),
    (5, 1e-16, -0.9999956911259783),
    (5, 1e-08, -0.997998998898481),
    (5, 0.001, -0.9048962036490846),
    (5, 0.05, -0.6214892451244584),
    (5, 0.0999, -0.5069202455112677),
    (5, 0.1, -0.5067270934230668),
    (5, 0.2, -0.3468041243171779),
    (5, 0.25, -0.2811276704207058),
    (5, 0.4, -0.10749180502705376),
    (5, 0.499999999, -1.0666666957111678e-09),
    (5, 0.5, 0.0),
    (5, 0.5000000010000001, 1.0666667549230624e-09),
    (5, 0.6, 0.10749180502705376),
    (5, 0.75, 0.2811276704207058),
    (5, 0.8, 0.346804124317178),
    (5, 0.9, 0.5067270934230669),
    (5, 0.9001, 0.5069202455112678),
    (5, 0.95, 0.6214892451244582),
    (5, 0.999, 0.9048962036490846),
    (5, 0.99999999, 0.9979989988951278),
    (5, 0.9999999999999999, 0.9999955382980351),
    (6, 1e-16, -0.9999767343560223),
    (6, 1e-08, -0.9955025166996145),
    (6, 0.001, -0.8751448066752818),
    (6, 0.05, -0.5822055965611602),
    (6, 0.0999, -0.4717728312285565),
    (6, 0.1, -0.4715886587309881),
    (6, 0.2, -0.3207710877286558),
    (6, 0.25, -0.259573251756435),
    (6, 0.4, -0.09897928719049677),
    (6, 0.499999999, -9.817477309790343e-10),
    (6, 0.5, 0.0),
    (6, 0.5000000010000001, 9.817477854769796e-10),
    (6, 0.6, 0.09897928719049677),
    (6, 0.75, 0.259573251756435),
    (6, 0.8, 0.3207710877286559),
    (6, 0.9, 0.47158865873098815),
    (6, 0.9001, 0.4717728312285565),
    (6, 0.95, 0.5822055965611601),
    (6, 0.999, 0.8751448066752818),
    (6, 0.99999999, 0.9955025166931497),
    (6, 0.9999999999999999, 0.9999760288143994),
]


def test_ball_axis_ppf_matches_reference():
    """_ball_axis_ppf within 1e-15 of a 40-digit reference, d = 1..6.

    The triples come from this snippet (mpmath, 40 digits, bisection)::

        import mpmath as mp

        mp.mp.dps = 40

        def ref(d, q):  # bisection on w = 1 - |s| over the lower half
            qq = min(mp.mpf(q), 1 - mp.mpf(q))
            if qq == 0.5:
                return mp.mpf(0)
            lo, hi = mp.mpf(0), mp.mpf(1)
            for _ in range(150):
                w = (lo + hi) / 2
                cdf = mp.betainc((d + 1) / mp.mpf(2), 0.5, 0, w * (2 - w), regularized=True) / 2
                lo, hi = (w, hi) if cdf < qq else (lo, w)
            s = (lo + hi) / 2 - 1
            return s if q <= 0.5 else -s

        LOWER = [1e-16, 1e-8, 1e-3, 0.05, 0.0999, 0.1, 0.2, 0.25, 0.4, 0.5 - 1e-9]
        for d in range(1, 7):
            for q in LOWER + [0.5] + [1.0 - q for q in reversed(LOWER)]:
                print(f"    ({d}, {q!r}, {float(ref(d, q))!r}),")
    """
    for d, q, s in AXIS_QUANTILES:
        assert abs(float(_ball_axis_ppf(d, np.array([q]))[0]) - s) <= 1e-15, (d, q)


@pytest.mark.parametrize("d", range(1, DIM_CAP + 1))
def test_ball_axis_ppf_stays_in_the_ball(d):
    tiny = np.array([0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 2**-53])
    q = np.concatenate([tiny, np.linspace(0.0, 1.0, 100001), 1.0 - tiny, 0.5 + np.arange(-50, 51) * 2**-54])
    s = _ball_axis_ppf(d, q)
    assert np.all(np.abs(s) <= 1.0)
    assert np.all(np.where(q <= 0.5, s <= 0.0, s >= 0.0))
    ends = _ball_axis_ppf(d, np.array([0.0, 0.5, 1.0]))
    assert np.all(np.abs(ends - [-1.0, 0.0, 1.0]) <= 1e-15)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    d=st.integers(1, DIM_CAP),
    q=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
)
def test_ball_axis_ppf_is_monotone_and_inverts_the_cdf(d, q):
    q = np.sort(np.array(q))
    s = _ball_axis_ppf(d, q)
    # each value is rounded on its own, so neighbouring quantiles one ulp
    # apart may step back by an ulp, within the 1e-15 accuracy
    assert np.all(np.diff(s) >= -1e-15)
    for qi, si in zip(q, s):
        assert abs(_ball_axis_cdf(d, float(si)) - qi) <= 1e-13
