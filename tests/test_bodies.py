"""Membership, volume, and construction invariants for the body types."""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import geomprob as gp
from geomprob.bodies import (
    DIM_CAP,
    MEMBERSHIP_ATOL,
    VERTEX_TOL,
    _ball_axis_cdf,
    _ball_axis_ppf,
    _canonicalize_polygon,
    _check_bounded,
    _inside,
    _row_norms,
    _tight_points,
    _triangulation,
)

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
    inside = [sim.contains_batch(np.array([p]))[0] for p in (np.zeros(3), verts[0], verts[0] * 1.01)]
    assert inside == [True, True, False]


def test_half_ball_cone_membership_pieces():
    cone = gp.HalfBallCone(3, 0.5, 0.0)
    points = [
        [0.2, 0.3, 0.1],
        cone.apex,
        [-0.25, 0.2, 0.0],  # inside the cone piece
        [-0.25, 0.6, 0.0],  # outside the cone slope
        [-0.51, 0.0, 0.0],
        [0.0, 1.01, 0.0],
    ]
    assert [cone.contains_batch(np.array([p]))[0] for p in points] == [True, True, True, False, False, False]
    truncated = gp.HalfBallCone(3, 0.5, 0.2)
    points = [[-0.35, 0.0, 0.0], [-0.25, 0.0, 0.0]]
    assert [truncated.contains_batch(np.array([p]))[0] for p in points] == [False, True]


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
        lambda: _tilted_half_ball_cut(),
        lambda: gp.AffineImage(_tilted_half_ball_cut(), np.diag([1.5, 0.5, 2.0]), np.array([0.1, 0.0, -0.3])),
        lambda: _three_cut_ball(),
        lambda: gp.Cut(gp.HalfBallCone(3, 0.1), gp.Halfspace.through([0.0, 1.0, 0.0], 0.1)),
        lambda: gp.Cut(gp.HalfBallCone(3, 0.1), gp.Halfspace.through([1.0, 1.0, 0.0], 0.5)),
        lambda: _hull_point_cap(),
        lambda: _tilted_polygon_cut(),
        lambda: _affine_cone(),
        lambda: gp.affine_image(_cut_cone(), [[1.0, 0.4, 0.0], [0.0, 0.8, 0.3], [0.2, 0.0, 1.2]], [0.0, 0.5, -0.1]),
        lambda: gp.Cut(_affine_cone(), gp.Halfspace.through([1.0, 1.0, 0.5], 0.3)),
        lambda: gp.Cut(_cut_cone(), gp.Halfspace.through([-1.0, 0.0, 1.0], -0.4)),
    ],
)
def test_bounding_box_contains_all_samples(make):
    body = make()
    box = gp.bounding_box(body)
    pts = gp.sample_body(gp.SampleStream(11, 0), body, 2000)
    assert np.all(pts >= box.lo - 1e-9)
    assert np.all(pts <= box.hi + 1e-9)


def _affine_cone():
    """A truncated cone mapped by a sheared, anisotropic matrix."""
    m = np.array([[1.3, 0.2, 0.0], [-0.3, 0.9, 0.1], [0.0, 0.4, 0.7]])
    return gp.affine_image(gp.HalfBallCone(3, 0.4, 0.1), m, [0.2, -0.1, 0.0])


def _cut_cone():
    """A cone cut by a tilted plane through its tip region and the half-ball."""
    return gp.Cut(gp.HalfBallCone(3, 0.3), gp.Halfspace.through([1.0, -1.0, 0.0], -0.4))


def _tilted_half_ball_cut():
    """The unit half-ball x >= 0 cut by x + y >= 0.2: its y-extent is [-0.6, 1]."""
    return gp.Cut(gp.half_ball(3), gp.Halfspace.through([1.0, 1.0, 0.0], 0.2))


def _three_cut_ball():
    """A ball of radius 1.5 about (0.2, -0.1, 0.3) under three cuts whose normals are not parallel."""
    body = gp.Ball(np.array([0.2, -0.1, 0.3]), 1.5)
    for normal, offset in (([1.0, 0.0, 0.0], 0.1), ([1.0, 2.0, 0.0], -0.5), ([0.0, -1.0, 1.0], -0.8)):
        body = gp.Cut(body, gp.Halfspace.through(normal, offset))
    return body


def _hull_point_cap():
    """The counterexample's K_t: the hull-point simplex under an affine map, cut 0.1 past its hull vertex.

    The cut direction is the sum of the mapped inward normals of the three
    faces at the hull vertex, as ``detcov_counterexample`` takes it.
    """
    body, xa = gp.simplex_with_hull_point(1.2)
    m, shift = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, -0.2], [0.1, 0.0, 1.1]]), np.array([0.1, -0.2, 0.05])
    image = gp.affine_image(body, m, shift)
    normals = body.normals[-3:] @ image.inverse
    v = (normals / np.linalg.norm(normals, axis=1, keepdims=True)).sum(axis=0)
    v /= np.linalg.norm(v)
    return gp.intersect_halfspace(image, gp.Halfspace(v, float(v @ (m @ xa + shift)) + 0.1))


def _tilted_polygon_cut():
    """The 12-gon half disk cut by x + 2y >= 0.3, kept as a Cut rather than folded into a polygon."""
    return gp.Cut(gp.half_disk_polygon(12), gp.Halfspace.through([1.0, 2.0], 0.3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.Ball(np.array([1.0, -2.0, 0.0]), 0.5),
        lambda: gp.HalfBallCone(3, 0.25, 0.1),
        lambda: gp.HalfBallCone(4, 0.3),
        lambda: gp.half_ball(4),
        lambda: gp.intersect_halfspace(gp.Ball(np.zeros(4), 1.0), gp.Halfspace.through([1, 0, 0, 0], 0.6)),
        lambda: _tilted_half_ball_cut(),
        lambda: _three_cut_ball(),
        lambda: gp.unit_cube(3),
        lambda: gp.isotropic_simplex(3),
        lambda: gp.half_disk_polygon(64),
        lambda: gp.Cut(gp.isotropic_simplex(3), gp.Halfspace.through([1.0, -0.5, 0.25], 0.2)),
        lambda: _tilted_polygon_cut(),
        lambda: _hull_point_cap(),
        lambda: gp.isotropic_half_ball(3),
        lambda: gp.affine_image(
            gp.Polygon2D([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]]), [[2.0, 0.5], [0.0, 1.0]], [0.5, 0.0]
        ),
        lambda: gp.isotropic_transform(gp.simplex_with_hull_point()[0], 64 * 100, seed=3),
    ],
)
def test_box_is_the_support_extent(make):
    body = make()
    box = body.box()
    for j, e in enumerate(np.eye(body.dim)):
        lo, hi = body.support(e)
        assert (box.lo[j], box.hi[j]) == (lo + 0.0, hi + 0.0)


def test_box_is_formed_once(monkeypatch):
    body = _three_cut_ball()
    first = body.box()
    calls = []
    support = gp.Ball.support

    def counted(self, v, cuts=()):
        calls.append(v)
        return support(self, v, cuts)

    monkeypatch.setattr(gp.Ball, "support", counted)
    assert body.box() is first
    assert calls == []


def test_cut_cone_box_is_the_cone_box_cut():
    cone = gp.HalfBallCone(3, 0.1)
    whole = cone.box()
    # an axis cut moves one end of the cone's box to the cut and keeps every other bit
    for normal, offset, side, j in (([1.0, 0.0, 0.0], -0.05, 0, 0), ([0.0, -1.0, 0.0], -0.3, 1, 1)):
        box = gp.Cut(cone, gp.Halfspace.through(normal, offset)).box()
        ends = [whole.lo.copy(), whole.hi.copy()]
        ends[side][j] = offset / normal[j]
        assert box.lo.tolist() == ends[0].tolist() and box.hi.tolist() == ends[1].tolist()
    # a tilted cut shrinks the box inside the cone's box
    box = gp.Cut(cone, gp.Halfspace.through([1.0, 1.0, 0.0], 0.5)).box()
    assert np.all(box.lo >= whole.lo) and np.all(box.hi <= whole.hi)
    assert np.any(box.lo > whole.lo) or np.any(box.hi < whole.hi)


@pytest.mark.parametrize(
    "base", [lambda: gp.unit_cube(2), lambda: gp.half_disk_polygon(12)], ids=["hpoly", "polygon"]
)
def test_empty_polytope_cut_box_raises(base):
    shaved = gp.Cut(base(), gp.Halfspace.through([1.0, 0.0], 2.0))
    with pytest.raises(gp.DegenerateBodyError, match="the halfspaces have an empty intersection"):
        shaved.box()


def test_tilted_half_ball_cut_box_is_exact():
    # the z-ends lie over (0.1, 0.1), the point of the cut line nearest the axis, at height sqrt(0.98)
    box, z = _tilted_half_ball_cut().box(), math.sqrt(0.98)
    assert abs(box.lo[1] - -0.6) <= 1e-12
    # the x-extent starts at a feasible point within rounding of 0
    assert 0.0 <= box.lo[0] <= 1e-15
    assert np.allclose(box.lo[2:], [-z], rtol=0.0, atol=1e-12)
    assert np.allclose(box.hi, [1.0, 1.0, z], rtol=0.0, atol=1e-12)


def test_empty_ball_cut_box_raises():
    shaved = gp.intersect_halfspace(gp.Ball(np.zeros(2), 1.0), gp.Halfspace.through([1.0, 0.0], 2.0))
    with pytest.raises(gp.DegenerateBodyError, match="the cut ball is empty"):
        shaved.box()


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


def _bits_equal(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _ulp_shell(on: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The points ``on`` and one and two ulps to either side along ``direction``."""
    return np.vstack([on + step * np.spacing(np.abs(on)) * direction for step in (-2, -1, 0, 1, 2)])


def _assert_masks_match(contains, reference, pts, d):
    """The mask of (m, d) points, of a (6, 5, k, d) grid of them and of single
    points equals the reference, and the points fall on both sides."""
    expected = reference(pts)
    assert _bits_equal(contains(pts), expected)
    assert 0 < expected.sum() < len(pts)
    grid = pts[: 30 * (len(pts) // 30)].reshape(6, 5, -1, d)
    assert _bits_equal(contains(grid), reference(grid))
    for p in pts[:: max(1, len(pts) // 40)]:
        assert contains(p) == reference(p)


@pytest.mark.parametrize("d", range(1, DIM_CAP + 1))
def test_ball_membership_is_the_broadcast_formula_bit_for_bit(d):
    # (m, d) points subtract the center column by column, other ranks broadcast
    rng = np.random.default_rng(50 + d)
    ball = gp.Ball(rng.normal(size=d), 1.7)
    u = rng.normal(size=(64, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    on = ball.center + (ball.radius + MEMBERSHIP_ATOL) * u
    pts = np.vstack([_ulp_shell(on, u), cloud(51, d, scale=2.0) + ball.center])

    def reference(x):
        return np.linalg.norm(x - ball.center, axis=-1) <= ball.radius + MEMBERSHIP_ATOL

    _assert_masks_match(ball.contains_batch, reference, pts, d)


def _left_to_right_norms(pts):
    acc = pts[..., 0] * pts[..., 0]
    for j in range(1, pts.shape[-1]):
        acc = acc + pts[..., j] * pts[..., j]
    return np.sqrt(acc)


@pytest.mark.parametrize("d", [*range(1, DIM_CAP + 1), 9, 16, 19])
def test_row_norms_are_numpys_norm_bit_for_bit(d):
    # rows of magnitudes 1e-150..1e150, zero rows and zero entries, at every rank;
    # past DIM_CAP, whole blocks of 8 and a remainder after them
    rng = np.random.default_rng(60 + d)
    pts = rng.normal(size=(4096, d)) * 10.0 ** rng.integers(-150, 151, size=(4096, 1))
    pts[::97] = 0.0
    pts[1::13, rng.integers(d)] = 0.0
    for x in (pts, pts[0], pts[1], pts[:0], pts[:4080].reshape(16, 255, d), pts[:5, :].reshape(1, 5, d)):
        got, want = _row_norms(x), np.linalg.norm(x, axis=-1)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    if d == 8:
        # numpy joins 8 squares as a pairwise tree, which a left-to-right sum misses
        assert np.count_nonzero(_left_to_right_norms(pts) != np.linalg.norm(pts, axis=-1)) > 100


@pytest.mark.parametrize("d", range(2, DIM_CAP + 1))
def test_half_ball_cone_membership_is_the_broadcast_formula_bit_for_bit(d):
    # points an ulp or two about the sphere and about the cone's mantle
    body = gp.HalfBallCone(d, 0.4, 0.1)
    rng = np.random.default_rng(70 + d)
    u = rng.normal(size=(64, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u[:, 0] = np.abs(u[:, 0])
    sphere = (1.0 + MEMBERSHIP_ATOL) * u
    x1 = -rng.uniform(0.0, 0.3, size=(64, 1))
    w = u[:, 1:] / np.linalg.norm(u[:, 1:], axis=1, keepdims=True)
    mantle = np.hstack([x1, ((x1 + body.eps) / body.eps + MEMBERSHIP_ATOL) * w])
    pts = np.vstack([_ulp_shell(sphere, u), _ulp_shell(mantle, np.hstack([np.zeros((64, 1)), w])), cloud(71, d, scale=1.2)])

    def reference(x):
        x1 = x[..., 0]
        in_half = (x1 >= -MEMBERSHIP_ATOL) & (np.linalg.norm(x, axis=-1) <= 1.0 + MEMBERSHIP_ATOL)
        radial = np.linalg.norm(x[..., 1:], axis=-1)
        in_cone = (
            (x1 >= -body.eps + body.delta - MEMBERSHIP_ATOL)
            & (x1 <= MEMBERSHIP_ATOL)
            & (radial <= (x1 + body.eps) / body.eps + MEMBERSHIP_ATOL)
        )
        return in_half | in_cone

    _assert_masks_match(body.contains_batch, reference, pts, d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.half_disk_polygon(12),
        lambda: gp.isotropic_simplex(3),
        lambda: gp.unit_cube(4),
        lambda: gp.isotropic_simplex(5),
        lambda: gp.unit_cube(8),
    ],
)
def test_affine_membership_is_the_broadcast_formula_bit_for_bit(make):
    # the base's boundary points, mapped: the last bits of (y - shift) M^-T decide
    base = make()
    d = base.dim
    rng = np.random.default_rng(52 + d)
    matrix = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    body = gp.AffineImage(base, matrix, rng.normal(size=d))
    direction = rng.normal(size=d)
    on = _boundary_points(base, 9) @ matrix.T + body.shift
    pts = np.vstack([_ulp_shell(on, direction / np.linalg.norm(direction)), on])

    def reference(x):
        return base.contains_batch((x - body.shift) @ body.inverse.T)

    _assert_masks_match(body.contains_batch, reference, pts, d)



@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.Ball(np.zeros(3), 1.0),
        lambda: gp.Ball(np.zeros(4), 1.0),
        lambda: gp.isotropic_half_ball(3),
        lambda: gp.AffineImage(gp.unit_cube(4), 2.0 * np.eye(4), np.ones(4)),
    ],
)
def test_membership_of_points_of_the_wrong_width_raises(make):
    # widths that do not broadcast against the body's (a width of 1 would)
    body = make()
    for width in (body.dim - 1, body.dim + 1):
        with pytest.raises(ValueError):
            body.contains_batch(np.zeros((5, width)))


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


def _greedy_dedupe(v):
    """The reference dedupe: in input order, keep each vertex farther than VERTEX_TOL from all kept before it."""
    keep = []
    for p in v:
        if all(np.linalg.norm(p - q) > VERTEX_TOL for q in keep):
            keep.append(p)
    return np.array(keep)


def _canonical_or_error(v):
    try:
        return _canonicalize_polygon(v)
    except gp.InvalidBodyError as err:
        return str(err)


def test_polygon_dedupe_matches_the_greedy_loop():
    """Hulls with near copies of their vertices, some in chains whose steps straddle VERTEX_TOL,
    shuffled: the polygon is the one built from the loop's survivors."""
    rng = np.random.default_rng(41)
    for _ in range(300):
        k = int(rng.integers(3, 17))
        hull = np.stack([np.cos(a := np.sort(rng.uniform(0, 2 * math.pi, k))), np.sin(a)], axis=1)
        base = hull[rng.integers(0, k, int(rng.integers(1, 2 * k)))]
        steps = rng.normal(size=base.shape)
        steps *= rng.uniform(0.3, 1.7, (len(base), 1)) * VERTEX_TOL / np.linalg.norm(steps, axis=1, keepdims=True)
        v = np.vstack([hull, base + steps, base + 2 * steps])
        v = v[rng.permutation(len(v))]
        expected = _canonical_or_error(_greedy_dedupe(v))
        got = _canonical_or_error(v)
        assert type(got) is type(expected)
        assert got == expected if isinstance(got, str) else np.array_equal(got, expected)


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
    assert not base.contains_batch(xa[None])[0]
    assert body.contains_batch(xa[None])[0]
    for v in verts:
        assert body.contains_batch(v[None])[0]
    # slightly beyond the pushed point is outside
    assert not body.contains_batch(xa[None] * 1.01)[0]
    with pytest.raises(gp.InvalidBodyError):
        gp.simplex_with_hull_point(1.0)
    with pytest.raises(gp.InvalidBodyError):
        gp.simplex_with_hull_point(2.0)


# ---------------------------------------------------------------------------
# triangulation and exact moments


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cube_triangulation_has_d_factorial_simplices(d):
    cube = gp.unit_cube(d)
    assert len(_triangulation(cube.vertices, cube.normals, cube.offsets)) == math.factorial(d)
    vol, centroid, cov = cube.moments()
    assert abs(vol - 1.0) <= 1e-14
    assert np.abs(centroid - 0.5).max() <= 1e-14
    assert np.abs(cov - np.eye(d) / 12.0).max() <= 1e-14


def test_isotropic_simplex_moments_are_isotropic():
    vol, centroid, cov = gp.isotropic_simplex(3).moments()
    edge = math.sqrt(15.0 * 8.0 / 3.0)
    assert math.isclose(vol, edge**3 / (6.0 * math.sqrt(2.0)), rel_tol=1e-14)
    assert np.abs(centroid).max() <= 1e-14
    assert np.abs(cov - np.eye(3)).max() <= 1e-14


def _assert_moments_match_the_hull(pts):
    """The polytope of qhull's rows for conv(pts) has qhull's volume, and the centroid of its Delaunay simplices."""
    from scipy.spatial import ConvexHull, Delaunay

    hull = ConvexHull(pts)
    # qhull's facets are {x : <a, x> + b <= 0}; a facet that is not a simplex has one copy of its row per piece
    vol, centroid, _ = gp.HPolytope(-hull.equations[:, :-1], hull.equations[:, -1]).moments()
    assert abs(vol - hull.volume) <= 1e-12 * hull.volume
    corners = pts[hull.vertices]
    simplices = corners[Delaunay(corners).simplices]
    weights = np.abs(np.linalg.det(simplices[:, 1:] - simplices[:, :1]))
    expected = weights @ simplices.mean(axis=1) / weights.sum()
    assert np.abs(centroid - expected).max() <= 1e-12 * np.abs(corners).max()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 4), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_hpolytope_moments_match_the_hull(d, extra, seed):
    _assert_moments_match_the_hull(np.random.default_rng(seed).normal(size=(d + 1 + extra, d)))


@pytest.mark.parametrize("corners", [[0, 8, 4, 12, 6, 1, 13, 11, 15], [0, 1, 2, 4, 8, 15], [0, 3, 5, 6, 9, 10, 12, 15]])
def test_zero_one_polytope_moments_match_the_hull(corners):
    # hulls of 4-cube vertices (bit b of an index is coordinate b) are neither simple nor
    # simplicial, so a face's facets meet in edges that lie in several more facets
    _assert_moments_match_the_hull(np.array([[(i >> b) & 1 for b in range(4)] for i in corners], dtype=float))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gp.simplex_with_hull_point(1.2)[0],
        lambda: gp.intersect_halfspace(gp.unit_cube(4), gp.Halfspace.through([1.0, 2.0, -1.0, 0.5], 0.4)),
    ],
)
def test_a_repeated_row_leaves_the_moments_bit_for_bit(make):
    body = make()
    normals, offsets = body.normals, body.offsets
    once = gp.HPolytope(normals, offsets)
    twice = gp.HPolytope(np.vstack([normals, normals[2]]), np.append(offsets, offsets[2]))
    for a, b in zip(once.moments(), twice.moments()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_hull_point_covariance_estimate_is_within_four_sigma_of_the_exact_one():
    body, _ = gp.simplex_with_hull_point(1.2)
    _, centroid, cov = body.moments()
    est = gp.covariance_estimate(body, 256_000, seed=31)
    assert np.abs(est.matrix - cov).max() <= 4.0 * est.stderr_scale
    assert np.abs(est.centroid - centroid).max() <= 0.02


def test_a_flat_polytope_has_no_moments():
    segment = gp.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, -1])
    with pytest.raises(gp.DegenerateBodyError, match="flat"):
        segment.moments()


def test_bodies_without_closed_moments_return_none():
    assert gp.Ball(np.zeros(3), 1.0).moments() is None
    assert gp.affine_image(gp.unit_cube(2), np.eye(2), [1.0, 0.0]).moments() is None


def test_truncated_cone_is_nested_in_the_full_cone():
    inner, outer = gp.HalfBallCone(3, 0.2, 0.05), gp.HalfBallCone(3, 0.2, 0.0)
    pts = gp.sample_body(gp.SampleStream(19, 0), inner, 4000)
    assert outer.contains_batch(pts).all()
    assert inner.volume() < outer.volume()
    with pytest.raises(gp.InvalidBodyError):
        gp.HalfBallCone(3, 0.1, 0.1)


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


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_halfspace_rejects_a_non_finite_offset(offset):
    with pytest.raises(gp.InvalidBodyError, match="finite"):
        gp.Halfspace(np.array([1.0, 0.0]), offset)
    with pytest.raises(gp.InvalidBodyError, match="finite"):
        gp.Halfspace.through([3.0, 4.0], offset)
    # json writes NaN and Infinity and reads them back as floats
    cut = {"type": "cut", "base": {"type": "ball", "center": [0, 0], "radius": 1}, "normal": [1, 0], "offset": offset}
    with pytest.raises(gp.InvalidBodyError, match="finite"):
        gp.body_from_json(json.dumps(cut))


def test_affine_image_judges_singularity_by_scale():
    ball = gp.Ball(np.zeros(3), 1.0)
    # det 1.25e-13, but as well conditioned as the identity
    small = gp.AffineImage(ball, 5e-5 * np.eye(3), np.zeros(3))
    assert math.isclose(small.volume(), ball.volume() * 5e-5**3, rel_tol=1e-12)
    with pytest.raises(gp.SingularTransformError):
        gp.AffineImage(ball, np.diag([1.0, 1.0, 1e-13]), np.zeros(3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 4), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_hpolytope_vertices_are_the_hull_points(d, extra, seed):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(d + 1 + extra, d))
    hull = ConvexHull(pts)
    # qhull's facets are {x : <a, x> + b <= 0}
    poly = gp.HPolytope(-hull.equations[:, :-1], hull.equations[:, -1])
    corners = pts[hull.vertices]
    gap = np.linalg.norm(poly.vertices[:, None, :] - corners[None, :, :], axis=-1)
    assert gap.min(axis=1).max() <= 1e-12
    assert gap.min(axis=0).max() <= 1e-12
    assert np.abs(poly.box().lo - corners.min(axis=0)).max() <= 1e-12
    assert np.abs(poly.box().hi - corners.max(axis=0)).max() <= 1e-12
    for v in rng.normal(size=(8, d)):
        proj = corners @ (v / np.linalg.norm(v))
        lo, hi = poly.support(v)
        assert abs(lo - proj.min()) <= 1e-12 and abs(hi - proj.max()) <= 1e-12


def test_box_body_bound_and_volume_are_its_corners():
    lo, hi = [-1.0, 0.3, 2.0], [2.5, 0.7, 2.1]
    box = gp.box_body(lo, hi)
    assert box.box().lo.tolist() == lo and box.box().hi.tolist() == hi
    assert box.volume() == float(np.prod(np.array(hi) - np.array(lo)))
    assert len(box.vertices) == 8


@pytest.mark.parametrize(
    "normals, offsets",
    [
        ([[1, 0], [0, 1]], [0, 0]),  # a quadrant
        ([[1, 0], [-1, 0]], [0, -1]),  # a strip: the rows do not span the plane
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0]], [0, 0, 0, -1]),  # a prism open along e3
    ],
)
def test_unbounded_hpolytope_raises(normals, offsets):
    with pytest.raises(gp.InvalidBodyError, match="unbounded"):
        gp.HPolytope(normals, offsets)


def _bounded_by_all_subsets(normals) -> bool:
    """The boundedness verdict from every d-row subset of the rows and the c/|c| row."""
    m, d = normals.shape
    c = normals.sum(axis=0)
    norm = float(np.linalg.norm(c))
    return not (
        np.linalg.matrix_rank(normals) < d
        or (norm > 0 and len(_tight_points(np.vstack([normals, c / norm]), np.append(np.zeros(m), 1.0))))
    )


def _bounded(normals) -> bool:
    try:
        _check_bounded(normals)
    except gp.InvalidBodyError as err:
        assert "unbounded" in str(err)
        return False
    return True


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_boundedness_check_gives_the_verdicts_of_all_subsets(d):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(80 + d)
    cases = []
    for k in range(3):
        hull = ConvexHull(rng.normal(size=(d + 2 + k, d)))
        rows = -hull.equations[:, :-1]
        cases.append((rows, True))
        # dropping the rows facing one way opens the hull
        cases.append((rows[rows @ rng.normal(size=d) <= 0], False))
    eye = np.eye(d)
    cases += [(eye, False), (np.vstack([eye, -eye]), True), (np.vstack([eye, -np.ones(d) / math.sqrt(d)]), True)]
    cases += [(np.vstack([eye, -eye[:-1]]), False), (np.vstack([eye[:-1], -eye[:-1]]), False)]
    for rows, bounded in cases:
        if not bounded:
            assert not _bounded_by_all_subsets(rows)
        assert _bounded(rows) == _bounded_by_all_subsets(rows)


def test_empty_hpolytope_raises():
    with pytest.raises(gp.DegenerateBodyError, match="empty"):
        gp.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 0, -1])
    with pytest.raises(gp.DegenerateBodyError, match="empty"):
        gp.intersect_halfspace(gp.unit_cube(3), gp.Halfspace.through([1, 1, 1], 3.5))


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
    # a cone's dimension is taken as given, not truncated or parsed
    for d in (3.7, "4"):
        with pytest.raises(gp.DimensionError, match="must be an integer"):
            gp.body_from_json({"type": "halfballcone", "d": d, "eps": 0.1})


def test_body_from_json_checks_hpoly_bound():
    square = gp.unit_cube(2).to_json()
    assert isinstance(gp.body_from_json(square), gp.HPolytope)
    with pytest.raises(gp.InvalidBodyError, match="unbounded"):
        gp.body_from_json({**square, "normals": [[1, 0], [0, 1]], "offsets": [0, 0]})


def test_body_from_json_ignores_an_old_hpoly_bound():
    square = gp.unit_cube(2).to_json()
    assert "bound" not in square
    # older files stored a box; one that would truncate the square no longer matters
    old = gp.body_from_json({**square, "bound": {"lo": [0, 0], "hi": [1, 0.5]}})
    assert old.box().hi.tolist() == [1.0, 1.0] and old.volume() == 1.0


_SQUARE_JSON = gp.unit_cube(2).to_json()
# each would load if strings and booleans were coerced to numbers
NON_NUMERIC_BODIES = {
    "ball": {"type": "ball", "center": ["0", "1e0"], "radius": True},
    "ball_radius": {"type": "ball", "center": [0.0, 1.0], "radius": True},
    "cone": {"type": "halfballcone", "d": 3, "eps": "0.5", "delta": "0.1"},
    "polygon": {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, True]]},
    "cut": {"type": "cut", "base": {"type": "ball", "center": [0, 0], "radius": 1}, "normal": [1, 0], "offset": "0"},
    "hpoly": {**_SQUARE_JSON, "offsets": [0, 0, -1, True]},
    "affine": {"type": "affine", "base": _SQUARE_JSON, "matrix": [[1, 0], [0, False]], "shift": [0, 0]},
}


@pytest.mark.parametrize("name", list(NON_NUMERIC_BODIES))
def test_body_from_json_rejects_strings_and_booleans(name):
    with pytest.raises(gp.InvalidBodyError, match="expected a number"):
        gp.body_from_json(NON_NUMERIC_BODIES[name])
    with pytest.raises(gp.InvalidBodyError, match="expected a number"):
        gp.body_from_json(json.dumps(NON_NUMERIC_BODIES[name]))


def test_body_from_json_rejects_an_integer_too_large_for_a_float():
    big = 10**400
    for data in ({"type": "ball", "center": [0, 0], "radius": big}, {"type": "ball", "center": [0, big], "radius": 1}):
        with pytest.raises(gp.InvalidBodyError, match="too large"):
            gp.body_from_json(json.dumps(data))


def test_body_from_json_reads_numbers_as_before():
    # ints, floats and numpy arrays load as np.asarray(..., dtype=float) and float() read them
    ball = gp.body_from_json({"type": "ball", "center": np.array([0, 1]), "radius": 2})
    assert ball.center.tolist() == [0.0, 1.0] and ball.radius == 2.0
    cut = gp.body_from_json({"type": "cut", "base": ball.to_json(), "normal": [3, 4], "offset": 0.1})
    assert cut.halfspace.normal.tolist() == [0.6, 0.8] and cut.halfspace.offset == 0.1 / 5.0
    with pytest.raises(gp.InvalidBodyError, match="expected a number"):
        gp.body_from_json({"type": "ball", "center": [0.0, 1.0], "radius": [1.0]})


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


@pytest.mark.parametrize(
    "t, want", [(0.999, 3.751032488065385769324017e-13), (0.9999, 1.187710479746582935028972e-17)]
)
def test_thin_cap_volume_keeps_relative_precision(t, want):
    """Thin caps x_1 >= t of the unit 8-ball against 40-digit mpmath values:

        from mpmath import mp, mpf, pi, gamma, quad
        mp.dps = 40
        pi**3.5 / gamma(4.5) * quad(lambda u: (1 - u * u) ** 3.5, [mpf(t), 1])

    (kappa_7 times the integral of the section profile; mpf(t) is the double t).
    """
    e1 = [1.0] + [0.0] * 7
    cap = gp.intersect_halfspace(gp.Ball(np.zeros(8), 1.0), gp.Halfspace.through(e1, t))
    assert math.isclose(cap.volume(), want, rel_tol=1e-12)


def test_thin_slab_at_the_bottom_keeps_relative_precision():
    # s in [-1, -0.9999]: the mirror image of the cap x_1 >= 0.9999 above
    e1 = np.array([1.0] + [0.0] * 7)
    low = gp.Cut(gp.Ball(np.zeros(8), 1.0), gp.Halfspace.through(-e1, 0.9999))
    slab = gp.Cut(low, gp.Halfspace.through(e1, -1.5))
    assert math.isclose(slab.volume(), 1.187710479746582935028972e-17, rel_tol=1e-14)


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
