"""Chord profiles, Steiner symmetrization, and Blaschke shaking."""

import math
import warnings

import numpy as np
import pytest

import geomprob as gp

AREA_REL_TOL = 1e-12
SIGMA = 4.0

DIAMOND = [[1, 0], [0, 1], [-1, 0], [0, -1]]


# ---------------------------------------------------------------------------
# chord profiles


def test_profile_square():
    prof = gp.chord_profile(gp.Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.0)
    assert np.allclose(prof.breakpoints, [0.0, 1.0])
    assert float(np.interp(0.3, prof.breakpoints, prof.alpha)) == 0.0
    assert float(np.interp(0.3, prof.breakpoints, prof.length)) == 1.0
    assert math.isclose(np.trapezoid(prof.length, prof.breakpoints), 1.0, rel_tol=AREA_REL_TOL)


def test_profile_diamond():
    prof = gp.chord_profile(gp.Polygon2D(DIAMOND), 0.0)
    assert np.allclose(prof.breakpoints, [-1.0, 0.0, 1.0])
    assert math.isclose(float(np.interp(0.0, prof.breakpoints, prof.length)), 2.0, rel_tol=AREA_REL_TOL)
    assert math.isclose(float(np.interp(0.5, prof.breakpoints, prof.alpha)), -0.5, rel_tol=AREA_REL_TOL)
    assert math.isclose(np.trapezoid(prof.length, prof.breakpoints), 2.0, rel_tol=AREA_REL_TOL)


def test_profile_respects_angle():
    # rotating the frame by pi/2 swaps the roles of the axes
    tri = gp.Polygon2D([[0, 0], [2, 0], [0, 1]])
    prof = gp.chord_profile(tri, math.pi / 2)
    assert math.isclose(prof.breakpoints[0], 0.0, abs_tol=1e-12)
    assert math.isclose(prof.breakpoints[-1], 1.0, rel_tol=AREA_REL_TOL)
    assert math.isclose(np.trapezoid(prof.length, prof.breakpoints), 1.0, rel_tol=AREA_REL_TOL)


def test_profile_area_matches_polygon_for_random_inputs():
    for i in range(10):
        poly = gp.random_convex_polygon(gp.SampleStream(60, i))
        angle = float(gp.SampleStream(61, i).uniform(1)[0]) * math.pi
        prof = gp.chord_profile(poly, angle)
        assert math.isclose(np.trapezoid(prof.length, prof.breakpoints), poly.area(), rel_tol=1e-10)


# ---------------------------------------------------------------------------
# Steiner symmetrization


def test_steiner_centers_offset_square():
    sq = gp.Polygon2D([[2, 0], [3, 0], [3, 1], [2, 1]])
    out = gp.steiner_symmetrize(sq, math.pi / 2)
    assert math.isclose(out.volume(), 1.0, rel_tol=AREA_REL_TOL)
    assert np.allclose(sorted(out.vertices[:, 0]), [-0.5, -0.5, 0.5, 0.5], atol=1e-12)


def test_steiner_preserves_area_and_symmetrizes():
    for i in range(10):
        poly = gp.random_convex_polygon(gp.SampleStream(62, i))
        out = gp.steiner_symmetrize(poly, math.pi / 2)
        assert math.isclose(out.area(), poly.area(), rel_tol=AREA_REL_TOL)
        # symmetric about the y axis: reflected vertices are also vertices
        reflected = out.vertices * np.array([-1.0, 1.0])
        assert out.contains_batch(reflected * (1 - 1e-9)).all()


def test_steiner_idempotent_on_symmetric_body():
    diamond = gp.Polygon2D(DIAMOND)
    once = gp.steiner_symmetrize(diamond, math.pi / 2)
    twice = gp.steiner_symmetrize(once, math.pi / 2)
    assert np.allclose(once.vertices, twice.vertices, atol=1e-12)


# ---------------------------------------------------------------------------
# Blaschke shaking


def test_shake_diamond_to_triangle():
    out = gp.blaschke_shake(gp.Polygon2D(DIAMOND), -1.0)
    assert np.allclose(out.vertices, [[-1, -1], [1, -1], [0, 1]], atol=1e-12)


def test_shake_preserves_area_and_is_idempotent():
    for i in range(10):
        poly = gp.bottom_pinned_polygon(gp.SampleStream(63, i))
        out = gp.blaschke_shake(poly, 0.0)
        assert math.isclose(out.area(), poly.area(), rel_tol=AREA_REL_TOL)
        again = gp.blaschke_shake(out, 0.0)
        assert np.allclose(out.vertices, again.vertices, atol=1e-12)
        assert out.vertices[:, 1].min() >= -1e-12


def test_shake_requires_supporting_line_below():
    with pytest.raises(gp.InvalidBodyError):
        gp.blaschke_shake(gp.Polygon2D(DIAMOND), 0.5)


def test_shaking_does_not_increase_pinned_moment():
    # for a body symmetric about the vertical line through the pinned point
    worst = math.inf
    for i in range(5):
        poly = gp.symmetric_bottom_polygon(gp.SampleStream(64, i))
        shaken = gp.blaschke_shake(poly, 0.0)
        before = gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, 100000, gp.SampleStream(65, 2 * i))
        after = gp.pinned_moment_estimate(shaken, [0.0, 0.0], 1, 100000, gp.SampleStream(65, 2 * i + 1))
        worst = min(worst, (before.mean - after.mean) / math.hypot(before.stderr, after.stderr))
    assert worst > -SIGMA


# ---------------------------------------------------------------------------
# clipping and generators


def test_clip_polygon_square_cases():
    sq = gp.Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])
    kept = gp.clip_polygon(sq, [1.0, 0.0], 0.25)
    assert math.isclose(kept.area(), 0.75, rel_tol=AREA_REL_TOL)
    assert gp.clip_polygon(sq, [1.0, 0.0], 2.0) is None
    whole = gp.clip_polygon(sq, [1.0, 0.0], -1.0)
    assert math.isclose(whole.area(), 1.0, rel_tol=AREA_REL_TOL)


@pytest.mark.parametrize("normal", [[0.0, 0.0], [math.nan, 1.0], [1.0, math.inf]])
@pytest.mark.parametrize("offset", [-0.1, 0.1])
def test_clip_polygon_rejects_a_zero_or_non_finite_normal(normal, offset):
    sq = gp.Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction must be nonzero and finite"):
            gp.clip_polygon(sq, normal, offset)


def test_nested_polygon_pair_is_nested():
    for i in range(10):
        inner, outer = gp.nested_polygon_pair(gp.SampleStream(66, i))
        assert outer.contains_batch(inner.vertices * (1 - 1e-12)).all()
        assert inner.area() <= outer.area()
        assert inner.area() >= 0.15 * outer.area() - 1e-9


def test_symmetric_bottom_polygon_frame():
    poly = gp.symmetric_bottom_polygon(gp.SampleStream(67, 0))
    v = poly.vertices
    assert v[:, 1].min() >= -1e-12
    assert np.any(np.all(np.abs(v) < 1e-12, axis=1))  # origin is a vertex
    reflected = v * np.array([-1.0, 1.0])
    assert poly.contains_batch(reflected * (1 - 1e-9)).all()


def test_bottom_pinned_polygon_frame():
    poly = gp.bottom_pinned_polygon(gp.SampleStream(68, 0))
    v = poly.vertices
    lows = np.isclose(v[:, 1], 0.0, atol=1e-12)
    assert lows.sum() == 1
    assert np.allclose(v[lows][0], [0.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# the planar pinned-ratio pipeline


def test_plane_pipeline_on_half_disk_polygon():
    rep = gp.plane_bound_pipeline(gp.half_disk_polygon(64), [0.0, 0.0], n=200000, seed=69)
    assert rep.verdict == "pass"
    m = rep.metrics
    assert m["r0"] >= m["r1"] - SIGMA * math.hypot(m["r0_stderr"], m["r1_stderr"])
    assert m["r1"] >= m["r2"] - SIGMA * math.hypot(m["r1_stderr"], m["r2_stderr"])
    assert m["r2"] >= gp.PLANE_PINNED_BOUND - SIGMA * m["r2_stderr"]


def test_plane_bound_constant_value():
    assert math.isclose(gp.PLANE_PINNED_BOUND, 8.0 / (9.0 * math.pi**2), rel_tol=1e-15)
