"""Stream reproducibility and uniformity of the body samplers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import geomprob as gp
from geomprob.sampling import REJECTION_BATCH, _reject, _rejection_sample

N_MOMENT = 200000
SIGMA = 4.0


def test_mixer_matches_published_reference():
    # first three outputs of the canonical splitmix64 sequence seeded at 0
    golden = 0x9E3779B97F4A7C15
    assert gp.splitmix64(1 * golden & (2**64 - 1)) == 0xE220A8397B1DCDAF
    assert gp.splitmix64(2 * golden & (2**64 - 1)) == 0x6E789E6AA1B965F4
    assert gp.splitmix64(3 * golden & (2**64 - 1)) == 0x06C45D188009454F
    assert gp.stream_key(0, 0) == 0xE220A8397B1DCDAF


def test_stream_key_rejects_negative_index():
    with pytest.raises(ValueError):
        gp.stream_key(1, -1)


def test_stream_replay_is_bitwise():
    a = gp.SampleStream(42, 7).uniform(1000)
    b = gp.SampleStream(42, 7).uniform(1000)
    assert np.array_equal(a, b)


def test_uniform_is_the_generator_integer_stream():
    # one raw Philox word per uniform: the same integers, and the same stream
    # position after each draw, as Generator.integers(0, 2**53)
    stream = gp.SampleStream(42, 7)
    gen = np.random.Generator(np.random.Philox(key=gp.stream_key(42, 7)))
    for size in (7, (5, 3), 0, (), None, 4):
        raw = gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
        expected = (raw.astype(np.float64) + 0.5) * 2.0**-53
        got = stream.uniform(size)
        # size None or () gives a numpy float, as the Generator form did
        assert type(got) is type(expected)
        assert np.array_equal(got, expected)


def test_substreams_do_not_depend_on_draw_order():
    parent = gp.SampleStream(3, 0)
    child_first = parent.substream(5).uniform(100)
    parent.uniform(10_000)  # consume parent state
    child_second = parent.substream(5).uniform(100)
    assert np.array_equal(child_first, child_second)


def test_distinct_streams_differ():
    a = gp.SampleStream(1, 0).uniform(64)
    b = gp.SampleStream(1, 1).uniform(64)
    c = gp.SampleStream(2, 0).uniform(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_range_and_moments():
    u = gp.SampleStream(9, 0).uniform(N_MOMENT)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) <= SIGMA * math.sqrt(1 / 12 / N_MOMENT)
    assert abs(u.var() - 1 / 12) <= SIGMA * math.sqrt(1 / 180 / N_MOMENT)


def test_normal_moments():
    g = gp.SampleStream(10, 0).normal(N_MOMENT)
    assert abs(g.mean()) <= SIGMA / math.sqrt(N_MOMENT)
    assert abs(g.var() - 1.0) <= SIGMA * math.sqrt(2.0 / N_MOMENT)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_sample_ball_uniformity(d):
    pts = gp.sample_ball(gp.SampleStream(11, d), N_MOMENT, d)
    r2 = (pts**2).sum(axis=1)
    assert np.all(r2 <= 1.0 + 1e-12)
    want = d / (d + 2.0)
    assert abs(r2.mean() - want) <= SIGMA * r2.std() / math.sqrt(N_MOMENT)
    assert np.all(np.abs(pts.mean(axis=0)) <= SIGMA / math.sqrt(N_MOMENT))


def test_sample_ball_respects_center_and_radius():
    pts = gp.sample_ball(gp.SampleStream(12, 0), 5000, 2, center=[3.0, -1.0], radius=0.5)
    assert np.all(np.linalg.norm(pts - np.array([3.0, -1.0]), axis=1) <= 0.5 + 1e-12)


def test_sample_body_membership_everywhere():
    bodies = [
        gp.unit_cube(3),
        gp.Polygon2D([[0, 0], [2, 0], [1, 2]]),
        gp.HalfBallCone(3, 0.4, 0.1),
        gp.intersect_halfspace(gp.Ball(np.zeros(3), 1.0), gp.Halfspace.through([0, 0, 1], 0.0)),
        gp.affine_image(gp.half_ball(2), np.array([[2.0, 1.0], [0.0, 1.0]]), [1.0, 0.0]),
    ]
    for i, body in enumerate(bodies):
        pts = gp.sample_body(gp.SampleStream(13, i), body, 20000)
        assert pts.shape == (20000, body.dim)
        assert body.contains_batch(pts).all()


def test_cone_piece_fractions_match_exact_volumes():
    cone = gp.HalfBallCone(2, 0.5, 0.0)
    pts = gp.sample_body(gp.SampleStream(14, 0), cone, N_MOMENT)
    frac = float((pts[:, 0] < 0).mean())
    want = 0.5 / (math.pi / 2 + 0.5)
    assert abs(frac - want) <= SIGMA * math.sqrt(want * (1 - want) / N_MOMENT)


def test_direct_cone_sampler_agrees_with_rejection():
    # two-sample chi-square on the x_1 marginal: piecewise sampler vs plain
    # box rejection over the same body
    cone = gp.HalfBallCone(3, 0.4, 0.1)
    n = 100000
    direct = gp.sample_body(gp.SampleStream(15, 0), cone, n)[:, 0]
    rejected = _rejection_sample(
        gp.SampleStream(15, 1), n, gp.bounding_box(cone), cone.contains_batch
    )[:, 0]
    edges = np.linspace(-cone.eps + cone.delta, 1.0, 21)
    a, _ = np.histogram(direct, bins=edges)
    b, _ = np.histogram(rejected, bins=edges)
    mask = (a + b) > 0
    stat = float((((a - b) ** 2) / np.where(mask, a + b, 1))[mask].sum())
    assert stat < chi2.ppf(0.999, mask.sum() - 1)


def test_sample_slice_lies_on_plane_and_in_body():
    ball = gp.Ball(np.zeros(3), 1.0)
    v = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    pts = gp.sample_slice(gp.SampleStream(16, 0), ball, v, 0.3, 20000)
    assert np.allclose(pts @ v, 0.3, atol=1e-9)
    assert ball.contains_batch(pts).all()


def test_sample_slice_starves_outside_support():
    with pytest.raises(gp.DegenerateSliceError):
        gp.sample_slice(gp.SampleStream(17, 0), gp.Ball(np.zeros(2), 1.0), [1.0, 0.0], 1.5, 100)


def test_slice_measure_matches_disk_area():
    ball = gp.Ball(np.zeros(3), 1.0)
    for t in (0.0, 0.6):
        est = gp.slice_measure(gp.SampleStream(18, 0), ball, [1.0, 0.0, 0.0], t, N_MOMENT)
        want = math.pi * (1 - t * t)
        assert abs(est.mean - want) <= SIGMA * est.stderr


def test_slice_measure_zero_beyond_support():
    est = gp.slice_measure(gp.SampleStream(19, 0), gp.Ball(np.zeros(2), 1.0), [1.0, 0.0], 1.2, 10000)
    assert est.mean == 0.0


def test_rejection_starvation_raises():
    # a cut that removes the whole ball leaves nothing to accept
    shaved = gp.intersect_halfspace(gp.Ball(np.zeros(2), 1.0), gp.Halfspace.through([1.0, 0.0], 2.0))
    with pytest.raises(gp.DegenerateBodyError):
        gp.sample_body(gp.SampleStream(20, 0), shaved, 100)


def test_slice_basis_is_orthonormal_complement():
    v = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    basis = gp.slice_basis(v)
    assert basis.shape == (3, 4)
    assert np.allclose(basis @ v, 0.0, atol=1e-12)
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# direct slab sampler for caps of balls


def test_cap_sampler_matches_box_rejection_histogram():
    cap = gp.intersect_halfspace(
        gp.half_ball(3), gp.Halfspace.through([1, 0, 0], 0.5)
    )
    n = 40000
    direct = gp.sample_body(gp.SampleStream(71, 0), cap, n)
    box = gp.bounding_box(cap)
    rejected = _rejection_sample(gp.SampleStream(72, 0), n, box, cap.contains_batch)
    edges = np.linspace(0.5, 1.0, 21)
    ha = np.histogram(direct[:, 0], bins=edges)[0]
    hb = np.histogram(rejected[:, 0], bins=edges)[0]
    expected = (ha + hb) / 2.0
    stat = float(np.sum((ha - expected) ** 2 / expected) + np.sum((hb - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, len(edges) - 2)


def test_cap_sampler_stays_inside_and_is_deterministic():
    cap = gp.intersect_halfspace(
        gp.Ball(np.zeros(4), 1.0), gp.Halfspace.through([1, 0, 0, 0], 0.999)
    )
    a = gp.sample_body(gp.SampleStream(73, 0), cap, 5000)
    b = gp.sample_body(gp.SampleStream(73, 0), cap, 5000)
    assert np.array_equal(a, b)
    assert bool(cap.contains_batch(a).all())
    assert float(a[:, 0].min()) >= 0.999


def test_slab_sampler_tilted_axis_moments():
    v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    slab = gp.intersect_halfspace(
        gp.Ball(np.zeros(3), 1.0), gp.Halfspace(v, 0.3)
    )
    pts = gp.sample_body(gp.SampleStream(74, 0), slab, 200000)
    proj = pts @ v
    # axial mean from the exact marginal density pi * (1 - u^2)
    lo = 0.3
    num = math.pi * ((1.0 - lo**2) ** 2 / 4.0)
    den = math.pi * (2.0 / 3.0 - lo + lo**3 / 3.0)
    want = num / den
    se = float(proj.std() / math.sqrt(len(proj)))
    assert abs(float(proj.mean()) - want) <= 4.0 * se


# ---------------------------------------------------------------------------
# rounds of box rejection: sized from the acceptance rate, same points


def _triangle_area(v) -> float:
    (ax, ay), (bx, by), (cx, cy) = v
    return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0


@st.composite
def _box_bodies(draw):
    """half_disk_polygon(64), isotropic_simplex(3), or a triangle filling at
    least a fifth of its bounding box."""
    kind = draw(st.sampled_from(["half_disk", "simplex", "triangle"]))
    if kind == "half_disk":
        return gp.half_disk_polygon(64)
    if kind == "simplex":
        return gp.isotropic_simplex(3)
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    v = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=3)))
    box_area = float(np.prod(v.max(axis=0) - v.min(axis=0)))
    assume(box_area > 1e-3 and _triangle_area(v) >= 0.2 * box_area)
    return gp.Polygon2D(v)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(body=_box_bodies(), n=st.integers(1, 20_000), seed=st.integers(0, 2**64 - 1))
def test_box_rejection_is_first_n_accepted_of_one_draw(body, n, seed):
    box = gp.bounding_box(body)
    got = _rejection_sample(gp.SampleStream(seed, 3), n, box, body.contains_batch)
    pool = box.uniform(gp.SampleStream(seed, 3), 64 * n)
    accepted = pool[body.contains_batch(pool)]
    assert len(accepted) >= n
    assert np.array_equal(got, accepted[:n])
    # other round sizes, here four proposals per missing point, give the same points
    stream = gp.SampleStream(seed, 3)

    def four_per_point(missing, tried, kept):
        return min(REJECTION_BATCH, max(4 * missing, 1024))

    fixed = _reject(n, box.dim, lambda m: box.uniform(stream, m), body.contains_batch, "", four_per_point)
    assert np.array_equal(fixed, got)


def test_box_rejection_draws_few_proposals_beyond_the_expected(monkeypatch):
    poly = gp.half_disk_polygon(64)
    n = 40_000
    drawn = []
    uniform = gp.BoundingBox.uniform

    def counted(self, stream, m):
        drawn.append(m)
        return uniform(self, stream, m)

    monkeypatch.setattr(gp.BoundingBox, "uniform", counted)
    gp.sample_body(gp.SampleStream(21, 4), poly, n)
    expected = n * gp.bounding_box(poly).volume() / poly.volume()
    assert sum(drawn) <= 1.25 * expected


def test_base_rejection_draws_few_proposals_at_high_acceptance(monkeypatch):
    # the cap {y < -0.9} holds 0.7% of the half-ball: one rate-sized round
    # and a short second one, not four proposals per point
    body = gp.Cut(gp.half_ball(3), gp.Halfspace.through([0.0, 1.0, 0.0], -0.9))
    n = 20_000
    seen = []
    contains = gp.Halfspace.contains_batch

    def counted(self, pts):
        seen.append(len(pts))
        return contains(self, pts)

    monkeypatch.setattr(gp.Halfspace, "contains_batch", counted)
    pts = gp.sample_body(gp.SampleStream(21, 4), body, n)
    proposals = sum(seen)
    monkeypatch.undo()
    assert n <= proposals <= 1.2 * n + 1024
    assert body.contains_batch(pts).all()
