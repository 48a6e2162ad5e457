"""Stream reproducibility and uniformity of the body samplers."""

import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import chi2

import geomprob as gp
from geomprob import derivatives, sampling
from geomprob.bodies import _ball_axis_ppf, _slab_quantiles, parallel_slab_params
from geomprob.report import hit_or_miss
from geomprob.sampling import REJECTION_BATCH, _reject, _rejection_sample, _slice_frame

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


def test_uniform_offset_form_is_the_half_integer_form():
    # fl(k 2^-53 + 2^-54) == fl(k + 1/2) 2^-53 for every 53-bit k: the edges,
    # the rounding boundary at 2^52 and 10^6 random k
    edges = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    k = np.concatenate([edges, np.random.default_rng(22).integers(0, 1 << 53, size=10**6, dtype=np.uint64)])
    old = (k.astype(np.float64) + 0.5) * 2.0**-53
    new = k.astype(np.float64) * 2.0**-53 + 2.0**-54
    assert np.array_equal(_bits(old), _bits(new))
    assert 0.0 < old.min() and old.max() <= 1.0
    # the top word rounds to even: the one uniform of 1.0, whose normal is +inf
    assert old[len(edges) - 1] == 1.0 and ndtri(old[len(edges) - 1]) == np.inf
    assert old[len(edges) - 2] < 1.0


def _unshift(z: int, s: int) -> int:
    """The x with x ^ (x >> s) == z, on 64 bits."""
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def _seed_keyed(key: int) -> int:
    """The seed whose stream 0 has Philox key ``key``: splitmix64 run backwards."""
    mask = 2**64 - 1
    z = _unshift(key, 31)
    z = z * pow(sampling.MIX_MULT_2, -1, 1 << 64) & mask
    z = _unshift(z, 27)
    z = z * pow(sampling.MIX_MULT_1, -1, 1 << 64) & mask
    z = _unshift(z, 30)
    return (z - sampling.GOLDEN_GAMMA) & mask


def _same_state(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(_same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
def test_stream_philox_is_the_one_keyed_by_key(key):
    seed = _seed_keyed(key)
    assert gp.stream_key(seed, 0) == key
    got = gp.SampleStream(seed, 0)._gen.bit_generator.state
    assert _same_state(got, np.random.Philox(key=key).state)
    assert _same_state(np.random.Philox(sampling._Key(key)).state, np.random.Philox(key=key).state)


@pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (4, np.uint64), (2, np.uint32), (4, np.uint32), (2, np.int64)])
def test_stream_key_seed_gives_only_two_64_bit_words(n_words, dtype):
    with pytest.raises(ValueError, match="two 64-bit words"):
        sampling._Key(5).generate_state(n_words, dtype)


def test_uniform_draws_continue_one_long_draw():
    sizes = (0, None, (), 1, 3, 5, 4097, (13, 3))
    counts = [int(np.prod(() if size is None else size)) for size in sizes]
    total = sum(counts)
    whole = gp.SampleStream(43, 2).uniform(total + 17)
    stream = gp.SampleStream(43, 2)
    pieces = []
    for size in sizes:
        got = stream.uniform(size)
        assert np.shape(got) == (() if size is None else np.empty(size).shape)
        pieces.append(np.ravel(got))
    assert np.array_equal(_bits(np.concatenate(pieces)), _bits(whole[:total]))
    assert np.array_equal(_bits(stream.uniform(17)), _bits(whole[total:]))


def test_deepcopy_of_a_stream_continues_it():
    stream = gp.SampleStream(44, 1)
    stream.uniform(6)  # part of a Philox block stays buffered
    clone = copy.deepcopy(stream)
    assert np.array_equal(_bits(clone.uniform(11)), _bits(stream.uniform(11)))
    assert np.array_equal(_bits(clone.normal((3, 2))), _bits(stream.normal((3, 2))))


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


class _TopWordStream(gp.SampleStream):
    """A stream whose first draw has uniforms of exactly 1.0, the top Philox word, at the given flat positions."""

    def __init__(self, seed, index, positions):
        super().__init__(seed, index)
        self.positions = positions

    def uniform(self, size):
        u = super().uniform(size)
        u.flat[self.positions] = 1.0
        self.positions = []
        return u


def test_sample_ball_gives_an_infinite_normal_its_limit_direction():
    # uniforms of 1.0 at normal (1, 1) and at (2, 0) and (2, 2) give normals
    # of +inf: row 1 points along e_1 and row 2 along (e_0 + e_2)/sqrt(2)
    center, radius = np.array([0.5, -2.0, 3.0]), 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gp.sample_ball(_TopWordStream(61, 0, [4, 6, 8]), 3, 3, center, radius)
    want = gp.sample_ball(gp.SampleStream(61, 0), 3, 3, center, radius)
    plain = gp.SampleStream(61, 0)
    plain.normal((3, 3))
    r = plain.uniform(3) ** (1.0 / 3)
    assert np.all(np.isfinite(got))
    assert got[0].tobytes() == want[0].tobytes()
    for row, direction in ((1, np.array([0.0, 1.0, 0.0])), (2, np.array([1.0, 0.0, 1.0]))):
        limit = direction / np.linalg.norm(direction) * r[row] * radius + center
        assert got[row].tobytes() == limit.tobytes()
        assert np.linalg.norm(got[row] - center) <= radius * r[row] * (1 + 1e-15)


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
    # the tangent section is a point: its box has zero volume
    with pytest.raises(gp.DegenerateSliceError):
        gp.sample_slice(gp.SampleStream(17, 0), gp.Ball(np.zeros(2), 1.0), [1.0, 0.0], 1.0, 100)


def test_slice_measure_matches_disk_area():
    ball = gp.Ball(np.zeros(3), 1.0)
    for t in (0.0, 0.6):
        est = gp.slice_measure(gp.SampleStream(18, 0), ball, [1.0, 0.0, 0.0], t, N_MOMENT)
        want = math.pi * (1 - t * t)
        assert abs(est.mean - want) <= SIGMA * est.stderr


def test_slice_measure_zero_beyond_support():
    est = gp.slice_measure(gp.SampleStream(19, 0), gp.Ball(np.zeros(2), 1.0), [1.0, 0.0], 1.2, 10000)
    assert est.mean == 0.0


def test_slice_functions_check_the_sample_count():
    ball, v = gp.Ball(np.zeros(2), 1.0), [1.0, 0.0]
    for fn in (gp.sample_slice, gp.slice_measure):
        with pytest.raises(ValueError, match="sample count must be nonnegative, got -3"):
            fn(gp.SampleStream(29, 0), ball, v, 0.2, -3)
    with pytest.raises(ValueError, match="sample count must be positive, got 0"):
        gp.slice_measure(gp.SampleStream(29, 0), ball, v, 0.2, 0)
    # each count was checked before any frame was built
    assert "_slice_frame" not in vars(ball)
    assert gp.sample_slice(gp.SampleStream(29, 0), ball, v, 0.2, 0).shape == (0, 2)


@pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [math.nan, 1.0, 0.0], [math.inf, 1.0, 0.0]])
def test_slice_functions_reject_a_zero_or_non_finite_direction(v):
    ball = gp.Ball(np.zeros(3), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (gp.sample_slice, gp.slice_measure):
            with pytest.raises(ValueError, match="direction must be nonzero and finite"):
                fn(gp.SampleStream(29, 0), ball, v, 0.2, 100)
    assert "_slice_frame" not in vars(ball)


def test_slice_at_a_polytope_vertex_is_degenerate():
    # the LP ends of a point section can cross by a rounding; the frame gives them zero width
    sim = gp.isotropic_simplex(3)
    for w in gp.regular_simplex_vertices(3):
        v = w / np.linalg.norm(w)
        t = sim.support(v)[1]
        assert gp.slice_measure(gp.SampleStream(27, 0), sim, v, t, 1000).mean == 0.0
        with pytest.raises(gp.DegenerateSliceError):
            gp.sample_slice(gp.SampleStream(28, 0), sim, v, t, 100)


def test_rejection_starvation_raises():
    # a cut that removes the whole ball leaves nothing to accept
    shaved = gp.intersect_halfspace(gp.Ball(np.zeros(2), 1.0), gp.Halfspace.through([1.0, 0.0], 2.0))
    with pytest.raises(gp.DegenerateBodyError):
        gp.sample_body(gp.SampleStream(20, 0), shaved, 100)


def _assert_in_frame(body, v, t, pts):
    basis, box, anchor = _slice_frame(body, v, t)
    coords = (pts - anchor) @ basis.T
    assert np.all(coords >= box.lo - 1e-9) and np.all(coords <= box.hi + 1e-9)


def test_slice_of_half_ball_cone_lies_in_its_frame():
    # HalfBallCone has no exact support under cuts, so a slice frame of a body
    # with one in it is the section of the body with the cone's box in its
    # place; at x_1 = t in (-eps, 0) the cone's section is the disk of radius (t + eps)/eps
    body, t, eps = gp.HalfBallCone(3, 0.5), -0.2, 0.5
    v = np.array([1.0, 0.0, 0.0])
    est = gp.slice_measure(gp.SampleStream(24, 0), body, v, t, N_MOMENT)
    assert abs(est.mean - math.pi * ((t + eps) / eps) ** 2) <= SIGMA * est.stderr
    pts = gp.sample_slice(gp.SampleStream(25, 0), body, v, t, 20000)
    assert np.allclose(pts @ v, t, atol=1e-12)
    assert body.contains_batch(pts).all()
    _assert_in_frame(body, v, t, pts)
    cut = gp.Cut(body, gp.Halfspace.through([1.0, 1.0, 0.0], -0.3))
    tilted = gp.affine_image(cut, np.array([[1.2, 0.3, 0.0], [0.0, 0.8, 0.0], [0.1, 0.0, 1.1]]), [0.1, 0.0, -0.2])
    w = np.array([0.6, 0.0, 0.8])
    for k, other in enumerate((cut, tilted)):
        pts = gp.sample_slice(gp.SampleStream(25, 1 + k), other, w, 0.1, 5000)
        assert np.allclose(pts @ w, 0.1, atol=1e-12) and other.contains_batch(pts).all()
        _assert_in_frame(other, w, 0.1, pts)


FRAME_BODIES = {
    "ball": lambda: gp.Ball(np.array([0.3, -0.2, 0.1]), 1.5),
    "half_ball3": lambda: gp.half_ball(3),
    "half_ball4": lambda: gp.half_ball(4),
    "unit_cube3": lambda: gp.unit_cube(3),
    "isotropic_simplex3": lambda: gp.isotropic_simplex(3),
    "isotropic_half_ball3": lambda: gp.isotropic_half_ball(3),
    "isotropic_half_ball3_cut": lambda: gp.intersect_halfspace(
        gp.isotropic_half_ball(3), gp.Halfspace.through([1.0, 1.0, 0.0], 0.3)
    ),
    "simplex_with_hull_point": lambda: gp.simplex_with_hull_point()[0],
}
FRAME_CHUNK = 1 << 17
FRAME_MAX_CHUNKS = 128
FRAME_REACH = 1e-2


@pytest.mark.parametrize("name", sorted(FRAME_BODIES))
def test_slice_frame_is_the_exact_extent_of_the_section(name):
    """Hits of a dense draw from the old sphere box all lie in the section's box
    and reach each of its faces within FRAME_REACH: the box cuts off no part of
    the section and is not loose. Chunks are drawn until every face is reached."""
    body = FRAME_BODIES[name]()
    d = body.dim
    root = gp.SampleStream(26, 0)
    directions = (np.r_[0.6, 0.8, np.zeros(d - 2)], np.r_[1.0, -2.0, 2.0, np.zeros(d - 3)] / 3.0)
    for i, v in enumerate(directions):
        a, b = body.support(v)
        for j, frac in enumerate((0.3, 0.5, 0.7)):
            t = a + frac * (b - a)
            basis, box, anchor = _slice_frame(body, v, t)
            # the plane's cut of the sphere about the origin through the farthest corner of the body's box
            whole = gp.bounding_box(body)
            big = float(np.sqrt(np.sum(np.maximum(whole.lo**2, whole.hi**2))))
            r = math.sqrt(big * big - t * t)
            sphere_box = gp.BoundingBox(np.full(d - 1, -r), np.full(d - 1, r))
            stream = root.substream(3 * i + j)
            lo, hi = np.full(d - 1, np.inf), np.full(d - 1, -np.inf)
            for _ in range(FRAME_MAX_CHUNKS):
                c = sphere_box.uniform(stream, FRAME_CHUNK)
                hits = c[body.contains_batch(anchor + c @ basis)]
                assert np.all(hits >= box.lo - 1e-9) and np.all(hits <= box.hi + 1e-9), (v, t)
                lo, hi = np.minimum(lo, hits.min(axis=0)), np.maximum(hi, hits.max(axis=0))
                if np.all(lo - box.lo <= FRAME_REACH) and np.all(box.hi - hi <= FRAME_REACH):
                    break
            assert np.all(lo - box.lo <= FRAME_REACH) and np.all(box.hi - hi <= FRAME_REACH), (v, t)


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


def _unit_ball_slab(d, lo=None, hi=None):
    """The unit d-ball cut to lo <= x_1 <= hi; the last cut applied decides the slab's axis."""
    e1 = np.eye(d)[0]
    body = gp.Ball(np.zeros(d), 1.0)
    if hi is not None:
        body = gp.Cut(body, gp.Halfspace.through(-e1, -hi))
    if lo is not None:
        body = gp.Cut(body, gp.Halfspace.through(e1, lo))
    return body


def test_thin_cap_samples_on_the_slab_path(monkeypatch):
    # the cap x_1 >= 0.9999 of the unit 8-ball has volume 1.19e-17; its quantile
    # interval must stay nonempty, or the cap would fall to base rejection and starve
    cap = _unit_ball_slab(8, lo=0.9999)
    monkeypatch.setattr(sampling, "_reject", lambda *args: pytest.fail("the cap took a rejection path"))
    pts = gp.sample_body(gp.SampleStream(81, 0), cap, 20_000)
    assert pts.shape == (20_000, 8)
    assert bool(cap.contains_batch(pts).all())
    assert float(pts[:, 0].min()) >= 0.9999 - 1e-15


def test_thin_cap_axis_values_are_distinct():
    # from plain quantile differences near 1 this cap drew only 833 distinct axis values
    cap = _unit_ball_slab(8, lo=0.999)
    pts = gp.sample_body(gp.SampleStream(1, 0), cap, 100_000)
    assert bool(cap.contains_batch(pts).all())
    assert len(np.unique(pts[:, 0])) >= 99_000


@pytest.mark.parametrize(
    "d, lo, hi, sub_lo, sub_hi",
    [
        (4, 0.5, None, 0.7, None),  # cap, mirrored
        (5, 0.2, 0.6, 0.35, 0.5),  # upper slab, mirrored
        (3, -0.3, 0.6, 0.2, 0.6),  # two-sided slab through the center
        (8, -0.9, -0.4, -0.9, -0.6),  # bottom slab
    ],
)
def test_slab_share_of_a_sub_slab_matches_the_volume_ratio(d, lo, hi, sub_lo, sub_hi):
    body = _unit_ball_slab(d, lo, hi)
    sub = _unit_ball_slab(d, sub_lo, sub_hi)
    n = 100_000
    pts = gp.sample_body(gp.SampleStream(82, d), body, n)
    assert bool(body.contains_batch(pts).all())
    share = float(np.count_nonzero(sub.contains_batch(pts))) / n
    p = sub.volume() / body.volume()
    assert abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


class _SortedFirstUniforms:
    """A stream whose first uniform draw comes sorted; every other draw is the wrapped stream's."""

    def __init__(self, stream):
        self.stream, self.first = stream, True

    def uniform(self, size):
        u = self.stream.uniform(size)
        if self.first:
            self.first = False
            u = np.sort(u)
        return u

    def normal(self, size):
        return self.stream.normal(size)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("lo, hi", [(0.4, None), (0.1, 0.7), (-0.9, -0.2), (-0.5, 0.5)])
def test_slab_axis_rises_with_the_uniform(d, lo, hi):
    # mirrored or not, sorted uniforms give a non-decreasing axis coordinate; the
    # d = 4 inverse CDF is monotone only to one ulp, hence the 1e-15
    body = _unit_ball_slab(d, lo, hi)
    ball, axis, s_lo, s_hi = parallel_slab_params(body)
    assert axis.tolist() == np.eye(d)[0].tolist()
    pts = sampling._slab_sampler(ball, axis, s_lo, s_hi)(_SortedFirstUniforms(gp.SampleStream(83, d)), 50_000)
    s = pts[:, 0]
    assert float(np.diff(s).min()) >= -1e-15
    assert s_lo - 1e-15 <= float(s[0]) and float(s[-1]) <= s_hi + 1e-15


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

    fixed = _reject([stream], n, box.dim, lambda ss, ms: box.uniform(ss[0], ms[0]), body.contains_batch, "", four_per_point)
    assert np.array_equal(fixed, got)


def test_box_rejection_draws_few_proposals_beyond_the_expected(monkeypatch):
    poly = gp.half_disk_polygon(64)
    n = 40_000
    drawn = []
    place = gp.BoundingBox.place

    def counted(self, u):
        drawn.append(len(u))
        return place(self, u)

    monkeypatch.setattr(gp.BoundingBox, "place", counted)
    gp.sample_body(gp.SampleStream(21, 4), poly, n)
    expected = n * gp.bounding_box(poly).volume() / poly.volume()
    assert n <= sum(drawn) <= 1.25 * expected


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


# ---------------------------------------------------------------------------
# the rejection kernels against their broadcast and boolean-mask forms, bit for bit


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("d", range(1, 9))
def test_box_uniform_is_the_broadcast_formula_bit_for_bit(d):
    # each column is scaled and shifted in place, at every d
    rng = np.random.default_rng(40 + d)
    lo = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, size=d)
    hi = lo + rng.random(d) * 10.0 ** rng.integers(-3, 4, size=d)
    box = gp.BoundingBox(lo, hi)
    for m in (0, 1, 1023, 4096):
        got = box.uniform(gp.SampleStream(41, d), m)
        want = lo + gp.SampleStream(41, d).uniform((m, d)) * (hi - lo)
        assert got.shape == (m, d) and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# the direct samplers against their broadcast formulas, bit for bit

SIZES = (1, 7, 4096)


@pytest.mark.parametrize("size", [None, ()])
def test_scalar_normal_is_a_numpy_float(size):
    x = gp.SampleStream(42, 1).normal(size)
    assert type(x) is np.float64
    assert x.tobytes() == ndtri(gp.SampleStream(42, 1).uniform(size)).tobytes()


@pytest.mark.parametrize("size", [0, 1, 5, (3, 4), (2, 3, 5)])
def test_normal_is_ndtri_of_the_uniforms(size):
    a, b = gp.SampleStream(43, 2), gp.SampleStream(43, 2)
    for _ in range(2):
        got, want = a.normal(size), ndtri(b.uniform(size))
        assert got.shape == np.shape(want) and np.array_equal(_bits(got), _bits(want))


def _sample_ball_reference(stream, n, d, center=None, radius=1.0):
    g = ndtri(stream.uniform((n, d)))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = stream.uniform((n, 1)) ** (1.0 / d)
    pts = g / norms * r * radius
    if center is not None:
        pts += np.asarray(center, dtype=float)
    return pts


def _reflect_reference(stream, n, ball, h):
    pts = _sample_ball_reference(stream, n, ball.dim, ball.center, ball.radius)
    proj = (pts - ball.center) @ h.normal
    wrong = proj < 0
    pts[wrong] -= 2.0 * proj[wrong, None] * h.normal
    return pts


def _slab_reference(stream, n, body):
    ball, axis, s_lo, s_hi = parallel_slab_params(body)
    d = ball.dim
    sign, q_lo, q_hi = _slab_quantiles(d, s_lo, s_hi)
    u = stream.uniform(n)
    q = q_hi - u * (q_hi - q_lo) if sign < 0 else q_lo + u * (q_hi - q_lo)
    s = sign * _ball_axis_ppf(d, q)
    pts = s[:, None] * axis[None, :]
    if d >= 2:
        section = np.sqrt((1.0 - s) * (1.0 + s))
        pts += (_sample_ball_reference(stream, n, d - 1) * section[:, None]) @ sampling.slice_basis(axis)
    return ball.center + ball.radius * pts


def _cone_reference(stream, n, body):
    d, eps, delta = body.d, body.eps, body.delta
    take_half = stream.uniform(n) < gp.kappa(d).to_float() / 2.0 / body.volume()
    out = np.empty((n, d))
    pts = _sample_ball_reference(stream, int(take_half.sum()), d)
    pts[:, 0] = np.abs(pts[:, 0])
    out[take_half] = pts
    n_cone = n - len(pts)
    base = _sample_ball_reference(stream, n_cone, d - 1)
    low = (delta / eps) ** d
    s = (low + stream.uniform(n_cone) * (1.0 - low)) ** (1.0 / d)
    cone = np.empty((n_cone, d))
    cone[:, 0] = -eps + s * eps
    cone[:, 1:] = base * s[:, None]
    out[~take_half] = cone
    return out


def _assert_sampler_is(body, reference, seed):
    for n in SIZES:
        got = gp.sample_body(gp.SampleStream(seed, n), body, n)
        want = reference(gp.SampleStream(seed, n), n)
        assert got.shape == (n, body.dim) and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("d", range(1, 9))
def test_sample_ball_is_the_broadcast_formula_bit_for_bit(d):
    center = np.random.default_rng(90 + d).normal(size=d)
    for c, radius in ((None, 1.0), (None, 0.37), (center, 2.9)):
        for n in (0, *SIZES):
            got = sampling.sample_ball(gp.SampleStream(91, d), n, d, c, radius)
            want = _sample_ball_reference(gp.SampleStream(91, d), n, d, c, radius)
            assert got.shape == (n, d) and got.flags.c_contiguous
            assert np.array_equal(_bits(got), _bits(want))
    ball = gp.Ball(center, 2.9)
    _assert_sampler_is(ball, lambda stream, n: _sample_ball_reference(stream, n, d, center, 2.9), 92)


@pytest.mark.parametrize("d", range(2, 9))
def test_reflection_sampler_is_the_broadcast_formula_bit_for_bit(d):
    rng = np.random.default_rng(93 + d)
    ball = gp.Ball(rng.normal(size=d), 1.6)
    for normal in (np.eye(d)[d - 1], rng.normal(size=d)):
        body = gp.Cut(ball, gp.Halfspace.through(normal, float(normal @ ball.center)))
        _assert_sampler_is(body, lambda stream, n: _reflect_reference(stream, n, ball, body.halfspace), 94)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("lo, hi", [(0.3, None), (None, -0.2), (-0.6, 0.1), (0.2, 0.8), (-0.9, -0.4)])
def test_slab_sampler_is_the_broadcast_formula_bit_for_bit(d, lo, hi):
    # one- and two-sided slabs, at either end, so the quantile interval is mirrored or not
    rng = np.random.default_rng(95 + d)
    axis = rng.normal(size=d)
    axis /= np.linalg.norm(axis)
    ball = gp.Ball(rng.normal(size=d), 1.3)
    body = ball
    if lo is not None:
        body = gp.Cut(body, gp.Halfspace(axis, float(axis @ ball.center) + lo * ball.radius))
    if hi is not None:
        body = gp.Cut(body, gp.Halfspace(-axis, -float(axis @ ball.center) - hi * ball.radius))
    assert sampling._direct_sampler(body) is not None and parallel_slab_params(body) is not None
    _assert_sampler_is(body, lambda stream, n: _slab_reference(stream, n, body), 96)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cone_sampler_is_the_broadcast_formula_bit_for_bit(d):
    body = gp.HalfBallCone(d, 0.5, 0.15)
    _assert_sampler_is(body, lambda stream, n: _cone_reference(stream, n, body), 97)


@pytest.mark.parametrize("d, eps, delta", [(2, 1e-3, 0.0), (4, 1e-3, 5e-4), (2, 5e3, 0.0), (4, 100.0, 50.0)])
def test_cone_sampler_at_extreme_piece_shares(d, eps, delta):
    # half-ball shares from 0.9996 down to 3e-4: at the small sizes one
    # piece is empty
    body = gp.HalfBallCone(d, eps, delta)
    _assert_sampler_is(body, lambda stream, n: _cone_reference(stream, n, body), 99)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_affine_sampler_is_the_broadcast_formula_bit_for_bit(d):
    body = gp.isotropic_half_ball(d)
    cut = body.base

    def reference(stream, n):
        return _reflect_reference(stream, n, cut.base, cut.halfspace) @ body.matrix.T + body.shift

    _assert_sampler_is(body, reference, 98)


def _reject_reference(n, d, propose, accept, round_size):
    """The first n accepted proposals, gathered by boolean masks and slices."""
    out = np.empty((n, d))
    got = tried = kept = 0
    while got < n:
        m = round_size(n - got, tried, kept)
        pts = propose(m)
        ok = accept(pts)
        k = int(ok.sum())
        tried += m
        kept += k
        take = min(k, n - got)
        out[got : got + take] = pts[ok][:take]
        got += take
    return out


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(0, 1500),
    d=st.integers(1, 8),
    rate=st.floats(0.1, 1.0),
    size=st.sampled_from([1, 7, 1024]),
    seed=st.integers(0, 2**64 - 1),
)
def test_reject_gathers_the_boolean_mask_rows(n, d, rate, size, seed):
    """Forced round sizes, and masks drawn with the points, give the rows the
    boolean-mask gather gives, bit for bit, including rounds that keep nothing."""

    def run(kernel):
        stream = gp.SampleStream(seed, 5)
        return kernel(n, d, lambda m: stream.uniform((m, d)), lambda pts: pts[:, 0] < rate, lambda *_: size)

    got = run(lambda n, d, propose, accept, round_size: _reject([None], n, d, lambda _, ms: propose(ms[0]), accept, "", round_size))
    want = run(_reject_reference)
    assert got.shape == (n, d) and got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(want))


def _slice_measure_one_draw(stream, body, v, t, n):
    """slice_measure from one draw of all n proposals, as it was before chunking."""
    basis, box, anchor = _slice_frame(body, v, t)
    ok = body.contains_batch(anchor + box.uniform(stream, n) @ basis)
    return hit_or_miss(float(ok.mean()), n, box.volume())


@pytest.mark.parametrize(
    "make, v, t",
    [
        (lambda: gp.half_ball(3), [1.0, 0.4, -0.3], 0.2),
        (lambda: gp.isotropic_simplex(3), [1.0, 0.4, -0.3], 0.3),
        (lambda: gp.half_ball(4), [1.0, 0.0, 0.0, 0.0], 0.1),
    ],
)
def test_chunked_slice_measure_is_the_one_draw_estimate(make, v, t):
    body = make()
    for n in (1, REJECTION_BATCH, REJECTION_BATCH + 1, REJECTION_BATCH + 3, 200_000):
        got = gp.slice_measure(gp.SampleStream(42, n), body, v, t, n)
        want = _slice_measure_one_draw(gp.SampleStream(42, n), body, v, t, n)
        assert (got.mean, got.stderr, got.n) == (want.mean, want.stderr, want.n), n


def test_slice_frame_is_kept_for_its_plane_only():
    body = gp.isotropic_simplex(3)
    v = np.array([1.0, 0.4, -0.3])
    for t in (0.3, -0.2, 0.3):
        basis, box, anchor = _slice_frame(body, v, t)
        fresh = _slice_frame(gp.isotropic_simplex(3), v, t)
        for got, want in zip((basis, box.lo, box.hi, anchor), (fresh[0], fresh[1].lo, fresh[1].hi, fresh[2])):
            assert np.array_equal(_bits(got), _bits(want))
    assert _slice_frame(body, 2.0 * v, 0.3) is _slice_frame(body, v, 0.3)


def _crofton_on_a_polytope():
    fam = gp.cut_family(gp.isotropic_simplex(3), [1.0, 0.4, -0.3])
    est = gp.crofton_derivative_rhs(fam, 0.1, gp.sf_coordinate_sum(), 4096, seed=43)
    return est.mean, est.stderr, est.n


def test_derivative_formula_builds_its_slice_frame_once(monkeypatch):
    calls = {"frame": 0, "slice_measure": 0, "sample_slice": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sampling, "_exact_slice_frame", counted("frame", sampling._exact_slice_frame))
    # both public slice functions are still called, so a tracer sees both spans
    monkeypatch.setattr(derivatives, "slice_measure", counted("slice_measure", derivatives.slice_measure))
    monkeypatch.setattr(derivatives, "sample_slice", counted("sample_slice", derivatives.sample_slice))
    kept = _crofton_on_a_polytope()
    assert calls == {"frame": 1, "slice_measure": 1, "sample_slice": 1}
    monkeypatch.undo()

    # with the frame built afresh on every call, the estimate keeps every bit
    slice_frame = sampling._slice_frame

    def fresh(body, v, t):
        vars(body).pop("_slice_frame", None)
        return slice_frame(body, v, t)

    monkeypatch.setattr(sampling, "_slice_frame", fresh)
    assert _crofton_on_a_polytope() == kept
