"""Batches drawn in groups: each batch's points, every estimate and every
membership mask are the ones that batch gives when drawn alone."""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geomprob as gp
from geomprob import estimators, sampling
from geomprob.bodies import MEMBERSHIP_ATOL, _inside
from geomprob.report import hit_or_miss

BATCHES = estimators.BATCH_COUNT


def _bits(a: np.ndarray) -> bytes:
    return repr(a.shape).encode() + np.ascontiguousarray(a).tobytes()


def _set_group_values(monkeypatch, values: int) -> None:
    monkeypatch.setattr(sampling, "GROUP_VALUES", values)
    monkeypatch.setattr(estimators, "GROUP_VALUES", values)


def _grouped(body, m: int, seed: int):
    """Every batch's m points from ``_batches``, and the size of each group it drew."""
    groups = []

    def draw(streams, m):
        groups.append(len(streams))
        return gp.sample_body(streams, body, len(streams) * m)

    out, got_m = estimators._batches(BATCHES * m, gp.SampleStream(seed, 0), draw, np.copy, body.dim)
    assert got_m == m
    return out, groups


def _alone(body, m: int, seed: int) -> list:
    """Every batch's m points, each batch drawn by its own ``sample_body`` call."""
    stream = gp.SampleStream(seed, 0)
    return [gp.sample_body(stream.substream(b), body, m) for b in range(BATCHES)]


def _sliver():
    # 0.5% of its box: most batches need three rounds or more
    return gp.Polygon2D([[0.0, 0.0], [1.0, 1.0], [1.0, 0.99]])


BODIES = {
    "polygon": lambda: gp.half_disk_polygon(16),
    "unit_cube": lambda: gp.unit_cube(3),
    "isotropic_simplex": lambda: gp.isotropic_simplex(3),
    "cut_polytope": lambda: gp.Cut(gp.unit_cube(3), gp.Halfspace.through([1.0, 1.0, 0.0], 0.8)),
    "base_reject": lambda: gp.cut_family(gp.isotropic_half_ball(3), [1.0, 0.0, 0.0]).cut(0.4),
    "ball": lambda: gp.Ball(np.array([0.3, -1.0, 2.0]), 1.7),
    "slab": lambda: gp.cut_family(gp.half_ball(3), [1.0, 0.0, 0.0]).cut(0.4),
    "cone": lambda: gp.HalfBallCone(3, 0.1),
    "sliver": _sliver,
}


@pytest.mark.parametrize("m", [150, 700])
@pytest.mark.parametrize("name", sorted(BODIES))
def test_grouped_batches_are_the_batches_drawn_alone(name, m):
    # m = 150 lies below the 1,024-proposal first round; both sizes leave a ragged last group
    body = BODIES[name]()
    got, groups = _grouped(body, m, seed=7)
    assert sum(groups) == BATCHES and max(groups) > 1 and BATCHES % groups[0] != 0
    want = _alone(body, m, seed=7)
    assert [_bits(a) for a in got] == [_bits(b) for b in want]


@pytest.mark.parametrize("values", [1, 1_900, 40_000])
def test_any_group_size_gives_the_same_batches(monkeypatch, values):
    # one batch a group; ragged groups of 3; and one group of all 64, whose
    # first round takes five blocks of at most 13,333 proposals
    _set_group_values(monkeypatch, values)
    body = BODIES["base_reject"]()
    got, groups = _grouped(body, 200, seed=8)
    assert groups[0] == min(BATCHES, max(1, values // 600))
    assert [_bits(a) for a in got] == [_bits(b) for b in _alone(body, 200, seed=8)]


def test_a_group_needing_three_rounds_or_more(monkeypatch):
    rounds = collections.Counter()
    uniform = gp.SampleStream.uniform

    def counted(self, size):
        rounds[self.index] += 1
        return uniform(self, size)

    monkeypatch.setattr(gp.SampleStream, "uniform", counted)
    got, groups = _grouped(_sliver(), 300, seed=9)
    assert max(groups) > 1
    assert max(rounds.values()) >= 3
    monkeypatch.undo()
    assert [_bits(a) for a in got] == [_bits(b) for b in _alone(_sliver(), 300, seed=9)]


def test_a_starving_group_raises_the_error_of_a_batch_drawn_alone():
    # no point of the disk lies in x >= 2: base rejection gives up after 10^6 proposals
    body = gp.intersect_halfspace(gp.Ball(np.zeros(2), 1.0), gp.Halfspace.through([1.0, 0.0], 2.0))
    with pytest.raises(gp.DegenerateBodyError) as alone:
        gp.sample_body(gp.SampleStream(10, 0).substream(0), body, 2000)
    with pytest.raises(gp.DegenerateBodyError) as grouped:
        _grouped(body, 2000, seed=10)
    assert str(grouped.value) == str(alone.value)
    assert str(alone.value) == "no acceptance in 1002000 proposals from the base sampler"


def test_sample_body_checks_a_group_split():
    streams = [gp.SampleStream(11, i) for i in range(3)]
    with pytest.raises(ValueError):
        gp.sample_body(streams, gp.unit_cube(2), 100)
    with pytest.raises(ValueError):
        gp.sample_body([], gp.unit_cube(2), 0)
    assert gp.sample_body(streams, gp.unit_cube(2), 0).shape == (0, 2)


@pytest.mark.parametrize("n", [100, BATCHES * 700 + 5])
def test_volume_estimate_is_the_mean_of_the_batches_drawn_alone(n):
    # n = 100 gives one proposal per batch, all 64 in one group
    body = BODIES["cut_polytope"]()
    box = gp.bounding_box(body)
    m = n // BATCHES
    stream = gp.SampleStream(12, 0)
    rates = [float(body.contains_batch(box.uniform(stream.substream(b), m)).mean()) for b in range(BATCHES)]
    want = hit_or_miss(float(np.array(rates).mean()), m * BATCHES, box.volume())
    got = gp.volume_estimate(body, n, seed=12)
    assert (got.mean, got.stderr, got.n) == (want.mean, want.stderr, want.n)


def _estimates(poly, cut) -> list:
    h = gp.Halfspace.through([0.0, 1.0], 0.3)
    found = [
        gp.moment_estimate(poly, 1, 40_000, seed=13),
        gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, 40_000, seed=14),
        gp.det_cov_estimate(poly, 40_000, seed=15),
        gp.det_cov_increase(poly, h, 40_000, seed=16),
        gp.volume_estimate(cut, 40_000, seed=17),
    ]
    cov = gp.covariance_estimate(cut, 40_000, seed=18)
    return [(e.mean, e.stderr, e.n) for e in found] + [_bits(cov.centroid), _bits(cov.matrix), cov.stderr_scale]


def test_estimates_do_not_depend_on_the_group_size(monkeypatch):
    poly, cut = gp.half_disk_polygon(16), BODIES["cut_polytope"]()
    grouped = _estimates(poly, cut)
    _set_group_values(monkeypatch, 1)
    assert _estimates(poly, cut) == grouped
    _set_group_values(monkeypatch, 7_000)
    assert _estimates(poly, cut) == grouped


# ---------------------------------------------------------------------------
# membership masks do not depend on how many points are tested together

# row counts on both sides of the BLAS kernels' unroll widths; a single row, which
# numpy would send to a matrix-vector kernel, many times over
ROW_COUNTS = [1] * 64 + list(range(2, 18)) + [1023, 1024, 1025, 4095, 4096, 4097]


def _near_threshold(pts: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Points moved onto <normal, x> = offset - MEMBERSHIP_ATOL, then up to two ulps to either side."""
    on = pts + (offset - MEMBERSHIP_ATOL - pts @ normal)[:, None] * normal
    steps = np.arange(len(pts)) % 5 - 2
    return on + steps[:, None] * np.spacing(np.abs(on)) * normal


def _on_facets(rng, vertices: np.ndarray, normals: np.ndarray, offsets: np.ndarray, rows: int) -> np.ndarray:
    """Points of a simplex or a box, each moved along a random facet's normal to near that facet's threshold.

    The other facets' normals make an angle of at least 90 degrees with it, so the
    move keeps a point inside them."""
    weights = rng.dirichlet(np.ones(len(vertices)), size=rows)
    pts = weights @ vertices
    facet = rng.integers(len(normals), size=rows)
    for i, (n, t) in enumerate(zip(normals, offsets)):
        pts[facet == i] = _near_threshold(pts[facet == i], n, t)
    return pts


def _membership_cases(d: int):
    """(name, contains, block) for polytope, affine-image and halfspace membership in dimension d."""
    rng = np.random.default_rng(60 + d)
    rows = sum(ROW_COUNTS)
    sim = gp.isotropic_simplex(d)
    block = _on_facets(rng, sim.vertices, sim.normals, sim.offsets, rows)

    cube = gp.unit_cube(d)
    matrix = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    image = gp.AffineImage(cube, matrix, rng.normal(size=d))
    image_block = _on_facets(rng, cube.vertices, cube.normals, cube.offsets, rows) @ matrix.T + image.shift

    h = gp.Halfspace.through(rng.normal(size=d), 0.3)
    half_block = _near_threshold(rng.normal(size=(rows, d)), h.normal, h.offset)
    return [
        ("inside", lambda pts: _inside(pts, sim.normals, sim.offsets), block),
        ("affine", image.contains_batch, image_block),
        ("halfspace", h.contains_batch, half_block),
    ]


def membership_mismatches() -> list:
    """Every (case, d, row count) whose slice mask differs from its rows of the block's mask."""
    bad = []
    starts = np.cumsum([0] + ROW_COUNTS)
    for d in (2, 3, 4):
        for name, contains, block in _membership_cases(d):
            whole = contains(block)
            assert 0.1 < whole.mean() < 0.9, (name, d)
            for count, start in zip(ROW_COUNTS, starts):
                part = block[start : start + count]
                if not np.array_equal(contains(part), whole[start : start + count]):
                    bad.append([name, d, count])
    return bad


@pytest.mark.parametrize("threads", ["1", "2"])
def test_membership_does_not_depend_on_the_row_count(threads):
    """Masks of points within two ulps of a facet's threshold, recomputed in a
    fresh process whose OpenBLAS splits its products over the given threads."""
    src = Path(gp.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(src), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    script = "import json, test_batch_groups as t; print(json.dumps(t.membership_mismatches()))"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


# ---------------------------------------------------------------------------
# the contract perfbench's tracer reads: n is the rows a sample_body call returns

# SampleStream.uniform values of each estimate when every batch drew alone
UNIFORM_VALUES = {"moment": 558_104, "det_cov": 131_072, "pinned": 215_390}


def test_a_traced_sample_body_returns_n_rows_and_draws_the_same_variates(monkeypatch):
    calls, values = [], []
    original = sampling.sample_body

    def traced(stream, body, n):
        pts = original(stream, body, n)
        calls.append((n, len(pts)))
        return pts

    # rebound in every module that holds it, as the tracer rebinds it
    for module in (gp, sampling, estimators):
        monkeypatch.setattr(module, "sample_body", traced)
    uniform = gp.SampleStream.uniform

    def counted(self, size):
        values.append(int(np.prod(size)))
        return uniform(self, size)

    monkeypatch.setattr(gp.SampleStream, "uniform", counted)
    tri = gp.Polygon2D([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]])
    disk = gp.half_disk_polygon(16)
    runs = {
        "moment": lambda: gp.moment_estimate(tri, 1, 40_000, seed=0),
        "det_cov": lambda: gp.det_cov_estimate(disk, 40_000, seed=0),
        "pinned": lambda: gp.pinned_moment_estimate(disk, [0.0, 0.0], 1, 40_000, seed=0),
    }
    for name, run in runs.items():
        calls.clear()
        values.clear()
        run()
        assert 1 < len(calls) < BATCHES, name
        assert all(n == rows for n, rows in calls), name
        assert sum(values) == UNIFORM_VALUES[name], name
