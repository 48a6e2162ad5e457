"""Golden digests: sha256 hashes of seeded outputs, pinned to the bit.

Each case hashes the exact bits of one output at a small sample budget:
the first stream variates, ``sample_body`` on every sampler path, the
slice sampler and slice measure at d = 3 and d = 4, polygon membership at
and near the boundary, the per-body geometry (bounding box, closed-form
volume, JSON text, support interval) and the estimators and derivative
formulas. A refactor must leave every digest unchanged. A change that
alters an output on purpose updates the digest here and says so in
CHANGES.md, and in the README's reproducibility section when a random
stream changes.

Recorded with numpy 2.4.6 and scipy 1.17.1 on Python 3.11.7. Other
versions of these libraries may change the last bits of their kernels
(``ndtri``, ``betainc``, ``betaincinv``, ``det``) and with them some
digests.
"""

import hashlib
import json
import math

import numpy as np
import pytest

import geomprob as gp


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        elif part is None:
            h.update(b"none")
        else:
            arr = np.asarray(part, dtype=np.float64)
            h.update(repr(arr.shape).encode())
            h.update(arr.astype("<f8").tobytes())
        h.update(b";")
    return h.hexdigest()


def _est(e) -> list:
    return [e.mean, e.stderr, e.n]


def _e(d: int, j: int = 0) -> np.ndarray:
    v = np.zeros(d)
    v[j] = 1.0
    return v


def _oblique(d: int) -> np.ndarray:
    v = np.zeros(d)
    v[:2] = (0.6, 0.8)
    return v


def _cut(body, normal, offset):
    return gp.Cut(body, gp.Halfspace.through(normal, offset))


# one or more bodies per body type, including every nesting the geometry recurses through
BODIES = {
    "ball": lambda: gp.Ball(np.array([0.3, -0.2, 0.1]), 1.5),
    "hpoly_cube": lambda: gp.unit_cube(3),
    "hpoly_simplex": lambda: gp.isotropic_simplex(3),
    "hpoly_hull": lambda: gp.simplex_with_hull_point(1.2)[0],
    "halfballcone": lambda: gp.HalfBallCone(3, 0.1, 0.02),
    "polygon": lambda: gp.half_disk_polygon(16),
    "cut_half_ball": lambda: gp.half_ball(3),
    "cut_slab": lambda: _cut(gp.half_ball(3), [-1.0, 0.0, 0.0], -0.7),
    "cut_tilted": lambda: _cut(gp.half_ball(3), [1.0, 1.0, 0.0], 0.2),
    "cut_cone": lambda: _cut(gp.HalfBallCone(3, 0.1), [0.0, 1.0, 0.0], 0.1),
    "cut_hpoly": lambda: _cut(gp.isotropic_simplex(3), [0.0, 0.0, 1.0], -0.5),
    "affine_half_ball": lambda: gp.isotropic_half_ball(3),
    "affine_polygon": lambda: gp.affine_image(
        gp.Polygon2D([[0.0, 0.0], [1.0, 0.0], [0.2, 1.0]]), [[2.0, 0.5], [0.0, 1.0]], [0.5, 0.0]
    ),
    "affine_tilted_cut": lambda: gp.AffineImage(
        _cut(gp.half_ball(3), [1.0, 1.0, 0.0], 0.2), np.diag([1.5, 0.5, 2.0]), np.array([0.1, 0.0, -0.3])
    ),
}


def _geometry(name: str) -> list:
    body = BODIES[name]()
    box = gp.bounding_box(body)
    d = body.dim
    return [
        box.lo,
        box.hi,
        gp.exact_volume(body),
        json.dumps(gp.body_to_json(body)),
        gp.support_interval(body, _e(d), seed=5),
        gp.support_interval(body, -_e(d), seed=5),
        gp.support_interval(body, _oblique(d), seed=5),
    ]


def _sample(body) -> list:
    return [gp.sample_body(gp.SampleStream(21, 4), body, 3000)]


def _cut_at(body, offset) -> gp.ConvexBody:
    return gp.intersect_halfspace(body, gp.Halfspace(_e(body.dim), offset))


def _iso_simplex_family():
    sim = gp.isotropic_simplex(3)
    return gp.cut_family(sim, gp.regular_simplex_vertices(3)[0], seed=3)


def _crofton_half_ball() -> list:
    fam = gp.cut_family(gp.half_ball(3), _e(3))
    return _est(gp.crofton_derivative_rhs(fam, 0.2, gp.sf_coordinate_sum(), 64 * 100, seed=16))


def _crofton_simplex_volume() -> list:
    fam = gp.cut_family(gp.unit_cube(3), _oblique(3))
    return _est(gp.crofton_derivative_rhs(fam, 0.5, gp.sf_simplex_volume(3), 64 * 50, seed=17))


def _detcov_square() -> list:
    side = math.sqrt(3.0)
    fam = gp.CutFamily(gp.box_body([-side, -side], [side, side]), _e(2), -side, side)
    return _est(gp.detcov_derivative_rhs(fam, -side, 64 * 100, seed=18))


def _detcov_simplex() -> list:
    fam = _iso_simplex_family()
    return _est(gp.detcov_derivative_rhs(fam, fam.a, 64 * 500, seed=19))


def _polygon_boundary() -> list:
    """Membership of a 16-gon's vertices and edge midpoints, and of those points
    moved by +-1e-13 (inside the tolerance) and +-1e-12 (at its edge, where the
    last bits of the edge frame decide) along each inward edge normal."""
    poly = gp.half_disk_polygon(16)
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    normals = np.stack([-e[:, 1], e[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    base = np.vstack([v, v + 0.5 * e])
    shifts = np.vstack([s * normals for s in (1e-13, -1e-13, 1e-12, -1e-12)])
    pts = np.vstack([base, (base[:, None, :] + shifts[None, :, :]).reshape(-1, 2)])
    return [poly.contains_batch(pts)]


def _det_cov_increase() -> list:
    fam = _iso_simplex_family()
    h = gp.Halfspace(fam.v, fam.a + 0.15)
    return _est(gp.det_cov_increase(fam.body, h, 64 * 200, seed=20))


CASES = {
    "stream/uniform": lambda: [gp.SampleStream(7, 3).uniform(1000)],
    "stream/normal": lambda: [gp.SampleStream(7, 3).normal(1000)],
    "stream/substream": lambda: [gp.SampleStream(7, 3).substream(5).uniform(16)],
    "sample/ball": lambda: _sample(BODIES["ball"]()),
    "sample/cone": lambda: _sample(BODIES["halfballcone"]()),
    "sample/reflect": lambda: _sample(gp.half_ball(3)),
    "sample/reflect_affine": lambda: _sample(gp.isotropic_half_ball(3)),
    "sample/slab": lambda: _sample(_cut_at(gp.half_ball(3), 0.4)),
    "sample/slab_two_sided": lambda: _sample(BODIES["cut_slab"]()),
    "sample/base_reject": lambda: _sample(_cut_at(gp.isotropic_half_ball(3), 0.3)),
    "sample/base_reject_tilted": lambda: _sample(BODIES["cut_tilted"]()),
    "sample/box_reject_simplex": lambda: _sample(gp.isotropic_simplex(3)),
    "sample/box_reject_polygon": lambda: _sample(gp.half_disk_polygon(64)),
    "sample/box_reject_affine": lambda: _sample(BODIES["affine_polygon"]()),
    "sample/slice": lambda: [
        gp.sample_slice(gp.SampleStream(13, 0), gp.half_ball(3), _oblique(3), 0.2, 2000)
    ],
    "sample/slice_d4": lambda: [
        gp.sample_slice(gp.SampleStream(13, 0), gp.half_ball(4), _e(4), 0.1, 2000)
    ],
    "membership/polygon_boundary": _polygon_boundary,
    "estimate/volume": lambda: _est(gp.volume_estimate(gp.isotropic_simplex(3), 64 * 200, seed=11)),
    "estimate/slice_measure": lambda: _est(
        gp.slice_measure(gp.SampleStream(12, 0), gp.isotropic_simplex(3), _oblique(3), 0.3, 20000)
    ),
    "estimate/slice_measure_d4": lambda: _est(
        gp.slice_measure(gp.SampleStream(12, 1), gp.half_ball(4), _e(4), 0.1, 20000)
    ),
    "estimate/moment": lambda: _est(gp.moment_estimate(gp.half_ball(3), 1, 64 * 50, seed=10)),
    "estimate/det_cov": lambda: _est(gp.det_cov_estimate(gp.half_disk_polygon(16), 64 * 100, seed=14)),
    "estimate/det_cov_increase": _det_cov_increase,
    "derivative/crofton_coordsum": _crofton_half_ball,
    "derivative/crofton_simplexvol": _crofton_simplex_volume,
    "derivative/detcov_square": _detcov_square,
    "derivative/detcov_simplex": _detcov_simplex,
}
CASES.update({f"geometry/{name}": (lambda name=name: _geometry(name)) for name in BODIES})

GOLDEN = {
    "derivative/crofton_coordsum": "ec05c45b7312fcbf0c0c080b3dfb7937f6a4d48d72891f306f72c8ea1e5a85fb",
    "derivative/crofton_simplexvol": "e95252c1660208f84020b6285daaa77236ef969a04fce7493a988caac8ff2e26",
    "derivative/detcov_simplex": "5bbadb72125bcb99bae06bf20e15aa816337991a967ecd6d6fbcf6d8d7cd35c6",
    "derivative/detcov_square": "141390cd01fd0e1cd4e48d7486158f31935fd720acdf49d064aaba7e6db9f8c4",
    "estimate/det_cov": "8beab9300efda60e95cd29c6f3033b2844bd6326e2613c73c0ee2d8846206709",
    "estimate/det_cov_increase": "0bb038b22a5f055923e1a691d6647b255e0cdc6c126e070fd3567626c83a6774",
    "estimate/moment": "e6e784c1797c1cf56547b499e430ea954a1c44968a828ea247d18918c72e684b",
    "estimate/slice_measure": "0f9d87a3322da7e9049fddcbb6d669aa1da751722dacb12d11884e2b9d3954c5",
    "estimate/slice_measure_d4": "c82de94083d0a5430b58fc0eb60cce1ef8ad6d266c219d2d011e0fbe84b24eb2",
    "estimate/volume": "dbb64cb9d861922da3c0328b96ae5fc04469101c09e7b2e08a98b506bf3f51e9",
    "geometry/affine_half_ball": "d036331b546b590653d159c4f8c6cc0dbbc75364583ea7c811f879223888a388",
    "geometry/affine_polygon": "0108c8ab6fb62fbc4b6ddf01db6caa98ae7bc5706c29782bdadd453d6f2d0510",
    "geometry/affine_tilted_cut": "3e9a034b6cbc4e3f674e32c1a680b1205b6e01ca51d1fac89314478a6960b97e",
    "geometry/ball": "fa33a3f92ae4a38a225abbacfd38e17276db73f38c1ac124bed1f283fc072bd0",
    "geometry/cut_cone": "72bb993ad416de271f0615034abf4cae28274460f23b9ddce86184af6a68f677",
    "geometry/cut_half_ball": "c4008f668670c498b8ba2864b5c16182970091d6ec3dd8ff09704840a4362790",
    "geometry/cut_hpoly": "544ca18726147e63cc81901b535e67a2438fed48327a10bf42b275b21557e39b",
    "geometry/cut_slab": "a4a217993533488570d9e9f47ba57a345abafca1a7fda006b6a68f926e37ffde",
    "geometry/cut_tilted": "1835a09669735b599ee242da69c17938ccc611bed918c1d1f883c405483045c4",
    "geometry/halfballcone": "d62867717904408db225f892c74457fb1dc2c6dc17a55d6c35b4d3372b1e7e13",
    "geometry/hpoly_cube": "6d3b6538930f8a65458ff7f6e41691d310e52ce89edc198b0cb71f13bdb5190b",
    "geometry/hpoly_hull": "83db0f5c882074f7c92cdb557500b988537e40707212454f95f594f851b2ed3b",
    "geometry/hpoly_simplex": "77fc229335ebde319e2f347fdc9e7172925f5cc71acb46bd3cc23266b5847c2f",
    "geometry/polygon": "dcd740c946df58e05d40c2ec7d852d71b3830bc04dbd6dfb49f21010498487a6",
    "membership/polygon_boundary": "ea5dbac86c05f856eab744e2ed55a4240fb0b1970087c8b11a57e7de6612a656",
    "sample/ball": "af4fb8fd4a80d722f10408c09dd766af66f311abfdaa14c3b82edf78c39d9b67",
    "sample/base_reject": "4d6c29227b4874453143a49b606cc17a6f96a5937f9c4b20acff94d9b4e3eeb2",
    "sample/base_reject_tilted": "5b83b26db138e4ccd5cf8154b4e85f369f929da9d369ce3d4a8d725e9b45a3b0",
    "sample/box_reject_affine": "4d3882de76090ccf45281f31e917e5def3cf05441185a5d1afb2be762417c3a0",
    "sample/box_reject_polygon": "8d3247d653171942d5db1542d9137ce0001a917a11e3bbdf51304cc5497301d6",
    "sample/box_reject_simplex": "1ca5381d545d75fd937cc30cb8026ff6acf356d29894d2d827dfa8402c128e53",
    "sample/cone": "909c1acdf51fc2297231c086485aa0818882cbc72b0cabddd5e7e41db4a6935c",
    "sample/reflect": "6cca3e896f4e846f5aac832a0c0998986d6b115eefb56e7d609cb635069ed2ff",
    "sample/reflect_affine": "d91eb89de1c8e00277d57a6503b1a89c0c86034b5732438fbee3e841969924fb",
    "sample/slab": "270e0e36b66ef4ec931c2590a62e85c8fa8064de004c9e8e16fa334b92b1eeb3",
    "sample/slab_two_sided": "d8f01a25f3bdf9635ec2a14c1f13eeb77e6aa657ed92d43eb864dcbd420ed6ce",
    "sample/slice": "6860e7fbf979895fcbb5f2398adbf35dfc5e87841b3170cc88a6bd49c032dedf",
    "sample/slice_d4": "5cd831eb552793651aeb9a30a0b6465d4cbd0c3c5badd20520ac248d7770221b",
    "stream/normal": "cc7660378137af362b9d7f5f3d1836d841debdae895dfc85e864851e702e8ffe",
    "stream/substream": "b08747be3c2a0286e409d0d614842cb63fe916de425ccb1e1d03d8274513018b",
    "stream/uniform": "7876d35df7d632cc0b495dd280cfb9ff895ec2465313d7fce0646aa43851958a",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert _digest(*CASES[case]()) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
