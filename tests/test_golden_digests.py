"""Golden digests: sha256 hashes of seeded outputs, pinned to the bit.

``PYTHONPATH=src python tests/test_golden_digests.py`` prints the current
digest of every case as a ``"case": "digest",`` line, ready to paste into
GOLDEN; pytest's assertion message truncates it.

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
(``ndtri``, ``betainc``, ``betaincinv``, and LAPACK's ``det`` where it is
still used) and with them some digests. Simplex volumes for d <= 4 are
closed-form products in numpy, so their digests do not depend on the
LAPACK build. The slab sampler's axis quantiles are written out at d = 3
and d = 4 (at d = 4 ``betaincinv`` only seeds a table that two Newton
steps polish), so ``betaincinv`` now feeds only the slabs at other
dimensions, here ``sample/slab_d5``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def _support(body, v):
    """The support interval, or the name of the error for a body without one."""
    try:
        return gp.support_interval(body, v)
    except gp.InvalidBodyError as err:
        return type(err).__name__


def _geometry(name: str) -> list:
    body = BODIES[name]()
    box = gp.bounding_box(body)
    d = body.dim
    return [
        box.lo,
        box.hi,
        body.volume(),
        json.dumps(body.to_json()),
        _support(body, _e(d)),
        _support(body, -_e(d)),
        _support(body, _oblique(d)),
    ]


def _sample(body) -> list:
    return [gp.sample_body(gp.SampleStream(21, 4), body, 3000)]


def _cut_at(body, offset) -> gp.ConvexBody:
    return gp.intersect_halfspace(body, gp.Halfspace(_e(body.dim), offset))


def _iso_simplex_family():
    sim = gp.isotropic_simplex(3)
    return gp.cut_family(sim, gp.regular_simplex_vertices(3)[0])


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


def _first_polygon() -> gp.Polygon2D:
    return gp.random_convex_polygon(gp.SampleStream(31, 0))


def _second_polygon() -> gp.Polygon2D:
    return gp.bottom_pinned_polygon(gp.SampleStream(32, 0))


def _plane_pipeline() -> list:
    rep = gp.plane_bound_pipeline(_second_polygon(), [0.0, 0.0], n=64 * 50, seed=9)
    metrics = [rep.metrics[key] for key in sorted(rep.metrics)]
    return [rep.verdict, rep.seed, rep.n, ",".join(sorted(rep.metrics)), metrics]


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
    "sample/slab_d4": lambda: _sample(_cut_at(gp.half_ball(4), 0.4)),
    "sample/slab_d5": lambda: _sample(_cut_at(gp.half_ball(5), 0.4)),
    "sample/base_reject": lambda: _sample(_cut_at(gp.isotropic_half_ball(3), 0.3)),
    "sample/base_reject_tilted": lambda: _sample(BODIES["cut_tilted"]()),
    "sample/box_reject_simplex": lambda: _sample(gp.isotropic_simplex(3)),
    "sample/box_reject_polygon": lambda: _sample(gp.half_disk_polygon(64)),
    # acceptance 0.167 at n = 40,000: several rounds, the first ones capped at REJECTION_BATCH
    "sample/box_reject_capped": lambda: [
        gp.sample_body(gp.SampleStream(21, 4), gp.isotropic_simplex(3), 40_000)
    ],
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
    "symmetry2d/random_convex_polygon": lambda: [_first_polygon().vertices],
    "symmetry2d/bottom_pinned_polygon": lambda: [_second_polygon().vertices],
    "symmetry2d/symmetric_bottom_polygon": lambda: [
        gp.symmetric_bottom_polygon(gp.SampleStream(33, 0)).vertices
    ],
    "symmetry2d/nested_polygon_pair": lambda: [
        poly.vertices for poly in gp.nested_polygon_pair(gp.SampleStream(34, 0))
    ],
    "symmetry2d/steiner": lambda: [gp.steiner_symmetrize(_first_polygon(), 0.7).vertices],
    "symmetry2d/shake": lambda: [gp.blaschke_shake(_second_polygon(), 0.0).vertices],
    "symmetry2d/plane_pipeline": _plane_pipeline,
}
CASES.update({f"geometry/{name}": (lambda name=name: _geometry(name)) for name in BODIES})

GOLDEN = {
    "derivative/crofton_coordsum": "109317e145adc51cd6226de2e2baa102eb039c7e57f81f5b2f46ddec1149eb5d",
    "derivative/crofton_simplexvol": "e95252c1660208f84020b6285daaa77236ef969a04fce7493a988caac8ff2e26",
    "derivative/detcov_simplex": "5bbadb72125bcb99bae06bf20e15aa816337991a967ecd6d6fbcf6d8d7cd35c6",
    "derivative/detcov_square": "141390cd01fd0e1cd4e48d7486158f31935fd720acdf49d064aaba7e6db9f8c4",
    "estimate/det_cov": "8beab9300efda60e95cd29c6f3033b2844bd6326e2613c73c0ee2d8846206709",
    "estimate/det_cov_increase": "0bb038b22a5f055923e1a691d6647b255e0cdc6c126e070fd3567626c83a6774",
    "estimate/moment": "f36a7cba7cf29d1294813ace6f1e0939b5a5ee5e0ec2205e470ac6fff49878b8",
    "estimate/slice_measure": "0f9d87a3322da7e9049fddcbb6d669aa1da751722dacb12d11884e2b9d3954c5",
    "estimate/slice_measure_d4": "c82de94083d0a5430b58fc0eb60cce1ef8ad6d266c219d2d011e0fbe84b24eb2",
    "estimate/volume": "dbb64cb9d861922da3c0328b96ae5fc04469101c09e7b2e08a98b506bf3f51e9",
    "geometry/affine_half_ball": "091edd25b0503a037bd5b3fbdf2776b9dbb0c74f9eeab0e5afa099787ade1c47",
    "geometry/affine_polygon": "0108c8ab6fb62fbc4b6ddf01db6caa98ae7bc5706c29782bdadd453d6f2d0510",
    "geometry/affine_tilted_cut": "d9ab96ad03d8fdcee22fc59a4c9ebad452a4136daea10a12de1c1da03861f543",
    "geometry/ball": "fa33a3f92ae4a38a225abbacfd38e17276db73f38c1ac124bed1f283fc072bd0",
    "geometry/cut_cone": "97a88734109055f6924da8ae723c1b96af29e8e6e957e81a9c61412e7b839b41",
    "geometry/cut_half_ball": "ea65bd9c72808e9050c813de568c01fb28be21435dd76896da5f50c64399d6e3",
    "geometry/cut_hpoly": "dab278ce83bfa470a89f9c73adba592b3017078a37528c4732de544ea2d3a0d6",
    "geometry/cut_slab": "8e634a3e6d89ff76d4bf45d970104e5387b9c85f7464a319494a25fa1bd5a777",
    "geometry/cut_tilted": "a5345d6e4b85889e4206d5a2e82e346356f01e00a1d3d1fada557489a88ee75e",
    "geometry/halfballcone": "1fa28f935086f6d02ba369c23a97d07445fa848c80b534a7520d9b8f71f648eb",
    "geometry/hpoly_cube": "969941c74302daf1cfd28443f7c636622775f74e0f781e403dd175fd06059ad9",
    "geometry/hpoly_hull": "03907591b871eb0afacdcaf782d0536b359be8a54cc03b8d55ec1fddc987bb17",
    "geometry/hpoly_simplex": "63b56920ff877a7e2caed983a3aa093bc885c77a3ea3117a99b5fe567ad4f201",
    "geometry/polygon": "dcd740c946df58e05d40c2ec7d852d71b3830bc04dbd6dfb49f21010498487a6",
    "membership/polygon_boundary": "ea5dbac86c05f856eab744e2ed55a4240fb0b1970087c8b11a57e7de6612a656",
    "sample/ball": "af4fb8fd4a80d722f10408c09dd766af66f311abfdaa14c3b82edf78c39d9b67",
    "sample/base_reject": "bf356216fce0113405b53c1bb50c1c0c46c96ef1eb82e960248b5f514756eef7",
    "sample/base_reject_tilted": "a81cd239c451ff4bffd060ff73dd74a392a14f75b6c97ba117bcd341fa7e23aa",
    "sample/box_reject_affine": "4d3882de76090ccf45281f31e917e5def3cf05441185a5d1afb2be762417c3a0",
    "sample/box_reject_capped": "cb61c55ae97cc0d17f84cd6107e0241865db896305ae7867bac4ccaa1242a0a9",
    "sample/box_reject_polygon": "8d3247d653171942d5db1542d9137ce0001a917a11e3bbdf51304cc5497301d6",
    "sample/box_reject_simplex": "1ca5381d545d75fd937cc30cb8026ff6acf356d29894d2d827dfa8402c128e53",
    "sample/cone": "909c1acdf51fc2297231c086485aa0818882cbc72b0cabddd5e7e41db4a6935c",
    "sample/reflect": "6cca3e896f4e846f5aac832a0c0998986d6b115eefb56e7d609cb635069ed2ff",
    "sample/reflect_affine": "d91eb89de1c8e00277d57a6503b1a89c0c86034b5732438fbee3e841969924fb",
    "sample/slab": "3d24780912c3cd45aaaab425ae643c66bc80ad64bca38b466bf6493e3cd3584b",
    "sample/slab_two_sided": "e4adfb999d8a6e52f24e3b3a869bb07e78bfba108963a9059d22dbb0b92cc43b",
    "sample/slab_d4": "0871a2a31e6c1d0a7089ae8b85f8d38941633df04056103bfe666eb7518845d2",
    "sample/slab_d5": "652e82050bf6cc2543e868249fcc9b1d9fc5cabf167bdef93e516ce2ce519b98",
    "sample/slice": "6860e7fbf979895fcbb5f2398adbf35dfc5e87841b3170cc88a6bd49c032dedf",
    "sample/slice_d4": "5cd831eb552793651aeb9a30a0b6465d4cbd0c3c5badd20520ac248d7770221b",
    "stream/normal": "cc7660378137af362b9d7f5f3d1836d841debdae895dfc85e864851e702e8ffe",
    "stream/substream": "b08747be3c2a0286e409d0d614842cb63fe916de425ccb1e1d03d8274513018b",
    "stream/uniform": "7876d35df7d632cc0b495dd280cfb9ff895ec2465313d7fce0646aa43851958a",
    "symmetry2d/bottom_pinned_polygon": "e5a188152f1429d745632c766870818eb567fa5db4e87c969ae1973ad7a49f24",
    "symmetry2d/nested_polygon_pair": "4726650847b97dd5d42289f5f727a0156747b2c71fd3de26388fa2346be4a215",
    "symmetry2d/plane_pipeline": "40f1e763c00727e723ad8cb8b7fd73df2c451d2a80e656fa383fb04efaebcb4e",
    "symmetry2d/random_convex_polygon": "04760e275ecb534a0a3dcab74296bb7be33e65b95fcb90cb572a1021a31adcff",
    "symmetry2d/shake": "98d1d7a23c3134cd8901cdb6d95b18a20f5834128747a72e4e0942fe556eebbf",
    "symmetry2d/steiner": "a32cca6862dd173fd49bd7d38863186d5a378580d658499758b5a2605da18f67",
    "symmetry2d/symmetric_bottom_polygon": "b12b3ca5848c8ee8e23fc9c88f825feab6dd1558f80d0b90d57bef66c9c1c933",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert _digest(*CASES[case]()) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


# halfspace membership runs as a (k, d) x (d, m) BLAS product
BLAS_CASES = sorted(case for case in CASES if case.startswith(("sample/box_reject", "membership/")))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rejection_digests_do_not_depend_on_blas_threads(threads):
    """The polygon and polytope rejection digests, recomputed in a fresh process
    whose OpenBLAS splits its products over the given number of threads."""
    assert len(BLAS_CASES) == 5
    src = Path(gp.__file__).resolve().parents[1]
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(src), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    script = (
        "import json, test_golden_digests as g; "
        f"print(json.dumps({{c: g._digest(*g.CASES[c]()) for c in {BLAS_CASES!r}}}))"
    )
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {case: GOLDEN[case] for case in BLAS_CASES}


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(*CASES[case]())}",')
