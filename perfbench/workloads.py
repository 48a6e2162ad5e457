"""The benchmark workloads: the acceptance criteria's calls at smaller budgets.

Each workload is built from a seed by ``build(seed, scale)``. It returns the
generated inputs (bodies, cut families, polygons) and a list of checks. A
check is one gated comparison: it calls the library on the inputs and
compares the result with a closed form, an identity or a second estimator,
using the gate of the acceptance criterion it replays. Checks look library
functions up on the package at call time, so a traced run sees every call.

``scale`` multiplies every sample budget; the benchmark runs at 1.0 and the
smoke test at a tiny scale. Set-up does not depend on it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import geomprob as gp
from geomprob import cli

SIGMA = 4.0  # two-sided gates of criteria 02, 03, 04, 10 and 12
Z_SEP = 3.0  # one-sided separations of criteria 05, 06 and 11
FD_REL = 0.05  # criterion 09: within 5% ...
FD_SIGMA = 3.0  # ... or within 3 sigma
H_STEP = 0.02  # criterion 09's finite-difference step


@dataclass(frozen=True)
class Outcome:
    """What one check produced: digest values, the gate verdict and its statistic."""

    values: tuple[float, ...]
    ok: bool
    z: float
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One gated comparison. ``points`` is its nominal budget: n times tuple size."""

    name: str
    points: int
    run: Callable[[dict], Outcome]


@dataclass(frozen=True)
class Plan:
    inputs: dict
    checks: list[Check]


def budget(base: int, scale: float) -> int:
    """A sample budget: a multiple of the 64 batches, at least 64 points each."""
    return max(64 * 64, int(base * scale) // 64 * 64)


def est_values(*estimates) -> tuple[float, ...]:
    return tuple(v for e in estimates for v in (e.mean, e.stderr))


def axis(d: int, j: int = 0) -> np.ndarray:
    e = np.zeros(d)
    e[j] = 1.0
    return e


# ---------------------------------------------------------------------------
# derivative-check: criteria 09 and 11


def _crofton_statistic(f):
    if f.arity == 1:
        return lambda body, n, stream: gp.expectation_estimate(body, f.eval_batch, 1, n, stream)
    return lambda body, n, stream: gp.moment_estimate(body, 1, n, stream)


def _fd_gate(rhs, fd) -> Outcome:
    diff = abs(rhs.mean - fd.mean)
    se = math.hypot(rhs.stderr, fd.stderr)
    ok = diff <= FD_REL * abs(fd.mean) or diff <= FD_SIGMA * se
    z = (rhs.mean - fd.mean) / se if se > 0 else 0.0
    return Outcome(est_values(rhs, fd), ok, z, f"rhs {rhs.mean:.6g} fd {fd.mean:.6g}")


def _crofton_check(fam_key: str, f_name: str, frac: float, n: int, seed: int) -> Callable:
    def run(inputs):
        fam = inputs[fam_key]
        d = fam.body.dim
        # built per call so a traced run sees the volume kernel it wraps
        f = gp.sf_simplex_volume(d) if f_name == "simplexvol" else gp.sf_coordinate_sum()
        t = fam.a + frac * (fam.b - fam.a)
        rhs = gp.crofton_derivative_rhs(fam, t, f, n, seed=seed)
        fd = gp.finite_difference(fam, t, H_STEP, _crofton_statistic(f), n, seed=seed + 1)
        return _fd_gate(rhs, fd)

    return run


def _detcov_check(fam_key: str, n: int, seed: int) -> Callable:
    def det_stat(body, n, stream):
        return gp.det_cov_estimate(body, n, stream)

    def run(inputs):
        fam = inputs[fam_key]
        rhs = gp.detcov_derivative_rhs(fam, fam.a, n, seed=seed)
        fd = gp.finite_difference(fam, fam.a, H_STEP, det_stat, n, seed=seed + 1)
        return _fd_gate(rhs, fd)

    return run


def _detcov_counterexample_check(n: int, seed: int) -> Callable:
    def run(inputs):
        rep = cli.detcov_counterexample(n=n, seed=seed, variant="simplex")
        m = rep.metrics
        ok = rep.verdict == "pass"
        ok &= abs(m["facet_center_norm"] - math.sqrt(5.0 / 3.0)) <= 0.01
        ok &= m["rhs_z"] >= Z_SEP and m["rhs"] > 0
        ok &= m["det_increase_z"] >= Z_SEP and m["det_increase"] > 0
        values = (m["facet_center_norm"], m["rhs"], m["rhs_stderr"], m["det_increase"], m["det_increase_stderr"])
        z = min(m["rhs_z"], m["det_increase_z"])
        return Outcome(values, bool(ok), z, f"rhs z {m['rhs_z']:.2f} fd z {m['det_increase_z']:.2f}")

    return run


# (family, integrand, cut depth as a fraction of the support interval):
# every family and integrand of criterion 09, each depth of it twice. The
# depths are fixed, not drawn from the seed, because a check's cost depends
# on its depth and the seed must not change the work a pass does.
CROFTON_CASES = (
    ("half_ball3", "simplexvol", 0.2),
    ("half_ball3", "coordsum", 0.6),
    ("half_ball4", "simplexvol", 0.4),
    ("half_ball4", "coordsum", 0.2),
    ("cube3", "simplexvol", 0.6),
    ("cube3", "coordsum", 0.4),
)


def derivative_check(seed: int, scale: float = 1.0) -> Plan:
    """Cut-derivative formulas against finite differences (criteria 09, 11).

    One check per (family, integrand) pair of ``CROFTON_CASES``; the two
    determinant-derivative families at their support minimum; and one
    hull-point counterexample run. The seed gives every check its seed and
    the isotropic simplex's sampled support maximum.
    """
    n = budget(48_000, scale)
    # detcov_derivative_rhs raises unless its covariance estimate, from n/4
    # points, is within 0.05 of the identity. At this fixed budget that is
    # over six standard errors; scaled down, the check would raise by chance.
    n_iso = 128_000
    inputs = {
        "half_ball3": gp.cut_family(gp.half_ball(3), axis(3)),
        "half_ball4": gp.cut_family(gp.half_ball(4), axis(4)),
        "cube3": gp.cut_family(gp.unit_cube(3), axis(3)),
        "iso_simplex3": gp.cut_family(
            gp.isotropic_simplex(3), gp.regular_simplex_vertices(3)[0], seed=gp.stream_key(seed, 0)
        ),
        "iso_half_ball3": gp.cut_family(gp.isotropic_half_ball(3), axis(3)),
    }
    checks = []
    for i, (fam_key, f_name, frac) in enumerate(CROFTON_CASES):
        arity = inputs[fam_key].body.dim + 1 if f_name == "simplexvol" else 1
        checks.append(Check(
            f"crofton/{fam_key}/{f_name}", 3 * n * arity,
            _crofton_check(fam_key, f_name, frac, n, gp.stream_key(seed, 10 + i)),
        ))
    for i, fam_key in enumerate(("iso_simplex3", "iso_half_ball3")):
        checks.append(Check(f"detcov/{fam_key}", 3 * n_iso,
                            _detcov_check(fam_key, n_iso, gp.stream_key(seed, 20 + i))))
    checks.append(Check("detcov_counterexample", n_iso,
                        _detcov_counterexample_check(n_iso, gp.stream_key(seed, 30))))
    return Plan(inputs, checks)


# ---------------------------------------------------------------------------
# moment-sweep: criteria 02, 03, 06 and 13


def _random_ball(stream: gp.SampleStream, d: int) -> gp.Ball:
    u = stream.uniform(d + 1)
    return gp.Ball(2.0 * u[:d] - 1.0, 0.5 + 1.5 * float(u[d]))


def _random_half_ball(stream: gp.SampleStream, d: int) -> gp.Cut:
    """A ball cut through its center along a random direction: the reflect path."""
    ball = _random_ball(stream, d)
    v = stream.normal(d)
    v /= np.linalg.norm(v)
    return gp.Cut(ball, gp.Halfspace(v, float(v @ ball.center)))


def _ball_moment_check(d: int, k: int, n: int, seed: int) -> Callable:
    def run(inputs):
        ball = inputs[f"ball{d}"]
        t0 = time.perf_counter()
        est = gp.moment_estimate(ball, k, n, seed=seed)
        # E V^k scales by r^(d k) from the unit ball
        exact = gp.ball_simplex_moment(d, k).to_float() * ball.radius ** (d * k)
        z = est.z_against(exact)
        ok = abs(z) <= SIGMA and time.perf_counter() - t0 < 60.0
        return Outcome(est_values(est), ok, z, f"mean {est.mean:.6g} exact {exact:.6g}")

    return run


def _det_identity_check(d: int, n: int, seed: int) -> Callable:
    def run(inputs):
        body = inputs[f"half_ball{d}"]
        factor = math.factorial(d) / (d + 1.0)
        det = gp.det_cov_estimate(body, n, seed=seed)
        mom = gp.moment_estimate(body, 2, n, seed=seed + 1)
        z = (det.mean - factor * mom.mean) / math.hypot(det.stderr, factor * mom.stderr)
        return Outcome(est_values(det, mom), abs(z) <= SIGMA, z)

    return run


def _sandwich_check(n: int, seed: int) -> Callable:
    def run(inputs):
        body = inputs["half_ball4"]
        pinned_exact = gp.ball_pinned_moment(4, 1).to_float()
        half_moment_floor = gp.ball_simplex_moment(4, 1).to_float() / 2.0
        ok = pinned_exact < half_moment_floor
        t0 = time.perf_counter()
        moment = gp.moment_estimate(body, 1, n, seed=seed)
        pinned = gp.pinned_moment_estimate(body, body.base.center, 1, n, seed=seed + 1)
        z = (moment.mean - pinned.mean) / math.hypot(moment.stderr, pinned.stderr)
        ok &= z >= Z_SEP and time.perf_counter() - t0 < 300.0
        return Outcome(est_values(moment, pinned), bool(ok), z)

    return run


def _open_case_check(n: int, seed: int) -> Callable:
    def run(inputs):
        cone = inputs["cone3"]
        rep = gp.counterexample_derivative_test(cone.d, cone.eps, n, seed=seed)
        m = rep.metrics
        ok = rep.verdict == "inconclusive" and math.isfinite(m["delta"]) and m["delta_stderr"] > 0
        values = (m["moment"], m["moment_stderr"], m["pinned_apex"], m["pinned_apex_stderr"])
        return Outcome(values, ok, m["z"], f"verdict {rep.verdict}")

    return run


def moment_sweep(seed: int, scale: float = 1.0) -> Plan:
    """Large-n moment and determinant estimates on direct samplers only.

    Balls and half-balls get a center, radius and (for half-balls) cut
    direction from the seed; the closed forms scale with the radius and the
    det identity and the d=4 separation hold for every half-ball.
    """
    n = budget(160_000, scale)
    stream = gp.SampleStream(seed, 0)
    inputs = {}
    for d in (2, 3, 4):
        inputs[f"ball{d}"] = _random_ball(stream.substream(d), d)
        inputs[f"half_ball{d}"] = _random_half_ball(stream.substream(10 + d), d)
    inputs["cone3"] = gp.HalfBallCone(3, 0.1)
    checks = []
    for d in (2, 3, 4):
        for k in (1, 2):
            checks.append(Check(f"ball_moment/d{d}/k{k}", n * (d + 1),
                                _ball_moment_check(d, k, n, gp.stream_key(seed, 100 + 10 * d + k))))
    for d in (2, 3, 4):
        checks.append(Check(f"det_identity/half_ball{d}", n * (d + 2),
                            _det_identity_check(d, n, gp.stream_key(seed, 200 + d))))
    checks.append(Check("sandwich/half_ball4", n * 9, _sandwich_check(n, gp.stream_key(seed, 230))))
    checks.append(Check("open_case/cone3", n * 7, _open_case_check(n, gp.stream_key(seed, 260))))
    return Plan(inputs, checks)


# ---------------------------------------------------------------------------
# planar-corpus: criteria 04, 05, 10 and 12

N_PAIRS = 8
N_BOTTOM = 8
N_SYMMETRIC = 6
N_TRIANGLES = 4


def _random_triangle(stream: gp.SampleStream) -> gp.Polygon2D:
    for _ in range(64):
        tri = gp.Polygon2D(2.0 * stream.uniform((3, 2)) - 1.0)
        if tri.area() > 0.1:
            return tri
    raise gp.InvalidBodyError("could not draw a non-degenerate triangle")


def _pair_check(i: int, n: int, seed: int) -> Callable:
    def run(inputs):
        inner, outer = inputs["pairs"][i]
        stream = gp.SampleStream(seed, 0)
        det_k = gp.det_cov_estimate(inner, n, stream.substream(0))
        det_l = gp.det_cov_estimate(outer, n, stream.substream(1))
        mom_k = gp.moment_estimate(inner, 1, n, stream.substream(2))
        mom_l = gp.moment_estimate(outer, 1, n, stream.substream(3))
        det_z = (det_k.mean - det_l.mean) / math.hypot(det_k.stderr, det_l.stderr)
        mom_z = (mom_k.mean - mom_l.mean) / math.hypot(mom_k.stderr, mom_l.stderr)
        ok = det_z <= SIGMA and mom_z <= SIGMA
        return Outcome(est_values(det_k, det_l, mom_k, mom_l), ok, max(det_z, mom_z))

    return run


def _pinned_bound_check(i: int, n: int, seed: int) -> Callable:
    def run(inputs):
        poly = inputs["bottom"][i]
        est = gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, n, seed=seed)
        area = poly.area()
        z = (est.mean / area - gp.PLANE_PINNED_BOUND) / (est.stderr / area)
        return Outcome(est_values(est), z > -Z_SEP, z)

    return run


def _invariants_check(key: str, i: int, angle: float) -> Callable:
    def run(inputs):
        poly = inputs[key][i]
        steinered = gp.steiner_symmetrize(poly, angle)
        shaken = gp.blaschke_shake(poly, 0.0)
        again = gp.blaschke_shake(shaken, 0.0)
        ok = math.isclose(steinered.area(), poly.area(), rel_tol=1e-12)
        ok &= math.isclose(shaken.area(), poly.area(), rel_tol=1e-12)
        ok &= bool(np.allclose(shaken.vertices, again.vertices, atol=1e-12))
        rel = abs(steinered.area() - poly.area()) / poly.area()
        return Outcome((steinered.area(), shaken.area(), again.area()), bool(ok), rel)

    return run


def _shake_check(i: int, n: int, seed: int) -> Callable:
    def run(inputs):
        poly = inputs["symmetric"][i]
        shaken = gp.blaschke_shake(poly, 0.0)
        before = gp.pinned_moment_estimate(poly, [0.0, 0.0], 1, n, seed=seed)
        after = gp.pinned_moment_estimate(shaken, [0.0, 0.0], 1, n, seed=seed + 1)
        z = (before.mean - after.mean) / math.hypot(before.stderr, after.stderr)
        return Outcome(est_values(before, after), z > -SIGMA, z)

    return run


def _triangle_check(i: int, n: int, seed: int) -> Callable:
    def run(inputs):
        tri = inputs["triangles"][i]
        est = gp.moment_estimate(tri, 1, n, seed=seed)
        area = tri.area()
        z = (est.mean / area - 1.0 / 12.0) / (est.stderr / area)
        return Outcome(est_values(est), abs(z) <= SIGMA, z)

    return run


def _pipeline_check(n: int, seed: int) -> Callable:
    def run(inputs):
        rep = gp.plane_bound_pipeline(inputs["pipeline"], [0.0, 0.0], n=n, seed=seed)
        m = rep.metrics
        values = tuple(m[k] for k in ("r0", "r0_stderr", "r1", "r1_stderr", "r2", "r2_stderr"))
        z = (m["r2"] - m["bound"]) / m["r2_stderr"]
        return Outcome(values, rep.verdict == "pass", z, f"verdict {rep.verdict}")

    return run


def planar_corpus(seed: int, scale: float = 1.0) -> Plan:
    """Many small polygons at small n: nested pairs, pinned bounds, symmetrizations.

    The corpus is generated from the seed at set-up: nested pairs (criterion
    10), bottom-pinned polygons (05 and 12), axis-symmetric polygons (12),
    random triangles (04, whose ratio 1/12 is affine invariant) and one
    bottom-pinned polygon for the symmetrization pipeline (05). Every
    bottom-pinned and symmetric polygon also gets the exact Steiner and
    shake invariants (12). These near-instant checks are as many as the
    costly pair, shake and pipeline checks, so the median check falls in
    the middle of the pinned and triangle estimates. Near an edge between
    check kinds, it would move with the shapes the seed draws.
    """
    n = budget(40_000, scale)
    gen = gp.SampleStream(seed, 0)
    inputs = {
        "pairs": [gp.nested_polygon_pair(gen.substream(i)) for i in range(N_PAIRS)],
        "bottom": [gp.bottom_pinned_polygon(gen.substream(100 + i)) for i in range(N_BOTTOM)],
        "symmetric": [gp.symmetric_bottom_polygon(gen.substream(200 + i)) for i in range(N_SYMMETRIC)],
        "triangles": [_random_triangle(gen.substream(300 + i)) for i in range(N_TRIANGLES)],
        "pipeline": gp.bottom_pinned_polygon(gen.substream(400)),
    }
    angles = math.pi * gen.substream(500).uniform(N_BOTTOM + N_SYMMETRIC)
    checks = []
    for i in range(N_PAIRS):
        checks.append(Check(f"nested_pair/{i}", n * 8, _pair_check(i, n, gp.stream_key(seed, 1000 + i))))
    for i in range(N_BOTTOM):
        checks.append(Check(f"pinned_bound/{i}", n * 2, _pinned_bound_check(i, n, gp.stream_key(seed, 2000 + i))))
        checks.append(Check(f"symmetrization/bottom/{i}", 0, _invariants_check("bottom", i, float(angles[i]))))
    for i in range(N_SYMMETRIC):
        checks.append(Check(f"shake/{i}", n * 4, _shake_check(i, n, gp.stream_key(seed, 3000 + 2 * i))))
        checks.append(Check(f"symmetrization/symmetric/{i}", 0,
                            _invariants_check("symmetric", i, float(angles[N_BOTTOM + i]))))
    for i in range(N_TRIANGLES):
        checks.append(Check(f"triangle/{i}", n * 3, _triangle_check(i, n, gp.stream_key(seed, 4000 + i))))
    checks.append(Check("plane_pipeline", n * 6, _pipeline_check(n, gp.stream_key(seed, 5000))))
    return Plan(inputs, checks)


WORKLOADS = {
    "derivative-check": derivative_check,
    "moment-sweep": moment_sweep,
    "planar-corpus": planar_corpus,
}
