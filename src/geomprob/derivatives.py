"""Derivatives of body statistics along a moving-halfspace cut family.

The family is K_t = K intersected with {<v, x> >= t} for t running from the
support minimum a to the maximum b. Two analytic expressions for d/dt are
implemented: one for the expectation of a symmetric function of q uniform
points (a Crofton-type formula) and one for det of the covariance matrix of
an isotropic body. Both are checked against finite differences of the plain
estimators.

Sign convention: t increasing cuts deeper, so for instance the volume
derivative is negative (-slice measure).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import (
    ConvexBody,
    HalfBallCone,
    Halfspace,
    box_body,
    intersect_halfspace,
    regular_simplex,
    regular_simplex_vertices,
    simplex_with_hull_point,
)
from .errors import DimensionError, NonIsotropicBodyError
from .estimators import (
    BATCH_COUNT,
    _batch_size,
    _jackknife,
    _pooled_dets,
    _resolve_stream,
    batch_simplex_volumes,
    covariance_estimate,
    isotropic_transform,
    moment_estimate,
    pinned_moment_estimate,
    volume_with_stderr,
)
from .report import ExperimentReport, MomentEstimate, mean_stderr
from .sampling import SampleStream, sample_body, sample_slice, slice_measure

CUT_ISOTROPY_TOL = 0.05
# one-sided gate, in standard errors, of the experiments' verdicts
Z_ONE_SIDED = 3.0
# cut offsets past the new hull vertex: for the derivative formula and for the det increase
RHS_DEPTH = 0.10
FD_DEPTH = 0.15

# an estimator handle: statistic(body, n, seed) -> MomentEstimate
Statistic = Callable[[ConvexBody, int, object], MomentEstimate]


@dataclass(frozen=True)
class CutFamily:
    """A body with a cut direction and its support interval [a, b]."""

    body: ConvexBody
    v: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm < 1e-300:
            raise ValueError("cut direction must be nonzero")
        object.__setattr__(self, "v", v / norm)
        if not self.a < self.b:
            raise ValueError(f"support interval is empty: [{self.a}, {self.b}]")

    def cut(self, t: float) -> ConvexBody:
        """K_t = body restricted to <v, x> >= t."""
        return intersect_halfspace(self.body, Halfspace(self.v, float(t)))


def support_interval(body: ConvexBody, v) -> tuple[float, float]:
    """The exact (inf, sup) of <v, x> over the body, from the body's ``support`` method.

    Raises InvalidBodyError for a cut of a HalfBallCone, which has no closed form.
    """
    lo, hi = body.support(v)
    # + 0.0 turns a zero end computed as -0.0 into 0.0
    return lo + 0.0, hi + 0.0


def cut_family(body: ConvexBody, v, seed=0) -> CutFamily:
    """The cut family of the body along v over its exact support interval.

    ``seed`` is accepted and ignored: the support interval draws no samples.
    """
    a, b = support_interval(body, v)
    return CutFamily(body, v, a, b)


@dataclass(frozen=True)
class SymmetricFunction:
    """Symmetric map of q points to a real, evaluated on stacked tuples."""

    name: str
    arity: int
    eval_batch: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points) -> float:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} points, got shape {pts.shape}")
        return float(self.eval_batch(pts[None, :, :])[0])


def sf_one() -> SymmetricFunction:
    return SymmetricFunction("one", 1, lambda pts: np.ones(pts.shape[0]))


def sf_coordinate_sum() -> SymmetricFunction:
    return SymmetricFunction("coordsum", 1, lambda pts: pts[:, 0, :].sum(axis=1))


def sf_simplex_volume(d: int) -> SymmetricFunction:
    return SymmetricFunction("simplexvol", d + 1, batch_simplex_volumes)


def _slice_rate(q, g, g_se, smeas: MomentEstimate, vol, vol_se, n) -> MomentEstimate:
    """q g S / V for slice measure S and volume V, with its delta-method stderr.

    q stays a separate factor inside each term: regrouping it, as in (q g_se)^2,
    changes the last bits of the result.
    """
    value = q * g * smeas.mean / vol
    var = (
        (q * smeas.mean / vol) ** 2 * g_se**2
        + (q * g / vol) ** 2 * smeas.stderr**2
        + (q * g * smeas.mean / vol**2) ** 2 * vol_se**2
    )
    return MomentEstimate(value, math.sqrt(var), n)


def crofton_derivative_rhs(fam: CutFamily, t: float, f: SymmetricFunction, n: int, seed=0) -> MomentEstimate:
    """d/dt E[f(X_1..X_q)] for X_i uniform in K_t, via the cut-rate formula.

    Value: q (E f - E[f | X_1 on the slice]) slice_measure / vol(K_t),
    with the family re-based at K_t so the left-endpoint formula applies at
    interior t. The two expectations share the X_2..X_q draws, so the
    difference cancels bitwise for constant f.
    """
    stream = _resolve_stream(seed)
    kt = fam.cut(t)
    d = kt.dim
    smeas = slice_measure(stream.substream(2), kt, fam.v, t, n)
    if smeas.mean == 0.0:
        # tangent or empty slice: the cut removes nothing to first order
        return MomentEstimate(0.0, 0.0, n)
    q = f.arity
    m = _batch_size(n)
    body_root = stream.substream(0)
    slice_root = stream.substream(1)
    deltas = np.empty(BATCH_COUNT)
    for b in range(BATCH_COUNT):
        pts = sample_body(body_root.substream(b), kt, m * q).reshape(m, q, d)
        full = f.eval_batch(pts)
        cond_pts = pts.copy()
        cond_pts[:, 0, :] = sample_slice(slice_root.substream(b), kt, fam.v, t, m)
        cond = f.eval_batch(cond_pts)
        deltas[b] = float(np.mean(full - cond))
    dbar, dse = mean_stderr(deltas)
    vol, vol_se = volume_with_stderr(kt, n, stream.substream(3))
    return _slice_rate(q, dbar, dse, smeas, vol, vol_se, m * BATCH_COUNT)


def detcov_derivative_rhs(fam: CutFamily, t: float, n: int, seed=0) -> MomentEstimate:
    """d/dt det A(K_t) for isotropic K_t.

    Value: (d - E[|X|^2 for X on the slice]) slice_measure / vol(K_t), the
    slice mean taken over max(10^4, n // 8) slice points. The formula's
    hypothesis is isotropy of K_t, enforced here by requiring the covariance
    estimate to be within CUT_ISOTROPY_TOL of the identity in max-entry norm.
    """
    stream = _resolve_stream(seed)
    kt = fam.cut(t)
    d = kt.dim
    cov = covariance_estimate(kt, max(n // 4, 64 * 64), stream.substream(0))
    dev = cov.max_deviation_from_identity()
    if dev > CUT_ISOTROPY_TOL:
        raise NonIsotropicBodyError(
            f"covariance of the cut body deviates from identity by {dev:.4f} "
            f"(tolerance {CUT_ISOTROPY_TOL}); apply isotropic_transform first"
        )
    smeas = slice_measure(stream.substream(2), kt, fam.v, t, n)
    if smeas.mean == 0.0:
        # tangent or empty slice: the cut removes nothing to first order
        return MomentEstimate(0.0, 0.0, n)
    ns = max(10**4, n // 8)
    sp = sample_slice(stream.substream(1), kt, fam.v, t, ns)
    msq, msq_se = mean_stderr(np.sum(sp**2, axis=1))
    vol, vol_se = volume_with_stderr(kt, n, stream.substream(3))
    return _slice_rate(1, d - msq, msq_se, smeas, vol, vol_se, n)


def _check_step(fam: CutFamily, t: float, h: float) -> None:
    """Raise ValueError unless h > 0 and K_{t+h} stays within the support: t + h <= b."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if t + h > fam.b + 1e-12:
        raise ValueError(f"t + h = {t + h} exceeds the support maximum {fam.b}")


def finite_difference(
    fam: CutFamily, t: float, h: float, statistic: Statistic, n: int, seed=0
) -> MomentEstimate:
    """(statistic(K_{t+h}) - statistic(K_t)) / h from independent substreams."""
    _check_step(fam, t, h)
    stream = _resolve_stream(seed)
    lo = statistic(fam.cut(t), n, stream.substream(0))
    hi = statistic(fam.cut(t + h), n, stream.substream(1))
    return MomentEstimate((hi.mean - lo.mean) / h, math.hypot(lo.stderr, hi.stderr) / h, lo.n + hi.n)


def h_refinement_report(
    fam: CutFamily, t: float, statistic: Statistic, h: float, n: int, seed=0
) -> list[dict]:
    """Finite differences at h, h/2 and h/4 sharing the base statistic(K_t).

    Sharing the base makes the discretization trend visible instead of
    being washed out by an independent redraw of the anchor value.
    """
    _check_step(fam, t, h)
    stream = _resolve_stream(seed)
    base = statistic(fam.cut(t), n, stream.substream(0))
    out = []
    step = h
    for level in range(3):
        hi = statistic(fam.cut(t + step), n, stream.substream(1 + level))
        out.append(
            {
                "h": step,
                "fd": (hi.mean - base.mean) / step,
                "stderr": math.hypot(base.stderr, hi.stderr) / step,
            }
        )
        step /= 2.0
    return out


def det_cov_increase(body: ConvexBody, h: Halfspace, n: int, seed=0) -> MomentEstimate:
    """det A(body cut by h) - det A(body) from one shared sample.

    Points of the body falling inside the halfspace are uniform on the cut
    body, so both determinants come from the same draws and the difference
    is estimated with only the cut-off points contributing noise. Standard
    error by delete-one-batch jackknife of the difference.
    """
    stream = _resolve_stream(seed)
    d = body.dim
    m = _batch_size(n)
    s1 = np.empty((BATCH_COUNT, d))
    s2 = np.empty((BATCH_COUNT, d, d))
    c1 = np.empty((BATCH_COUNT, d))
    c2 = np.empty((BATCH_COUNT, d, d))
    counts = np.empty(BATCH_COUNT)
    for b in range(BATCH_COUNT):
        pts = sample_body(stream.substream(b), body, m)
        s1[b] = pts.sum(axis=0)
        s2[b] = pts.T @ pts
        cut_pts = pts[h.contains_batch(pts)]
        c1[b] = cut_pts.sum(axis=0)
        c2[b] = cut_pts.T @ cut_pts
        counts[b] = cut_pts.shape[0]
    if counts.sum() < BATCH_COUNT * 2:
        raise NonIsotropicBodyError("cut retains too few points for a covariance estimate")
    cut_full, cut_loo = _pooled_dets(c1, c2, counts)
    all_full, all_loo = _pooled_dets(s1, s2, np.full(BATCH_COUNT, float(m)))
    value, stderr = _jackknife(cut_full - all_full, cut_loo - all_loo)
    return MomentEstimate(value, stderr, m * BATCH_COUNT)


def counterexample_derivative_test(d: int, eps: float, n: int, seed=0) -> ExperimentReport:
    """Compare E V with the pinned moment at the cone apex of HalfBallCone(d, eps, 0).

    Delta = E V - pinned(apex) is, up to the positive cut-rate factor, the
    derivative of E V as the cone tip is truncated. Delta > 0 means
    truncating the tip (shrinking the body) increases E V, so monotonicity
    of E V under inclusion fails. Expected sign: positive for d >= 4,
    negative for d = 2; d = 3 is the open case and always reports
    inconclusive.
    """
    t0 = time.perf_counter()
    if d < 2:
        raise DimensionError("the apex comparison needs dimension >= 2")
    body = HalfBallCone(d, eps, 0.0)
    stream = _resolve_stream(seed)
    m_est = moment_estimate(body, 1, n, stream.substream(0))
    p_est = pinned_moment_estimate(body, body.apex, 1, n, stream.substream(1))
    delta = m_est.mean - p_est.mean
    se = math.hypot(m_est.stderr, p_est.stderr)
    z = delta / se if se > 0 else 0.0
    if d == 3:
        verdict = "inconclusive"
    elif d == 2:
        verdict = "pass" if z <= -Z_ONE_SIDED else ("fail" if z >= Z_ONE_SIDED else "inconclusive")
    else:
        verdict = "pass" if z >= Z_ONE_SIDED else ("fail" if z <= -Z_ONE_SIDED else "inconclusive")
    return ExperimentReport(
        name="counterexample",
        verdict=verdict,
        seed=stream.seed,
        n=n,
        params={"d": d, "eps": eps},
        metrics={
            "moment": m_est.mean,
            "moment_stderr": m_est.stderr,
            "pinned_apex": p_est.mean,
            "pinned_apex_stderr": p_est.stderr,
            "delta": delta,
            "delta_stderr": se,
            "z": z,
        },
        wall_time_s=time.perf_counter() - t0,
    )


def detcov_counterexample(
    n: int = 2 * 10**6, seed: int = 0, variant: str = "simplex", alpha: float = 1.2
) -> ExperimentReport:
    """The determinant-monotonicity experiment in three flavors.

    simplex (d=3): isotropize a regular simplex, confirm its facet centers
    sit at norm sqrt(5/3) < sqrt(3), then make one facet center an extreme
    point of the hull, cut a small cap around it, and verify both the
    analytic derivative of det A and a shared-sample finite difference show
    det A increasing: an explicit nested pair with reversed determinants.

    ball (d=3): the isotropic ball has boundary norm sqrt(5) > sqrt(3), so
    this mechanism cannot fire; reported inconclusive by design.

    square (d=2): every edge family of the isotropic square has a
    non-positive derivative, the monotone case.
    """
    t0 = time.perf_counter()
    stream = SampleStream(seed, 0)
    if variant == "ball":
        radius = math.sqrt(5.0)
        return ExperimentReport(
            name="detcov-counterexample",
            verdict="inconclusive",
            seed=seed,
            n=0,
            params={"variant": "ball", "d": 3},
            metrics={"boundary_norm": radius, "threshold": math.sqrt(3.0)},
            wall_time_s=time.perf_counter() - t0,
        )
    if variant == "square":
        side = math.sqrt(3.0)
        square = box_body([-side, -side], [side, side])
        edge_rhs = []
        all_nonpositive = True
        for j, sign in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)):
            v = np.zeros(2)
            v[j] = sign
            fam = CutFamily(square, v, -side, side)
            est = detcov_derivative_rhs(fam, -side, n, stream.substream(2 * j + (sign < 0)))
            edge_rhs.append(est.mean)
            if est.mean > Z_ONE_SIDED * est.stderr:
                all_nonpositive = False
        return ExperimentReport(
            name="detcov-counterexample",
            verdict="pass" if all_nonpositive else "fail",
            seed=seed,
            n=n,
            params={"variant": "square", "d": 2},
            metrics={"edge_rhs_max": max(edge_rhs), "edge_rhs_min": min(edge_rhs)},
            wall_time_s=time.perf_counter() - t0,
        )
    if variant != "simplex":
        raise ValueError(f"unknown variant {variant!r}")

    # isotropized regular simplex: facet centers at the extremal inradius
    base = regular_simplex(3, 1.0)
    iso_base = isotropic_transform(base, min(n, 10**6), stream.substream(0))
    centers = -regular_simplex_vertices(3, 1.0) / 3.0
    image_centers = centers @ iso_base.matrix.T + iso_base.shift
    facet_norm = float(np.linalg.norm(image_centers, axis=1).min())
    facet_ok = abs(facet_norm - math.sqrt(5.0 / 3.0)) <= 0.01

    # hull-point body, isotropized, with the support direction at the new vertex
    body, xa = simplex_with_hull_point(alpha)
    iso = isotropic_transform(body, max(min(n, 2 * 10**6), 10**6), stream.substream(1))
    x_iso = iso.matrix @ xa + iso.shift
    new_normals = body.normals[-3:] @ iso.inverse
    new_normals /= np.linalg.norm(new_normals, axis=1, keepdims=True)
    v = new_normals.sum(axis=0)
    v /= np.linalg.norm(v)
    a = float(v @ x_iso)
    proj = (regular_simplex_vertices(3, math.sqrt(15.0)) @ iso.matrix.T + iso.shift) @ v
    fam = CutFamily(iso, v, a, float(proj.max()))

    rhs = detcov_derivative_rhs(fam, a + RHS_DEPTH, n, stream.substream(2))
    rhs_z = rhs.mean / rhs.stderr if rhs.stderr > 0 else 0.0
    inc = det_cov_increase(iso, Halfspace(v, a + FD_DEPTH), n, stream.substream(3))
    inc_z = inc.mean / inc.stderr if inc.stderr > 0 else 0.0
    verdict = "pass" if (facet_ok and rhs_z >= Z_ONE_SIDED and inc_z >= Z_ONE_SIDED) else "fail"
    return ExperimentReport(
        name="detcov-counterexample",
        verdict=verdict,
        seed=seed,
        n=n,
        params={"variant": "simplex", "d": 3, "alpha": alpha, "rhs_depth": RHS_DEPTH, "fd_depth": FD_DEPTH},
        metrics={
            "facet_center_norm": facet_norm,
            "hull_point_norm": float(np.linalg.norm(x_iso)),
            "rhs": rhs.mean,
            "rhs_stderr": rhs.stderr,
            "rhs_z": rhs_z,
            "det_increase": inc.mean,
            "det_increase_stderr": inc.stderr,
            "det_increase_z": inc_z,
        },
        wall_time_s=time.perf_counter() - t0,
    )
