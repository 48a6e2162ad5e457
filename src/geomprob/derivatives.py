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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, HalfBallCone, Halfspace, intersect_halfspace
from .errors import DimensionError, NonIsotropicBodyError
from .estimators import (
    BATCH_COUNT,
    MomentEstimate,
    _batch_size,
    _jackknife,
    _pooled_dets,
    _resolve_stream,
    _seed_of,
    batch_simplex_volumes,
    covariance_estimate,
    moment_estimate,
    pinned_moment_estimate,
    volume_with_stderr,
)
from .report import ExperimentReport
from .sampling import sample_body, sample_slice, slice_measure

CUT_ISOTROPY_TOL = 0.05
SUPPORT_SAMPLES = 8192

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


def support_interval(body: ConvexBody, v, seed=0) -> tuple[float, float]:
    """(inf, sup) of <v, x> over the body, from the body's ``support`` method.

    Where no closed form applies, the extremes of SUPPORT_SAMPLES points sampled
    from the innermost body where it runs out, which slightly underestimate the
    interval.
    """

    def sampled(inner: ConvexBody, u: np.ndarray) -> tuple[float, float]:
        proj = sample_body(_resolve_stream(seed).substream(97), inner, SUPPORT_SAMPLES) @ u
        return float(proj.min()), float(proj.max())

    return body.support(v, sampled)


def cut_family(body: ConvexBody, v, seed=0) -> CutFamily:
    a, b = support_interval(body, v, seed=seed)
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


def _slice_rate(q, g, g_se, smeas: MomentEstimate, vol, vol_se, n, seed) -> MomentEstimate:
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
    return MomentEstimate(mean=value, stderr=math.sqrt(var), n=n, k=1, seed=_seed_of(seed))


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
    dbar = float(deltas.mean())
    dse = float(deltas.std(ddof=1) / math.sqrt(BATCH_COUNT))
    smeas = slice_measure(stream.substream(2), kt, fam.v, t, n)
    vol, vol_se = volume_with_stderr(kt, n, stream.substream(3))
    return _slice_rate(q, dbar, dse, smeas, vol, vol_se, m * BATCH_COUNT, seed)


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
        return MomentEstimate(mean=0.0, stderr=0.0, n=n, k=1, seed=_seed_of(seed))
    ns = max(10**4, n // 8)
    sp = sample_slice(stream.substream(1), kt, fam.v, t, ns)
    sq = np.sum(sp**2, axis=1)
    msq = float(sq.mean())
    msq_se = float(sq.std(ddof=1) / math.sqrt(ns))
    vol, vol_se = volume_with_stderr(kt, n, stream.substream(3))
    return _slice_rate(1, d - msq, msq_se, smeas, vol, vol_se, n, seed)


def finite_difference(
    fam: CutFamily, t: float, h: float, statistic: Statistic, n: int, seed=0
) -> MomentEstimate:
    """(statistic(K_{t+h}) - statistic(K_t)) / h from independent substreams."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if t + h > fam.b + 1e-12:
        raise ValueError(f"t + h = {t + h} exceeds the support maximum {fam.b}")
    stream = _resolve_stream(seed)
    lo = statistic(fam.cut(t), n, stream.substream(0))
    hi = statistic(fam.cut(t + h), n, stream.substream(1))
    return MomentEstimate(
        mean=(hi.mean - lo.mean) / h,
        stderr=math.hypot(lo.stderr, hi.stderr) / h,
        n=lo.n + hi.n,
        k=1,
        seed=_seed_of(seed),
    )


def h_refinement_report(
    fam: CutFamily, t: float, statistic: Statistic, h: float, n: int, seed=0
) -> list[dict]:
    """Finite differences at h, h/2 and h/4 sharing the base statistic(K_t).

    Sharing the base makes the discretization trend visible instead of
    being washed out by an independent redraw of the anchor value.
    """
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
    return MomentEstimate(mean=value, stderr=stderr, n=m * BATCH_COUNT, k=1, seed=_seed_of(seed))


def counterexample_derivative_test(d: int, eps: float, n: int, seed=0) -> ExperimentReport:
    """Compare E V with the pinned moment at the cone apex of HalfBallCone(d, eps, 0).

    Delta = E V - pinned(apex) is, up to the positive cut-rate factor, the
    derivative of E V as the cone tip is truncated. Delta > 0 means
    truncating the tip (shrinking the body) increases E V, so monotonicity
    of E V under inclusion fails. Expected sign: positive for d >= 4,
    negative for d = 2; d = 3 is the open case and always reports
    inconclusive.
    """
    import time

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
        verdict = "pass" if z <= -3 else ("fail" if z >= 3 else "inconclusive")
    else:
        verdict = "pass" if z >= 3 else ("fail" if z <= -3 else "inconclusive")
    return ExperimentReport(
        name="counterexample",
        verdict=verdict,
        seed=_seed_of(seed),
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
