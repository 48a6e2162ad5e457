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
    _unit,
    box_body,
    intersect_halfspace,
    regular_simplex,
    regular_simplex_vertices,
    simplex_with_hull_point,
)
from .errors import DimensionError, NonIsotropicBodyError
from .estimators import (
    BATCH_COUNT,
    _resolve_stream,
    batch_simplex_volumes,
    covariance_estimate,
    det_cov_increase,
    expectation_estimate,
    isotropic_transform,
    moment_estimate,
    pinned_moment_estimate,
    volume_with_stderr,
)
from .report import ExperimentReport, MomentEstimate, mean_stderr
from .sampling import SampleStream, sample_slice, slice_measure

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
        object.__setattr__(self, "v", _unit(self.v))
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

    arity: int
    eval_batch: Callable[[np.ndarray], np.ndarray]


def sf_one() -> SymmetricFunction:
    return SymmetricFunction(1, lambda pts: np.ones(pts.shape[0]))


def sf_coordinate_sum() -> SymmetricFunction:
    return SymmetricFunction(1, lambda pts: pts[:, 0, :].sum(axis=1))


def sf_simplex_volume(d: int) -> SymmetricFunction:
    return SymmetricFunction(d + 1, batch_simplex_volumes)


def _cut_rate(
    fam: CutFamily, kt: ConvexBody, t: float, q: int, integrand: Callable[[], MomentEstimate], n: int,
    stream: SampleStream,
) -> MomentEstimate:
    """q g S / V at the slice {<v, x> = t} of K_t, with its delta-method stderr.

    S is the slice measure (substream 2) and V the volume of K_t (substream
    3). ``integrand()`` gives g with its stderr and the returned n; it is
    called only when S > 0. A tangent or empty slice gives exactly 0.

    q stays a separate factor inside each term: regrouping it, as in (q g.stderr)^2,
    changes the last bits of the result.
    """
    smeas = slice_measure(stream.substream(2), kt, fam.v, t, n)
    if smeas.mean == 0.0:
        # tangent or empty slice: the cut removes nothing to first order
        return MomentEstimate(0.0, 0.0, n)
    g = integrand()
    vol, vol_se = volume_with_stderr(kt, n, stream.substream(3))
    value = q * g.mean * smeas.mean / vol
    var = (
        (q * smeas.mean / vol) ** 2 * g.stderr**2
        + (q * g.mean / vol) ** 2 * smeas.stderr**2
        + (q * g.mean * smeas.mean / vol**2) ** 2 * vol_se**2
    )
    return MomentEstimate(value, math.sqrt(var), g.n)


def crofton_derivative_rhs(fam: CutFamily, t: float, f: SymmetricFunction, n: int, seed=0) -> MomentEstimate:
    """d/dt E[f(X_1..X_q)] for X_i uniform in K_t, via the cut-rate formula.

    Value: q (E f - E[f | X_1 on the slice]) slice_measure / vol(K_t),
    with the family re-based at K_t so the left-endpoint formula applies at
    interior t. The two expectations share the X_2..X_q draws, so the
    difference cancels bitwise for constant f.

    The differences are one ``expectation_estimate`` on substream 0. The
    slice points of all its batches come from one ``sample_slice`` call on
    substream 1, which builds the slice frame once; batch b takes rows
    b m to (b + 1) m of it.
    """
    stream = _resolve_stream(seed)
    kt = fam.cut(t)

    def delta() -> MomentEstimate:
        slice_pts = sample_slice(stream.substream(1), kt, fam.v, t, n - n % BATCH_COUNT)
        slice_rows = iter(np.split(slice_pts, BATCH_COUNT))

        def fn(pts):
            cond_pts = pts.copy()
            cond_pts[:, 0, :] = next(slice_rows)
            return f.eval_batch(pts) - f.eval_batch(cond_pts)

        return expectation_estimate(kt, fn, f.arity, n, stream.substream(0))

    return _cut_rate(fam, kt, t, f.arity, delta, n, stream)


def detcov_derivative_rhs(fam: CutFamily, t: float, n: int, seed=0) -> MomentEstimate:
    """d/dt det A(K_t) for isotropic K_t.

    Value: (d - E[|X|^2 for X on the slice]) slice_measure / vol(K_t), the
    slice mean taken over max(10^4, n // 8) slice points. The formula's
    hypothesis is isotropy of K_t, enforced here by requiring its covariance
    to be within CUT_ISOTROPY_TOL of the identity in max-entry norm: the
    exact one of ``kt.moments()`` where K_t has it, as an ``HPolytope`` does,
    else a ``covariance_estimate`` from max(n // 4, 4096) points of
    substream 0, which feeds nothing else.
    """
    stream = _resolve_stream(seed)
    kt = fam.cut(t)
    moments = kt.moments()
    if moments is not None:
        cov = moments[2]
    else:
        cov = covariance_estimate(kt, max(n // 4, 64 * 64), stream.substream(0)).matrix
    dev = float(np.abs(cov - np.eye(kt.dim)).max())
    if dev > CUT_ISOTROPY_TOL:
        raise NonIsotropicBodyError(
            f"covariance of the cut body deviates from identity by {dev:.4f} "
            f"(tolerance {CUT_ISOTROPY_TOL}); apply isotropic_transform first"
        )

    def mean_square_gap() -> MomentEstimate:
        sp = sample_slice(stream.substream(1), kt, fam.v, t, max(10**4, n // 8))
        msq, msq_se = mean_stderr(np.sum(sp**2, axis=1))
        return MomentEstimate(kt.dim - msq, msq_se, n)

    return _cut_rate(fam, kt, t, 1, mean_square_gap, n, stream)


def _check_step(fam: CutFamily, t: float, h: float) -> None:
    """Raise ValueError unless h > 0 and K_{t+h} stays within the support: t + h <= b."""
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    if t + h > fam.b + 1e-12:
        raise ValueError(f"t + h = {t + h} exceeds the support maximum {fam.b}")


def _quotient(lo: MomentEstimate, hi: MomentEstimate, h: float) -> tuple[float, float]:
    """(hi - lo) / h for independent estimates, and its standard error."""
    return (hi.mean - lo.mean) / h, math.hypot(lo.stderr, hi.stderr) / h


def finite_difference(
    fam: CutFamily, t: float, h: float, statistic: Statistic, n: int, seed=0
) -> MomentEstimate:
    """(statistic(K_{t+h}) - statistic(K_t)) / h from independent substreams."""
    _check_step(fam, t, h)
    stream = _resolve_stream(seed)
    lo = statistic(fam.cut(t), n, stream.substream(0))
    hi = statistic(fam.cut(t + h), n, stream.substream(1))
    return MomentEstimate(*_quotient(lo, hi, h), lo.n + hi.n)


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
        fd, stderr = _quotient(base, hi, step)
        out.append({"h": step, "fd": fd, "stderr": stderr})
        step /= 2.0
    return out


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
    Both bodies are HPolytopes, so each is isotropized from its exact
    moments and draws nothing; the derivative and the difference draw from
    substreams 2 and 3 of the seed.

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
    iso_base = isotropic_transform(base)
    centers = -regular_simplex_vertices(3, 1.0) / 3.0
    image_centers = centers @ iso_base.matrix.T + iso_base.shift
    facet_norm = float(np.linalg.norm(image_centers, axis=1).min())
    facet_ok = abs(facet_norm - math.sqrt(5.0 / 3.0)) <= 0.01

    # hull-point body, isotropized, with the support direction at the new vertex
    body, xa = simplex_with_hull_point(alpha)
    iso = isotropic_transform(body)
    x_iso = iso.matrix @ xa + iso.shift
    new_normals = body.normals[-3:] @ iso.inverse
    new_normals /= np.linalg.norm(new_normals, axis=1, keepdims=True)
    v = new_normals.sum(axis=0)
    v /= np.linalg.norm(v)
    fam = cut_family(iso, v)
    a = fam.a

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
