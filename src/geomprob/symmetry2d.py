"""Steiner symmetrization, Blaschke shaking, the planar pinned-ratio bound,
and det A and E V monotonicity over nested random polygons.

Both operators work on a chord decomposition of a convex polygon: rotate so
the relevant line is the x-axis, split the boundary into a lower chain
alpha(u) and an upper chain alpha(u) + length(u), both piecewise linear in
the abscissa u. Steiner re-centers every vertical chord on the axis
(alpha -> -length/2); shaking drops every chord onto a horizontal line
(alpha -> line_y). Chord lengths are untouched, so areas are preserved
exactly up to float roundoff.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid
from scipy.spatial import ConvexHull, QhullError

from .bodies import Polygon2D, VERTEX_TOL
from .errors import InvalidBodyError
from .estimators import _resolve_stream, det_cov_estimate, moment_estimate, pinned_moment_estimate
from .report import ExperimentReport
from .sampling import SampleStream

PLANE_PINNED_BOUND = 8.0 / (9.0 * math.pi**2)
# two-sided gate, in standard errors, on every Monte Carlo comparison here
SIGMA_WINDOW = 4.0


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class ChordProfile:
    """Vertical-chord decomposition of a polygon rotated by -angle.

    ``alpha`` and ``length`` hold the piecewise-linear node values at the
    breakpoints; between breakpoints both interpolate linearly. ``length``
    is the chord length, so alpha + length is the upper chain.
    """

    angle: float
    breakpoints: np.ndarray
    alpha: np.ndarray
    length: np.ndarray

    @property
    def u_min(self) -> float:
        return float(self.breakpoints[0])

    @property
    def u_max(self) -> float:
        return float(self.breakpoints[-1])

    def alpha_at(self, u) -> np.ndarray:
        return np.interp(u, self.breakpoints, self.alpha)

    def length_at(self, u) -> np.ndarray:
        return np.interp(u, self.breakpoints, self.length)

    def area(self) -> float:
        return float(trapezoid(self.length, self.breakpoints))


def _collapse_chain(u: np.ndarray, y: np.ndarray, keep_max: bool, tol: float):
    """Merge chain nodes with equal abscissa (vertical edges at the chain ends)."""
    out_u: list[float] = []
    out_y: list[float] = []
    for ui, yi in zip(u, y):
        if out_u and abs(ui - out_u[-1]) <= tol:
            out_y[-1] = max(out_y[-1], yi) if keep_max else min(out_y[-1], yi)
        else:
            out_u.append(float(ui))
            out_y.append(float(yi))
    return np.array(out_u), np.array(out_y)


def chord_profile(poly: Polygon2D, angle: float) -> ChordProfile:
    """Decompose the polygon into lower/upper chains of vertical chords.

    The polygon is rotated by -angle first, so the line at ``angle``
    becomes the u-axis. Breakpoints are the projected vertices of both
    chains.
    """
    v = poly.vertices @ _rotation(-angle).T
    m = len(v)
    scale = max(1.0, float(np.abs(v).max()))
    tol = VERTEX_TOL * scale
    order = np.lexsort((v[:, 1], v[:, 0]))
    i_min, i_max = int(order[0]), int(order[-1])

    lower_idx = [i_min]
    i = i_min
    while i != i_max:
        i = (i + 1) % m
        lower_idx.append(i)
    upper_idx = [i_max]
    i = i_max
    while i != i_min:
        i = (i + 1) % m
        upper_idx.append(i)

    lo_u, lo_y = _collapse_chain(v[lower_idx, 0], v[lower_idx, 1], keep_max=False, tol=tol)
    up_u, up_y = _collapse_chain(
        v[upper_idx, 0][::-1], v[upper_idx, 1][::-1], keep_max=True, tol=tol
    )
    if len(lo_u) < 2 or len(up_u) < 2:
        raise InvalidBodyError("polygon is degenerate along the chord direction")

    bp = np.unique(np.concatenate([lo_u, up_u]))
    merged = [bp[0]]
    for u in bp[1:]:
        if u - merged[-1] > tol:
            merged.append(u)
        else:
            merged[-1] = u
    bp = np.array(merged)
    alpha = np.interp(bp, lo_u, lo_y)
    upper = np.interp(bp, up_u, up_y)
    length = upper - alpha
    if float(length.min()) < -1e-9 * scale:
        raise InvalidBodyError("chord decomposition produced negative lengths")
    return ChordProfile(angle, bp, alpha, np.maximum(length, 0.0))


def _polygon_from_chains(angle: float, bp: np.ndarray, alpha: np.ndarray, length: np.ndarray) -> Polygon2D:
    lower = np.stack([bp, alpha], axis=1)
    upper = np.stack([bp, alpha + length], axis=1)[::-1]
    verts = np.vstack([lower, upper]) @ _rotation(angle).T
    return Polygon2D(verts)


def steiner_symmetrize(poly: Polygon2D, angle: float) -> Polygon2D:
    """Re-center all chords perpendicular to the line through the origin at ``angle``.

    The output is symmetric about that line and has the same area.
    """
    p = chord_profile(poly, angle)
    return _polygon_from_chains(angle, p.breakpoints, -p.length / 2.0, p.length)


def blaschke_shake(poly: Polygon2D, line_y: float) -> Polygon2D:
    """Drop every vertical chord so its lower end rests on the line y = line_y.

    The polygon must already lie in the halfspace {y >= line_y} (within
    vertex tolerance); shaking with respect to a line not supporting from
    below is not defined here.
    """
    v = poly.vertices
    scale = max(1.0, float(np.abs(v).max()))
    if float(v[:, 1].min()) < line_y - VERTEX_TOL * scale:
        raise InvalidBodyError(f"polygon must lie in y >= {line_y} to be shaken onto that line")
    p = chord_profile(poly, 0.0)
    return _polygon_from_chains(0.0, p.breakpoints, np.full_like(p.breakpoints, line_y), p.length)


# ---------------------------------------------------------------------------
# boundary frames and the pinned-ratio pipeline


def _boundary_frame(poly: Polygon2D, x) -> Polygon2D:
    """Translate x to the origin and rotate the inward normal at x to +y.

    x must lie on the boundary. At a vertex the inward normal is the
    normalized mean of the two adjacent edge normals (any supporting
    direction in the normal cone works for the pipeline).
    """
    x = np.asarray(x, dtype=float)
    v = poly.vertices
    scale = max(1.0, float(np.abs(v).max()))
    tol = 1e-9 * scale
    normals = []
    m = len(v)
    on_boundary = False
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        e = b - a
        elen = float(np.linalg.norm(e))
        s = float(np.clip((x - a) @ e / (elen * elen), 0.0, 1.0))
        dist = float(np.linalg.norm(x - (a + s * e)))
        if dist <= tol:
            on_boundary = True
            normals.append(np.array([-e[1], e[0]]) / elen)
    if not on_boundary:
        raise InvalidBodyError("the pinned point must lie on the polygon boundary")
    n = np.mean(normals, axis=0)
    n /= np.linalg.norm(n)
    rot = _rotation(math.pi / 2.0 - math.atan2(n[1], n[0]))
    return Polygon2D((v - x) @ rot.T)


def _pinned_ratio(poly: Polygon2D, n: int, seed) -> tuple[float, float]:
    est = pinned_moment_estimate(poly, np.zeros(2), 1, n, seed)
    area = poly.area()
    return est.mean / area, est.stderr / area


def plane_bound_pipeline(poly: Polygon2D, x, n: int = 10**6, seed=0) -> ExperimentReport:
    """Check the pinned-ratio chain down to the universal planar bound 8/(9 pi^2).

    r0 is the pinned ratio of (poly, x); r1 after Steiner symmetrization
    about the normal line at x; r2 after shaking onto the supporting line.
    Each step may only decrease the ratio (within Monte Carlo noise), and
    the final body still satisfies the bound.
    """
    t0 = time.perf_counter()
    stream = _resolve_stream(seed)
    body0 = _boundary_frame(poly, x)
    body1 = steiner_symmetrize(body0, math.pi / 2.0)
    body2 = blaschke_shake(body1, 0.0)
    r0, se0 = _pinned_ratio(body0, n, stream.substream(0))
    r1, se1 = _pinned_ratio(body1, n, stream.substream(1))
    r2, se2 = _pinned_ratio(body2, n, stream.substream(2))
    step1_ok = r0 - r1 >= -SIGMA_WINDOW * math.hypot(se0, se1)
    step2_ok = r1 - r2 >= -SIGMA_WINDOW * math.hypot(se1, se2)
    bound_ok = r2 >= PLANE_PINNED_BOUND - SIGMA_WINDOW * se2
    verdict = "pass" if (step1_ok and step2_ok and bound_ok) else "fail"
    return ExperimentReport(
        name="plane-check",
        verdict=verdict,
        seed=stream.seed,
        n=n,
        params={"x": list(np.asarray(x, dtype=float))},
        metrics={
            "r0": r0,
            "r0_stderr": se0,
            "r1": r1,
            "r1_stderr": se1,
            "r2": r2,
            "r2_stderr": se2,
            "bound": PLANE_PINNED_BOUND,
        },
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# polygon corpora for the monotonicity experiments


def random_convex_polygon(stream: SampleStream, n_points: int = 12) -> Polygon2D:
    """Convex hull of n_points uniform in [-1, 1]^2, retried if its area is 0.1 or less."""
    for _ in range(64):
        pts = stream.uniform((n_points, 2)) * 2.0 - 1.0
        try:
            poly = Polygon2D(pts[ConvexHull(pts).vertices])
        except QhullError:  # a flat cloud
            continue
        if poly.area() > 0.1:
            return poly
    raise InvalidBodyError("could not draw a non-degenerate random polygon")


def bottom_pinned_polygon(stream: SampleStream) -> Polygon2D:
    """Random 12-point convex polygon translated so its unique lowest vertex is the origin.

    The horizontal axis then supports the polygon at the origin, which is
    the frame the symmetrization lemmas need.
    """
    for _ in range(64):
        poly = random_convex_polygon(stream)
        v = poly.vertices
        i = int(np.argmin(v[:, 1]))
        gaps = np.delete(v[:, 1], i) - v[i, 1]
        if float(gaps.min()) > 1e-6:
            return Polygon2D(v - v[i])
    raise InvalidBodyError("could not find a polygon with a unique bottom vertex")


def symmetric_bottom_polygon(stream: SampleStream) -> Polygon2D:
    """Axis-symmetric polygon resting on y = 0 with its bottom vertex at the origin.

    Hull of 6 random upper points, their mirror images across x = 0, and the
    origin: exactly the hypotheses of the shaking monotonicity lemma with
    the pinned point at the origin.
    """
    pts = stream.uniform((6, 2))
    upper = np.stack([pts[:, 0] * 2.0 - 1.0, 0.2 + 0.8 * pts[:, 1]], axis=1)
    mirrored = upper * np.array([-1.0, 1.0])
    cloud = np.vstack([upper, mirrored, np.zeros((1, 2))])
    return Polygon2D(cloud[ConvexHull(cloud).vertices])


def clip_polygon(poly: Polygon2D, normal, offset: float) -> Polygon2D | None:
    """Sutherland-Hodgman clip keeping {<normal, x> >= offset}; None if empty."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    v = poly.vertices
    out: list[np.ndarray] = []
    m = len(v)
    for i in range(m):
        a, b = v[i], v[(i + 1) % m]
        da, db = float(a @ n - offset), float(b @ n - offset)
        if da >= 0:
            out.append(a)
            if db < 0:
                out.append(a + (b - a) * (da / (da - db)))
        elif db >= 0:
            out.append(a + (b - a) * (da / (da - db)))
    if len(out) < 3:
        return None
    try:
        return Polygon2D(np.array(out))
    except InvalidBodyError:
        return None


def nested_polygon_pair(stream: SampleStream) -> tuple[Polygon2D, Polygon2D]:
    """(K, L) with K a halfspace-clipped sub-polygon of the random polygon L,
    keeping at least 0.15 of its area."""
    for _ in range(64):
        outer = random_convex_polygon(stream, 14)
        inner: Polygon2D | None = outer
        n_cuts = 1 + int(stream.uniform(1)[0] * 3.0)
        for _ in range(n_cuts):
            theta = float(stream.uniform(1)[0]) * 2.0 * math.pi
            direction = np.array([math.cos(theta), math.sin(theta)])
            proj = inner.vertices @ direction
            lo, hi = float(proj.min()), float(proj.max())
            frac = 0.2 + 0.5 * float(stream.uniform(1)[0])
            candidate = clip_polygon(inner, direction, lo + frac * (hi - lo))
            if candidate is not None:
                inner = candidate
        if inner is not outer and inner.area() >= 0.15 * outer.area():
            return inner, outer
    raise InvalidBodyError("could not build a nested polygon pair")


def monotonicity_2d(pairs: int, n: int, seed: int = 0) -> ExperimentReport:
    """Nested random polygon pairs K in L: both det A and E V stay monotone."""
    if pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {pairs}")
    t0 = time.perf_counter()
    stream = SampleStream(seed, 0)
    det_violations = 0
    moment_violations = 0
    worst_det_z = -math.inf
    worst_moment_z = -math.inf
    for i in range(pairs):
        inner, outer = nested_polygon_pair(stream.substream(2 * i))
        est_stream = stream.substream(2 * i + 1)
        det_k = det_cov_estimate(inner, n, est_stream.substream(0))
        det_l = det_cov_estimate(outer, n, est_stream.substream(1))
        mom_k = moment_estimate(inner, 1, n, est_stream.substream(2))
        mom_l = moment_estimate(outer, 1, n, est_stream.substream(3))
        det_z = (det_k.mean - det_l.mean) / math.hypot(det_k.stderr, det_l.stderr)
        mom_z = (mom_k.mean - mom_l.mean) / math.hypot(mom_k.stderr, mom_l.stderr)
        worst_det_z = max(worst_det_z, det_z)
        worst_moment_z = max(worst_moment_z, mom_z)
        if det_z > SIGMA_WINDOW:
            det_violations += 1
        if mom_z > SIGMA_WINDOW:
            moment_violations += 1
    verdict = "pass" if det_violations == 0 and moment_violations == 0 else "fail"
    return ExperimentReport(
        name="monotonicity-2d",
        verdict=verdict,
        seed=seed,
        n=n,
        params={"pairs": pairs},
        metrics={
            "det_violations": det_violations,
            "moment_violations": moment_violations,
            "worst_det_z": worst_det_z,
            "worst_moment_z": worst_moment_z,
        },
        wall_time_s=time.perf_counter() - t0,
    )
