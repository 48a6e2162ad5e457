"""Reproducible uniform sampling over convex bodies.

Streams are counter based: a stream is identified by (seed, index) and is
bit-identical regardless of which other streams were drawn first, so every
experiment can split work into independent substreams without bookkeeping.
The (seed, index) pair is mixed through the splitmix64 finalizer and keys a
Philox counter generator.

Gaussians come from the inverse normal CDF applied to fixed-width uniforms
(53-bit mantissa, half-open midpoint placement), not from rejection, so the
stream consumption per variate is constant and results cannot shift when
the underlying generator version changes its ziggurat tables.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from . import exact
from .bodies import (
    AffineImage,
    Ball,
    BoundingBox,
    ConvexBody,
    Cut,
    HalfBallCone,
    _ball_axis_cdf,
    _ball_axis_ppf,
    bounding_box,
    parallel_slab_params,
)
from .errors import DegenerateBodyError, DegenerateSliceError, DimensionError

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

REJECTION_BATCH = 65536
MAX_CONSECUTIVE_MISSES = 10**6
SLICE_BASIS_TOL = 1e-10


def splitmix64(z: int) -> int:
    """The splitmix64 output mixer on a 64-bit state."""
    z &= MASK64
    z = (z ^ (z >> 30)) * MIX_MULT_1 & MASK64
    z = (z ^ (z >> 27)) * MIX_MULT_2 & MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, index: int) -> int:
    """64-bit key for substream ``index`` of ``seed``."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return splitmix64((seed + GOLDEN_GAMMA * (index + 1)) & MASK64)


class SampleStream:
    """One independent substream of uniforms, normals, and body samples."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & MASK64
        self.index = int(index)
        self._gen = np.random.Generator(np.random.Philox(key=stream_key(self.seed, self.index)))

    def substream(self, index: int) -> "SampleStream":
        """Independent child stream; children of distinct indices never collide."""
        return SampleStream(stream_key(self.seed, self.index) ^ GOLDEN_GAMMA, index)

    def uniform(self, size) -> np.ndarray:
        """Uniforms in (0, 1), each from exactly one 64-bit draw."""
        raw = self._gen.integers(0, 1 << 53, size=size, dtype=np.uint64)
        return (raw.astype(np.float64) + 0.5) * (1.0 / (1 << 53))

    def normal(self, size) -> np.ndarray:
        return ndtri(self.uniform(size))


def sample_ball(stream: SampleStream, n: int, d: int, center=None, radius: float = 1.0) -> np.ndarray:
    """n uniform points in a d-ball via normalized Gaussians times U^(1/d)."""
    g = stream.normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = stream.uniform((n, 1)) ** (1.0 / d)
    pts = g / norms * r * radius
    if center is not None:
        pts += np.asarray(center, dtype=float)
    return pts


def _sample_half_ball_cone(stream: SampleStream, n: int, body: HalfBallCone) -> np.ndarray:
    """Piecewise direct sampler: half-ball part and cone frustum part.

    The frustum is the cone from apex (-eps, 0, ...) with its tip below
    x_1 = -eps + delta removed; radial scaling s about the apex is drawn
    from the exact cone volume profile.
    """
    d, eps, delta = body.d, body.eps, body.delta
    p_half = exact.kappa(d).to_float() / 2.0 / body.volume()
    take_half = stream.uniform(n) < p_half
    out = np.empty((n, d))

    n_half = int(take_half.sum())
    pts = sample_ball(stream, n_half, d)
    pts[:, 0] = np.abs(pts[:, 0])
    out[take_half] = pts

    n_cone = n - n_half
    base = sample_ball(stream, n_cone, d - 1)
    u = stream.uniform(n_cone)
    low = (delta / eps) ** d
    s = (low + u * (1.0 - low)) ** (1.0 / d)
    cone = np.empty((n_cone, d))
    cone[:, 0] = -eps + s * eps
    cone[:, 1:] = base * s[:, None]
    out[~take_half] = cone
    return out


def _reject(n: int, d: int, propose, accept, source: str) -> np.ndarray:
    """The first n accepted proposals, in proposal order.

    ``propose(m)`` draws m candidate points and ``accept(pts)`` masks the
    ones to keep; ``source`` ends the message of the starvation error.
    """
    out = np.empty((n, d))
    got = 0
    misses = 0
    while got < n:
        m = min(REJECTION_BATCH, max(4 * (n - got), 1024))
        pts = propose(m)
        ok = accept(pts)
        k = int(ok.sum())
        if k == 0:
            misses += m
            if misses >= MAX_CONSECUTIVE_MISSES:
                raise DegenerateBodyError(f"no acceptance in {misses} proposals{source}")
            continue
        misses = 0
        take = min(k, n - got)
        out[got : got + take] = pts[ok][:take]
        got += take
    return out


def _rejection_sample(stream, n, box, predicate) -> np.ndarray:
    """n points of the box accepted by the predicate, proposed uniformly."""
    source = "; body volume is negligible inside its bounding box"
    return _reject(n, box.dim, lambda m: box.uniform(stream, m), predicate, source)


def _direct_sampler(body: ConvexBody):
    """Return an exact sampler fn(stream, n) -> points, or None."""
    if isinstance(body, Ball):
        return lambda stream, n: sample_ball(stream, n, body.dim, body.center, body.radius)
    if isinstance(body, HalfBallCone):
        return lambda stream, n: _sample_half_ball_cone(stream, n, body)
    if isinstance(body, AffineImage):
        inner = _direct_sampler(body.base)
        if inner is None:
            return None
        return lambda stream, n: inner(stream, n) @ body.matrix.T + body.shift
    if isinstance(body, Cut) and isinstance(body.base, Ball):
        h = body.halfspace
        ball = body.base
        if abs(float(h.normal @ ball.center) - h.offset) <= 1e-12:
            # hyperplane through the center: reflect the wrong side over
            def fn(stream, n, h=h, ball=ball):
                pts = sample_ball(stream, n, ball.dim, ball.center, ball.radius)
                rel = pts - ball.center
                proj = rel @ h.normal
                wrong = proj < 0
                pts[wrong] -= 2.0 * proj[wrong, None] * h.normal
                return pts

            return fn
    if isinstance(body, Cut):
        params = parallel_slab_params(body)
        if params is not None:
            return _slab_sampler(*params)
    return None


def _slab_sampler(ball: Ball, axis: np.ndarray, s_lo: float, s_hi: float):
    """Exact sampler for a ball restricted to s_lo <= <axis, x - c>/R <= s_hi.

    The axis coordinate is drawn by inverting its marginal CDF between the
    slab quantiles; the transverse part is uniform in the section ball. No
    rejection, so arbitrarily thin caps cost the same as thick ones.
    """
    d = ball.dim
    q_lo = _ball_axis_cdf(d, s_lo)
    q_hi = _ball_axis_cdf(d, s_hi)
    if not q_lo < q_hi:
        return None
    basis = slice_basis(axis) if d >= 2 else None

    def fn(stream: SampleStream, n: int) -> np.ndarray:
        q = q_lo + stream.uniform(n) * (q_hi - q_lo)
        s = _ball_axis_ppf(d, q)
        pts = s[:, None] * axis[None, :]
        if d >= 2:
            section = np.sqrt(np.maximum(1.0 - s * s, 0.0))
            pts += (sample_ball(stream, n, d - 1) * section[:, None]) @ basis
        return ball.center + ball.radius * pts

    return fn


def sample_body(stream: SampleStream, body: ConvexBody, n: int) -> np.ndarray:
    """n points uniform in the body.

    Balls, half-ball cones, center cuts of balls, and affine images of
    these sample directly; everything else rejects from the bounding box.
    A Cut whose base samples directly rejects from the base sampler rather
    than the box, which keeps acceptance high for thin caps.
    """
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")
    if n == 0:
        return np.empty((0, body.dim))
    direct = _direct_sampler(body)
    if direct is not None:
        return direct(stream, n)
    if isinstance(body, Cut):
        base_fn = _direct_sampler(body.base)
        if base_fn is not None:
            accept = body.halfspace.contains_batch
            return _reject(n, body.dim, lambda m: base_fn(stream, m), accept, " from the base sampler")
    box = bounding_box(body)
    if box.volume() <= 0:
        raise DegenerateBodyError("bounding box has zero volume")
    return _rejection_sample(stream, n, box, body.contains_batch)


def slice_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit v, shape (d-1, d).

    Deterministic: Gram-Schmidt of the coordinate axes against v, keeping
    axes whose residual exceeds SLICE_BASIS_TOL.
    """
    d = v.shape[0]
    rows = [v]
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        for r in rows:
            e -= (e @ r) * r
        norm = float(np.linalg.norm(e))
        if norm > SLICE_BASIS_TOL:
            rows.append(e / norm)
        if len(rows) == d:
            break
    if len(rows) != d:
        raise DimensionError("could not complete an orthonormal slice basis")
    return np.array(rows[1:])


def sample_slice(stream: SampleStream, body: ConvexBody, v, t: float, n: int) -> np.ndarray:
    """n points uniform on the hyperplane section {x in body : <v, x> = t}.

    Rejection from a (d-1)-box in slice coordinates, sized from the body's
    bounding sphere. Raises DegenerateSliceError when the section has
    negligible (d-1)-volume.
    """
    basis, box, anchor = _slice_frame(body, v, t)
    try:
        coords = _rejection_sample(stream, n, box, lambda c: body.contains_batch(anchor + c @ basis))
    except DegenerateBodyError as err:
        raise DegenerateSliceError(
            f"slice at offset {t} has negligible measure: {err}"
        ) from err
    return anchor + coords @ basis


def _slice_frame(body: ConvexBody, v, t: float):
    """(basis, box, anchor): coordinates c on {<v, x> = t} map to anchor + c @ basis.

    The (d-1)-box [-r, r]^(d-1) covers the section: the plane's cut of the
    sphere about the origin through the farthest corner of the body's box.
    """
    if body.dim < 2:
        raise DimensionError("slices need ambient dimension >= 2")
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    big = bounding_box(body).max_norm()
    r2 = big * big - t * t
    # where the plane only grazes the bounding sphere, keep a positive box
    radius = float(np.sqrt(r2)) if r2 > 0 else max(abs(big) * 1e-8, 1e-8)
    d1 = body.dim - 1
    return slice_basis(v), BoundingBox(np.full(d1, -radius), np.full(d1, radius)), t * v


def slice_measure(stream: SampleStream, body: ConvexBody, v, t: float, n: int):
    """Estimate the (d-1)-volume of the section {<v, x> = t} of the body.

    Monte Carlo in slice coordinates: acceptance fraction of a box of known
    (d-1)-volume, with the usual binomial standard error. Returns a
    MomentEstimate.
    """
    from .estimators import MomentEstimate

    basis, box, anchor = _slice_frame(body, v, t)
    # (2r)^(d-1) by pow: box.volume() multiplies the sides and can differ in the last bit
    box_vol = (2.0 * float(box.hi[0])) ** box.dim
    ok = body.contains_batch(anchor + box.uniform(stream, n) @ basis)
    p = float(ok.mean())
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
    return MomentEstimate(mean=p * box_vol, stderr=se * box_vol, n=n)
