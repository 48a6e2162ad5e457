"""Monte Carlo estimators over convex bodies.

Every estimator is a pure function of (body, parameters, seed): batch b of
an estimate always draws from substream b of the seed, so results are
identical no matter how batches would be scheduled. Standard errors come
from batch means over a fixed 64-batch layout; determinant standard errors
come from a delete-one-batch jackknife on the same layout.

The requested sample count is rounded down to a multiple of the batch
count. Dimensions are small (at most 8). Simplex volumes take |det| of one
d x d edge matrix per simplex; ``_det`` writes the determinant out in closed
form for d <= 4 and calls LAPACK (``np.linalg.det``) above that. Everything
else is plain numpy linear algebra on stacked tiny matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, affine_image, bounding_box, exact_volume
from .errors import DegenerateBodyError, SingularTransformError
from .report import MomentEstimate, hit_or_miss, mean_stderr
from .sampling import SampleStream, sample_body

BATCH_COUNT = 64
MIN_COVARIANCE_EIGENVALUE = 1e-9
VOLUME_CHUNK = 4096


@dataclass(frozen=True)
class CovarianceEstimate:
    """Sample centroid and population-normalized covariance matrix."""

    centroid: np.ndarray
    matrix: np.ndarray
    n: int
    stderr_scale: float

    def max_deviation_from_identity(self) -> float:
        return float(np.abs(self.matrix - np.eye(self.matrix.shape[0])).max())


def _resolve_stream(seed) -> SampleStream:
    if isinstance(seed, SampleStream):
        return seed
    return SampleStream(int(seed), 0)


def _batch_size(n: int) -> int:
    m = n // BATCH_COUNT
    if m < 1:
        raise ValueError(f"need at least {BATCH_COUNT} samples, got {n}")
    return m


def simplex_volume(points) -> float:
    """Volume of the simplex spanned by d+1 points in dimension d."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError(f"need d+1 points of dimension d, got shape {pts.shape}")
    return float(batch_simplex_volumes(pts[None, :, :])[0])


def _minor(m: np.ndarray, p: int, q: int, k: int, l: int) -> np.ndarray:
    """The 2x2 minor of rows (p, q) and columns (k, l) of each matrix in the stack."""
    return m[:, p, k] * m[:, q, l] - m[:, p, l] * m[:, q, k]


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, shape (n, d, d) -> (n,).

    For d <= 4 the determinant is written out: the cofactor expansion along
    row 0 for d <= 3, and for d = 4 the Laplace expansion in the 2x2 minors
    of rows (0, 1) and (2, 3). Elementwise products over the stack are
    several times faster than LAPACK's per-matrix LU on these sizes, and
    fastest when ``m[:, i, j]`` is contiguous (see ``_edges``). Anything else,
    larger or not a stack of square matrices, goes to ``np.linalg.det``,
    which also raises its usual errors.
    """
    if m.ndim != 3 or m.shape[1] != m.shape[2] or not 1 <= m.shape[2] <= 4:
        return np.linalg.det(m)
    d = m.shape[2]
    if d == 1:
        return m[:, 0, 0].copy()
    if d == 2:
        return _minor(m, 0, 1, 0, 1)
    if d == 3:
        return (
            m[:, 0, 0] * _minor(m, 1, 2, 1, 2)
            - m[:, 0, 1] * _minor(m, 1, 2, 0, 2)
            + m[:, 0, 2] * _minor(m, 1, 2, 0, 1)
        )
    return (
        _minor(m, 0, 1, 0, 1) * _minor(m, 2, 3, 2, 3)
        - _minor(m, 0, 1, 0, 2) * _minor(m, 2, 3, 1, 3)
        + _minor(m, 0, 1, 0, 3) * _minor(m, 2, 3, 1, 2)
        + _minor(m, 0, 1, 1, 2) * _minor(m, 2, 3, 0, 3)
        - _minor(m, 0, 1, 1, 3) * _minor(m, 2, 3, 0, 2)
        + _minor(m, 0, 1, 2, 3) * _minor(m, 2, 3, 0, 1)
    )


def _edges(points: np.ndarray, base: np.ndarray) -> np.ndarray:
    """points - base for a stack (n, k, d), with base broadcasting as (n or 1, 1, d).

    The result is an (n, k, d) view of a (k, d, n) array, so that each entry
    taken across the stack, ``edges[:, i, j]``, is contiguous for ``_det``.
    """
    if points.ndim != 3:
        return points - base
    out = np.empty(points.shape[1:] + points.shape[:1])
    np.subtract(points.transpose(1, 2, 0), base.transpose(1, 2, 0), out=out)
    return out.transpose(2, 0, 1)


def _volumes(points: np.ndarray, base: np.ndarray) -> np.ndarray:
    """|det(points - base)| / d! per simplex, VOLUME_CHUNK simplices at a time.

    Each chunk's edge stack stays in cache while ``_det`` reads it entry by
    entry; the arithmetic per simplex, and so every bit, is the same as for
    one whole-stack pass.
    """
    d = points.shape[-1]
    n = points.shape[0]
    if points.ndim != 3 or n <= VOLUME_CHUNK:
        return np.abs(_det(_edges(points, base))) / math.factorial(d)
    out = np.empty(n)
    for i in range(0, n, VOLUME_CHUNK):
        part = slice(i, i + VOLUME_CHUNK)
        out[part] = np.abs(_det(_edges(points[part], base if base.shape[0] == 1 else base[part])))
    return out / math.factorial(d)


def batch_simplex_volumes(points: np.ndarray) -> np.ndarray:
    """Volumes for a stack of simplices, shape (n, d+1, d) -> (n,)."""
    return _volumes(points[:, 1:, :], points[:, :1, :])


def batch_pinned_volumes(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Volumes of simplices pinned at x, points shape (n, d, d) -> (n,)."""
    return _volumes(points, x[None, None, :])


def expectation_estimate(body: ConvexBody, fn, arity: int, n: int, seed) -> MomentEstimate:
    """Batch-means estimate of E fn(X_1..X_arity) for iid uniform points.

    ``fn`` maps an (m, arity, d) array of point tuples to (m,) values.
    """
    stream = _resolve_stream(seed)
    m = _batch_size(n)
    d = body.dim
    means = np.empty(BATCH_COUNT)
    for b in range(BATCH_COUNT):
        pts = sample_body(stream.substream(b), body, m * arity).reshape(m, arity, d)
        means[b] = float(np.mean(fn(pts)))
    return MomentEstimate(*mean_stderr(means), m * BATCH_COUNT)


def moment_estimate(body: ConvexBody, k: int = 1, n: int = 10**6, seed=0) -> MomentEstimate:
    """E[V^k] where V is the volume of the simplex on d+1 uniform points."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")

    def fn(pts):
        return batch_simplex_volumes(pts) ** k

    return expectation_estimate(body, fn, body.dim + 1, n, seed)


def pinned_moment_estimate(body: ConvexBody, x, k: int = 1, n: int = 10**6, seed=0) -> MomentEstimate:
    """E[vol(conv(x, X_1..X_d))^k] with x fixed and d uniform points.

    x does not have to lie in the body; the estimator is pure integration.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (body.dim,):
        raise ValueError(f"pin point must have shape ({body.dim},), got {xv.shape}")

    def fn(pts):
        return batch_pinned_volumes(xv, pts) ** k

    return expectation_estimate(body, fn, body.dim, n, seed)


def _moment_sums(body: ConvexBody, n: int, stream: SampleStream):
    """Per-batch first and second moment sums, the shared covariance kernel."""
    m = _batch_size(n)
    d = body.dim
    s1 = np.empty((BATCH_COUNT, d))
    s2 = np.empty((BATCH_COUNT, d, d))
    for b in range(BATCH_COUNT):
        pts = sample_body(stream.substream(b), body, m)
        s1[b] = pts.sum(axis=0)
        s2[b] = pts.T @ pts
    return s1, s2, m


def _pooled_dets(s1: np.ndarray, s2: np.ndarray, counts: np.ndarray):
    """det A of all batches pooled, and of each delete-one-batch pool, from one det call.

    s1 (B, d) and s2 (B, d, d) hold per-batch sums of x and x x^T over counts (B,) points.
    """
    t1, t2, total = s1.sum(axis=0), s2.sum(axis=0), counts.sum()
    n = np.concatenate([[total], total - counts])[:, None]
    mu = np.concatenate([t1[None], t1 - s1]) / n
    cov = np.concatenate([t2[None], t2 - s2]) / n[..., None] - mu[:, :, None] * mu[:, None, :]
    dets = np.linalg.det(cov)
    return float(dets[0]), dets[1:]


def _jackknife(full: float, loo: np.ndarray) -> tuple[float, float]:
    """Delete-one-batch jackknife: (bias-corrected value, standard error)."""
    jack_mean = float(loo.mean())
    value = BATCH_COUNT * full - (BATCH_COUNT - 1) * jack_mean
    stderr = math.sqrt((BATCH_COUNT - 1) / BATCH_COUNT * float(np.sum((loo - jack_mean) ** 2)))
    return value, stderr


def covariance_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> CovarianceEstimate:
    """Centroid and covariance E[(X-mu)(X-mu)^T], population (1/n) normalized."""
    stream = _resolve_stream(seed)
    s1, s2, m = _moment_sums(body, n, stream)
    total = m * BATCH_COUNT
    mu = s1.sum(axis=0) / total
    cov = s2.sum(axis=0) / total - np.outer(mu, mu)
    cov = 0.5 * (cov + cov.T)
    mu_b = s1 / m
    cov_b = s2 / m - np.einsum("bi,bj->bij", mu_b, mu_b)
    entry_stderr = cov_b.std(axis=0, ddof=1) / math.sqrt(BATCH_COUNT)
    return CovarianceEstimate(
        centroid=mu, matrix=cov, n=total, stderr_scale=float(entry_stderr.max())
    )


def det_cov_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> MomentEstimate:
    """det A(K) with a delete-one-batch jackknife mean and standard error.

    The jackknife both corrects the O(1/n) plug-in bias of det applied to
    an estimated matrix and prices the nonlinearity into the stderr.
    """
    stream = _resolve_stream(seed)
    s1, s2, m = _moment_sums(body, n, stream)
    value, stderr = _jackknife(*_pooled_dets(s1, s2, np.full(BATCH_COUNT, float(m))))
    return MomentEstimate(value, stderr, m * BATCH_COUNT)


def volume_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> MomentEstimate:
    """Rejection volume: bounding-box volume times acceptance, binomial stderr."""
    stream = _resolve_stream(seed)
    m = _batch_size(n)
    box = bounding_box(body)
    box_vol = box.volume()
    if box_vol <= 0:
        raise DegenerateBodyError("bounding box has zero volume")
    rates = np.empty(BATCH_COUNT)
    for b in range(BATCH_COUNT):
        rates[b] = float(body.contains_batch(box.uniform(stream.substream(b), m)).mean())
    return hit_or_miss(float(rates.mean()), m * BATCH_COUNT, box_vol)


def volume_with_stderr(body: ConvexBody, n: int, seed) -> tuple[float, float]:
    """Exact volume when available (stderr 0), else rejection estimate."""
    vol = exact_volume(body)
    if vol is not None:
        return vol, 0.0
    est = volume_estimate(body, n, seed)
    if est.mean <= 0:
        raise DegenerateBodyError("volume estimate is nonpositive")
    return est.mean, est.stderr


def isotropic_transform(body: ConvexBody, n: int = 10**5, seed=0) -> ConvexBody:
    """Affine image with estimated centroid 0 and covariance the identity.

    M is the inverse square root of the covariance estimate (symmetric
    eigendecomposition) and the shift is -M mu.
    """
    est = covariance_estimate(body, n, seed)
    eigvals, eigvecs = np.linalg.eigh(est.matrix)
    if float(eigvals.min()) <= MIN_COVARIANCE_EIGENVALUE:
        raise SingularTransformError(
            f"covariance estimate is near-singular (min eigenvalue {eigvals.min():.3e})"
        )
    m = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return affine_image(body, m, -m @ est.centroid)


def isotropic_constant_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> MomentEstimate:
    """L_K = (det A(K) / vol(K)^2)^(1/2d), affine invariant.

    The determinant is always Monte Carlo; the volume is exact when the
    body admits a closed form and Monte Carlo otherwise, with both noise
    sources combined by the delta method.
    """
    stream = _resolve_stream(seed)
    d = body.dim
    det_est = det_cov_estimate(body, n, stream.substream(0))
    if det_est.mean <= 0:
        raise DegenerateBodyError("determinant estimate is nonpositive")
    vol, vol_se = volume_with_stderr(body, n, stream.substream(1))
    value = (det_est.mean / vol**2) ** (1.0 / (2 * d))
    rel_var = (det_est.stderr / (2 * d * det_est.mean)) ** 2 + (vol_se / (d * vol)) ** 2
    return MomentEstimate(value, value * math.sqrt(rel_var), det_est.n)
