"""Monte Carlo estimators over convex bodies.

Every estimator is a pure function of (body, parameters, seed): batch b of
an estimate always draws from substream b of the seed, so results are
identical no matter how batches would be scheduled. Standard errors come
from batch means over a fixed 64-batch layout; determinant standard errors
come from a delete-one-batch jackknife on the same layout.

The requested sample count is rounded down to a multiple of the batch
count. Dimensions are small (at most 8), so plain numpy linear algebra on
stacked tiny matrices is the whole numerical kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, affine_image, bounding_box, exact_volume
from .errors import DegenerateBodyError, SingularTransformError
from .sampling import SampleStream, sample_body

BATCH_COUNT = 64
MIN_COVARIANCE_EIGENVALUE = 1e-9


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its batch-means standard error."""

    mean: float
    stderr: float
    n: int
    k: int = 1
    seed: int | None = None

    def z_against(self, reference: float) -> float:
        """Signed distance from a reference value in standard errors."""
        if self.stderr == 0:
            return math.copysign(math.inf, self.mean - reference) if self.mean != reference else 0.0
        return (self.mean - reference) / self.stderr


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


def _seed_of(seed) -> int:
    return seed.seed if isinstance(seed, SampleStream) else int(seed) & ((1 << 64) - 1)


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


def batch_simplex_volumes(points: np.ndarray) -> np.ndarray:
    """Volumes for a stack of simplices, shape (n, d+1, d) -> (n,)."""
    d = points.shape[-1]
    edges = points[:, 1:, :] - points[:, :1, :]
    return np.abs(np.linalg.det(edges)) / math.factorial(d)


def batch_pinned_volumes(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Volumes of simplices pinned at x, points shape (n, d, d) -> (n,)."""
    d = points.shape[-1]
    edges = points - x[None, None, :]
    return np.abs(np.linalg.det(edges)) / math.factorial(d)


def expectation_estimate(body: ConvexBody, fn, arity: int, n: int, seed, k: int = 1) -> MomentEstimate:
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
    mean = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(BATCH_COUNT))
    return MomentEstimate(mean=mean, stderr=stderr, n=m * BATCH_COUNT, k=k, seed=_seed_of(seed))


def moment_estimate(body: ConvexBody, k: int = 1, n: int = 10**6, seed=0) -> MomentEstimate:
    """E[V^k] where V is the volume of the simplex on d+1 uniform points."""
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")

    def fn(pts):
        return batch_simplex_volumes(pts) ** k

    return expectation_estimate(body, fn, body.dim + 1, n, seed, k=k)


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

    return expectation_estimate(body, fn, body.dim, n, seed, k=k)


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
    return MomentEstimate(mean=value, stderr=stderr, n=m * BATCH_COUNT, k=1, seed=_seed_of(seed))


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
    p = float(rates.mean())
    total = m * BATCH_COUNT
    se = math.sqrt(max(p * (1.0 - p), 0.0) / total)
    return MomentEstimate(mean=p * box_vol, stderr=se * box_vol, n=total, k=1, seed=_seed_of(seed))


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
    return MomentEstimate(
        mean=value, stderr=value * math.sqrt(rel_var), n=det_est.n, k=1, seed=_seed_of(seed)
    )
