"""Monte Carlo estimators over convex bodies.

Every estimator is a pure function of (body, parameters, seed): batch b of
an estimate always draws from substream b of the seed, so results are
identical no matter how batches would be scheduled; consecutive batches
are drawn in cache-sized groups (``_batches``), each member drawing what it
would draw alone. Standard errors come
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

from .bodies import ConvexBody, Halfspace, affine_image, bounding_box
from .errors import DegenerateBodyError, NonIsotropicBodyError, SingularTransformError
from .report import MomentEstimate, hit_or_miss, mean_stderr
from .sampling import GROUP_VALUES, SampleStream, _box_points, sample_body

BATCH_COUNT = 64
MIN_EIGENVALUE_RATIO = 1e-9
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


def _batches(n: int, stream: SampleStream, draw, reduce, width: int) -> tuple[list, int]:
    """The batch layout of every estimator: reduce(batch b's m tuples) for b in batch order, and m = n // BATCH_COUNT.

    Batch b draws from substream b. Consecutive batches are drawn in groups
    of G: ``draw(streams, m)`` gives the m tuples of each of the G streams
    in turn, stacked along the first axis, and ``reduce`` runs on each
    batch's C-contiguous rows of that block in turn. A tuple holds
    ``width`` values, and G is the most batches whose values fit in
    GROUP_VALUES, at least 1, so that a group's points stay in cache.
    Every draw that ``draw`` makes for a group is each member's own draw
    (see ``sample_body``), so no estimate depends on the grouping.

    A group's block stays alive until the next group is drawn. Freed before
    that, it lets glibc trim the heap after every batch and fault it back in
    on the next draw, which made moment estimates at n = 160,000 15% slower.
    """
    m = n // BATCH_COUNT
    if m < 1:
        raise ValueError(f"need at least {BATCH_COUNT} samples, got {n}")
    g = max(1, GROUP_VALUES // (m * width))
    streams = [stream.substream(b) for b in range(BATCH_COUNT)]
    out = []
    for start in range(0, BATCH_COUNT, g):
        group = streams[start : start + g]
        block = draw(group, m)
        out += [reduce(block[i * m : (i + 1) * m]) for i in range(len(group))]
    return out, m


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

    ``fn`` maps an (m, arity, d) array of point tuples to (m,) values. It is
    called once per batch, in batch order, with the m tuples of that batch.
    """
    d = body.dim

    def draw(streams: list, m: int) -> np.ndarray:
        rows = len(streams) * m
        return sample_body(streams, body, rows * arity).reshape(rows, arity, d)

    means, m = _batches(n, _resolve_stream(seed), draw, lambda pts: float(np.mean(fn(pts))), arity * d)
    return MomentEstimate(*mean_stderr(np.array(means)), m * BATCH_COUNT)


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
    A non-finite x raises ValueError.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    xv = np.asarray(x, dtype=float)
    if xv.shape != (body.dim,):
        raise ValueError(f"pin point must have shape ({body.dim},), got {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise ValueError(f"pin point must be finite, got {xv.tolist()}")

    def fn(pts):
        return batch_pinned_volumes(xv, pts) ** k

    return expectation_estimate(body, fn, body.dim, n, seed)


def _moment_sums(body: ConvexBody, n: int, stream: SampleStream, halfspace: Halfspace | None = None):
    """Per-batch sums s1 (B, d) of x and s2 (B, d, d) of x x^T, and counts (B,): the covariance kernel.

    Given a halfspace, the same draws also give these three over each batch's
    points inside it.
    """

    def sums(pts: np.ndarray) -> tuple:
        return pts.sum(axis=0), pts.T @ pts, float(pts.shape[0])

    def batch_sums(pts: np.ndarray) -> tuple:
        if halfspace is None:
            return sums(pts)
        return sums(pts) + sums(pts[halfspace.contains_batch(pts)])

    def draw(streams: list, m: int) -> np.ndarray:
        return sample_body(streams, body, len(streams) * m)

    per_batch, _ = _batches(n, stream, draw, batch_sums, body.dim)
    return tuple(np.array(column) for column in zip(*per_batch))


def _covariances(s1: np.ndarray, s2: np.ndarray, counts: np.ndarray):
    """Centroids (P, d) and population covariances (P, d, d) of P point pools from their sums."""
    mu = s1 / counts[:, None]
    return mu, s2 / counts[:, None, None] - mu[:, :, None] * mu[:, None, :]


def _jackknife(values: np.ndarray) -> tuple[float, float]:
    """Delete-one-batch jackknife of values[0] from the delete-one values[1:]: (bias-corrected value, stderr)."""
    full, loo = float(values[0]), values[1:]
    jack_mean = float(loo.mean())
    value = BATCH_COUNT * full - (BATCH_COUNT - 1) * jack_mean
    stderr = math.sqrt((BATCH_COUNT - 1) / BATCH_COUNT * float(np.sum((loo - jack_mean) ** 2)))
    return value, stderr


def _pooled_dets(s1: np.ndarray, s2: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """det A of all batches pooled (entry 0) and of each delete-one-batch pool (entry 1 + b), in one det call."""
    pools = (np.concatenate([x.sum(axis=0, keepdims=True), x.sum(axis=0) - x]) for x in (s1, s2, counts))
    return np.linalg.det(_covariances(*pools)[1])


def covariance_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> CovarianceEstimate:
    """Centroid and covariance E[(X-mu)(X-mu)^T], population (1/n) normalized."""
    s1, s2, counts = _moment_sums(body, n, _resolve_stream(seed))
    pooled = (x.sum(axis=0, keepdims=True) for x in (s1, s2, counts))
    mu, cov = (stack[0] for stack in _covariances(*pooled))
    cov = 0.5 * (cov + cov.T)
    entry_stderr = _covariances(s1, s2, counts)[1].std(axis=0, ddof=1) / math.sqrt(BATCH_COUNT)
    return CovarianceEstimate(
        centroid=mu, matrix=cov, n=int(counts.sum()), stderr_scale=float(entry_stderr.max())
    )


def det_cov_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> MomentEstimate:
    """det A(K) with a delete-one-batch jackknife mean and standard error.

    The jackknife both corrects the O(1/n) plug-in bias of det applied to
    an estimated matrix and prices the nonlinearity into the stderr.
    """
    s1, s2, counts = _moment_sums(body, n, _resolve_stream(seed))
    return MomentEstimate(*_jackknife(_pooled_dets(s1, s2, counts)), int(counts.sum()))


def det_cov_increase(body: ConvexBody, h: Halfspace, n: int, seed=0) -> MomentEstimate:
    """det A(body cut by h) - det A(body) from one shared sample.

    Points of the body falling inside the halfspace are uniform on the cut
    body, so both determinants come from the same draws and the difference
    is estimated with only the cut-off points contributing noise. Standard
    error by delete-one-batch jackknife of the difference.
    """
    s1, s2, counts, c1, c2, cut_counts = _moment_sums(body, n, _resolve_stream(seed), h)
    if cut_counts.sum() < BATCH_COUNT * 2:
        raise NonIsotropicBodyError("cut retains too few points for a covariance estimate")
    diff = _pooled_dets(c1, c2, cut_counts) - _pooled_dets(s1, s2, counts)
    return MomentEstimate(*_jackknife(diff), int(counts.sum()))


def volume_estimate(body: ConvexBody, n: int = 10**5, seed=0) -> MomentEstimate:
    """Rejection volume: bounding-box volume times acceptance, binomial stderr."""
    box = bounding_box(body)
    box_vol = box.volume()
    if box_vol <= 0:
        raise DegenerateBodyError("bounding box has zero volume")

    def draw(streams: list, m: int) -> np.ndarray:
        return body.contains_batch(_box_points(box, streams, [m] * len(streams)))

    rates, m = _batches(n, _resolve_stream(seed), draw, lambda hits: float(hits.mean()), box.dim)
    return hit_or_miss(float(np.array(rates).mean()), m * BATCH_COUNT, box_vol)


def volume_with_stderr(body: ConvexBody, n: int, seed) -> tuple[float, float]:
    """Exact volume when available (stderr 0), else rejection estimate."""
    vol = body.volume()
    if vol is not None:
        return vol, 0.0
    est = volume_estimate(body, n, seed)
    if est.mean <= 0:
        raise DegenerateBodyError("volume estimate is nonpositive")
    return est.mean, est.stderr


def isotropic_transform(body: ConvexBody, n: int = 10**5, seed=0) -> ConvexBody:
    """Affine image with centroid 0 and covariance the identity.

    The centroid and covariance are the body's exact ``moments()`` where it
    has them, as an ``HPolytope`` does, and then nothing is drawn and n and
    seed are unused; else they are ``covariance_estimate``'s from n points.
    M is the inverse square root of the covariance (symmetric
    eigendecomposition) and the shift is -M mu. A covariance whose smallest
    eigenvalue is at most MIN_EIGENVALUE_RATIO times its largest raises.
    """
    moments = body.moments()
    if moments is not None:
        _, centroid, cov = moments
    else:
        est = covariance_estimate(body, n, seed)
        centroid, cov = est.centroid, est.matrix
    eigvals, eigvecs = np.linalg.eigh(cov)
    if float(eigvals.min()) <= MIN_EIGENVALUE_RATIO * float(eigvals.max()):
        raise SingularTransformError(
            f"covariance is near-singular (eigenvalues {eigvals.min():.3e} to {eigvals.max():.3e})"
        )
    m = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    return affine_image(body, m, -m @ centroid)
