"""Convex body types, exact volumes, and constructive geometry.

Bodies are desk scale (dimension at most 8) and immutable after
construction. Membership tests are vectorized over point batches because the
samplers push 1e7+ proposals through them. All membership predicates use a
small additive tolerance so that boundary points produced by the slice
sampler and by affine round trips test as inside.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import betainc, betaincinv

from . import exact
from .errors import DegenerateBodyError, DimensionError, InvalidBodyError, SingularTransformError

DIM_CAP = 8
MEMBERSHIP_ATOL = 1e-12
VERTEX_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
SINGULAR_COND = 1e12  # a matrix of larger condition number counts as singular
VERTEX_CHUNK = 4096  # row subsets per batched solve of the vertex enumeration


def _as_vector(x, d: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidBodyError(f"expected a flat coordinate vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidBodyError("coordinates must be finite")
    if d is not None and v.shape[0] != d:
        raise DimensionError(f"expected dimension {d}, got {v.shape[0]}")
    return v


def _rowwise(op, pts: np.ndarray, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(pts, vec)`` for a length-d ``vec`` along the rows of (m, d) ``pts``.

    Broadcast along a short last axis, numpy runs an outer loop with one
    iteration per row. For (m, d) points and a length-d ``vec`` the op runs
    down each column instead, into a C-contiguous (m, d) result (``out`` if
    given, which may be ``pts``). Each entry gets the same IEEE operation,
    so the result is the broadcast one, bit for bit. Any other shapes take
    the broadcast, so a width that does not match ``vec`` raises as it does.
    """
    if pts.ndim != 2 or pts.shape[1] != len(vec):
        return op(pts, vec, out=out)
    if out is None:
        out = np.empty(pts.shape)
    for j in range(pts.shape[1]):
        op(pts[:, j], vec[j], out=out[:, j])
    return out


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(pts, axis=-1)``; rows of fewer than 8 entries are summed one column at a time.

    The norm squares the entries and reduces the last axis with numpy's
    pairwise sum, which for rows of fewer than 8 entries adds the squares
    left to right. The same IEEE operations in the same order run here down
    whole columns, so the norms are numpy's, bit for bit, without its outer
    loop of one iteration per row. From 8 entries on, numpy's sum keeps 8
    lanes that it joins as a tree, and the norm is numpy's own. numpy sums
    Fortran-ordered rows left to right at any length; every point array
    this package builds is C-ordered.
    """
    shape, d = pts.shape[:-1], pts.shape[-1]
    if d >= 8:
        return np.linalg.norm(pts, axis=-1)
    acc, tmp = np.empty(shape), np.empty(shape)
    np.multiply(pts[..., 0], pts[..., 0], out=acc)
    for j in range(1, d):
        acc += np.multiply(pts[..., j], pts[..., j], out=tmp)
    # a single row gives a numpy float, as the norm over its last axis did
    return np.sqrt(acc, out=acc)[()]


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError("direction must be nonzero and finite")
    return v / norm


def _check_dim(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise DimensionError(f"dimension must be an integer, got {d!r}")
    if d < 1 or d > DIM_CAP:
        raise DimensionError(f"dimension must lie in [1, {DIM_CAP}], got {d}")
    return int(d)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> >= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = _as_vector(self.normal)
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise InvalidBodyError(f"halfspace normal must be unit length, |n| = {norm!r}")
        if not math.isfinite(self.offset):
            raise InvalidBodyError(f"halfspace offset must be finite, got {self.offset!r}")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @staticmethod
    def through(normal, offset: float) -> "Halfspace":
        """Build from an arbitrary nonzero normal, normalizing both fields."""
        n = _as_vector(normal)
        norm = float(np.linalg.norm(n))
        if norm < 1e-300:
            raise InvalidBodyError("halfspace normal must be nonzero")
        return Halfspace(n / norm, float(offset) / norm)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _product(pts, self.normal) >= self.offset - MEMBERSHIP_ATOL


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box [lo, hi], a cheap superset of a body."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo)
        hi = _as_vector(self.hi, d=lo.shape[0])
        if np.any(hi < lo):
            raise InvalidBodyError("bounding box needs hi >= lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @functools.cached_property
    def _widths(self) -> np.ndarray:
        return self.hi - self.lo

    @functools.cached_property
    def _volume(self) -> float:
        # formed once per box; the sampler tests it on every call
        return float(np.prod(self._widths))

    def volume(self) -> float:
        return self._volume

    def uniform(self, stream, m: int) -> np.ndarray:
        """m points uniform in the box, from one (m, dim) draw of ``stream.uniform``, placed by ``place``."""
        return self.place(stream.uniform((m, self.dim)))

    def place(self, u: np.ndarray) -> np.ndarray:
        """Unit-cube points u, shape (m, dim), mapped into the box in place.

        Scaled and shifted column by column as in ``_rowwise``:
        u * (hi - lo) + lo is the same IEEE result as lo + u * (hi - lo).
        Both ops run on one column view in turn, which at d = 2..4 and
        m = 1,024..4,096 takes 5-8 us less than two ``_rowwise`` calls.
        """
        w, lo = self._widths, self.lo
        for j in range(self.dim):
            c = u[:, j]
            c *= w[j]
            c += lo[j]
        return u


def _product(pts: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``pts @ mat`` for (m, d) points, with a batch of one point taken as two equal rows.

    numpy sends a product with a single row to a matrix-vector or a dot
    kernel, whose last bits can differ from those of the matrix kernel
    that two or more rows take; two rows give each row what any longer
    block gives it. So a point's product in a batch does not depend on how
    many points the batch holds. Other shapes, a lone (d,) point among
    them, take numpy's product as it is.
    """
    if pts.ndim == 2 and len(pts) == 1:
        return (np.vstack([pts, pts]) @ mat)[:1]
    return pts @ mat


def _inside(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Membership in {x : <n_i, x> >= t_i for all i}, unit normals as rows.

    The projections are laid out (k, m), one row per halfspace, so the
    reduction over the k halfspaces runs down long contiguous rows instead
    of across a short last axis. OpenBLAS forms each projection by the same
    length-d dot product in either layout, so the mask is the one
    ``np.all(pts @ normals.T >= offsets - MEMBERSHIP_ATOL, axis=-1)`` gives,
    bit for bit; the tests pin this at one and at two BLAS threads. A batch
    of one point is projected as two equal columns, for the reason
    ``_product`` gives, so a batch's mask does not depend on its size.
    """
    flat = pts.reshape(-1, normals.shape[1])
    m = len(flat)
    proj = normals @ (np.vstack([flat, flat]) if m == 1 and pts.ndim == 2 else flat).T
    ok = np.logical_and.reduce(proj >= (offsets - MEMBERSHIP_ATOL)[:, None], axis=0)[:m]
    # a single point gives a numpy bool, as np.all over its last axis did
    return ok.reshape(pts.shape[:-1])[()]


def _rows(normals: np.ndarray, offsets: np.ndarray, cuts) -> tuple[np.ndarray, np.ndarray]:
    """A body's halfspace rows with the rows of the halfspaces ``cuts`` appended."""
    return (
        np.vstack([normals, [h.normal for h in cuts]]),
        np.concatenate([offsets, [h.offset for h in cuts]]),
    )


def _tight_points(normals: np.ndarray, offsets: np.ndarray, subsets=None) -> np.ndarray:
    """Every x with <n_i, x> >= t_i - VERTEX_TOL for all i at which d linearly independent rows are tight.

    The systems of the d-row subsets (``subsets``, sorted index tuples, or
    all of them) with condition number at most SINGULAR_COND are solved
    VERTEX_CHUNK subsets to a batched solve. Of solutions within VERTEX_TOL
    of each other (more than d tight rows), the best-conditioned one is kept.
    """
    d = normals.shape[1]
    if subsets is None:
        subsets = itertools.combinations(range(len(offsets)), d)
    points, conds = [np.empty((0, d))], [np.empty(0)]
    while chunk := list(itertools.islice(subsets, VERTEX_CHUNK)):
        rows = np.array(chunk)
        a = normals[rows]
        cond = np.linalg.cond(a)
        ok = cond <= SINGULAR_COND
        x = np.linalg.solve(a[ok], offsets[rows[ok]][:, :, None])[:, :, 0]
        feasible = np.all(normals @ x.T >= (offsets - VERTEX_TOL)[:, None], axis=0)
        points.append(x[feasible])
        conds.append(cond[ok][feasible])
    x = np.concatenate(points)[np.argsort(np.concatenate(conds), kind="stable")]
    kept = np.zeros(len(x), dtype=bool)
    for i, p in enumerate(x):
        kept[i] = not np.any(np.abs(x[kept] - p).max(axis=1) <= VERTEX_TOL)
    return x[kept]


def _vertices(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    x = _tight_points(normals, offsets)
    if not len(x):
        raise DegenerateBodyError("the halfspaces have an empty intersection")
    return x


def _check_bounded(normals: np.ndarray) -> None:
    """Raise InvalidBodyError unless the cone {y : <n_i, y> >= 0} is {0}, so that any offsets bound the rows.

    Where the rows span R^d, c = sum_i n_i is positive on the cone's nonzero
    points, so the cone is {0} exactly when its part with <c/|c|, y> >= 1 has
    no vertex, and at once when c = 0. A vertex makes the c/|c| row tight:
    d rows n_i alone solve N_S y = 0, so y = 0, which misses it. So only the
    C(m, d - 1) subsets with that row are solved, not all C(m + 1, d).
    """
    m, d = normals.shape
    c = normals.sum(axis=0)
    norm = float(np.linalg.norm(c))
    with_c = ((*s, m) for s in itertools.combinations(range(m), d - 1))
    if np.linalg.matrix_rank(normals) < d or (
        norm > 0 and len(_tight_points(np.vstack([normals, c / norm]), np.append(np.zeros(m), 1.0), with_c))
    ):
        raise InvalidBodyError("the halfspaces are unbounded")


def _polytope_support(body, v, cuts) -> tuple[float, float]:
    """(min, max) of <v, x> over the vertices of a polytope's rows with the halfspaces ``cuts`` appended."""
    u = _unit(v)
    vertices = _vertices(*_rows(body.normals, body.offsets, cuts)) if cuts else body.vertices
    proj = vertices @ u
    return float(proj.min()), float(proj.max())


def _triangulation(vertices: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """A pulling triangulation of a polytope from its vertices' row incidence: (s, d + 1) vertex indices.

    A row is tight at a vertex when it holds within VERTEX_TOL, the tolerance
    at which the enumeration keeps vertices apart. A face of dimension k,
    given by its vertex indices in order, pulls its first vertex p: its
    simplices are p joined to those of each facet of the face that misses p.
    The face's vertices tight at any one more row form a smaller face, and
    the facets are those of these vertex sets that no other one contains.
    Taken as sets, a facet that several rows give (a repeated row; in
    d >= 4, the rows of the facets through one edge) counts once, and no
    facet needs a rank test, which the VERTEX_TOL slack of a tight vertex
    could fool. A face of k + 1 vertices is its own simplex, and a flat
    polytope has none.
    """
    d = vertices.shape[1]
    tight = np.abs(vertices @ normals.T - offsets) <= VERTEX_TOL

    @functools.cache
    def simplices(face: tuple, k: int) -> list[tuple]:
        if len(face) == k + 1:
            return [face]
        members = np.array(face)
        incidence = tight[members]
        faces = np.unique(incidence[:, ~incidence.all(axis=0)].T, axis=0)
        # within[a, b]: face a lies in face b; a facet lies in itself only
        within = faces.astype(int) @ (~faces).T.astype(int) == 0
        out = []
        for mask in faces[within.sum(axis=1) == 1]:
            if not mask[0]:
                out += [(face[0], *s) for s in simplices(tuple(members[mask].tolist()), k - 1)]
        return out

    if len(vertices) <= d or np.linalg.matrix_rank(vertices[1:] - vertices[0]) < d:
        return np.empty((0, d + 1), dtype=int)
    return np.array(simplices(tuple(range(len(vertices))), d))


def _ball_cut_max(ball: "Ball", u: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> float:
    """max of <u, x> over the ball intersected with {x : <n_i, x> >= t_i}, for unit u.

    The best feasible candidate over the active sets S of linearly
    independent rows. On the section of the ball by the flat
    {<n_i, x> = t_i, i in S}, the candidates are p, the projection of the
    center onto the flat, and the maximizer p + r w/|w|, where w is u
    projected onto the flat's directions and r the section's radius. The
    optimum has an active set whose maximizer is the optimum itself, or, where
    u lies in the span of the active normals, whose projection p is an
    optimum. Each candidate is tested for membership in the body, so none
    overshoots.
    """
    d = ball.dim
    best = -math.inf
    for k in range(min(len(offsets), d) + 1):
        for active in itertools.combinations(range(len(offsets)), k):
            rows = normals[list(active)]
            p, w = ball.center, u
            if k:
                if np.linalg.matrix_rank(rows) < k:
                    continue
                gram = rows @ rows.T
                p = p + rows.T @ np.linalg.solve(gram, offsets[list(active)] - rows @ p)
                w = w - rows.T @ np.linalg.solve(gram, rows @ w)
            r2 = ball.radius**2 - float(np.sum((p - ball.center) ** 2))
            if r2 < 0:
                continue
            wn = float(np.linalg.norm(w))
            candidates = [p, p + (math.sqrt(r2) / wn) * w] if wn > 0 else [p]
            for x in candidates:
                inside = np.linalg.norm(x - ball.center) <= ball.radius + VERTEX_TOL
                if inside and np.all(normals @ x >= offsets - VERTEX_TOL):
                    best = max(best, float(u @ x))
    if best == -math.inf:
        raise DegenerateBodyError("the cut ball is empty")
    return best


class ConvexBody:
    """The body protocol: ``dim`` plus six methods, defined by every body type.

    - ``contains_batch(pts)``: vectorized membership;
    - ``box()``: an axis-aligned ``BoundingBox`` containing the body, formed
      on the first call and kept: its extent along each axis by the rule
      that slice frames share (``_extent``), the exact one from ``support``
      or, where a HalfBallCone in the body is cut, that of the body with
      the cone replaced by its box;
    - ``volume()``: the closed-form volume, or None where there is none;
    - ``moments()``: the exact (volume, centroid, covariance), or None, the
      default, where the body type has no closed form for them;
    - ``support(v, cuts=())``: the exact (inf, sup) of <v, x> over the body
      intersected with the halfspaces ``cuts``, in closed form or over the
      vertices; each nesting level normalizes v. A HalfBallCone under cuts
      raises InvalidBodyError. No body draws a sample;
    - ``to_json()``: the JSON object that ``body_from_json`` reads back.

    A new body type is one subclass; the module-level functions delegate,
    except that a body with an exact sampler also needs its branch in
    ``sampling._direct_sampler``, which dispatches on the type.
    """

    dim: int

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def box(self) -> BoundingBox:
        return self._box

    def moments(self) -> tuple[float, np.ndarray, np.ndarray] | None:
        return None

    @functools.cached_property
    def _box(self) -> BoundingBox:
        """The (inf, sup) of each coordinate, from ``_extent`` along e_j.

        ``support``'s ends are values at feasible points, so an end can sit
        within rounding inside the true extremum: the x-extent of the half-ball
        cut by x + y >= 0.2 starts at 8.4e-18, not at 0.
        """
        return BoundingBox(*_extent(self, np.eye(self.dim)))


@dataclass(frozen=True)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_vector(self.center)
        _check_dim(c.shape[0])
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidBodyError(f"ball radius must be positive, got {self.radius!r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _row_norms(_rowwise(np.subtract, pts, self.center)) <= self.radius + MEMBERSHIP_ATOL

    def volume(self) -> float:
        return exact.kappa(self.dim).to_float() * self.radius**self.dim

    def support(self, v, cuts=()) -> tuple[float, float]:
        u = _unit(v)
        if not cuts:
            c = float(u @ self.center)
            return c - self.radius, c + self.radius
        normals = np.array([h.normal for h in cuts])
        offsets = np.array([h.offset for h in cuts])
        return -_ball_cut_max(self, -u, normals, offsets), _ball_cut_max(self, u, normals, offsets)

    def to_json(self) -> dict:
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}


@dataclass(frozen=True)
class HPolytope(ConvexBody):
    """Bounded, nonempty intersection of halfspaces {x : <n_i, x> >= t_i}.

    Normals are stored unit length (rows). The vertices (``_tight_points``)
    are computed once here, and the box, their extremes, is formed on its
    first call and kept; rejection sampling proposes from the box. The exact
    moments come from a triangulation of the vertices (``_triangulation``).
    Unbounded halfspaces raise InvalidBodyError, and an empty intersection
    DegenerateBodyError.
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float)
        t = np.asarray(self.offsets, dtype=float)
        if n.ndim != 2 or t.ndim != 1 or n.shape[0] != t.shape[0]:
            raise InvalidBodyError("normals must be (m, d), offsets (m,)")
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(t))):
            raise InvalidBodyError("halfspace data must be finite")
        _check_dim(n.shape[1])
        norms = np.linalg.norm(n, axis=1)
        if np.any(norms < 1e-300):
            raise InvalidBodyError("zero normal in H-polytope")
        n = n / norms[:, None]
        t = t / norms
        _check_bounded(n)
        v = _vertices(n, t)
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", t)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _inside(pts, self.normals, self.offsets)

    def volume(self) -> float | None:
        """Exact when every facet is axis-aligned, since the body is then its box; else None."""
        a = np.abs(self.normals)
        axis = a.max(axis=1)
        if np.any(np.abs(axis - 1.0) > 1e-12) or np.any(a.sum(axis=1) - axis > 1e-12):
            return None
        return self.box().volume()

    def moments(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Exact (volume, centroid, covariance), summed over the simplices of ``_triangulation``.

        A simplex of volume V and vertices v_0..v_d has integral V mean(v_i)
        of x and V/((d+1)(d+2)) (sum v_i v_i^T + (sum v_i)(sum v_i)^T) of
        x x^T. Coordinates are taken about the mean vertex, so that the
        covariance does not cancel against a far-off origin. A flat polytope
        raises DegenerateBodyError.
        """
        d = self.dim
        simplices = _triangulation(self.vertices, self.normals, self.offsets)
        if not len(simplices):
            raise DegenerateBodyError("the polytope is flat: it has no volume")
        ref = self.vertices.mean(axis=0)
        v = self.vertices[simplices] - ref
        vols = np.abs(np.linalg.det(v[:, 1:] - v[:, :1])) / math.factorial(d)
        vol = float(vols.sum())
        sums = v.sum(axis=1)
        mu = vols @ sums / ((d + 1) * vol)
        outer = np.einsum("ski,skj->sij", v, v) + sums[:, :, None] * sums[:, None, :]
        cov = np.einsum("s,sij->ij", vols, outer) / ((d + 1) * (d + 2) * vol) - np.outer(mu, mu)
        return vol, mu + ref, 0.5 * (cov + cov.T)

    def support(self, v, cuts=()) -> tuple[float, float]:
        return _polytope_support(self, v, cuts)

    def to_json(self) -> dict:
        return {"type": "hpoly", "normals": self.normals.tolist(), "offsets": self.offsets.tolist()}


@dataclass(frozen=True)
class HalfBallCone(ConvexBody):
    """Unit half-ball {x_1 >= 0, |x| <= 1} plus a cone to apex (-eps, 0, ..., 0).

    ``delta`` truncates the cone: the body keeps x_1 >= -eps + delta, so the
    removed tip is the cone scaled by delta/eps about its apex. delta = 0
    keeps the full cone. Cross-section radius at coordinate u in [-eps, 0]
    is (u + eps)/eps.
    """

    d: int
    eps: float
    delta: float = 0.0

    def __post_init__(self):
        d = _check_dim(self.d)
        if d < 2:
            raise DimensionError("HalfBallCone needs dimension >= 2")
        if not (0 < self.eps and math.isfinite(self.eps)):
            raise InvalidBodyError(f"eps must be positive, got {self.eps!r}")
        if not (0 <= self.delta < self.eps):
            raise InvalidBodyError(f"delta must lie in [0, eps), got {self.delta!r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def dim(self) -> int:
        return self.d

    @property
    def apex(self) -> np.ndarray:
        a = np.zeros(self.d)
        a[0] = -self.eps
        return a

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        x1 = pts[..., 0]
        in_half = (x1 >= -MEMBERSHIP_ATOL) & (_row_norms(pts) <= 1.0 + MEMBERSHIP_ATOL)
        radial = _row_norms(pts[..., 1:])
        in_cone = (
            (x1 >= -self.eps + self.delta - MEMBERSHIP_ATOL)
            & (x1 <= MEMBERSHIP_ATOL)
            & (radial <= (x1 + self.eps) / self.eps + MEMBERSHIP_ATOL)
        )
        return in_half | in_cone

    def volume(self) -> float:
        d, eps, delta = self.d, self.eps, self.delta
        half = exact.kappa(d).to_float() / 2.0
        cone = exact.kappa(d - 1).to_float() * (eps / d) * (1.0 - (delta / eps) ** d)
        return half + cone

    def support(self, v, cuts=()) -> tuple[float, float]:
        """The larger of the half-ball's support and that of the tip disk.

        The body is the half-ball joined to the frustum between the unit disk
        at x_1 = 0 and the tip disk at x_1 = -eps + delta, of radius
        delta/eps; the unit disk lies in the half-ball.
        """
        u = _unit(v)
        if cuts:
            raise InvalidBodyError("a cut of a HalfBallCone has no closed-form support")

        def top(w: np.ndarray) -> float:
            rest = float(np.linalg.norm(w[1:]))
            half = 1.0 if w[0] >= 0 else rest
            tip = float(w[0]) * (self.delta - self.eps) + self.delta / self.eps * rest
            return max(half, tip)

        return -top(-u), top(u)

    def to_json(self) -> dict:
        return {"type": "halfballcone", "d": self.d, "eps": self.eps, "delta": self.delta}


@dataclass(frozen=True)
class Polygon2D(ConvexBody):
    """Convex polygon, vertices stored CCW after canonicalization.

    Canonicalization deduplicates vertices within VERTEX_TOL, sorts CCW
    around the vertex centroid, and drops collinear middles so profile
    reconstructions round-trip. The edge frame (inward unit normals and
    their offsets, edge i from vertex i to vertex i + 1) is built once here,
    and the box, the vertex extremes, on its first call and kept.
    """

    vertices: np.ndarray
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise InvalidBodyError(f"polygon vertices must be (m, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidBodyError("polygon vertices must be finite")
        v = _canonicalize_polygon(v)
        e = np.roll(v, -1, axis=0) - v
        # inward normals for CCW orientation
        n = np.stack([-e[:, 1], e[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", np.sum(n * v, axis=1))

    @property
    def dim(self) -> int:
        return 2

    def area(self) -> float:
        return _shoelace(self.vertices)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _inside(pts, self.normals, self.offsets)

    def volume(self) -> float:
        return self.area()

    def support(self, v, cuts=()) -> tuple[float, float]:
        return _polytope_support(self, v, cuts)

    def to_json(self) -> dict:
        return {"type": "polygon", "vertices": self.vertices.tolist()}


@dataclass(frozen=True)
class Cut(ConvexBody):
    """A body intersected with one halfspace, kept as a wrapper."""

    base: ConvexBody
    halfspace: Halfspace

    def __post_init__(self):
        if self.halfspace.normal.shape[0] != self.base.dim:
            raise DimensionError("halfspace dimension does not match the body")

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.base.contains_batch(pts) & self.halfspace.contains_batch(pts)

    def volume(self) -> float | None:
        """Exact for a ball cut along one normal line (half-ball, cap, slab), else None.

        The fraction of the ball is the width of the slab's quantile interval
        (``_slab_quantiles``), which keeps its relative precision for thin
        caps and thin slabs at either end.
        """
        params = parallel_slab_params(self)
        if params is None:
            return None
        root, _, s_lo, s_hi = params
        _, q_lo, q_hi = _slab_quantiles(self.dim, s_lo, s_hi)
        return exact.kappa(self.dim).to_float() * root.radius**self.dim * max(q_hi - q_lo, 0.0)

    def support(self, v, cuts=()) -> tuple[float, float]:
        return self.base.support(v, (self.halfspace, *cuts))

    def to_json(self) -> dict:
        base, h = self.base.to_json(), self.halfspace
        return {"type": "cut", "base": base, "normal": h.normal.tolist(), "offset": h.offset}


@dataclass(frozen=True)
class AffineImage(ConvexBody):
    """Image {M x + shift : x in base} of a body under an invertible affine map."""

    base: ConvexBody
    matrix: np.ndarray
    shift: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        s = _as_vector(self.shift)
        d = self.base.dim
        if m.shape != (d, d) or s.shape[0] != d:
            raise DimensionError(f"affine data must be ({d},{d}) and ({d},)")
        if not np.all(np.isfinite(m)):
            raise InvalidBodyError("affine matrix must be finite")
        cond = float(np.linalg.cond(m))
        if cond > SINGULAR_COND:
            raise SingularTransformError(f"affine matrix is singular, condition number {cond:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "inverse", np.linalg.inv(m))

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.base.contains_batch(_product(_rowwise(np.subtract, pts, self.shift), self.inverse.T))

    def volume(self) -> float | None:
        base = self.base.volume()
        if base is None:
            return None
        return abs(float(np.linalg.det(self.matrix))) * base

    def support(self, v, cuts=()) -> tuple[float, float]:
        """The base's support along M^T v, each cut {<n, x> >= t} pulled back to
        {<M^T n, y> >= t - <n, shift>}."""
        v = _unit(v)
        w = self.matrix.T @ v
        s = float(np.linalg.norm(w))
        pulled = tuple(
            Halfspace.through(self.matrix.T @ h.normal, h.offset - float(h.normal @ self.shift)) for h in cuts
        )
        lo, hi = self.base.support(w / s, pulled)
        off = float(v @ self.shift)
        return s * lo + off, s * hi + off

    def to_json(self) -> dict:
        base, matrix, shift = self.base.to_json(), self.matrix.tolist(), self.shift.tolist()
        return {"type": "affine", "base": base, "matrix": matrix, "shift": shift}


def _extent(body: ConvexBody, rows, cuts=()) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the (inf, sup) of <u, x> over the body cut by ``cuts``, for each row u; a -0.0 end made 0.0.

    Each end is ``support(u, cuts)``. A HalfBallCone has no support under
    cuts; where ``support`` raises for that, the extent is that of
    ``_outer(body)``, a superset of the body, so it still holds the body.
    """
    try:
        ends = [body.support(u, cuts) for u in rows]
    except InvalidBodyError:
        return _extent(_outer(body), rows, cuts)
    lo, hi = np.array(ends).T + 0.0
    return lo, hi


def _outer(body: ConvexBody) -> ConvexBody:
    """The body with each HalfBallCone in it replaced by its box, as a polytope, which has support under cuts."""
    if isinstance(body, HalfBallCone):
        return box_body(body.box().lo, body.box().hi)
    if isinstance(body, (Cut, AffineImage)):
        return replace(body, base=_outer(body.base))
    return body


def _shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _turns(v: np.ndarray) -> np.ndarray:
    """Cross product (b - a) x (c - a) at each vertex b, with a and c its cyclic neighbours."""
    a, c = np.roll(v, 1, axis=0), np.roll(v, -1, axis=0)
    return (v[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (v[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _canonicalize_polygon(v: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(v).max()))
    # dedupe within tolerance: in input order, keep each vertex farther than VERTEX_TOL from all kept before it
    far = np.linalg.norm(v[:, None] - v[None], axis=-1) > VERTEX_TOL
    keep: list[int] = []
    for i in range(len(v)):
        if far[i, keep].all():
            keep.append(i)
    v = v[keep]
    if len(v) < 3:
        raise InvalidBodyError("polygon needs at least 3 distinct vertices")
    c = v.mean(axis=0)
    order = np.argsort(np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0]))
    v = v[order]
    # drop collinear middles (reconstruction artifacts are collinear to ~1e-16)
    col_tol = 1e-12 * scale * scale
    while True:
        drop = np.abs(_turns(v)) <= col_tol
        if not drop.any() or len(v) - int(drop.sum()) < 3:
            break
        v = v[~drop]
    if np.any(_turns(v) < -1e-9 * scale * scale):
        raise InvalidBodyError("polygon is not convex")
    if _shoelace(v) <= 0:
        raise InvalidBodyError("polygon has nonpositive area after canonicalization")
    return v


# ---------------------------------------------------------------------------
# module-level operations


def bounding_box(body: ConvexBody) -> BoundingBox:
    return body.box()


def _ball_axis_cdf(d: int, s: float) -> float:
    """Fraction of the unit d-ball with first coordinate at most s.

    The coordinate density is proportional to (1 - s^2)^((d-1)/2), whose
    integral is a regularized incomplete beta function. 1 - s^2 is formed as
    (1 - s)(1 + s), since 1 - s s loses its leading digits near |s| = 1.
    """
    if s <= -1.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    tail = 0.5 * float(betainc((d + 1) / 2.0, 0.5, (1.0 - s) * (1.0 + s)))
    return tail if s <= 0.0 else 1.0 - tail


def _slab_quantiles(d: int, s_lo: float, s_hi: float) -> tuple[float, float, float]:
    """(sign, q_lo, q_hi): the slab s_lo <= s <= s_hi of the unit d-ball as a quantile interval.

    The slab is {sign s : q_lo <= F(s) <= q_hi} for the axis CDF F, and
    q_hi - q_lo is its share of the ball. A slab with s_lo >= 0 is taken as
    its mirror image [-s_hi, -s_lo] (sign -1), so both ends are lower tails
    F(-s) = 1 - F(s), which keep their precision where F(s) is near 1.
    """
    if s_lo >= 0.0:
        return -1.0, _ball_axis_cdf(d, -s_hi), _ball_axis_cdf(d, -s_lo)
    return 1.0, _ball_axis_cdf(d, s_lo), _ball_axis_cdf(d, s_hi)


def _ball_axis_ppf(d: int, q: np.ndarray) -> np.ndarray:
    """Inverse of _ball_axis_cdf, vectorized over quantiles in [0, 1].

    Each quantile is folded onto the lower half, qq = min(q, 1 - q) <= 1/2,
    where s <= 0, and the result is mirrored. d = 3 inverts the cubic CDF in
    closed form, d = 4 polishes a table by Newton steps, and every other
    dimension uses ``betaincinv``. Absolute error is below 1e-15 against a
    40-digit reference for d = 1..6. At d = 4 the result is monotone in q
    only to one ulp: Newton rounds each quantile on its own, so a few
    ulp-spaced quantiles step back by 2.2e-16.
    """
    q = np.asarray(q, dtype=float)
    upper = q > 0.5
    qq = np.where(upper, 1.0 - q, q)
    if d == 3:
        s = _lower_ppf_d3(qq)
    elif d == 4:
        s = _lower_ppf_d4(qq)
    else:
        s = _lower_ppf_beta(d, qq)
    s = np.clip(s, -1.0, 0.0)
    return np.where(upper, -s, s)


def _lower_ppf_d3(qq: np.ndarray) -> np.ndarray:
    """s <= 0 with (2 + 3s - s^3)/4 = qq, by the trigonometric root of the cubic."""
    return 2.0 * np.sin((2.0 * np.arcsin(np.sqrt(qq)) - 0.5 * math.pi) / 3.0)


# d = 4: with s = -cos u the axis CDF is G(u) / (3 pi / 8), where
# G(u) = int_0^u sin^4 = 3u/8 - 3 sin u cos u / 8 - sin^3 u cos u / 4.
# Below D4_SERIES_U the closed form cancels, and G is summed from its Taylor
# series sum_k (-1)^k (16^k - 4^(k+1)) / (8 (2k)! (2k+1)) u^(2k+1), k >= 2,
# cut after k = 15 (the next term is below 1e-17 of G at u = 1) and stored
# highest first for Horner's rule.
D4_TABLE_NODES = 1024
D4_SERIES_U = 1.0
D4_NEWTON_STEPS = 2
_D4_SERIES = tuple(
    (-1) ** k * (16**k - 4 ** (k + 1)) / (8 * math.factorial(2 * k) * (2 * k + 1)) for k in range(15, 1, -1)
)


@functools.cache
def _d4_nodes() -> np.ndarray:
    """The angle u at the nodes t_j = (j / D4_TABLE_NODES) 2^(-1/5) of t = qq^(1/5).

    From betaincinv, built on the first call, read-only; u is smooth in t
    because G(u) ~ u^5 / 5 at 0.
    """
    t = np.linspace(0.0, 0.5**0.2, D4_TABLE_NODES + 1)
    x = betaincinv(2.5, 0.5, np.minimum(2.0 * t**5, 1.0))
    u = np.arccos(np.sqrt(np.maximum(1.0 - x, 0.0)))
    u.flags.writeable = False
    return u


def _lower_ppf_d4(qq: np.ndarray) -> np.ndarray:
    """s <= 0 with the d = 4 axis CDF at qq: table start, then Newton steps on G(u)."""
    nodes = _d4_nodes()
    shape, qq = qq.shape, qq.reshape(-1)
    # linear interpolation on the uniform grid, indexed directly
    y = qq**0.2 * (D4_TABLE_NODES / 0.5**0.2)
    j = np.minimum(y.astype(np.intp), D4_TABLE_NODES - 1)
    u = nodes[j] + (y - j) * (nodes[j + 1] - nodes[j])
    target = qq * (0.375 * math.pi)
    small = np.flatnonzero(u < D4_SERIES_U)
    for _ in range(D4_NEWTON_STEPS):
        sin_u, cos_u = np.sin(u), np.cos(u)
        g = 0.375 * u - 0.375 * sin_u * cos_u - 0.25 * sin_u**3 * cos_u
        us = u[small]
        u2 = us * us
        series = np.zeros_like(us)
        for c in _D4_SERIES:
            series = series * u2 + c
        g[small] = series * u2 * u2 * us
        slope = (sin_u * sin_u) ** 2
        u = u - np.divide(g - target, slope, out=np.zeros_like(u), where=slope > 0.0)
    return -np.cos(u).reshape(shape)


def _lower_ppf_beta(d: int, qq: np.ndarray) -> np.ndarray:
    """s <= 0 with the axis CDF at qq, from betaincinv.

    With x = 1 - s^2 the lower half is I_x((d+1)/2, 1/2) = 2 qq. From qq = 0.1
    on, s^2 = 1 - x comes straight from the mirrored function
    I_{1-x}(1/2, (d+1)/2) = 1 - 2 qq, which keeps its precision as s -> 0.
    """
    a = (d + 1) / 2.0
    tail = qq < 0.1
    y = betaincinv(np.where(tail, a, 0.5), np.where(tail, 0.5, a), np.where(tail, 2.0 * qq, 1.0 - 2.0 * qq))
    return -np.sqrt(np.maximum(np.where(tail, 1.0 - y, y), 0.0))


def _cut_chain(body: ConvexBody) -> tuple[list[Halfspace], ConvexBody]:
    """Halfspaces of the Cut layers around a body, outermost first, and the root."""
    cuts = []
    while isinstance(body, Cut):
        cuts.append(body.halfspace)
        body = body.base
    return cuts, body


def parallel_slab_params(body: ConvexBody):
    """(ball, axis, s_lo, s_hi) when the body is a ball cut along one line.

    A chain of Cut layers whose halfspace normals all lie on one line over a
    Ball root describes a slab: in unit-ball coordinates the axis coordinate
    runs over [s_lo, s_hi]. Returns None for any other shape.
    """
    cuts, root = _cut_chain(body)
    if not cuts or not isinstance(root, Ball):
        return None
    u = cuts[0].normal
    center, radius = root.center, root.radius
    s_lo, s_hi = -1.0, 1.0
    for h in cuts:
        along = float(h.normal @ u)
        if abs(abs(along) - 1.0) > UNIT_NORM_TOL:
            return None
        s_plane = (h.offset - float(h.normal @ center)) / radius
        if along > 0:
            s_lo = max(s_lo, s_plane)
        else:
            s_hi = min(s_hi, -s_plane)
    return root, u, s_lo, s_hi


def intersect_halfspace(body: ConvexBody, h: Halfspace) -> ConvexBody:
    """Intersect with {<v, x> >= t}. H-polytopes fold the halfspace in."""
    if h.normal.shape[0] != body.dim:
        raise DimensionError("halfspace dimension does not match the body")
    if isinstance(body, HPolytope):
        return HPolytope(*_rows(body.normals, body.offsets, (h,)))
    return Cut(body, h)


def affine_image(body: ConvexBody, matrix, shift) -> AffineImage:
    """Apply x -> M x + shift; consecutive affine layers are composed."""
    m = np.asarray(matrix, dtype=float)
    s = _as_vector(shift, d=body.dim)
    if isinstance(body, AffineImage):
        return AffineImage(body.base, m @ body.matrix, m @ body.shift + s)
    return AffineImage(body, m, s)


# ---------------------------------------------------------------------------
# constructors used by the experiments


def box_body(lo, hi) -> HPolytope:
    """Axis-aligned box as an H-polytope (its box is exactly itself)."""
    box = BoundingBox(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if np.any(box.hi <= box.lo):
        raise InvalidBodyError("box needs hi > lo componentwise")
    eye = np.eye(box.dim)
    return HPolytope(np.vstack([eye, -eye]), np.concatenate([box.lo, -box.hi]))


def unit_cube(d: int) -> HPolytope:
    return box_body(np.zeros(d), np.ones(d))


def half_ball(d: int) -> Cut:
    """Unit ball restricted to x_1 >= 0."""
    e1 = np.zeros(d)
    e1[0] = 1.0
    return Cut(Ball(np.zeros(d), 1.0), Halfspace(e1, 0.0))


def half_ball_moments(d: int) -> tuple[float, float]:
    """(mean of x_1, variance of x_1) for the uniform law on the unit half-ball.

    Radial integrals give E x_1 = 2 kappa_{d-1} / ((d+1) kappa_d) and
    E x_1^2 = 1/(d+2); the other coordinates are centered with the same
    second moment as on the full ball.
    """
    c = 2.0 * exact.kappa(d - 1).to_float() / ((d + 1) * exact.kappa(d).to_float())
    return c, 1.0 / (d + 2) - c * c


def isotropic_half_ball(d: int) -> AffineImage:
    """Half-ball mapped to isotropic position (centered, identity covariance)."""
    c, var1 = half_ball_moments(d)
    scale = np.full(d, math.sqrt(float(d + 2)))
    scale[0] = 1.0 / math.sqrt(var1)
    m = np.diag(scale)
    shift = np.zeros(d)
    shift[0] = -c * scale[0]
    return AffineImage(half_ball(d), m, shift)


def regular_simplex_vertices(d: int, circumradius: float = 1.0) -> np.ndarray:
    """Vertices of a regular d-simplex centered at the origin, shape (d+1, d)."""
    _check_dim(d)
    e = np.eye(d + 1) - np.full((d + 1, d + 1), 1.0 / (d + 1))
    q, _ = np.linalg.qr(e[:, :d])
    v = e @ q
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return circumradius * v


def regular_simplex(d: int, circumradius: float = 1.0) -> HPolytope:
    """Regular simplex as an H-polytope; facet i faces vertex i at offset -R/d."""
    v = regular_simplex_vertices(d, circumradius)
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    return HPolytope(u, np.full(d + 1, -circumradius / d))


def isotropic_simplex(d: int) -> HPolytope:
    """Regular simplex in isotropic position: circumradius sqrt(d(d+2)).

    Its facet centers sit at distance sqrt((d+2)/d), the extremal inradius
    among isotropic bodies.
    """
    return regular_simplex(d, math.sqrt(d * (d + 2.0)))


def simplex_with_hull_point(alpha: float = 1.2) -> tuple[HPolytope, np.ndarray]:
    """Isotropic regular 3-simplex with one extra hull vertex past a facet center.

    Returns conv(simplex, x_a) as an exact H-polytope together with
    x_a = alpha times the center of facet 0: that facet is replaced by the
    three planes through x_a and its edges, so x_a becomes an extreme point
    at norm alpha sqrt(5/3). alpha is capped at sqrt(9/5) so the new vertex
    stays strictly inside the ball of radius sqrt(3). The three replacement
    halfspaces are the last three rows.
    """
    if not 1.0 < alpha < math.sqrt(9.0 / 5.0):
        raise InvalidBodyError(f"alpha must lie in (1, sqrt(9/5)), got {alpha!r}")
    big_r = math.sqrt(15.0)
    v = regular_simplex_vertices(3, big_r)
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    w = v[1:]
    xa = alpha * (-v[0] / 3.0)
    new_normals = []
    new_offsets = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        nvec = np.cross(w[j] - w[i], xa - w[i])
        t = float(nvec @ w[i])
        if t > 0:
            nvec, t = -nvec, -t
        norm = float(np.linalg.norm(nvec))
        new_normals.append(nvec / norm)
        new_offsets.append(t / norm)
    normals = np.vstack([u[1:], np.array(new_normals)])
    offsets = np.concatenate([np.full(3, -big_r / 3.0), new_offsets])
    return HPolytope(normals, offsets), xa


def half_disk_polygon(n_vertices: int = 64) -> Polygon2D:
    """Inscribed polygon approximation of {|x| <= 1, y >= 0} with its flat side down."""
    if n_vertices < 3:
        raise InvalidBodyError("need at least 3 vertices")
    theta = np.linspace(0.0, math.pi, n_vertices)
    return Polygon2D(np.stack([np.cos(theta), np.sin(theta)], axis=1))


# ---------------------------------------------------------------------------
# JSON serialization


def _number(x) -> float:
    """float(x) for a real number; a string or boolean, which float() would coerce, raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def _floats(x) -> np.ndarray:
    """np.asarray(x, dtype=float) once ``_number`` accepts every entry; np.asarray([0, True]) is int."""
    for item in np.asarray(x, dtype=object).ravel():
        _number(item)
    return np.asarray(x, dtype=float)


def body_from_json(data) -> ConvexBody:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidBodyError("body JSON must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "ball":
            return Ball(_floats(data["center"]), _number(data["radius"]))
        if kind == "hpoly":
            # the bound that older files hold is ignored: the polytope derives its own
            return HPolytope(_floats(data["normals"]), _floats(data["offsets"]))
        if kind == "halfballcone":
            return HalfBallCone(data["d"], _number(data["eps"]), _number(data.get("delta", 0.0)))
        if kind == "polygon":
            return Polygon2D(_floats(data["vertices"]))
        if kind == "cut":
            base = body_from_json(data["base"])
            return Cut(base, Halfspace.through(_floats(data["normal"]), _number(data["offset"])))
        if kind == "affine":
            return AffineImage(body_from_json(data["base"]), _floats(data["matrix"]), _floats(data["shift"]))
    except KeyError as err:
        raise InvalidBodyError(f"body JSON for {kind!r} is missing field {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidBodyError(f"body JSON for {kind!r} is malformed: {err}") from err
    raise InvalidBodyError(f"unknown body type tag {kind!r}")
