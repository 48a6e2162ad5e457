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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.special import betainc, betaincinv

from . import exact
from .errors import DegenerateBodyError, DimensionError, InvalidBodyError, SingularTransformError

DIM_CAP = 8
MEMBERSHIP_ATOL = 1e-12
VERTEX_TOL = 1e-9
UNIT_NORM_TOL = 1e-12


def _as_vector(x, d: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidBodyError(f"expected a flat coordinate vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidBodyError("coordinates must be finite")
    if d is not None and v.shape[0] != d:
        raise DimensionError(f"expected dimension {d}, got {v.shape[0]}")
    return v


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
        return pts @ self.normal >= self.offset - MEMBERSHIP_ATOL


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

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def corners(self) -> np.ndarray:
        d = self.dim
        out = np.empty((2**d, d))
        for j in range(d):
            pattern = np.tile(np.repeat([0, 1], 2**j), 2 ** (d - j - 1))
            out[:, j] = np.where(pattern, self.hi[j], self.lo[j])
        return out

    def max_norm(self) -> float:
        """Largest Euclidean norm over the box (attained at a corner)."""
        return float(np.sqrt(np.sum(np.maximum(self.lo**2, self.hi**2))))

    def uniform(self, stream, m: int) -> np.ndarray:
        """m points uniform in the box, from one (m, dim) draw of ``stream.uniform``.

        Scaled and shifted in place: u * (hi - lo) + lo is the same IEEE
        result as lo + u * (hi - lo).
        """
        u = stream.uniform((m, self.dim))
        u *= self.hi - self.lo
        u += self.lo
        return u


def _inside(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Membership in {x : <n_i, x> >= t_i for all i}, unit normals as rows.

    The projections are laid out (k, m), one row per halfspace, so the
    reduction over the k halfspaces runs down long contiguous rows instead
    of across a short last axis. OpenBLAS forms each projection by the same
    length-d dot product in either layout, so the mask is the one
    ``np.all(pts @ normals.T >= offsets - MEMBERSHIP_ATOL, axis=-1)`` gives,
    bit for bit; the tests pin this at one and at two BLAS threads.
    """
    flat = pts.reshape(-1, normals.shape[1])
    proj = normals @ flat.T
    ok = np.logical_and.reduce(proj >= (offsets - MEMBERSHIP_ATOL)[:, None], axis=0)
    # a single point gives a numpy bool, as np.all over its last axis did
    return ok.reshape(pts.shape[:-1])[()]


def _rows(normals: np.ndarray, offsets: np.ndarray, cuts) -> tuple[np.ndarray, np.ndarray]:
    """A body's halfspace rows with the rows of the halfspaces ``cuts`` appended."""
    if not cuts:
        return normals, offsets
    return (
        np.vstack([normals, [h.normal for h in cuts]]),
        np.concatenate([offsets, [h.offset for h in cuts]]),
    )


def _lp_support(normals: np.ndarray, offsets: np.ndarray, u: np.ndarray, box=None) -> tuple[float, float]:
    """(min, max) of <u, x> over {x : <n_i, x> >= t_i}, within ``box`` if given, by two HiGHS LPs."""
    bounds = (None, None) if box is None else np.column_stack([box.lo, box.hi])
    ends = []
    for sign in (1.0, -1.0):
        res = linprog(sign * u, A_ub=-normals, b_ub=-offsets, bounds=bounds, method="highs")
        if res.status == 3:
            raise InvalidBodyError("the halfspaces are unbounded")
        if res.status != 0:
            raise DegenerateBodyError(f"support LP failed: {res.message}")
        ends.append(float(u @ res.x))
    return ends[0], ends[1]


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


def _tighten_box(box: BoundingBox, h: Halfspace) -> BoundingBox:
    """Intersect a box with a halfspace when the normal is axis aligned."""
    nz = np.nonzero(np.abs(h.normal) > UNIT_NORM_TOL)[0]
    if len(nz) != 1:
        return box
    j = int(nz[0])
    lo = box.lo.copy()
    hi = box.hi.copy()
    if h.normal[j] > 0:
        lo[j] = max(lo[j], h.offset / h.normal[j])
    else:
        hi[j] = min(hi[j], h.offset / h.normal[j])
    if hi[j] < lo[j]:
        hi[j] = lo[j]
    return BoundingBox(lo, hi)


def _ball_clip_box(box: BoundingBox, center: np.ndarray, radius: float) -> BoundingBox:
    """Shrink a box around its intersection with a ball.

    Any point of the intersection satisfies sum_i (x_i - c_i)^2 <= R^2, and
    each clamped axis contributes at least its minimal offset from the
    center, so the remaining axes cannot use the full radius. Makes boxes
    around deep spherical caps much tighter, which the rejection samplers
    turn directly into acceptance rate.
    """
    lo = np.maximum(box.lo, center - radius)
    hi = np.minimum(box.hi, center + radius)
    inside = (lo <= center) & (center <= hi)
    m = np.where(inside, 0.0, np.minimum(np.abs(lo - center), np.abs(hi - center)))
    total = float(np.sum(m**2))
    width = np.sqrt(np.maximum(radius**2 - (total - m**2), 0.0))
    lo = np.maximum(lo, center - width)
    hi = np.minimum(hi, center + width)
    return BoundingBox(lo, np.maximum(hi, lo))


class ConvexBody:
    """The body protocol: ``dim`` plus five methods, defined by every body type.

    - ``contains_batch(pts)``: vectorized membership;
    - ``box()``: an axis-aligned ``BoundingBox`` containing the body;
    - ``volume()``: the closed-form volume, or None where there is none;
    - ``support(v, cuts=())``: the exact (inf, sup) of <v, x> over the body
      intersected with the halfspaces ``cuts``, in closed form or by one LP
      per end; each nesting level normalizes v. No body draws a sample;
    - ``to_json()``: the JSON object that ``body_from_json`` reads back.

    A new body type is one subclass; the module-level functions delegate.
    """

    dim: int

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


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
        return np.linalg.norm(pts - self.center, axis=-1) <= self.radius + MEMBERSHIP_ATOL

    def box(self) -> BoundingBox:
        return BoundingBox(self.center - self.radius, self.center + self.radius)

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
    """Intersection of halfspaces {x : <n_i, x> >= t_i} with a stored bounding box.

    Normals are stored unit length (rows). The box is part of the definition
    contract: it must contain the feasible set and is what rejection sampling
    proposes from.
    """

    normals: np.ndarray
    offsets: np.ndarray
    bound: BoundingBox

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float)
        t = np.asarray(self.offsets, dtype=float)
        if n.ndim != 2 or t.ndim != 1 or n.shape[0] != t.shape[0]:
            raise InvalidBodyError("normals must be (m, d), offsets (m,)")
        if n.shape[0] == 0:
            raise InvalidBodyError("an H-polytope needs at least one halfspace")
        if not (np.all(np.isfinite(n)) and np.all(np.isfinite(t))):
            raise InvalidBodyError("halfspace data must be finite")
        _check_dim(n.shape[1])
        norms = np.linalg.norm(n, axis=1)
        if np.any(norms < 1e-300):
            raise InvalidBodyError("zero normal in H-polytope")
        n = n / norms[:, None]
        t = t / norms
        if self.bound.dim != n.shape[1]:
            raise DimensionError("bounding box dimension does not match halfspaces")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", t)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _inside(pts, self.normals, self.offsets)

    def box(self) -> BoundingBox:
        return self.bound

    def volume(self) -> float | None:
        """Exact when every facet is axis-aligned (a box), else None."""
        lo = self.bound.lo.copy()
        hi = self.bound.hi.copy()
        for normal, offset in zip(self.normals, self.offsets):
            axis = int(np.argmax(np.abs(normal)))
            rest = float(np.abs(normal).sum() - abs(normal[axis]))
            if abs(abs(normal[axis]) - 1.0) > 1e-12 or rest > 1e-12:
                return None
            if normal[axis] > 0:
                lo[axis] = max(lo[axis], offset)
            else:
                hi[axis] = min(hi[axis], -offset)
        if np.any(hi <= lo):
            return 0.0
        return float(np.prod(hi - lo))

    def support(self, v, cuts=()) -> tuple[float, float]:
        normals, offsets = _rows(self.normals, self.offsets, cuts)
        return _lp_support(normals, offsets, _unit(v), self.bound)

    def to_json(self) -> dict:
        return {
            "type": "hpoly",
            "normals": self.normals.tolist(),
            "offsets": self.offsets.tolist(),
            "bound": {"lo": self.bound.lo.tolist(), "hi": self.bound.hi.tolist()},
        }


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
        in_half = (x1 >= -MEMBERSHIP_ATOL) & (
            np.linalg.norm(pts, axis=-1) <= 1.0 + MEMBERSHIP_ATOL
        )
        radial = np.linalg.norm(pts[..., 1:], axis=-1)
        in_cone = (
            (x1 >= -self.eps + self.delta - MEMBERSHIP_ATOL)
            & (x1 <= MEMBERSHIP_ATOL)
            & (radial <= (x1 + self.eps) / self.eps + MEMBERSHIP_ATOL)
        )
        return in_half | in_cone

    def box(self) -> BoundingBox:
        lo = -np.ones(self.d)
        lo[0] = -self.eps + self.delta
        return BoundingBox(lo, np.ones(self.d))

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
    their offsets, edge i from vertex i to vertex i + 1) and the bounding
    box are built once here.
    """

    vertices: np.ndarray
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    bound: BoundingBox = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "bound", BoundingBox(v.min(axis=0), v.max(axis=0)))

    @property
    def dim(self) -> int:
        return 2

    def area(self) -> float:
        return _shoelace(self.vertices)

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return _inside(pts, self.normals, self.offsets)

    def box(self) -> BoundingBox:
        return self.bound

    def volume(self) -> float:
        return self.area()

    def support(self, v, cuts=()) -> tuple[float, float]:
        u = _unit(v)
        if cuts:
            normals, offsets = _rows(self.normals, self.offsets, cuts)
            return _lp_support(normals, offsets, u, self.box())
        proj = self.vertices @ u
        return float(proj.min()), float(proj.max())

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

    def box(self) -> BoundingBox:
        box = _tighten_box(self.base.box(), self.halfspace)
        _, root = _cut_chain(self)
        if isinstance(root, Ball):
            box = _ball_clip_box(box, root.center, root.radius)
        return box

    def volume(self) -> float | None:
        """Exact for a ball cut along one normal line (half-ball, cap, slab), else None."""
        params = parallel_slab_params(self)
        if params is None:
            return None
        root, _, s_lo, s_hi = params
        d = self.dim
        frac = max(_ball_axis_cdf(d, s_hi) - _ball_axis_cdf(d, s_lo), 0.0)
        return exact.kappa(d).to_float() * root.radius**d * frac

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
        det = float(np.linalg.det(m))
        if abs(det) < 1e-12:
            raise SingularTransformError(f"affine matrix is singular, det = {det!r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "inverse", np.linalg.inv(m))

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.base.contains_batch((pts - self.shift) @ self.inverse.T)

    def box(self) -> BoundingBox:
        c = self.base.box().corners() @ self.matrix.T + self.shift
        return BoundingBox(c.min(axis=0), c.max(axis=0))

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


def _shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _turns(v: np.ndarray) -> np.ndarray:
    """Cross product (b - a) x (c - a) at each vertex b, with a and c its cyclic neighbours."""
    a, c = np.roll(v, 1, axis=0), np.roll(v, -1, axis=0)
    return (v[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (v[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _canonicalize_polygon(v: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(v).max()))
    # dedupe within tolerance
    keep: list[np.ndarray] = []
    for p in v:
        if all(np.linalg.norm(p - q) > VERTEX_TOL for q in keep):
            keep.append(p)
    v = np.array(keep)
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


def contains(body: ConvexBody, point) -> bool:
    p = _as_vector(point, d=body.dim)
    return bool(body.contains_batch(p[None, :])[0])


def bounding_box(body: ConvexBody) -> BoundingBox:
    return body.box()


def _ball_axis_cdf(d: int, s: float) -> float:
    """Fraction of the unit d-ball with first coordinate at most s.

    The coordinate density is proportional to (1 - s^2)^((d-1)/2), whose
    integral is a regularized incomplete beta function.
    """
    if s <= -1.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    tail = 0.5 * float(betainc((d + 1) / 2.0, 0.5, 1.0 - s * s))
    return tail if s <= 0.0 else 1.0 - tail


def _ball_axis_ppf(d: int, q: np.ndarray) -> np.ndarray:
    """Inverse of _ball_axis_cdf, vectorized over quantiles in [0, 1].

    Each quantile is folded onto the lower half, qq = min(q, 1 - q) <= 1/2,
    where s <= 0, and the result is mirrored. d = 3 inverts the cubic CDF in
    closed form, d = 4 polishes a table by Newton steps, and every other
    dimension uses ``betaincinv``. Absolute error is below 1e-15 against a
    40-digit reference for d = 1..6.
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
        return HPolytope(
            np.vstack([body.normals, h.normal[None, :]]),
            np.concatenate([body.offsets, [h.offset]]),
            _tighten_box(body.bound, h),
        )
    return Cut(body, h)


def affine_image(body: ConvexBody, matrix, shift) -> AffineImage:
    """Apply x -> M x + shift; consecutive affine layers are composed."""
    m = np.asarray(matrix, dtype=float)
    s = _as_vector(shift, d=body.dim)
    if isinstance(body, AffineImage):
        return AffineImage(body.base, m @ body.matrix, m @ body.shift + s)
    return AffineImage(body, m, s)


def make_counterexample_pair(d: int, eps: float, delta: float) -> tuple[HalfBallCone, HalfBallCone]:
    """Nested pair K subset L: L keeps the full cone, K truncates its tip."""
    if not (0 < delta < eps):
        raise InvalidBodyError(f"need 0 < delta < eps, got delta={delta!r}, eps={eps!r}")
    return HalfBallCone(d, eps, delta), HalfBallCone(d, eps, 0.0)


# ---------------------------------------------------------------------------
# constructors used by the experiments


def box_body(lo, hi) -> HPolytope:
    """Axis-aligned box as an H-polytope (its bound is exactly itself)."""
    box = BoundingBox(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if np.any(box.hi <= box.lo):
        raise InvalidBodyError("box needs hi > lo componentwise")
    d = box.dim
    eye = np.eye(d)
    normals = np.vstack([eye, -eye])
    offsets = np.concatenate([box.lo, -box.hi])
    return HPolytope(normals, offsets, box)


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
    offsets = np.full(d + 1, -circumradius / d)
    return HPolytope(u, offsets, BoundingBox(v.min(axis=0), v.max(axis=0)))


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
    pts = np.vstack([v, xa[None, :]])
    bound = BoundingBox(pts.min(axis=0), pts.max(axis=0))
    return HPolytope(normals, offsets, bound), xa


def half_disk_polygon(n_vertices: int = 64) -> Polygon2D:
    """Inscribed polygon approximation of {|x| <= 1, y >= 0} with its flat side down."""
    if n_vertices < 3:
        raise InvalidBodyError("need at least 3 vertices")
    theta = np.linspace(0.0, math.pi, n_vertices)
    return Polygon2D(np.stack([np.cos(theta), np.sin(theta)], axis=1))


# ---------------------------------------------------------------------------
# JSON serialization


def _check_bound(poly: HPolytope) -> None:
    """Raise unless the stored bound contains the intersection of the halfspaces.

    Rejection sampling proposes from the bound, so a bound that is too small
    would silently truncate the body. Checked per axis, within VERTEX_TOL,
    on the extremes of the halfspaces alone; unbounded halfspaces raise.
    """
    for j, axis in enumerate(np.eye(poly.dim)):
        lo, hi = _lp_support(poly.normals, poly.offsets, axis)
        if lo < poly.bound.lo[j] - VERTEX_TOL or hi > poly.bound.hi[j] + VERTEX_TOL:
            raise InvalidBodyError(
                f"hpoly bound [{poly.bound.lo[j]}, {poly.bound.hi[j]}] on axis {j} does not contain "
                f"the halfspace intersection, which spans [{lo}, {hi}]"
            )


def body_from_json(data) -> ConvexBody:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or "type" not in data:
        raise InvalidBodyError("body JSON must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "ball":
            return Ball(np.asarray(data["center"], dtype=float), float(data["radius"]))
        if kind == "hpoly":
            bound = BoundingBox(
                np.asarray(data["bound"]["lo"], dtype=float),
                np.asarray(data["bound"]["hi"], dtype=float),
            )
            poly = HPolytope(
                np.asarray(data["normals"], dtype=float),
                np.asarray(data["offsets"], dtype=float),
                bound,
            )
            _check_bound(poly)
            return poly
        if kind == "halfballcone":
            return HalfBallCone(int(data["d"]), float(data["eps"]), float(data.get("delta", 0.0)))
        if kind == "polygon":
            return Polygon2D(np.asarray(data["vertices"], dtype=float))
        if kind == "cut":
            return Cut(
                body_from_json(data["base"]),
                Halfspace.through(np.asarray(data["normal"], dtype=float), float(data["offset"])),
            )
        if kind == "affine":
            return AffineImage(
                body_from_json(data["base"]),
                np.asarray(data["matrix"], dtype=float),
                np.asarray(data["shift"], dtype=float),
            )
    except KeyError as err:
        raise InvalidBodyError(f"body JSON for {kind!r} is missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise InvalidBodyError(f"body JSON for {kind!r} is malformed: {err}") from err
    raise InvalidBodyError(f"unknown body type tag {kind!r}")
