"""Convex body types, exact volumes, and constructive geometry.

Bodies are desk scale (dimension at most 8) and immutable after
construction. Membership tests are vectorized over point batches because the
samplers push 1e7+ proposals through them. All membership predicates use a
small additive tolerance so that boundary points produced by the slice
sampler and by affine round trips test as inside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaincinv

from . import exact
from .errors import DimensionError, InvalidBodyError, SingularTransformError

DIM_CAP = 8
MEMBERSHIP_ATOL = 1e-12
VERTEX_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
_NORMAL_MATCH_TOL = 1e-9


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
    return v / np.linalg.norm(v)


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
        """m points uniform in the box, from one (m, dim) draw of ``stream.uniform``."""
        return self.lo + stream.uniform((m, self.dim)) * (self.hi - self.lo)


def _inside(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Membership in {x : <n_i, x> >= t_i for all i}, unit normals as rows."""
    return np.all(pts @ normals.T >= offsets - MEMBERSHIP_ATOL, axis=-1)


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
    - ``support(v, sampled)``: (inf, sup) of <v, x>. Each nesting level
      normalizes v; where no closed form applies, the body returns
      ``sampled(body, unit_v)``, the extremes of a sample;
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

    def support(self, v, sampled) -> tuple[float, float]:
        c = float(_unit(v) @ self.center)
        return c - self.radius, c + self.radius

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

    def support(self, v, sampled) -> tuple[float, float]:
        """Exact along facet normals (the stored offset is the minimum there), else sampled."""
        v = _unit(v)
        ends = []
        for sign in (1.0, -1.0):
            match = np.linalg.norm(self.normals - sign * v[None, :], axis=1) <= _NORMAL_MATCH_TOL
            ends.append(sign * float(self.offsets[match].max()) if match.any() else None)
        lo, hi = ends
        if lo is None or hi is None:
            s_lo, s_hi = sampled(self, v)
            lo = s_lo if lo is None else lo
            hi = s_hi if hi is None else hi
        return lo, hi

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

    def support(self, v, sampled) -> tuple[float, float]:
        """Exact along the axis of the cone, else sampled."""
        v = _unit(v)
        e1 = np.zeros(self.d)
        e1[0] = 1.0
        if np.linalg.norm(v - e1) <= _NORMAL_MATCH_TOL:
            return -self.eps + self.delta, 1.0
        if np.linalg.norm(v + e1) <= _NORMAL_MATCH_TOL:
            return -1.0, self.eps - self.delta
        return sampled(self, v)

    def to_json(self) -> dict:
        return {"type": "halfballcone", "d": self.d, "eps": self.eps, "delta": self.delta}


@dataclass(frozen=True)
class Polygon2D(ConvexBody):
    """Convex polygon, vertices stored CCW after canonicalization.

    Canonicalization deduplicates vertices within VERTEX_TOL, sorts CCW
    around the vertex centroid, and drops collinear middles so profile
    reconstructions round-trip. The edge frame (inward unit normals and
    their offsets, edge i from vertex i to vertex i + 1) is built once here.
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

    def box(self) -> BoundingBox:
        return BoundingBox(self.vertices.min(axis=0), self.vertices.max(axis=0))

    def volume(self) -> float:
        return self.area()

    def support(self, v, sampled) -> tuple[float, float]:
        proj = self.vertices @ _unit(v)
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

    def support(self, v, sampled) -> tuple[float, float]:
        """The base's interval clipped where the cut normal is parallel to v, else sampled."""
        v = _unit(v)
        h = self.halfspace
        if np.linalg.norm(h.normal - v) <= _NORMAL_MATCH_TOL:
            lo, hi = self.base.support(v, sampled)
            return max(lo, h.offset), hi
        if np.linalg.norm(h.normal + v) <= _NORMAL_MATCH_TOL:
            lo, hi = self.base.support(v, sampled)
            return lo, min(hi, -h.offset)
        return sampled(self, v)

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

    def support(self, v, sampled) -> tuple[float, float]:
        v = _unit(v)
        w = self.matrix.T @ v
        s = float(np.linalg.norm(w))
        lo, hi = self.base.support(w / s, sampled)
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


def exact_volume(body: ConvexBody) -> float | None:
    """Closed-form volume where one exists, else None."""
    return body.volume()


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
    """Inverse of _ball_axis_cdf, vectorized over quantiles in [0, 1]."""
    q = np.asarray(q, dtype=float)
    a = (d + 1) / 2.0
    lower = q <= 0.5
    x = betaincinv(a, 0.5, np.where(lower, 2.0 * q, 2.0 * (1.0 - q)))
    s = np.sqrt(np.maximum(1.0 - x, 0.0))
    return np.where(lower, -s, s)


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


def body_to_json(body: ConvexBody) -> dict:
    return body.to_json()


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
            return HPolytope(
                np.asarray(data["normals"], dtype=float),
                np.asarray(data["offsets"], dtype=float),
                bound,
            )
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
