"""Closed-form values for ball volumes and random-simplex volume moments.

Everything is computed in log space through ``math.lgamma`` so that products
of ball volumes with indices in the thousands stay finite. ``ExactValue``
carries a sign and the natural log of the magnitude; ratios that cancel
analytically (for example the d = 3, k = 2 moment ratio bound) come out
exact to roughly 1e-14 because only a handful of lgamma terms are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError

# Guard against nonsensical index blowups; lgamma itself is fine far beyond.
MAX_INDEX = 10**6


@dataclass(frozen=True)
class ExactValue:
    """A real number stored as sign and natural log of magnitude."""

    sign: int
    log_mag: float

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by exact zero")
        if self.sign == 0:
            return ExactValue(0, float("-inf"))
        return ExactValue(self.sign * other.sign, self.log_mag - other.log_mag)


def _check_index(name: str, value: int, minimum: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if value < minimum or value > MAX_INDEX:
        raise DimensionError(f"{name} must lie in [{minimum}, {MAX_INDEX}], got {value}")


def kappa(d: int) -> ExactValue:
    """Volume of the d-dimensional unit ball, kappa_d = pi^(d/2) / Gamma(1 + d/2)."""
    _check_index("d", d, minimum=0)
    return ExactValue(1, 0.5 * d * math.log(math.pi) - math.lgamma(1.0 + 0.5 * d))


def omega(d: int) -> ExactValue:
    """Surface measure of the unit (d-1)-sphere, omega_d = d * kappa_d."""
    _check_index("d", d)
    k = kappa(d)
    return ExactValue(1, math.log(d) + k.log_mag)


def _log_factorial(d: int) -> float:
    return math.lgamma(d + 1.0)


def ball_simplex_moment(d: int, k: int) -> ExactValue:
    """k-th moment of the volume of a random simplex in the unit d-ball.

    The simplex is the convex hull of d + 1 independent uniform points.
    """
    _check_index("d", d)
    _check_index("k", k)
    log = -k * _log_factorial(d)
    log += (d + 1) * (kappa(d + k).log_mag - kappa(d).log_mag)
    log += kappa(d * (d + k + 1)).log_mag - kappa((d + 1) * (d + k)).log_mag
    for j in range(1, k + 1):
        log += omega(j).log_mag - omega(d + j).log_mag
    return ExactValue(1, log)


def ball_pinned_moment(d: int, k: int) -> ExactValue:
    """k-th moment of vol conv(0, X_1, ..., X_d) for uniform points in the unit ball."""
    _check_index("d", d)
    _check_index("k", k)
    log = -k * _log_factorial(d)
    log += d * (kappa(d + k).log_mag - kappa(d).log_mag)
    for j in range(1, k + 1):
        log += omega(j).log_mag - omega(d + j).log_mag
    return ExactValue(1, log)


def busemann_min_ratio(d: int) -> ExactValue:
    """Minimum of E vol conv(x, X_1..X_d) / vol K over convex K with x in K.

    Attained exactly when K is an ellipsoid centered at x; equals
    ball_pinned_moment(d, 1) / kappa_d.
    """
    _check_index("d", d)
    log = -_log_factorial(d)
    log += d * kappa(d + 1).log_mag - (d + 1) * kappa(d).log_mag
    log += math.log(2.0) - omega(d + 1).log_mag
    return ExactValue(1, log)


def kappa_ratio_bounds(d: int) -> tuple[float, float, float]:
    """Return (lower, kappa_{d-1}/kappa_d, upper) with bounds sqrt(d/2pi), sqrt((d+1)/2pi)."""
    _check_index("d", d)
    ratio = (kappa(d - 1) / kappa(d)).to_float()
    return (math.sqrt(d / (2 * math.pi)), ratio, math.sqrt((d + 1) / (2 * math.pi)))


def moment_ratio_bound(d: int, k: int) -> ExactValue:
    """Upper bound 2^k (kappa_d / kappa_{d+k}) (kappa_{(d+1)(d+k)} / kappa_{d(d+k+1)}).

    Bounds the ratio of the pinned k-th moment at the flat-face center of a
    half-ball to the plain k-th moment over the half-ball. Values below one
    certify that moment monotonicity under inclusion fails in dimension d.
    """
    _check_index("d", d)
    _check_index("k", k)
    log = k * math.log(2.0)
    log += kappa(d).log_mag - kappa(d + k).log_mag
    log += kappa((d + 1) * (d + k)).log_mag - kappa(d * (d + k + 1)).log_mag
    return ExactValue(1, log)


def chain_bound(d: int, k: int) -> float:
    """Elementary bound 2^k ((d+k+1) / (d(d+k+1)+k))^(k/2), strictly < 1 for d >= 4."""
    _check_index("d", d)
    _check_index("k", k)
    log = k * math.log(2.0) + 0.5 * k * (
        math.log(d + k + 1.0) - math.log(d * (d + k + 1.0) + k)
    )
    return math.exp(log)


def find_k0(d: int, k_max: int = 200) -> int | None:
    """Smallest k with moment_ratio_bound(d, k) < 1 - 1e-12, or None up to k_max."""
    _check_index("d", d)
    _check_index("k_max", k_max)
    threshold = math.log1p(-1e-12)
    for k in range(1, k_max + 1):
        if moment_ratio_bound(d, k).log_mag < threshold:
            return k
    return None
