"""Closed-form module against an independent rational-times-pi-power oracle.

The oracle below rebuilds ball volumes with exact Fraction arithmetic and an
explicit power of pi, so any agreement with the lgamma-based package values
is between two genuinely different computations.
"""

import math
from fractions import Fraction

import pytest

from geomprob import (
    DimensionError,
    ExactValue,
    ball_pinned_moment,
    ball_simplex_moment,
    busemann_min_ratio,
    chain_bound,
    find_k0,
    kappa,
    kappa_ratio_bounds,
    moment_ratio_bound,
    omega,
)

REL_TOL = 1e-12
LOG_TOL = 1e-12


def kappa_exact(d: int) -> tuple[Fraction, int]:
    """(rational coefficient, power of pi) for the unit d-ball volume.

    Uses the two-step recursion kappa_d = kappa_{d-2} * 2 pi / d, which never
    touches the gamma function.
    """
    coeffs = {0: (Fraction(1), 0), 1: (Fraction(2), 0)}
    for m in range(2, d + 1):
        c, p = coeffs[m - 2]
        coeffs[m] = (c * 2 / m, p + 1)
    return coeffs[d]


def kappa_float(d: int) -> float:
    c, p = kappa_exact(d)
    return float(c) * math.pi**p


def log_close(value: ExactValue, expected: float, tol: float = LOG_TOL) -> bool:
    assert value.sign == (1 if expected > 0 else -1 if expected < 0 else 0)
    return abs(value.log_mag - math.log(abs(expected))) <= tol


# ---------------------------------------------------------------------------
# ball volumes


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 9, 16, 50, 200])
def test_kappa_matches_rational_pi_oracle(d):
    assert log_close(kappa(d), kappa_float(d))


def test_kappa_small_cases():
    assert log_close(kappa(1), 2.0)
    assert log_close(kappa(2), math.pi)
    assert log_close(kappa(3), 4.0 * math.pi / 3.0)
    assert log_close(kappa(9), 32.0 * math.pi**4 / 945.0)


def test_omega_is_d_kappa():
    for d in (1, 2, 3, 7, 31):
        assert log_close(omega(d), d * kappa_float(d))


def test_kappa_ratio_bracket_holds_exactly():
    for d in range(1, 201):
        lower, ratio, upper = kappa_ratio_bounds(d)
        assert lower < ratio < upper
        assert math.isclose(lower, math.sqrt(d / (2 * math.pi)), rel_tol=REL_TOL)
        assert math.isclose(upper, math.sqrt((d + 1) / (2 * math.pi)), rel_tol=REL_TOL)


# ---------------------------------------------------------------------------
# random-simplex moments: small closed forms


def test_segment_moment_by_direct_integral():
    # E |X - Y| for X, Y uniform on [-1, 1]: elementary double integral 2/3
    assert log_close(ball_simplex_moment(1, 1), 2.0 / 3.0)


def test_disk_triangle_moments():
    # classical four-point constants for the disk
    assert log_close(ball_simplex_moment(2, 1), 35.0 / (48.0 * math.pi))
    assert log_close(ball_simplex_moment(2, 2), Fraction(3, 32))


def test_ball3_simplex_moments():
    assert log_close(ball_simplex_moment(3, 1), 12.0 * math.pi / 715.0)
    assert log_close(ball_simplex_moment(3, 2), Fraction(2, 375))


def test_ball4_simplex_moment_frozen():
    assert log_close(ball_simplex_moment(4, 1), 0.008808779792744648, tol=1e-13)


def test_pinned_moments_small_cases():
    assert log_close(ball_pinned_moment(2, 1), 4.0 / (9.0 * math.pi))
    assert log_close(ball_pinned_moment(2, 2), Fraction(1, 32))
    assert log_close(ball_pinned_moment(3, 1), 9.0 * math.pi / 1024.0)
    assert log_close(ball_pinned_moment(3, 2), Fraction(1, 750))
    assert log_close(ball_pinned_moment(4, 1), 0.004098879685916203, tol=1e-13)


def test_pinned_below_plain_moment():
    for d in range(1, 7):
        for k in (1, 2, 3):
            assert ball_pinned_moment(d, k).log_mag < ball_simplex_moment(d, k).log_mag


def test_det_covariance_identity_for_ball3():
    # det A(B_3) = (1/5)^3 equals (3!/4) E V^2
    lhs = (Fraction(1, 5)) ** 3
    rhs = ball_simplex_moment(3, 2)
    assert log_close(rhs, float(lhs) * 4.0 / 6.0)


# ---------------------------------------------------------------------------
# Busemann minimum


def test_busemann_identity_with_pinned_moment():
    for d in range(1, 7):
        direct = busemann_min_ratio(d)
        via_pinned = ball_pinned_moment(d, 1) / kappa(d)
        assert abs(direct.log_mag - via_pinned.log_mag) <= LOG_TOL


def test_busemann_small_values():
    assert log_close(busemann_min_ratio(1), Fraction(1, 4))
    assert log_close(busemann_min_ratio(2), 4.0 / (9.0 * math.pi**2))


# ---------------------------------------------------------------------------
# moment ratio bound and its thresholds


def mrb_exact(d: int, k: int) -> tuple[Fraction, int]:
    """2^k (kappa_d / kappa_{d+k}) (kappa_{(d+1)(d+k)} / kappa_{d(d+k+1)}) exactly."""
    num_c, num_p = kappa_exact(d)
    den_c, den_p = kappa_exact(d + k)
    c2, p2 = kappa_exact((d + 1) * (d + k))
    c3, p3 = kappa_exact(d * (d + k + 1))
    coeff = Fraction(2) ** k * num_c / den_c * c2 / c3
    return coeff, num_p - den_p + p2 - p3


def test_moment_ratio_bound_rational_cases():
    # powers of pi cancel for (d, k) = (3, 1) and (3, 2); the values are exact
    coeff, p = mrb_exact(3, 1)
    assert p == 0 and coeff == Fraction(2145, 2048)
    assert log_close(moment_ratio_bound(3, 1), float(coeff))
    coeff, p = mrb_exact(3, 2)
    assert p == 0 and coeff == 1
    assert abs(moment_ratio_bound(3, 2).log_mag) <= LOG_TOL


@pytest.mark.parametrize("d,k", [(2, 1), (2, 8), (2, 60), (4, 1), (4, 20), (5, 3)])
def test_moment_ratio_bound_matches_oracle(d, k):
    coeff, p = mrb_exact(d, k)
    assert log_close(moment_ratio_bound(d, k), float(coeff) * math.pi**p, tol=1e-11)


def test_moment_ratio_bound_decays_in_k():
    # the d = 2 bound peaks at k = 3 and then falls off to zero
    values = [moment_ratio_bound(2, k).log_mag for k in range(3, 61)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert moment_ratio_bound(2, 60).to_float() < 1e-3


def test_find_k0_thresholds():
    assert find_k0(4) == 1
    assert find_k0(3) == 3
    assert find_k0(2) == 8
    for d in (5, 6, 10):
        assert find_k0(d) == 1


def test_find_k0_matches_direct_scan():
    for d in (2, 3, 4):
        scan = next(
            k for k in range(1, 201) if moment_ratio_bound(d, k).log_mag < math.log1p(-1e-12)
        )
        assert find_k0(d) == scan


def test_chain_bound_small_cases():
    assert math.isclose(chain_bound(4, 1), 2.0 * math.sqrt(6.0 / 25.0), rel_tol=REL_TOL)
    assert math.isclose(chain_bound(10, 1), 0.6298366572977736, rel_tol=1e-13)


def test_chain_bound_dominates_ratio_bound_for_d4():
    for k in range(1, 21):
        ratio = moment_ratio_bound(4, k).to_float()
        assert ratio < 1.0
        assert ratio <= chain_bound(4, k) + 1e-15


# ---------------------------------------------------------------------------
# ExactValue arithmetic and input guards


def test_exact_value_round_trip_and_ops():
    a = ExactValue(1, math.log(1.5))
    b = ExactValue(-1, math.log(0.25))
    assert math.isclose(a.to_float(), 1.5, rel_tol=REL_TOL)
    assert math.isclose(b.to_float(), -0.25, rel_tol=REL_TOL)
    assert math.isclose((a / b).to_float(), -6.0, rel_tol=REL_TOL)


def test_exact_value_zero_handling():
    a = ExactValue(1, math.log(1.5))
    zero = ExactValue(0, float("-inf"))
    assert zero.to_float() == 0.0
    assert (zero / a).sign == 0
    assert (zero / a).to_float() == 0.0
    with pytest.raises(ZeroDivisionError):
        a / zero


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, 10**6 + 1])
def test_index_guards(bad):
    with pytest.raises(DimensionError):
        ball_simplex_moment(bad, 1)
    with pytest.raises(DimensionError):
        ball_simplex_moment(2, bad)
