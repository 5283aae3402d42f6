"""The Riemann-Siegel enclosure of Hardy's Z, the majorant of |Z| on a
circle, and the float enclosure of Theorem 2's h."""

import math
import random

import pytest
from mpmath import mp

from hardyz import extremal
from hardyz.enclose import (PSI_SERIES_BITS, RS_MIN_T, _c0_c1, _head_sum_bound, _psi_series,
                            h_float, z_log_majorant, z_rs)
from hardyz.precision import working_precision

from derivative_oracle import z_complex
from psi_series_oracle import psi_series_mpf

# siegelz at twice a float's 53 bits is exact next to any bound z_rs gives
REFERENCE_BITS = 106
ENCLOSURE_POINTS = 200


def _enclosure_points():
    """ENCLOSURE_POINTS seeded heights in [200, 2000]: half floats, half
    120-bit numbers, which z_rs must round to a float itself."""
    rng = random.Random(20260118)
    points = [rng.uniform(200, 2000) for _ in range(ENCLOSURE_POINTS // 2)]
    with mp.workprec(160):
        points += [200 + 1800 * mp.mpf(rng.getrandbits(120)) / 2 ** 120
                   for _ in range(ENCLOSURE_POINTS // 2)]
    return points


def test_psi_series_is_the_mpf_recursion_float_for_float():
    # all 80 floats of a and b, against the mpf recursion at twice the bits
    a, b = _psi_series()
    assert len(a) == len(b) == 40
    assert (a, b) == psi_series_mpf(2 * PSI_SERIES_BITS)


def test_z_rs_encloses_siegelz():
    with mp.workprec(REFERENCE_BITS):
        for t in _enclosure_points():
            value, bound = z_rs(t)
            # tight enough to prove the sign of Z away from its zeros
            assert bound < 1e-3
            assert abs(mp.siegelz(t) - value) <= bound, t


def test_z_rs_refuses_t_below_200_and_an_uncertain_n():
    with mp.workprec(128):
        below = [199.99, mp.mpf(RS_MIN_T) - mp.mpf(2) ** -100, 0, -300]
    for t in below:
        with pytest.raises(ValueError):
            z_rs(t)
    assert math.isfinite(z_rs(RS_MIN_T)[1])
    # tau = sqrt(t/2pi) is 8 up to rounding, so N = floor(tau) is in doubt
    assert z_rs(2 * math.pi * 64) == (0.0, math.inf)


def _numerator(p):
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16))


def _denominator(p):
    return mp.cos(2 * mp.pi * p)


def _psi(p):
    return _numerator(p) / _denominator(p)


@pytest.mark.parametrize("p", [0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.99])
def test_c0_c1_match_the_derivatives_of_psi(p):
    c0, c1 = _c0_c1(p)
    with mp.workdps(50):
        pm = mp.mpf(p)
        if p in (0.25, 0.75):
            # both cosines vanish: Psi is the ratio of their derivatives
            ref0 = mp.diff(_numerator, pm) / mp.diff(_denominator, pm)
        else:
            ref0 = _psi(pm)
        ref1 = -mp.diff(_psi, pm, 3, singular=True) / (96 * mp.pi ** 2)
        assert abs(c0 - ref0) < 1e-15
        assert abs(c1 - ref1) < 1e-15


@pytest.mark.parametrize("s0", [0.5, 0.75, 1, 1.5, 3])
def test_head_sum_bound_is_at_least_the_sum(s0):
    # the closed form z_log_majorant's boxes take for sum_(j<n) j^-s0, its
    # log branch at s0 = 1 included, against the sum itself: mp.fsum up to
    # n = 1000, then the harmonic number or Hurwitz's zeta
    with mp.workprec(80):
        for n in (2, 3, 10, 1000, 10 ** 5):
            if n <= 1000:
                exact = mp.fsum(mp.mpf(j) ** -s0 for j in range(1, n))
            elif s0 == 1:
                exact = mp.harmonic(n - 1)
            else:
                exact = mp.zeta(s0) - mp.zeta(s0, n)
            assert _head_sum_bound(s0, n) >= exact, n


@pytest.mark.parametrize("centre, radius", [
    (60, 2), (60, 16), (1000, 8), (-3, 2), (0.5, 0.5),
    (0.5, 0.69),  # 0.017 from the singularities at +-i/2
])
def test_z_log_majorant_bounds_z_on_the_circle(centre, radius):
    with mp.workprec(64):
        # the lower half-circle; Schwarz reflection gives the upper
        points = [mp.mpf(centre) + radius * mp.expjpi(-mp.mpf(j) / 64) for j in range(65)]
        largest = max(abs(z_complex(w)) for w in points)
    bound = math.exp(z_log_majorant(centre, radius))
    assert largest <= bound
    # tight enough to size contours: a factor 2^6 costs 6 bits
    assert bound <= 64 * largest


def test_z_log_majorant_refuses_a_circle_through_a_singularity():
    for centre, radius in ((0.5, math.sqrt(0.5)), (60, 61), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            z_log_majorant(centre, radius)


# h_float's gap is rounded from this working precision; g_and_h at twice it
# is the reference
H_PREC = 64
H_EPS = (0.05, 0.1, 0.3, 0.4, 0.5, 0.65, 0.69)


def _h_enclosed(eps, deltas):
    """Assert |h - value| <= bound at each delta against g_and_h at 2 H_PREC;
    return the largest |h - value|/bound."""
    with working_precision(H_PREC):
        eps = mp.mpf(eps)
        gap = float(mp.log(2) - eps)
    worst = 0.0
    for d in deltas:
        value, bound = h_float(d, gap)
        reference = extremal.g_and_h(d, eps, prec=2 * H_PREC)[1]
        assert math.isfinite(bound)
        assert abs(reference - value) <= bound, d
        worst = max(worst, float(abs(reference - value)) / bound)
    return worst


@pytest.mark.parametrize("eps", H_EPS)
def test_h_float_encloses_h_on_the_grid_and_below_it(eps):
    with mp.workprec(2 * H_PREC):
        step = mp.mpf(2) ** -extremal.FIND_C_EPS_RESOLUTION_BITS
        grid = [j * step for j in range(1, 1024)]
        powers = [mp.mpf(2) ** -k for k in range(12, 194)]
    # the room the docstring claims: errors far below the 2^-40 allowance
    assert _h_enclosed(eps, grid + powers) < 1e-3


def test_h_float_encloses_h_around_the_crossing_at_eps_0_4():
    # delta_eps(0.4) = 0.1757862... lies between the grid points 720 and 721
    # of 2^-12, where h_float's value is all rounding
    with mp.workprec(2 * H_PREC):
        edge = 1 - extremal.find_c_eps(0.4, prec=H_PREC)
        cluster = [edge + j * mp.mpf(2) ** -44 for j in range(-64, 65)]
        cluster += [mp.mpf(720) / 4096, mp.mpf(721) / 4096]
    _h_enclosed(0.4, cluster)
    value, bound = h_float(edge, float(mp.log(2) - mp.mpf(0.4)))
    assert abs(value) <= bound  # no sign is claimed at the edge


def test_h_float_proves_nothing_outside_its_range():
    gap = math.log(2) - 0.3
    with mp.workprec(128):
        deltas = [mp.mpf(2) ** -1100, 0, -0.1, 0.25, 0.3]
    for d in deltas:
        assert h_float(d, gap) == (0.0, math.inf), d
    for bad_gap in (0.0, -0.1, 1.0):
        assert h_float(0.01, bad_gap) == (0.0, math.inf)
