"""The Riemann-Siegel enclosure of Hardy's Z, and the majorant of |Z| on a
circle."""

import math
import random

import pytest
from mpmath import mp

from hardyz import hardy
from hardyz.enclose import RS_MIN_T, _c0_c1, z_log_majorant, z_rs

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


@pytest.mark.parametrize("centre, radius", [
    (60, 2), (60, 16), (1000, 8), (-3, 2), (0.5, 0.5),
    (0.5, 0.69),  # 0.017 from the singularities at +-i/2
])
def test_z_log_majorant_bounds_z_on_the_circle(centre, radius):
    with mp.workprec(64):
        # the lower half-circle; Schwarz reflection gives the upper
        points = [mp.mpf(centre) + radius * mp.expjpi(-mp.mpf(j) / 64) for j in range(65)]
        largest = max(abs(hardy._z_complex(w)) for w in points)
    bound = math.exp(z_log_majorant(centre, radius))
    assert largest <= bound
    # tight enough to size contours: a factor 2^6 costs 6 bits
    assert bound <= 64 * largest


def test_z_log_majorant_refuses_a_circle_through_a_singularity():
    for centre, radius in ((0.5, math.sqrt(0.5)), (60, 61), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            z_log_majorant(centre, radius)
