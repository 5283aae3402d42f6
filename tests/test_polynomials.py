"""Unit tests for the Bernoulli/Chebyshev substrate."""

from fractions import Fraction

import pytest
from mpmath import mp

from hardyz import polynomials as P
from hardyz.precision import working_precision

PREC = 192
TOL = mp.mpf(2) ** (-(PREC - 32))


def test_bernoulli_odd_at_half_is_zero():
    with working_precision(PREC):
        assert P.bernoulli_poly_exact(3, Fraction(1, 2)) == 0
        assert P.bernoulli_poly_exact(5, Fraction(1, 2)) == 0
        assert abs(P.bernoulli_poly(3, mp.mpf(0.5), prec=PREC)) < TOL


def test_bernoulli_b2_at_zero():
    assert P.bernoulli_poly_exact(2, Fraction(0)) == Fraction(1, 6)


def test_bernoulli_odd_reflection_about_half():
    with working_precision(PREC):
        y = mp.mpf("0.3")
        lhs = P.bernoulli_poly(5, mp.mpf(0.5) + y, prec=PREC)
        rhs = -P.bernoulli_poly(5, mp.mpf(0.5) - y, prec=PREC)
        assert abs(lhs - rhs) < TOL


def test_bernoulli_derivative_relation_exact():
    # B_n'(x) = n B_{n-1}(x) on the coefficient level
    for n in range(1, 65):
        cs = P.bernoulli_poly_coeffs(n)
        dcs = [i * c for i, c in enumerate(cs)][1:]
        target = [Fraction(n) * c for c in P.bernoulli_poly_coeffs(n - 1)]
        assert dcs == target


def test_even_shift_symmetry_coefficient_level():
    # x -> B_2m(1/2 + x) has no odd-power coefficients
    for m in range(1, 9):
        cs = P.bernoulli_poly_coeffs(2 * m)
        shifted = [Fraction(0)] * (2 * m + 1)
        for k, c in enumerate(cs):
            # expand c * (1/2 + x)^k
            for i in range(k + 1):
                from math import comb
                shifted[i] += c * comb(k, i) * Fraction(1, 2 ** (k - i))
        assert all(shifted[i] == 0 for i in range(1, 2 * m + 1, 2))


def test_periodic_bernoulli():
    with working_precision(PREC):
        assert abs(P.periodic_bernoulli(2, mp.mpf("1.25"), prec=PREC)
                   - P.bernoulli_poly(2, mp.mpf("0.25"), prec=PREC)) < TOL
        assert abs(P.periodic_bernoulli(2, mp.mpf(-3), prec=PREC)
                   - mp.mpf(1) / 6) < TOL
        x = mp.mpf("0.6182")
        assert abs(P.periodic_bernoulli(4, x, prec=PREC)
                   - P.periodic_bernoulli(4, x + 7, prec=PREC)) < TOL


def test_chebyshev_values():
    with working_precision(PREC):
        assert abs(P.chebyshev(2, mp.mpf(0.5), prec=PREC) + mp.mpf(0.5)) < TOL
        assert P.chebyshev(0, mp.mpf("0.77"), prec=PREC) == 1
        y = mp.mpf("0.23")
        lhs = mp.cos(7 * mp.pi * (mp.mpf(0.5) + y))
        rhs = (-1) ** 7 * P.chebyshev(7, mp.sin(mp.pi * y), prec=PREC)
        assert abs(lhs - rhs) < TOL


def test_chebyshev_deriv_at_one_small_cases():
    assert P.chebyshev_deriv_at_one(2, 1) == 4
    assert P.chebyshev_deriv_at_one(3, 1) == 24
    assert P.chebyshev_deriv_at_one(4, 1) == 80
    with pytest.raises(ValueError):
        P.chebyshev_deriv_at_one(1, 1)


def test_chebyshev_derivatives_match_coefficients():
    with working_precision(PREC):
        x = mp.mpf("0.41")
        for j in range(0, 13):
            vals = P.chebyshev_derivatives(j, x, 4, prec=PREC)
            cs = [Fraction(c) for c in P.chebyshev_coeffs(j)]
            for k in range(5):
                acc = mp.mpf(0)
                for c in reversed(cs):
                    acc = acc * x + mp.mpf(c.numerator) / c.denominator
                assert abs(vals[k] - acc) < TOL
                cs = [i * c for i, c in enumerate(cs)][1:] or [Fraction(0)]


def test_fourier_partial_sum_within_tail():
    with working_precision(PREC):
        for l in (1, 2, 3):
            x = mp.mpf("0.37")
            val, tail = P.bernoulli_fourier_partial(l, x, 10 ** 4, prec=PREC)
            direct = P.bernoulli_poly(2 * l, x, prec=PREC)
            assert abs(val - direct) <= tail
            sym, _ = P.bernoulli_fourier_partial(l, 1 - x, 10 ** 4, prec=PREC)
            assert abs(val - sym) < TOL


def test_degree_overflow():
    with pytest.raises(P.DegreeOverflowError):
        P.bernoulli_poly(300, mp.mpf(0.5), prec=PREC)


def test_cached_mpf_coefficients_are_bit_identical():
    for prec in (128, 192):
        with working_precision(prec):
            fresh = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                     for c in P.bernoulli_poly_coeffs(14)]
            assert list(P.bernoulli_poly_mpf(14)) == fresh
            assert P.bernoulli_poly_mpf(14) is P.bernoulli_poly_mpf(14)
    with working_precision(128):
        low = P.bernoulli_poly_mpf(14)
    with working_precision(192):
        assert P.bernoulli_poly_mpf(14) != low
