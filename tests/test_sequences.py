"""Unit tests for the exact sequence tables and tail weights."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp
from mpmath.libmp import mpf_pow

from hardyz.sequences import (TAIL_WEIGHT_DEFAULT_LMAX, b_table, d_limit_check,
                              d_value, e_coefficients, f_poly, g_closed_form_sum,
                              g_poly, tail_weight, tail_weight_constant,
                              tail_weight_sum)
from hardyz.precision import working_precision

from tail_weight_reference import tail_weight_sum_to_1e5

PREC = 192


def test_b_first_row_factorial_squares():
    b = b_table(1, 30)
    for l in range(1, 31):
        assert b[1, l] == factorial(l - 1) ** 2


def test_b_recurrence_spot_values():
    b = b_table(3, 6)
    assert b[0, 0] == 1
    assert b[1, 1] == 1
    assert b[2, 2] == 1
    # b_{2,3} = b_{1,2} + 4 b_{2,2}
    assert b[2, 3] == b[1, 2] + 4 * b[2, 2]


def _arcsin_power_coefficients(k, L):
    """Coefficients of x^{2l}, l = 0..L, in the expansion of (Arcsin x)^{2k},
    built from b_table."""
    b = b_table(k, L)
    return [Fraction(factorial(2 * k), factorial(2 * l))
            * Fraction(2 ** (2 * l), 2 ** (2 * k)) * b[k, l] for l in range(L + 1)]


def test_arcsin_power_series_numerical():
    # (Arcsin x)^2 partial series against direct evaluation
    cs = _arcsin_power_coefficients(1, 40)
    with working_precision(PREC):
        x = mp.mpf("0.3")
        acc = mp.mpf(0)
        for l, c in enumerate(cs):
            acc += mp.mpf(c.numerator) / c.denominator * x ** (2 * l)
        assert abs(acc - mp.asin(x) ** 2) < mp.mpf(10) ** -40


def test_d_limits():
    d2, limit2, gap2 = d_limit_check(2, 200, prec=PREC)
    with working_precision(PREC):
        assert abs(limit2 - mp.pi ** 2 / 6) < mp.mpf(2) ** -150
    assert gap2 < 0.01 * limit2
    d3, limit3, _ = d_limit_check(3, 200, prec=PREC)
    with working_precision(PREC):
        assert abs(limit3 - mp.pi ** 4 / 120) < mp.mpf(2) ** -140
    assert d3 < limit3
    assert d_value(3, 199) < d_value(3, 200)


def test_g_first_row_is_one():
    for l in range(1, 31):
        g = g_poly(1, l)
        assert g == g.__class__({0: Fraction(1)})


def test_closed_form_sum_vanishes():
    for m in range(1, 9):
        assert g_closed_form_sum(m) == 0


def test_g_decreasing_to_zero():
    prev = None
    for L in (5, 20, 80):
        v = g_poly(3, L).evaluate(PREC)
        assert v > 0
        if prev is not None:
            assert v < prev
        prev = v


def test_e_positive():
    for m in range(1, 9):
        es = e_coefficients(m, 40)
        for l in range(1, 41):
            assert es[l].evaluate(PREC) > 0


def test_f_matches_e_scaling():
    m, l = 3, 5
    fp = f_poly(m, l)
    ep = e_coefficients(m, l)[l]
    r = Fraction(factorial(2 * m) * 2 ** (2 * l), factorial(2 * l) * 2 ** (2 * m))
    assert ep == fp.scale(r).shift(-m)


def test_tail_weight_domination_sample():
    for l in (0, 1, 10, 100, 1000):
        cap = tail_weight(10, l, prec=PREC)
        for n in (11, 15, 20):
            assert tail_weight(n, l, prec=PREC) <= cap


def test_tail_weight_sum_converges():
    total, tail = tail_weight_sum(10, 2000, prec=PREC)
    assert mp.isfinite(total)
    assert mp.isfinite(tail)
    assert tail < total


def test_tail_bound_covers_the_terms_to_1e5():
    prec = 64
    partial, tail = tail_weight_sum(10, TAIL_WEIGHT_DEFAULT_LMAX, prec=prec)
    longer, _ = tail_weight_sum_to_1e5()
    with working_precision(prec):
        assert tail >= longer - partial


def test_tail_weight_constant_is_not_below_the_geometric_estimate():
    # partial sum through l = 10^5 plus the geometric tail prev r/(1-r),
    # the value C* had before it carried a proved tail bound
    with working_precision(PREC):
        geometric = mp.mpf("2473.28454851525574581320501900219388319193422430866")
        assert tail_weight_constant() >= geometric


def test_tail_weight_constant_bounds_the_400_bit_sum_closely():
    # the float sum with its allowance, against the mpf route at 400 bits
    partial, tail = tail_weight_sum(10, TAIL_WEIGHT_DEFAULT_LMAX, prec=400)
    with working_precision(400):
        oracle = partial + tail
        assert tail_weight_constant() >= oracle
        assert tail_weight_constant() - oracle <= mp.mpf(2) ** -38 * oracle


def test_tail_weight_constant_does_not_depend_on_the_first_caller():
    # the value is cached once per process, so it must be the same mpf
    # whatever the ambient precision of the call that computed it first
    tail_weight_constant.cache_clear()
    outside = tail_weight_constant()
    for prec in (64, 128, PREC):
        tail_weight_constant.cache_clear()
        with working_precision(prec):
            inside = tail_weight_constant()
        assert inside == outside
        assert inside._mpf_ == outside._mpf_


def _mpf_pow_calls(fn):
    """The number of calls of mpmath.libmp's mpf_pow while fn runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is mpf_pow.__code__:
            calls.append(1)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


def test_tail_weight_constant_makes_no_mpf_pow_call():
    # the counter sees the mpf route's powers, one a term
    assert _mpf_pow_calls(lambda: tail_weight_sum(10, 20, prec=64)) == 21
    tail_weight_constant.cache_clear()
    assert _mpf_pow_calls(tail_weight_constant) == 0


def test_importing_hardyz_does_not_compute_the_tail_weight_constant():
    code = ("import hardyz, hardyz.cli, hardyz.extremal, hardyz.kernel; "
            "from hardyz.sequences import tail_weight_constant; "
            "print(tail_weight_constant.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.strip() == "0"


def test_regime_guards():
    with pytest.raises(ValueError):
        tail_weight(5, 3, prec=PREC)
    with pytest.raises(ValueError):
        d_limit_check(0, 10, prec=PREC)
