"""Unit tests for the Euler-Maclaurin zeta, its Dirichlet table and the
libmp error assumptions its rounding bound rests on."""

import random

import pytest
from mpmath import libmp, mp

from hardyz import zeta
from hardyz.precision import GUARD_BITS, working_precision

# the critical line, points inside explore's circles (sigma up to 1/2 + 4 pi
# for one patch of the 4 pi window) up to near that circle's far side, and the
# far side of test_enclose's (60, 16) circle
TABLE_SIGMAS = ("0.5", "0.75", "1.5", "2.5", "13.05", "16.5")


# N = 16 is the smallest N of _zeta_em (prec//4 at 64 bits), 251 a prime,
# 252 a prime plus one and 243 = 3^5; t < 0 is the lower half of a circle
# about a centre below 0
@pytest.mark.parametrize("t, N, prec", [("30.5", 16, 64), ("500.3", 251, 128),
                                        ("503.1", 252, 128), ("485.7", 243, 192),
                                        ("-4.25", 16, 64)])
def test_dirichlet_table_within_its_bound(t, N, prec):
    bits = prec + 40
    for sigma in TABLE_SIGMAS:
        with working_precision(prec):
            sm, tm = mp.mpf(sigma), mp.mpf(t)
            re, im = zeta._dirichlet_table(sm, tm, N, bits)
        B = zeta._entry_units(sm, tm, N)
        with mp.workprec(2 * prec):
            s = mp.mpc(sm, tm)
            exact = [mp.power(n, -s) for n in range(1, N + 1)]
            unit = mp.ldexp(1, -bits)
            worst = max(abs(mp.mpc(re[n], im[n]) * unit - exact[n - 1])
                        for n in range(1, N + 1))
            assert worst <= B * unit, sigma
            total = mp.mpc(sum(re[1:N]), sum(im[1:N])) * unit
            assert abs(total - mp.fsum(exact[:N - 1])) <= (N - 2) * B * unit, sigma
            # the bound is not vacuous: the entries are good to within 2^-(prec+30)
            assert worst < mp.ldexp(1, -(prec + 30)), sigma


def _zeta_points():
    """(sigma, t): 100 seeded points with sigma in [1/2, 17] and t in
    [-5, 1010], denser near sigma = 1/2 and small t, where the contours
    sample, and 12 about the pole, |s - 1| from 0.017 (the (0.5, 0.69)
    circle's nearest approach) to 0.25."""
    rng = random.Random(20261019)
    points = [(0.5 + 16.5 * rng.random() ** 3, -5 + 1015 * rng.random() ** 3)
              for _ in range(100)]
    with mp.workprec(64):
        for rho in ("0.017", "0.06", "0.25"):
            for j in (-3, -1, 0, 2):
                s = 1 + mp.mpf(rho) * mp.expjpi(mp.mpf(j) / 4)
                points.append((s.real, s.imag))
    return points


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_zeta_em_encloses_the_library_zeta(prec):
    for sigma, t in _zeta_points():
        with working_precision(prec):
            sm, tm = mp.mpf(sigma), mp.mpf(t)
            value, bound = zeta._zeta_em(sm, tm, prec)
        with mp.workprec(2 * prec + 30):
            exact = mp.zeta(mp.mpc(sm, tm))
            assert abs(value - exact) <= bound, (sigma, t)
            # and the bound is near the precision asked for
            assert bound <= mp.ldexp(max(1, abs(exact)), 4 - prec), (sigma, t)


@pytest.mark.parametrize("prec", [64, 128])
def test_zeta_em_encloses_the_library_zeta_far_right(prec):
    # sigma + 2 above 5.96 N for N = max(ceil(|t|/2), prec/4, 10) alone,
    # where the truncation bound's |T_1| would stand in for a larger |T_2|
    # unless N also covers sigma
    for sigma in ("60", "100", "300"):
        for t in ("0.25", "21.5", "-7"):
            with working_precision(prec):
                sm, tm = mp.mpf(sigma), mp.mpf(t)
                value, bound = zeta._zeta_em(sm, tm, prec)
            with mp.workprec(3 * prec):
                exact = mp.zeta(mp.mpc(sm, tm))
                assert abs(value - exact) <= bound, (sigma, t)
                assert bound <= mp.ldexp(1, 4 - prec), (sigma, t)


def test_zeta_em_refuses_sigma_below_one_half_and_the_pole():
    with working_precision(64):
        for sigma, t in (("0.4999", "10"), ("-1", "0"), ("1", "0")):
            with pytest.raises(ValueError):
                zeta._zeta_em(mp.mpf(sigma), mp.mpf(t), 64)


# near the first zero, at t = 500 and at the top of PHASE_GUARD_BITS'
# range; two sigmas off the line for the exp
ULPS_HEIGHTS = ("14.1", "500.3", "10000.3")
ULPS_SIGMAS = ("1.5", "3.2")


def _measured_errors(prec):
    """The largest error of each libmp call _dirichlet_table makes, over
    every prime it tabulates at ULPS_HEIGHTS and ULPS_SIGMAS: log p and
    exp(-sigma log p) in ulps at wp, cos and sin of t log p in units of
    2^-wp, each against the same call at 2 wp."""
    bits = prec + GUARD_BITS + zeta.EM_GUARD_BITS + zeta.EM_FIXED_BITS  # prec + 40
    wp = bits + zeta.PHASE_GUARD_BITS
    with working_precision(prec):  # the arguments as _zeta_em receives them
        heights = [mp.mpf(t) for t in ULPS_HEIGHTS]
        minus_sigmas = [libmp.mpf_neg(mp.mpf(s)._mpf_) for s in ULPS_SIGMAS]
    worst = {"log": 0.0, "cos_sin": 0.0, "exp": 0.0}

    def note(name, got, ref, unit_exp):
        gap = abs(mp.make_mpf(got) - mp.make_mpf(ref))
        worst[name] = max(worst[name], float(mp.ldexp(gap, -unit_exp)))

    with mp.workprec(4 * wp):
        for t in heights:
            N = int(max(mp.ceil(abs(t) / 2), prec // 4, 10))
            spf = zeta._PRIMES.factors(N)
            for p in (n for n in range(2, N + 1) if spf[n] == n):
                log_p = zeta._PRIMES.constant(p, bits)[0]
                note("log", log_p, libmp.mpf_log(libmp.from_int(p), 2 * wp),
                     log_p[2] + log_p[3] - wp)
                phase = libmp.mpf_mul(t._mpf_, log_p, wp)
                for got, ref in zip(libmp.mpf_cos_sin(phase, wp),
                                    libmp.mpf_cos_sin(phase, 2 * wp)):
                    note("cos_sin", got, ref, -wp)
                for minus_sigma in minus_sigmas:
                    x = libmp.mpf_mul(minus_sigma, log_p, wp)
                    got = libmp.mpf_exp(x, wp)
                    note("exp", got, libmp.mpf_exp(x, 2 * wp), got[2] + got[3] - wp)
    return worst


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_libmp_calls_are_within_the_assumed_ulps(prec):
    # the reference's own error, about 2^-2wp, is far below a unit at wp
    worst = _measured_errors(prec)
    assert worst["log"] <= zeta.LOG_ULPS, worst
    assert worst["cos_sin"] <= zeta.COS_SIN_ULPS, worst
    assert worst["exp"] <= zeta.EXP_ULPS, worst
