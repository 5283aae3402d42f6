"""Unit tests for the Euler-Maclaurin zeta, its Dirichlet table and the
libmp error assumptions its rounding bound rests on."""

import math
import random

import pytest
from mpmath import libmp, mp

from hardyz import hardy, zeta
from hardyz.precision import working_precision
from hardyz.theta import JET_GUARD_BITS

# N = 16 is the smallest N _em_size takes for a target of 2^-64, 251 a prime,
# 252 a prime plus one and 243 = 3^5; t < 0 is the lower half of a circle
# about a centre below 0
@pytest.mark.parametrize("t, N, prec", [("30.5", 16, 64), ("500.3", 251, 128),
                                        ("503.1", 252, 128), ("485.7", 243, 192),
                                        ("-4.25", 16, 64)])
def test_dirichlet_table_within_its_bound(t, N, prec):
    bits = prec + 40
    with working_precision(prec):
        tm = mp.mpf(t)
        re, im = zeta._dirichlet_table(tm, N, bits)
    B = zeta._entry_units(tm, N)
    with mp.workprec(2 * prec):
        s = mp.mpc(0.5, tm)
        exact = [mp.power(n, -s) for n in range(1, N + 1)]
        unit = mp.ldexp(1, -bits)
        worst = max(abs(mp.mpc(re[n], im[n]) * unit - exact[n - 1])
                    for n in range(1, N + 1))
        assert worst <= B * unit
        total = mp.mpc(sum(re[1:N]), sum(im[1:N])) * unit
        assert abs(total - mp.fsum(exact[:N - 1])) <= (N - 2) * B * unit
        # the bound is not vacuous: the entries are good to within 2^-(prec+30)
        assert worst < mp.ldexp(1, -(prec + 30))


def _zeta_heights():
    """100 seeded heights in [-5, 1010], denser at small t, the t of
    seeded (sigma, t) draws, and 12 near t = 0, the heights of points about
    the pole with |s - 1| from 0.017 to 0.25."""
    rng = random.Random(20261019)
    heights = [(rng.random(), -5 + 1015 * rng.random() ** 3)[1] for _ in range(100)]
    with mp.workprec(64):
        for rho in ("0.017", "0.06", "0.25"):
            for j in (-3, -1, 0, 2):
                heights.append((mp.mpf(rho) * mp.expjpi(mp.mpf(j) / 4)).imag)
    return heights


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_zeta_em_encloses_the_library_zeta(prec):
    # a point read's zeta: the order-0 coefficient of zeta._zeta_series at
    # t, sized by hardy._line_size, and its remainder and rounding
    for t in _zeta_heights():
        with working_precision(prec):
            tm = mp.mpf(t)
            N, K, bits, log_remainder, (units,), _ = hardy._line_size(tm, prec, 1)
            (re,), (im,) = zeta._zeta_series(tm, mp.mpf(0), 1, N, K, bits)
        bound = math.exp(log_remainder) + units * 2.0 ** -bits
        with mp.workprec(2 * prec + 30):
            value = mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits))
            exact = mp.zeta(mp.mpc(0.5, tm))
            assert abs(value - exact) <= bound, t
            # and the bound is near the precision asked for
            assert bound <= mp.ldexp(max(1, abs(exact)), 4 - prec), t


# near the first zero, at t = 500 and at the top of PHASE_GUARD_BITS' range
ULPS_HEIGHTS = ("14.1", "500.3", "10000.3")
# 40 centres spread geometrically over [14, 10^5]: theta(c) reaches 4.3e5
THETA_CENTRES = [f"{14 * (10 ** 5 / 14) ** (i / 39):.4f}" for i in range(40)]


def _measured_errors(prec):
    """The largest error of each libmp call whose ulps the zeta's bounds
    assume, each against the same call at 2 wp, wp = bits + PHASE_GUARD_BITS
    with the table bits of z_eval and of find_zeros' Newton read at each
    height (hardy._line_size at J = 1 and 2): log p in
    ulps at wp, and cos and sin in units of 2^-wp, of t log p for every
    prime _dirichlet_table tabulates at ULPS_HEIGHTS, and of theta(c) with
    a jet's bits + JET_GUARD_BITS fraction bits, as hardy._z_series takes
    e^(i theta(c)), at THETA_CENTRES."""
    with working_precision(prec):  # the arguments as z_eval receives them
        heights = [mp.mpf(t) for t in ULPS_HEIGHTS]
        centres = [mp.mpf(c) for c in THETA_CENTRES]
        tables = [(t, hardy._line_size(t, prec, J)) for t in heights for J in (1, 2)]
        centre_bits = [hardy._line_size(c, prec, 1)[2] for c in centres]
    worst = {"log": 0.0, "cos_sin": 0.0}

    def note(name, got, ref, unit_exp):
        gap = abs(mp.make_mpf(got) - mp.make_mpf(ref))
        worst[name] = max(worst[name], float(mp.ldexp(gap, -unit_exp)))

    def cos_sin(x, wp):
        for got, ref in zip(libmp.mpf_cos_sin(x, wp), libmp.mpf_cos_sin(x, 2 * wp)):
            note("cos_sin", got, ref, -wp)

    for t, (N, _, bits, _, _, _) in tables:
        wp = bits + zeta.PHASE_GUARD_BITS
        with mp.workprec(4 * wp):
            spf = zeta._PRIMES.factors(N)
            for p in (n for n in range(2, N + 1) if spf[n] == n):
                log_p = zeta._PRIMES.constant(p, bits)[0]
                note("log", log_p, libmp.mpf_log(libmp.from_int(p), 2 * wp),
                     log_p[2] + log_p[3] - wp)
                cos_sin(libmp.mpf_mul(t._mpf_, log_p, wp), wp)
    for c, bits in zip(centres, centre_bits):
        wp, F = bits + zeta.PHASE_GUARD_BITS, bits + JET_GUARD_BITS
        with mp.workprec(4 * wp):
            theta = int(mp.floor(mp.ldexp(mp.siegeltheta(c), F)))
            cos_sin(libmp.from_man_exp(theta, -F), wp)
    return worst


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_libmp_calls_are_within_the_assumed_ulps(prec):
    # the reference's own error, about 2^-2wp, is far below a unit at wp
    worst = _measured_errors(prec)
    assert worst["log"] <= zeta.LOG_ULPS, worst
    assert worst["cos_sin"] <= zeta.COS_SIN_ULPS, worst
