"""Unit tests for the Euler-Maclaurin zeta, its Dirichlet table and the
libmp calls of its point reads."""

import math
import random

import pytest
from mpmath import mp

from hardyz import hardy, zeta
from hardyz.precision import working_precision

from test_libmp import measured_errors, over_assumed, theta_read

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


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_libmp_calls_are_within_the_assumed_ulps(monkeypatch, prec):
    # z_eval's and find_zeros' Newton reads whole (J = 1 and 2) and a read
    # with a theta jet (J = 5) at ULPS_HEIGHTS, the Dirichlet table's log p
    # and t log p included, and
    # theta and e^(i theta) of z_eval's reads up to theta(c) = 4.3e5
    def workload(recorder):
        with working_precision(prec):  # the arguments as the entry points receive them
            for t in ULPS_HEIGHTS:
                for J in (1, 2, 5):
                    hardy._point_read(mp.mpf(t), prec, J)
            for c in THETA_CENTRES:
                theta_read(recorder, mp.mpf(c), prec, 1)

    worst = measured_errors(monkeypatch, workload)
    assert set(worst) == {"mpf_log", "mpf_cos_sin", "mpf_atan2", "mpf_pi"}, worst
    assert not over_assumed(worst)
