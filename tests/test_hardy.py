"""Unit tests for the Hardy function engine.

Kept at 128 bits so the whole file stays inside a desk-scale budget.
"""

import dataclasses

import pytest
from mpmath import mp

from hardyz import hardy
from hardyz.hardy import (ZERO_HALF_WIDTH_BITS, CapacityError,
                          PrecisionEscalationError, count_stats,
                          expected_zero_count, find_zeros, n_main,
                          theorem1_explore, theta, theta_prime, z_derivative_fd,
                          z_derivatives_batch, z_eval)
from hardyz.precision import working_precision

PREC = 128

GAMMA_1 = "14.134725141734693790457251983562470270784257115699"

THETA_ASYMPTOTIC_MIN_T = 10
THETA_ASYMPTOTIC_TERMS = 5


def _theta_asymptotic(t):
    """Asymptotic branch t/2 log(t/2pi) - t/2 - pi/8 + sum a_j t^(1-2j),
    j = 1..THETA_ASYMPTOTIC_TERMS, at the ambient precision.

    a_j = (1 - 2^(1-2j)) |B_2j| / (4j(2j-1)); valid for t >= 10 where the
    series terms fall well below the leading scale.
    """
    tm = mp.mpf(t)
    assert tm >= THETA_ASYMPTOTIC_MIN_T
    val = tm / 2 * mp.log(tm / (2 * mp.pi)) - tm / 2 - mp.pi / 8
    for j in range(1, THETA_ASYMPTOTIC_TERMS + 1):
        a_j = (1 - mp.mpf(2) ** (1 - 2 * j)) * abs(mp.bernoulli(2 * j)) \
            / (4 * j * (2 * j - 1))
        val += a_j / tm ** (2 * j - 1)
    return val


def test_theta_branches_agree():
    with working_precision(PREC):
        # truncation error of the 5-term series scales like t^-11
        for t, tol in ((15, -12), (50, -18), (200, -24)):
            exact = theta(t, prec=PREC)
            asym = _theta_asymptotic(t)
            assert abs(exact - asym) < mp.mpf(10) ** tol


def test_theta_prime_is_derivative():
    with working_precision(PREC):
        t = mp.mpf(40)
        h = mp.mpf(2) ** -30
        fd = (theta(t + h, prec=PREC) - theta(t - h, prec=PREC)) / (2 * h)
        assert abs(fd - theta_prime(t, prec=PREC)) < mp.mpf(2) ** -50


def test_z_eval_methods_agree():
    with working_precision(PREC):
        for t in (25, 80, 150):
            em = z_eval(t, prec=PREC)
            rs = mp.siegelz(t)
            assert abs(em.z - rs) < mp.mpf(10) ** -25
            assert em.error_estimate < mp.mpf(10) ** -25


def test_z_matches_zeta_modulus():
    with working_precision(PREC):
        t = mp.mpf(30)
        z = z_eval(t, prec=PREC).z
        zeta = mp.zeta(mp.mpf(0.5) + 1j * t)
        assert abs(z ** 2 - abs(zeta) ** 2) < mp.mpf(10) ** -30


def test_derivative_dual_path():
    for t, k in ((100, 3), (50, 5), (20, 2)):
        a = z_derivatives_batch(t, [k], prec=PREC)[k]
        b = z_derivative_fd(t, k, prec=PREC)
        assert abs(a - b) < mp.mpf(10) ** -20 * max(1, abs(a))


def test_batch_matches_single():
    vals = z_derivatives_batch(60, [1, 4], prec=PREC)
    for k in (1, 4):
        single = z_derivatives_batch(60, [k], prec=PREC)[k]
        assert abs(vals[k] - single) < mp.mpf(10) ** -25 * max(1, abs(single))


@pytest.mark.parametrize("centre", [60, 1000])
def test_z_reflects_across_the_real_axis(centre):
    # the contour samples Im w <= 0 only and fills the rest by reflection
    with working_precision(PREC):
        for j in range(8):
            w = centre + 2 * mp.expjpi(mp.mpf(2 * j + 1) / 8)
            zw = hardy._z_complex(w)
            gap = abs(hardy._z_complex(mp.conj(w)) - mp.conj(zw))
            assert gap <= mp.mpf(2) ** -(PREC - 8) * max(1, abs(zw))


def test_patches_match_the_per_point_contour():
    prec = 64
    with working_precision(prec):
        T = mp.mpf(60)
        patches = hardy._TaylorPatches(T - 2 * mp.pi, T + 2 * mp.pi, [1, 2], prec)
        step = mp.pi / (8 * theta_prime(T, prec=prec))
        # grid points of explore 60; the window's ends sit farthest from a centre
        grid = [T - 2 * mp.pi + j * step for j in (0, 12, 24, 36)]
        read = [{k: patches.derivative(u, k) for k in (1, 2)} for u in grid]
    for u, vals in zip(grid, read):
        ref = z_derivatives_batch(u, [1, 2], prec=prec)
        for k in (1, 2):
            assert abs(vals[k] - ref[k]) <= mp.mpf(10) ** -20 * abs(ref[k])


@pytest.mark.parametrize("run, budget", [
    # 37 grid and 4 refinement contours of 128 samples took 5248;
    # 7 patches of 65 samples
    (lambda: theorem1_explore("60", "0.3", 2, prec=64), 7 * 65),
    # the full circle took 128
    (lambda: z_derivatives_batch(60, [1, 2], prec=64), 65),
], ids=["explore", "batch"])
def test_contour_zeta_budget(monkeypatch, run, budget):
    calls = []
    zeta = mp.zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return zeta(*args, **kwargs)

    monkeypatch.setattr(mp, "zeta", counted)
    run()
    assert len(calls) <= budget


def test_derivative_capacity_guard():
    with pytest.raises(CapacityError):
        z_derivatives_batch(50, [65], prec=PREC)
    with pytest.raises(CapacityError):
        theorem1_explore(60, 100, m_cap=33, prec=PREC)


def test_first_zero_and_count_to_100():
    zl = find_zeros(0, 100, prec=PREC)
    assert len(zl) == 29
    with working_precision(PREC):
        assert abs(zl.zeros[0].gamma - mp.mpf(GAMMA_1)) < mp.mpf(10) ** -6
    exp = expected_zero_count(0, 100, prec=PREC)
    assert abs(exp - 29) < 2


def test_zeros_to_100_match_zetazero_inside_sign_change_brackets():
    zl = find_zeros(0, 100, prec=PREC)
    assert len(zl) == 29
    with working_precision(PREC):
        for k, z in enumerate(zl.zeros, start=1):
            assert 0 < z.half_width <= mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
            assert abs(z.gamma - mp.zetazero(k).imag) < mp.mpf(10) ** -12
            assert (mp.siegelz(z.gamma - z.half_width) > 0) \
                != (mp.siegelz(z.gamma + z.half_width) > 0)


def test_zeros_to_100_siegelz_budget(monkeypatch):
    calls = []
    siegelz = mp.siegelz

    def counted(*args, **kwargs):
        calls.append(args)
        return siegelz(*args, **kwargs)

    monkeypatch.setattr(mp, "siegelz", counted)
    assert len(find_zeros(0, 100, prec=PREC)) == 29
    # bisecting every bracket to 2^-48 took 1521 calls
    assert len(calls) <= 400


def test_sign_change_within_error_estimate_is_not_certified(monkeypatch):
    z_eval_exact = hardy.z_eval

    def unsure(t, prec=PREC):
        s = z_eval_exact(t, prec=prec)
        return dataclasses.replace(s, error_estimate=2 * abs(s.z))

    monkeypatch.setattr(hardy, "z_eval", unsure)
    with pytest.raises(PrecisionEscalationError):
        find_zeros(14, 15, prec=PREC)


def test_count_stats_main_term():
    with working_precision(PREC):
        assert abs(n_main(100, prec=PREC) - mp.mpf("28.127")) < 0.01
    zl = find_zeros(0, 100, prec=PREC)
    cs = count_stats(100, prec=PREC, zero_list=zl)
    assert cs.n_counted == 29
    with working_precision(PREC):
        assert abs(cs.s_estimate) < 2


def test_guards():
    with pytest.raises(ValueError):
        find_zeros(50, 40, prec=PREC)
    with pytest.raises(ValueError):
        find_zeros(0, mp.inf, prec=PREC)
    with pytest.raises(ValueError):
        count_stats(5, prec=PREC)
    with pytest.raises(ValueError):
        theorem1_explore(10, 0.3, prec=PREC)

