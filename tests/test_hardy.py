"""Unit tests for the Hardy function engine.

Kept at 128 bits so the whole file stays inside a desk-scale budget.
"""

import pytest
from mpmath import mp

from hardyz.hardy import (CapacityError, RejectedPointError, count_stats,
                          expected_zero_count, find_zeros, n_main,
                          spacing_check, theorem1_explore, theta,
                          theta_asymptotic, theta_prime, z_derivative,
                          z_derivative_fd, z_derivatives_batch, z_eval)
from hardyz.precision import working_precision

PREC = 128

GAMMA_1 = "14.134725141734693790457251983562470270784257115699"


def test_theta_branches_agree():
    with working_precision(PREC):
        # truncation error of the 5-term series scales like t^-11
        for t, tol in ((15, -12), (50, -18), (200, -24)):
            exact = theta(t, prec=PREC)
            asym = theta_asymptotic(t, prec=PREC)
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
            em = z_eval(t, prec=PREC, method="euler_maclaurin")
            rs = z_eval(t, prec=PREC, method="riemann_siegel")
            assert abs(em.z - rs.z) < mp.mpf(10) ** -25
            assert em.error_estimate < mp.mpf(10) ** -25


def test_z_matches_zeta_modulus():
    with working_precision(PREC):
        t = mp.mpf(30)
        z = z_eval(t, prec=PREC).z
        zeta = mp.zeta(mp.mpf(0.5) + 1j * t)
        assert abs(z ** 2 - abs(zeta) ** 2) < mp.mpf(10) ** -30


def test_derivative_dual_path():
    for t, k in ((100, 3), (50, 5), (20, 2)):
        a = z_derivative(t, k, prec=PREC)
        b = z_derivative_fd(t, k, prec=PREC)
        assert abs(a - b) < mp.mpf(10) ** -20 * max(1, abs(a))


def test_batch_matches_single():
    vals = z_derivatives_batch(60, [1, 4], prec=PREC)
    for k in (1, 4):
        single = z_derivative(60, k, prec=PREC)
        assert abs(vals[k] - single) < mp.mpf(10) ** -25 * max(1, abs(single))


def test_derivative_capacity_guard():
    with pytest.raises(CapacityError):
        z_derivative(50, 65, prec=PREC)


def test_first_zero_and_count_to_100():
    zl = find_zeros(0, 100, prec=PREC)
    assert len(zl) == 29
    with working_precision(PREC):
        assert abs(zl.gammas()[0] - mp.mpf(GAMMA_1)) < mp.mpf(10) ** -6
    exp = expected_zero_count(0, 100, prec=PREC)
    assert abs(exp - 29) < 2


def test_count_stats_main_term():
    with working_precision(PREC):
        assert abs(n_main(100, prec=PREC) - mp.mpf("28.127")) < 0.01
    zl = find_zeros(0, 100, prec=PREC)
    cs = count_stats(100, prec=PREC, zero_list=zl)
    assert cs.n_counted == 29
    with working_precision(PREC):
        assert abs(cs.s_estimate) < 2


def test_zero_list_indexing():
    zl = find_zeros(10, 60, prec=PREC)
    idx = zl.indexed(30)
    assert idx[-1] < 30 < idx[1]
    assert idx[1] < idx[2]


def test_spacing_report_shape():
    rep = spacing_check(250, 3, prec=PREC)
    assert len(rep.rows) == 3
    assert rep.rows[0].main_term == 0
    for r in rep.rows:
        assert r.gamma_minus < rep.T < r.gamma_plus
    assert '"rows"' in rep.to_json(prec=PREC)


def test_explore_report_shape():
    rep = theorem1_explore(100, 0.3, m_cap=2, prec=64)
    assert rep.m_used <= 2
    ks = [r.k for r in rep.rows]
    assert ks == sorted(set(ks))
    assert 2 * rep.m_used in ks
    data = rep.to_json(prec=64)
    assert '"witness_k"' in data
    assert '"exploratory_note"' in data


def test_guards():
    with pytest.raises(ValueError):
        find_zeros(50, 40, prec=PREC)
    with pytest.raises(ValueError):
        count_stats(5, prec=PREC)
    with pytest.raises(ValueError):
        spacing_check(250, 20, prec=PREC)
    with pytest.raises(ValueError):
        theorem1_explore(10, 0.3, prec=PREC)


def test_single_derivative_is_the_batch_entry():
    assert z_derivative(40, 0, prec=PREC) == z_eval(40, prec=PREC).z
    for k in (1, 4):
        single = z_derivative(40, k, prec=PREC)
        assert single._mpf_ == z_derivatives_batch(40, [k], prec=PREC)[k]._mpf_
