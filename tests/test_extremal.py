"""Unit tests for the extremal configuration and certificate chain."""

import json
import warnings

import pytest
from mpmath import mp

from hardyz import extremal, kernel
from hardyz.extremal import (ExtremalParams, divided_bound, divided_bound_direct,
                             equal_angle_nodes, equal_angle_weights, extremal_config,
                             find_c_eps, g_and_h, hyp_coefficients,
                             log_sine_integral, log_sine_integral_closed,
                             phi, sine_product, theorem2_bound,
                             theorem2_certificate)
from hardyz.divided_diff import NodeMultiset, divided_difference
from hardyz.precision import serialize, working_precision
from hardyz.probes import polynomial_probe
from hardyz.sequences import tail_weight_constant

PREC = 192


def test_log_sine_integral_value_at_one():
    with working_precision(PREC):
        v = log_sine_integral(1, prec=PREC)
        assert abs(v + mp.log(2)) < mp.mpf(2) ** -120


def test_log_sine_dual_route():
    with working_precision(PREC):
        for t in ("0.1", "0.37", "0.8", "1"):
            quad = log_sine_integral(mp.mpf(t), prec=PREC)
            closed = log_sine_integral_closed(mp.mpf(t), prec=PREC)
            assert abs(quad - closed) < mp.mpf(2) ** -120


def test_log_sine_integral_closed_range():
    with working_precision(PREC):
        assert log_sine_integral_closed(0, prec=PREC) == 0
        assert log_sine_integral_closed(1, prec=PREC) == -mp.log(2)
    for t in ("-1e-30", "1.000001", 2):
        with pytest.raises(ValueError):
            log_sine_integral_closed(t, prec=PREC)


@pytest.mark.parametrize("prec", [128, 192, 256])
def test_clausen_series_matches_clsin(prec):
    with working_precision(prec):
        tiny, near = mp.mpf(2) ** -40, mp.mpf(2) ** -20
        for theta in (tiny, mp.mpf("0.1"), mp.pi / 2 - near, mp.pi / 2 + near,
                      2 * mp.pi / 3 - near, 2 * mp.pi / 3 + near, mp.mpf(3),
                      mp.pi - tiny):
            err = abs(extremal._clausen(theta) - mp.clsin(2, theta))
            assert err < mp.mpf(2) ** -(prec - 8)


def _h_through_clsin(delta, eps):
    """h = (1-delta) log 2 + G(1-delta+eta) - G(eta) with G through mp.clsin."""
    G = lambda t: -t * mp.log(2) - mp.clsin(2, mp.pi * t) / mp.pi
    eta = extremal._eta(delta, eps)
    return (1 - delta) * mp.log(2) + G(1 - delta + eta) - G(eta)


def test_h_matches_the_clsin_route():
    with working_precision(PREC):
        eps = mp.mpf("0.3")
        tol = mp.mpf(2) ** -(PREC - 8)
        for j in range(64):
            d = mp.mpf(2 * j + 1) / 512
            (g_upper, g_lower), h = g_and_h(d, eps, prec=PREC)
            eta = extremal._eta(d, eps)
            assert abs(h - _h_through_clsin(d, eps)) < tol
            assert abs(g_upper - (-(1 - d + eta) * mp.log(2)
                                  - mp.clsin(2, mp.pi * (1 - d + eta)) / mp.pi)) < tol
            assert abs(g_lower - (-eta * mp.log(2)
                                  - mp.clsin(2, mp.pi * eta) / mp.pi)) < tol


def _scan_stop(h_at):
    """First grid index j of find_c_eps' delta-scan with h(j step) >= 0."""
    step = mp.mpf(2) ** -extremal.FIND_C_EPS_RESOLUTION_BITS
    j = 1
    while j * step < mp.mpf(1) / 4 and h_at(j * step) < 0:
        j += 1
    return j


def test_scan_stops_where_the_clsin_scan_stops():
    prec = 128
    with working_precision(prec):
        for eps in map(mp.mpf, ("0.05", "0.1", "0.3", "0.5", "0.65")):
            series = _scan_stop(lambda d: g_and_h(d, eps, prec=prec)[1])
            assert series == _scan_stop(lambda d: _h_through_clsin(d, eps))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.25, 0.3, 0.4])
def test_c_eps_bisects_to_the_working_resolution(eps):
    # eps 0.05, 0.1 and 0.2 refine a bracket below the 2^-12 grid
    for prec in (128, 192):
        c_eps = find_c_eps(eps, prec=prec)
        reference = find_c_eps(eps, prec=2 * prec)
        with mp.workprec(2 * prec):
            assert 1 - mp.mpf(1) / 4 < c_eps < 1  # a sign change was refined
            assert abs(c_eps - reference) <= mp.mpf(2) ** -(prec - 1)


def _counted_c_eps(monkeypatch, eps, prec):
    """(c_eps, g_and_h calls) of an uncached find_c_eps."""
    calls = []
    g_and_h_exact = extremal.g_and_h

    def counted(*args, **kwargs):
        calls.append(args)
        return g_and_h_exact(*args, **kwargs)

    extremal._c_eps.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(extremal, "g_and_h", counted)
        c_eps = find_c_eps(eps, prec=prec)
    extremal._c_eps.cache_clear()
    return c_eps, len(calls)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.65])
def test_c_eps_g_and_h_budget(monkeypatch, eps):
    # a bisection to 2^-192 took 199 calls at eps 0.25; eps 0.65 scans the
    # whole grid, whose 1023 points stay
    _, calls = _counted_c_eps(monkeypatch, eps, PREC)
    assert calls == 1023 if eps == 0.65 else calls <= 40


@pytest.mark.parametrize("eps, first_k", [(0.05, 97), (0.1, 37), (0.2, 13)])
def test_c_eps_brackets_below_the_grid_at_the_first_negative_k(monkeypatch, eps,
                                                               first_k):
    with working_precision(PREC):
        h_at = lambda d: g_and_h(d, mp.mpf(eps), prec=PREC)[1]
        step = mp.mpf(2) ** -extremal.FIND_C_EPS_RESOLUTION_BITS
        assert h_at(step) >= 0  # delta_eps lies below the grid
        k = extremal.FIND_C_EPS_RESOLUTION_BITS + 1
        while h_at(mp.mpf(2) ** -k) >= 0:
            k += 1
    assert k == first_k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c_eps, _ = _counted_c_eps(monkeypatch, eps, PREC)
    with working_precision(PREC):
        assert mp.mpf(2) ** -k <= 1 - c_eps <= mp.mpf(2) ** -(k - 1)


def test_h_negative_in_admissible_regime():
    with working_precision(PREC):
        _, h = g_and_h(mp.mpf("0.05"), mp.mpf("0.65"), prec=PREC)
        assert h < 0
        _, h2 = g_and_h(mp.mpf("0.2"), mp.mpf("0.5"), prec=PREC)
        assert h2 < 0


def test_find_c_eps_monotone_regime():
    c65 = find_c_eps(0.65, prec=PREC)
    c50 = find_c_eps(0.5, prec=PREC)
    assert 0 < c65 < 1
    assert 0 < c50 < 1
    with working_precision(PREC):
        # at eps = 0.5 and 0.65 the whole scan grid has h < 0
        assert abs(c65 - mp.mpf(0.75)) < mp.mpf(2) ** -10
        assert abs(c50 - mp.mpf(0.75)) < mp.mpf(2) ** -10


def test_extremal_invariant():
    params = ExtremalParams(n=12, c=0.95, eps=0.65, prec=PREC)
    cfg = extremal_config(params, prec=PREC)
    with working_precision(PREC):
        # outermost node (n/2 - 1) pi + s* stays inside half the interval
        outer = mp.mpf(cfg.nodes[params.n + params.n // 2])
        assert outer < mp.mpf(cfg.a) / 2
        assert 0 < params.s_star < mp.pi


def test_sine_product_log_domain_agrees():
    params = ExtremalParams(n=8, c=0.9, eps=0.5, prec=PREC)
    cfg = extremal_config(params, prec=PREC)
    p1 = sine_product(cfg, prec=PREC)
    p2 = sine_product(cfg, prec=PREC, log_domain=True)
    assert abs(p1 - p2) < mp.mpf(2) ** (-(PREC - 60)) * abs(p1)
    assert 0 < p1 < mp.mpf(2) ** (-2 * cfg.n)


def test_divided_bound_dual_route():
    params = ExtremalParams(n=10, c=0.92, eps=0.6, prec=PREC)
    cfg = extremal_config(params, prec=PREC)
    d1 = divided_bound(cfg, params, prec=PREC)
    d2 = divided_bound_direct(cfg, params.c, prec=PREC)
    assert abs(d1 - d2) < mp.mpf(2) ** (-(PREC // 2)) * abs(d1)
    assert 0 < d1 < mp.mpf(2) ** (2 * cfg.n - 1)


def test_equal_angle_weights_three_case_formula():
    for n in range(2, 9):
        gam = equal_angle_weights(n, prec=PREC)
        with working_precision(PREC):
            g0 = mp.mpf(-1) ** n * mp.mpf(2) ** (2 * n - 2) / n
            for k, g in enumerate(gam):
                if k == 0:
                    target = g0
                elif k == n:
                    target = mp.mpf(-1) ** n * g0
                else:
                    target = mp.mpf(-1) ** k * 2 * g0
                assert abs(g - target) < mp.mpf(2) ** (-(PREC - 60)) * abs(target)


def test_equal_angle_nodes_symmetric():
    t = equal_angle_nodes(6, prec=PREC)
    with working_precision(PREC):
        for k in range(7):
            assert abs(t[k] + t[6 - k] - 1) < mp.mpf(2) ** (-(PREC - 40))


def test_phi_guards():
    with pytest.raises(ValueError):
        phi([0, 0.5], 2, prec=PREC)
    with pytest.raises(ValueError):
        phi([0.5, 0.2, 0.9], 2, prec=PREC)


def test_hyp_coefficients_signs():
    for n in (1, 3, 7):
        cs = hyp_coefficients(n, n + 20)
        for k, c in enumerate(cs):
            if k < n:
                assert c * (-1) ** k > 0
            else:
                assert c == 0 or c * (-1) ** n > 0
        assert all(c != 0 for c in cs[: n + 20])


def test_node_spread_monotonicity():
    # x^5: the third divided difference is the complete symmetric sum h_2 of
    # the nodes, 2.65625 and 2.7265625 here (x^4 gives their sum, 2 for both)
    probe = polynomial_probe([0, 0, 0, 0, 0, 1], prec=PREC)
    t = [0.125, 0.375, 0.625, 0.875]
    t_star = [0.0625, 0.3125, 0.6875, 0.9375]
    d1 = divided_difference(probe, NodeMultiset(t), prec=PREC)
    d2 = divided_difference(probe, NodeMultiset(t_star), prec=PREC)
    assert d1 < d2


def test_theorem2_bound_positive():
    assert theorem2_bound(12, 0.95, 0.65, prec=PREC) > 0


def test_certificate_rejects_inadmissible_by_default():
    with pytest.raises(ValueError):
        theorem2_certificate(12, 0.5, 0.65, 30, prec=PREC)


def test_certificate_report_fields():
    rep = theorem2_certificate(12, 0.95, 0.65, 30, prec=PREC)
    assert rep.admissible
    assert rep.sine_product_in_range
    assert rep.divided_bound_in_range
    assert rep.total_below_one
    assert rep.boundary_ok
    data = json.dumps(serialize(rep, PREC), sort_keys=True, indent=2)
    assert '"total_below_one": true' in data


def _kernel_sup_bound(n, m, a, alpha0):
    """The paper's bound 2^(2n-1)/(|alpha_0| a) (a/(n pi))^(2m) C* on the
    order-(2m-1) kernel, in the regime n >= 10, m >= n log n."""
    return mp.mpf(2) ** (2 * n - 1) / (abs(alpha0) * a) \
        * (a / (n * mp.pi)) ** (2 * m) * tail_weight_constant(prec=PREC)


@pytest.mark.parametrize("n, c, eps, m", [(12, 0.95, 0.65, 30), (20, 0.974, 0.3, 60)])
def test_integral_bound_is_the_scaled_kernel_sup_bound(n, c, eps, m):
    # on the extremal configuration 1/|alpha_0| is the |sine product|, so
    # 2a c^(2m) times the sup bound is the certificate's integral_bound
    params = ExtremalParams(n=n, c=c, eps=eps, prec=PREC)
    rep = theorem2_certificate(n, c, eps, m, prec=PREC, require_admissible=False)
    alpha0 = kernel.coefficients(extremal_config(params), prec=PREC).alpha[n]
    with working_precision(PREC):
        a, cm = params.a, mp.mpf(params.c)
        oracle = 2 * a * cm ** (2 * m) * _kernel_sup_bound(n, m, a, alpha0)
        assert abs(rep.integral_bound - oracle) < mp.mpf(2) ** -(PREC - 24) * oracle


@pytest.mark.parametrize("prec", [128, 192])
def test_boundary_verdict_survives_cancellation(prec):
    # the zero-sum Bernoulli sums behind boundary_lhs lose over 100 bits on
    # the paper's configuration, so lhs is good to far fewer digits than it
    # prints; the verdict lhs <= rhs must not rest on those digits
    params = ExtremalParams(n=12, c=mp.mpf(0.95), eps=mp.mpf(0.65), prec=prec)
    cfg = extremal_config(params)
    lhs, rhs = kernel.boundary_sum_bound(cfg, params.c, 12, prec=prec)
    lhs_fine, _ = kernel.boundary_sum_bound(cfg, params.c, 12, prec=2 * prec)
    with mp.workprec(2 * prec):
        assert lhs < rhs
        assert abs(lhs - lhs_fine) < mp.mpf("1e-6") * (rhs - lhs)


def test_find_c_eps_cache_keys_on_the_working_precision_value():
    prec = 128
    with mp.workprec(prec):
        eps = mp.mpf("0.3")  # differs from the double 0.3 beyond 15 digits
    extremal._c_eps.cache_clear()
    fresh = find_c_eps(eps, prec=prec)
    extremal._c_eps.cache_clear()
    find_c_eps(mp.mpf(0.3), prec=prec)
    assert find_c_eps(eps, prec=prec) == fresh
