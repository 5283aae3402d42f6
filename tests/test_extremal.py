"""Unit tests for the extremal configuration and certificate chain."""

import json
import math
import warnings

import pytest
from mpmath import mp

from hardyz import extremal, kernel
from hardyz.extremal import (ExtremalParams, divided_bound, divided_bound_direct,
                             equal_angle_nodes, equal_angle_weights, extremal_config,
                             find_c_eps, g_and_h, hyp_coefficients,
                             log_sine_integral, log_sine_integral_closed,
                             phi, sine_product, theorem2_certificate)
from hardyz.divided_diff import NodeMultiset, divided_difference
from hardyz.precision import refine_sign_change, serialize, working_precision
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


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_log_sine_integral_is_within_its_bound_of_the_closed_form(prec):
    # the closed form at twice the precision; the rule's own rounding, of
    # the log-sinc values, their sum and t log(pi t/2) - t, adds a few units
    # of 2^-P to its truncation bound (2^-(P-4) allowed)
    for t in ("0.05", "0.3", "0.37", "0.5", "0.75", "1"):
        with working_precision(prec):
            tm = mp.mpf(t)
            _, log_bound = extremal._log_sine_rule(float(tm))
            allowance = mp.mpf(2) ** -(mp.prec - 4)
        value = log_sine_integral(tm, prec=prec)
        closed = log_sine_integral_closed(tm, prec=2 * prec)
        with working_precision(2 * prec):
            assert abs(value - closed) <= mp.exp(log_bound) + allowance, t


def test_log_sine_integral_takes_a_t_no_float_holds():
    # 1e-170 squares below the float range, and 1e-400 is no float at all
    for t in ("1e-170", "1e-400"):
        with working_precision(PREC):
            value = log_sine_integral(mp.mpf(t), prec=PREC)
            closed = log_sine_integral_closed(mp.mpf(t), prec=PREC)
            assert abs(value - closed) <= mp.mpf(2) ** -(PREC - 8) * abs(closed)


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
    """(c_eps, g_and_h calls, h_float reads) of an uncached find_c_eps."""
    calls, reads = [], []
    g_and_h_exact, h_float = extremal.g_and_h, extremal.h_float

    def counted(*args, **kwargs):
        calls.append(args)
        return g_and_h_exact(*args, **kwargs)

    def read(*args):
        reads.append(args)
        return h_float(*args)

    extremal._c_eps.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(extremal, "g_and_h", counted)
        patch.setattr(extremal, "h_float", read)
        c_eps = find_c_eps(eps, prec=prec)
    extremal._c_eps.cache_clear()
    return c_eps, len(calls), len(reads)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5, 0.65])
def test_c_eps_g_and_h_budget(monkeypatch, eps):
    # h_float proves every sign of the walk at eps 0.5 and 0.65; elsewhere
    # g_and_h reads the signs h_float leaves open, the bracket's two ends
    # and the refine
    _, calls, reads = _counted_c_eps(monkeypatch, eps, PREC)
    if eps >= 0.5:
        assert calls == 0
    else:
        assert calls <= 16
    if eps == 0.65:
        assert reads == 1023  # the whole grid is still read


def _c_eps_through_g_and_h(eps, prec):
    """find_c_eps' search with every sign read from g_and_h, the oracle of
    the float reads: the same walk, k search and refine."""
    with working_precision(prec):
        eps = mp.mpf(eps)
        h_at = lambda d: g_and_h(d, eps, prec=prec)[1]
        k = extremal.FIND_C_EPS_RESOLUTION_BITS
        step = mp.mpf(2) ** -k
        lo, h_lo = step, h_at(step)
        if h_lo < 0:
            while True:
                hi = lo + step
                if hi >= mp.mpf(1) / 4:
                    return 1 - mp.mpf(1) / 4
                h_hi = h_at(hi)
                if h_hi >= 0:
                    break
                lo, h_lo = hi, h_hi
        else:
            while h_lo >= 0:
                if k == prec + 1:
                    return mp.mpf(1)
                j, h_hi = k, h_lo
                k = min(2 * k, prec + 1)
                h_lo = h_at(mp.mpf(2) ** -k)
            while k - j > 1:
                mid = (j + k) // 2
                h_mid = h_at(mp.mpf(2) ** -mid)
                if h_mid < 0:
                    k, h_lo = mid, h_mid
                else:
                    j, h_hi = mid, h_mid
            lo, hi = mp.mpf(2) ** -k, mp.mpf(2) ** -j
        lo, _ = refine_sign_change(h_at, lo, hi, h_lo, h_hi, mp.mpf(2) ** -(prec + 1))
        return 1 - lo


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_c_eps_is_the_g_and_h_walk_bit_for_bit(prec):
    for eps in (0.05, 0.051, 0.066081, 0.07, 0.0812, 0.1, 0.2, 0.3, 0.4, 0.45,
                0.5, 0.6, 0.65, 0.69, 0.693):
        extremal._c_eps.cache_clear()
        fast = find_c_eps(eps, prec=prec)
        extremal._c_eps.cache_clear()
        assert fast._mpf_ == _c_eps_through_g_and_h(eps, prec)._mpf_, eps


@pytest.mark.parametrize("eps", [0.3, 0.65])
def test_c_eps_reads_g_and_h_where_h_float_proves_nothing(monkeypatch, eps):
    monkeypatch.setattr(extremal, "h_float", lambda d, gap: (0.0, math.inf))
    c_eps, calls, _ = _counted_c_eps(monkeypatch, eps, PREC)
    assert c_eps._mpf_ == _c_eps_through_g_and_h(eps, PREC)._mpf_
    if eps == 0.65:
        assert calls == 1023  # every grid point read from g_and_h


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
        c_eps, _, _ = _counted_c_eps(monkeypatch, eps, PREC)
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
    rep = theorem2_certificate(12, 0.95, 0.65, 30, prec=PREC)
    with working_precision(PREC):
        delta = 1 - mp.mpf(0.95)
        bound = (mp.log(2) - mp.mpf(0.65)) * delta / abs(mp.log(delta)) * 12 * mp.pi
        assert rep.s_lower_bound == bound > 0


def test_certificate_reports_inadmissible():
    # c = 0.5 is below c_eps(0.65) = 0.75; the chain is still evaluated
    assert theorem2_certificate(12, 0.5, 0.65, 30, prec=PREC).admissible is False


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
        * (a / (n * mp.pi)) ** (2 * m) * tail_weight_constant()


@pytest.mark.parametrize("n, c, eps, m", [(12, 0.95, 0.65, 30), (20, 0.974, 0.3, 60)])
def test_integral_bound_is_the_scaled_kernel_sup_bound(n, c, eps, m):
    # on the extremal configuration 1/|alpha_0| is the |sine product|, so
    # 2a c^(2m) times the sup bound is the certificate's integral_bound
    params = ExtremalParams(n=n, c=c, eps=eps, prec=PREC)
    rep = theorem2_certificate(n, c, eps, m, prec=PREC)
    alpha0 = kernel.coefficients(extremal_config(params), prec=PREC).alpha[n]
    with working_precision(PREC):
        a, cm = params.a, mp.mpf(params.c)
        oracle = 2 * a * cm ** (2 * m) * _kernel_sup_bound(n, m, a, alpha0)
        assert abs(rep.integral_bound - oracle) < mp.mpf(2) ** -(PREC - 24) * oracle


@pytest.mark.parametrize("prec", [128, 192])
def test_boundary_verdict_survives_cancellation(prec):
    # boundary_lhs is a zero-sum sum of Bernoulli values, and the rounding
    # of mu_k at the working precision costs it about 83 bits on the
    # paper's configuration, so lhs is good to far fewer digits than it
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


@pytest.mark.parametrize("eps", [0.7, 0.0, -0.1])
def test_eps_outside_zero_to_log_2_is_refused(eps):
    # find_c_eps and g_and_h once raised a TypeError inside _clausen at 0.7,
    # and find_c_eps returned c_eps = 1 at 0.0 and -0.1
    for call in (lambda: find_c_eps(eps, prec=64),
                 lambda: g_and_h(0.1, eps, prec=64),
                 lambda: ExtremalParams(n=12, c=0.95, eps=eps, prec=64)):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, log 2\)"):
            call()
