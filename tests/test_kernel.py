"""Unit tests for the node-configuration kernels."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from hardyz import kernel
from hardyz.extremal import (ExtremalParams, equal_angle_nodes, equal_angle_weights,
                             extremal_config, sine_product)
from hardyz.kernel import (MOMENT_FIXED_BITS, DuplicateNodeError, NodeConfig,
                           SingularParameterError, boundary_sum_bound,
                           chebyshev_moments, coefficients, compile_psi,
                           divided_bound_direct, kernel_knots, psi,
                           psi_chebyshev_series, psi_orders, psi_star_boundary,
                           random_config)
from hardyz.polynomials import bernoulli_centered_coeffs, bernoulli_poly_mpf, horner
from hardyz.precision import GUARD_BITS, working_precision

from panel_values import panel_value

PREC = 192
TOL = mp.mpf(2) ** (-(PREC - 60))


def _simple_config(n=2, a=3):
    pos = [a * (k + 0.7) / (n + 1) for k in range(n)]
    nodes = [-v for v in reversed(pos)] + [0] + pos
    return NodeConfig(n=n, a=a, nodes=nodes, strict=True)


def test_config_validation():
    with pytest.raises(ValueError):
        NodeConfig(n=1, a=1, nodes=[-0.5, 0.1, 0.5])  # x_0 != 0
    with pytest.raises(ValueError):
        NodeConfig(n=1, a=1, nodes=[-1.5, 0, 0.5])  # node outside (-a, a)
    with pytest.raises(ValueError):
        NodeConfig(n=2, a=1, nodes=[-0.6, -0.3, 0, 0.4, 0.4], strict=True)
    # same pair is fine weakly ordered
    NodeConfig(n=2, a=1, nodes=[-0.6, -0.3, 0, 0.4, 0.4], strict=False)


def test_alpha_zero_sum_and_symmetric_mu():
    cfg = _simple_config()
    co = coefficients(cfg, prec=PREC)
    with working_precision(PREC):
        assert abs(mp.fsum(co.alpha)) < TOL * max(abs(v) for v in co.alpha)
        n = cfg.n
        assert co.mu[n] == 1
        # symmetric configuration: mu_{-k} = mu_k
        for k in range(1, n + 1):
            assert abs(co.mu[n + k] - co.mu[n - k]) < TOL


def test_symmetric_coefficients_n1():
    cfg = NodeConfig(n=1, a=2, nodes=[-1, 0, 1], strict=True)
    co = coefficients(cfg, prec=PREC)
    with working_precision(PREC):
        assert abs(co.mu[cfg.n + 1] + mp.mpf(0.5)) < TOL
        assert abs(co.mu[cfg.n - 1] + mp.mpf(0.5)) < TOL


def test_vanishing_chebyshev_moments():
    rng = random.Random(11)
    cfg = random_config(rng, 3, prec=PREC)
    moments = chebyshev_moments(cfg, 0, 2 * cfg.n, prec=PREC)
    for j in range(1, 2 * cfg.n):
        s = moments[j]
        assert abs(s) < mp.mpf(2) ** (-(PREC - 80))
    s0 = moments[0]
    assert abs(s0) < mp.mpf(2) ** (-(PREC - 80))
    assert abs(moments[2 * cfg.n]) > 0


def test_chebyshev_moment_refuses_weak_configurations():
    # its weights are coefficients', which need distinct nodes
    cfg = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    with pytest.raises(DuplicateNodeError):
        chebyshev_moments(cfg, 2 * cfg.n, 2 * cfg.n, prec=PREC)


def test_series_matches_direct_evaluation():
    rng = random.Random(5)
    cfg = random_config(rng, 2, prec=PREC)
    l = cfg.n + 2
    with working_precision(PREC):
        for frac in ("-0.4", "0.1", "0.8"):
            x = mp.mpf(cfg.a) * mp.mpf(frac)
            direct = psi(cfg, l, x, coefficients(cfg, prec=PREC).mu, prec=PREC)
            series, tail = psi_chebyshev_series(cfg, l, x, 400, prec=PREC)
            assert abs(direct - series) <= tail + mp.mpf(2) ** (-(PREC - 60))


def test_series_tail_bound_refuses_weak_configurations():
    # the tail bound rests on |S_j| <= max|alpha_k| (2n+1), which needs
    # distinct nodes
    cfg = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    with pytest.raises(DuplicateNodeError):
        psi_chebyshev_series(cfg, 3, mp.mpf("0.4"), 40, prec=PREC)


def test_boundary_matches_direct_for_strict():
    rng = random.Random(17)
    cfg = random_config(rng, 2, prec=PREC)
    for sign in (1, -1):
        direct = psi(cfg, 3, sign * mp.mpf(cfg.a), coefficients(cfg, prec=PREC).mu,
                     prec=PREC)
        ext = psi_star_boundary(cfg, [3], sign, prec=PREC)[0]
        assert abs(direct - ext) < mp.mpf(2) ** (-(PREC - 60))


def test_confluent_boundary_extension_is_continuous():
    # double node: the extension must be the limit of strict perturbations
    a = 4
    base = [-2.5, -1.0, 0, 1.5, 1.5]
    cfg = NodeConfig(n=2, a=a, nodes=base, strict=False)
    ext = psi_star_boundary(cfg, [4], 1, prec=PREC)[0]
    with working_precision(PREC):
        eps = mp.mpf(2) ** -50
        near = NodeConfig(n=2, a=a,
                          nodes=[-2.5, -1.0, 0, mp.mpf(1.5) - eps, mp.mpf(1.5) + eps],
                          strict=True)
        val = psi_star_boundary(near, [4], 1, prec=PREC)[0]
        assert abs(ext - val) < mp.mpf(2) ** -40


def test_boundary_sign_property_sample():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        cfg = random_config(rng, n, prec=PREC)
        l = rng.randint(1, 6)
        for sign in (1, -1):
            v = psi_star_boundary(cfg, [l], sign, prec=PREC)[0]
            assert (-1) ** (n + l + 1) * v > 0


def test_boundary_sum_inequality_and_convergence():
    rng = random.Random(31)
    cfg = random_config(rng, 2, prec=PREC)
    with working_precision(PREC):
        c = mp.mpf("0.6") * cfg.n * mp.pi / mp.mpf(cfg.a)
        prev_gap = None
        for m in (4, 8, 16):
            lhs, rhs = boundary_sum_bound(cfg, c, m, prec=PREC)
            assert lhs <= rhs
            gap = rhs - lhs
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


def test_boundary_sum_guards():
    cfg = _simple_config(n=2, a=3)
    with working_precision(PREC):
        with pytest.raises(SingularParameterError):
            boundary_sum_bound(cfg, mp.pi / mp.mpf(cfg.a), 3, prec=PREC)
        with pytest.raises(ValueError):
            boundary_sum_bound(cfg, 5 * mp.pi / mp.mpf(cfg.a), 3, prec=PREC)
    weak = NodeConfig(n=2, a=3, nodes=[-2, -1, 0, 1.2, 1.2], strict=False)
    with pytest.raises(DuplicateNodeError):
        boundary_sum_bound(weak, 0.5, 3, prec=PREC)


def _assert_compiled_matches_direct(cfg, l, weights, rng):
    comp = compile_psi(cfg, l, weights, prec=PREC)
    with working_precision(PREC):
        knots = kernel_knots(cfg, prec=PREC)
        assert comp.knots == knots
        near = mp.mpf(2) ** -40
        for lo, hi in zip(knots, knots[1:]):
            xs = [lo + near, hi - near, lo + (hi - lo) * mp.mpf(rng.random()),
                  lo + (hi - lo) * mp.mpf(rng.random())]
            for x in xs:
                direct = psi(cfg, l, x, prec=PREC, weights=weights)
                assert abs(panel_value(comp, x) - direct) <= TOL * max(1, abs(direct))
        for x in (knots[0], knots[-1]):
            direct = psi(cfg, l, x, prec=PREC, weights=weights)
            assert abs(panel_value(comp, x) - direct) <= TOL * max(1, abs(direct))


def test_compiled_kernel_matches_direct_in_every_panel():
    rng = random.Random(41)
    for n in range(1, 5):
        cfg = random_config(rng, n, prec=PREC)
        mu = coefficients(cfg, prec=PREC).mu
        for l in (1, 2, 3, 5, 8, 10):
            _assert_compiled_matches_direct(cfg, l, mu, rng)


def test_compiled_kernel_with_zero_weights():
    rng = random.Random(43)
    cfg = random_config(rng, 3, prec=PREC)
    with working_precision(PREC):
        w = [mp.mpf(rng.uniform(-1, 1)) for _ in range(4)]
        # zero weights on x_{-2}, x_1 and x_3: their knots stay, their
        # Bernoulli terms vanish
        weights = [w[0], 0, w[1], w[2], 0, w[3], 0]
        weights[3] = -mp.fsum(weights[:3] + weights[4:])
    for l in (1, 4, 7):
        _assert_compiled_matches_direct(cfg, l, weights, rng)


def test_compiled_kernel_defaults_to_lemma_weights():
    rng = random.Random(47)
    cfg = random_config(rng, 2, prec=PREC)
    comp = compile_psi(cfg, 4, prec=PREC)
    with working_precision(PREC):
        x = mp.mpf(cfg.a) * mp.mpf("0.37")
        direct = psi(cfg, 4, x, coefficients(cfg, prec=PREC).mu, prec=PREC)
        assert abs(panel_value(comp, x) - direct) <= TOL * max(1, abs(direct))


def test_boundary_weights_pass_through_bit_identical():
    rng = random.Random(59)
    cfg = random_config(rng, 3, prec=PREC)
    mu = coefficients(cfg, prec=PREC).mu
    for l in (1, 4):
        for sign in (1, -1):
            with working_precision(PREC):
                x = sign * mp.mpf(cfg.a)
            assert psi_star_boundary(cfg, [l], sign, prec=PREC)[0]._mpf_ \
                == psi(cfg, l, x, prec=PREC, weights=mu)._mpf_


def test_coefficients_are_kept_per_precision():
    rng = random.Random(61)
    cfg = random_config(rng, 3, prec=PREC)

    def bits(co):
        return [v._mpf_ for v in co.alpha + co.mu]

    fresh = {}
    for prec in (128, 192):
        kernel._coefficients.cache_clear()
        fresh[prec] = bits(coefficients(cfg, prec=prec))
    kernel._coefficients.cache_clear()
    first = coefficients(cfg, prec=128)
    for prec in (192, 128):
        assert bits(coefficients(cfg, prec=prec)) == fresh[prec]
    assert coefficients(cfg, prec=128) is first
    copy = NodeConfig(n=cfg.n, a=cfg.a, nodes=list(cfg.nodes))
    assert coefficients(copy, prec=128) is first


def _explicit_weights(t):
    """1/prod_{j!=k}(t_k - t_j), written out at the ambient precision."""
    out = []
    for k, tk in enumerate(t):
        prod = mp.mpf(1)
        for j, tj in enumerate(t):
            if j != k:
                prod *= tk - tj
        out.append(1 / prod)
    return out


def _certificate_configs(prec):
    """The extremal configurations of the certificate digests, at prec."""
    return [extremal_config(ExtremalParams(n=n, c=c, eps=eps, prec=prec), prec=prec)
            for n, c, eps in ((12, 0.95, 0.65), (14, 0.95, 0.07),
                              (16, 0.935086, 0.066081), (20, 0.974, 0.3))]


def test_coefficients_equal_an_explicit_product_loop():
    # the integer products against the mpf loop they replaced, at twice prec
    cases = [(random_config(random.Random(41), 3, prec=PREC), PREC)]
    for prec in (64, 128, 192):
        rng = random.Random(prec + 13)
        cases += [(cfg, prec) for cfg in _certificate_configs(prec)
                  + [random_config(rng, n, prec=prec) for n in range(1, 7)]]
    for cfg, prec in cases:
        with working_precision(2 * prec):
            alpha = _explicit_weights(cfg.sine_nodes(prec=mp.prec))
            mu = [v / alpha[cfg.n] for v in alpha]
        with working_precision(prec):
            alpha, mu = [+v for v in alpha], [+v for v in mu]
        co = coefficients(cfg, prec=prec)
        assert [v._mpf_ for v in co.alpha] == [v._mpf_ for v in alpha]
        assert [v._mpf_ for v in co.mu] == [v._mpf_ for v in mu]


def test_equal_angle_weights_equal_an_explicit_product_loop():
    for n in (2, 5):
        t = equal_angle_nodes(n, prec=PREC)
        with working_precision(PREC):
            expected = _explicit_weights(t)
        got = equal_angle_weights(n, prec=PREC)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in expected]


def test_boundary_sum_rhs_is_sine_product_times_divided_difference():
    cfg = random_config(random.Random(31), 2, prec=PREC)
    with working_precision(PREC):
        c = mp.mpf("0.6") * cfg.n * mp.pi / mp.mpf(cfg.a)
        _, rhs = boundary_sum_bound(cfg, c, 3, prec=PREC)
        expected = sine_product(cfg, prec=PREC) \
            * divided_bound_direct(cfg, c, prec=PREC)
    assert rhs._mpf_ == expected._mpf_


# ---------------------------------------------------------------------------
# a configuration holds its numbers from construction: what a reader sees
# does not depend on the precision it is called at

def test_strictness_does_not_depend_on_the_callers_precision():
    # 1 and 1 + 2^-70 are equal at 53 bits and distinct at 192
    with working_precision(PREC):
        cfg = NodeConfig(n=2, a=4, nodes=[-2, -1, 0, 1, 1 + mp.mpf(2) ** -70])
        assert cfg.is_strict()
    assert cfg.is_strict()


def test_boundary_value_does_not_depend_on_the_callers_precision():
    with working_precision(PREC):
        a = +mp.pi
        cfg = NodeConfig(n=1, a=a, nodes=[-a / 3, 0, a / 2])
    outside = psi_star_boundary(cfg, [2], 1, prec=PREC)[0]
    with working_precision(PREC):
        inside = psi_star_boundary(cfg, [2], 1, prec=PREC)[0]
    assert outside._mpf_ == inside._mpf_


def test_a_large_int_is_held_exactly_at_any_precision():
    outside = NodeConfig(n=1, a=2 ** 60 + 1, nodes=[-1, 0, 1])
    with working_precision(PREC):
        inside = NodeConfig(n=1, a=2 ** 60 + 1, nodes=[-1, 0, 1])
    assert outside.a == inside.a == 2 ** 60 + 1


def test_a_decimal_string_is_refused():
    # "3.3" has no exact binary value: held would round it at whatever
    # precision its caller happens to run
    with pytest.raises(TypeError):
        NodeConfig(n=1, a="3.3", nodes=[-1, 0, 1])


# ---------------------------------------------------------------------------
# boundary values of every order from one set of Bernoulli arguments


def _per_order_boundary_sum(config, c, m, prec):
    """boundary_sum_bound's (lhs, rhs), with the boundary values read order
    by order through psi_star_boundary."""
    n = config.n
    with working_precision(prec):
        cm = mp.mpf(c)
        lhs = mp.mpf(0)
        for k in range(1, m + 1):
            s = psi_star_boundary(config, [k], 1, prec=prec)[0] \
                + psi_star_boundary(config, [k], -1, prec=prec)[0]
            lhs += (-1) ** (n + k + 1) * s * cm ** (2 * k - 1)
        rhs = kernel.sine_product(config, prec=prec) \
            * divided_bound_direct(config, c, prec=prec)
        return lhs, rhs


def _assert_boundary_sum_is_per_order(config, c, m, prec):
    got = boundary_sum_bound(config, c, m, prec=prec)
    want = _per_order_boundary_sum(config, c, m, prec)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


@pytest.mark.parametrize("n, c, eps, m, prec",
                         [(12, 0.95, 0.65, 30, 128), (12, 0.95, 0.65, 30, 192),
                          (16, 0.935086, 0.066081, 45, 192)],
                         ids=["paper-128", "paper-192", "early-exit-192"])
def test_boundary_sum_equals_the_per_order_loop_on_certificates(n, c, eps, m, prec):
    # the configurations and the min(m, 12) orders theorem2_certificate reads
    params = ExtremalParams(n=n, c=c, eps=eps, prec=prec)
    config = extremal_config(params, prec=prec)
    _assert_boundary_sum_is_per_order(config, params.c, min(m, 12), prec)


@pytest.mark.parametrize("n, c, eps, prec, lost",
                         [(12, 0.95, 0.65, 128, 88), (12, 0.95, 0.65, 192, 88),
                          (16, 0.935086, 0.066081, 128, 88),
                          (16, 0.935086, 0.066081, 192, 88), (20, 0.974, 0.3, 128, 100)],
                         ids=["paper-128", "paper-192", "early-exit-128",
                              "early-exit-192", "n20-128"])
def test_boundary_lhs_is_close_to_a_640_bit_evaluation(n, c, eps, prec, lost):
    # the same stored configuration at 640 bits.  The rounding of mu_k at
    # the working precision now sets lhs' error: measured within
    # 2^-(prec - 84) of lhs for n = 12 and 16, and 2^-(prec - 96) for
    # n = 20.  Rounding u_k and v_k at the working precision, as the moment
    # pass once did, lost 90 to 111 bits
    params = ExtremalParams(n=n, c=c, eps=eps, prec=prec)
    config = extremal_config(params, prec=prec)
    lhs, _ = boundary_sum_bound(config, params.c, 12, prec=prec)
    kernel._coefficients.cache_clear()
    fine, _ = boundary_sum_bound(config, params.c, 12, prec=640)
    with mp.workprec(640):
        assert abs(lhs - fine) <= mp.mpf(2) ** (lost - prec) * abs(fine)


def test_boundary_sum_equals_the_per_order_loop_on_random_configurations():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(1, 6)
        config = random_config(rng, n, prec=PREC)
        with working_precision(PREC):
            c = (mp.mpf(rng.randrange(n)) + mp.mpf(rng.uniform(0.05, 0.95))) \
                * mp.pi / config.a
        _assert_boundary_sum_is_per_order(config, c, rng.randint(1, 12), PREC)


def test_psi_orders_equals_psi_order_by_order():
    # zero weights are skipped, and x anywhere in [-a, a], the knots included
    rng = random.Random(101)
    config = random_config(rng, 3, prec=PREC)
    with working_precision(PREC):
        w = [mp.mpf(rng.uniform(-1, 1)) for _ in range(5)]
        weights = [w[0], 0, w[1], w[2], w[3], 0, w[4]]
        weights[3] = -mp.fsum(weights[:3] + weights[4:])
        xs = [config.a, -config.a, config.nodes[1], config.a * mp.mpf(rng.uniform(-1, 1))]
    for orders in (range(1, 10), [5, 2, 9]):
        for x in xs:
            values = psi_orders(config, orders, x, weights, prec=PREC)
            assert [v._mpf_ for v in values] \
                == [psi(config, l, x, weights, prec=PREC)._mpf_ for l in orders]


# ---------------------------------------------------------------------------
# psi_orders' moment route against the direct Horner sum it replaced


def _direct_terms(config, x, weights, prec, ref_prec):
    """(mu_k, u_k, v_k) for each nonzero weight: mu_k and x rounded as
    psi_orders rounds them, u_k and v_k formed at ref_prec from those and
    the stored x_k and a, each within 3 units of 2^-ref_prec."""
    with working_precision(prec):
        xm = mp.mpf(x)
        mus = [mp.mpf(m_k) for m_k in weights]
    with working_precision(ref_prec):
        a = config.a
        terms = []
        for m_k, xk in zip(mus, config.nodes):
            if m_k != 0:
                v = (xm - xk) / (4 * a)
                terms.append((m_k, mp.mpf(0.5) + (xm + xk) / (4 * a), v - mp.floor(v)))
        return terms


def _beta_sum(n):
    """sum_i (i + 1) |beta_{n,i}| 2^-i, the degree-n factor of the bounds
    of _bernoulli_sums, as an mpf at the ambient precision."""
    total = sum((i + 1) * abs(c) / Fraction(2) ** i for c, i in
                zip(bernoulli_centered_coeffs(n), range(n % 2, n + 1, 2)))
    return mp.mpf(total.numerator) / total.denominator


def _moment_bound(terms, n, prec):
    """_bernoulli_sums' bound on degree n's moment route before its final
    rounding: 8 S 2^-F sum_i (i + 1) |beta_{n,i}| 2^-i."""
    fixed = prec + GUARD_BITS + MOMENT_FIXED_BITS
    s = mp.fsum(abs(m_k) for m_k, _, _ in terms)
    return 8 * s * mp.mpf(2) ** -fixed * _beta_sum(n)


def _horner_reference(config, l, terms, ref_prec):
    """pref_l sum_k mu_k (B_2l(u_k) + B_2l(v_k)) by Horner at ref_prec over
    the given terms, pref_l at ref_prec, and a bound on this evaluation's
    own error."""
    with working_precision(ref_prec):
        pref = (4 * config.a) ** (2 * l - 1) / mp.factorial(2 * l)
        b = bernoulli_poly_mpf(2 * l)
        total = mp.mpf(0)
        for m_k, u, v in terms:
            total += m_k * (horner(b, u) + horner(b, v))
        value = pref * total
        s = mp.fsum(abs(m_k) for m_k, _, _ in terms)
        # |u|, |v| <= 1: each Horner value, its rounded coefficients
        # included, errs by at most 4l + 3 units of 2^-p times sum |b_i|,
        # and u's and v's 3 units move B_2l by 6l more, its slope being at
        # most 2l sum |b_i|; the sums, pref and the products over the K
        # terms add K + 5 more, and the unit is taken twice over
        n_ops = 10 * l + len(terms) + 8
        own = abs(pref) * 2 * s * mp.fsum(abs(c) for c in b) \
            * n_ops * mp.mpf(2) ** -(mp.prec - 1)
        return value, own


def _rounding_bound(config, l, terms, value, prec):
    """psi_orders' docstring bound on its distance from the exact sum."""
    with working_precision(2 * prec):
        pref = (4 * config.a) ** (2 * l - 1) / mp.factorial(2 * l)
        return abs(pref) * _moment_bound(terms, 2 * l, prec) \
            + mp.mpf(2) ** (3 - prec - GUARD_BITS) * abs(value)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_psi_orders_is_within_its_rounding_bound_of_the_horner_sum(prec):
    # the reference forms u_k and v_k from the stored x_k and a at 2 prec,
    # so the bound covers the rounding of the arguments too
    rng = random.Random(prec + 7)
    for n in range(1, 17):
        config = random_config(rng, n, prec=prec)
        with working_precision(prec):
            a = config.a
            xs = [a, -a, a * mp.mpf(rng.uniform(-1, 1)),
                  config.nodes[rng.randrange(2 * n + 1)]]
        mu = coefficients(config, prec=prec).mu
        orders = rng.sample(range(1, 41), 4) + [40]
        for x in xs:
            values = psi_orders(config, orders, x, mu, prec=prec)
            terms = _direct_terms(config, x, mu, prec, 2 * prec)
            for l, value in zip(orders, values):
                want, own = _horner_reference(config, l, terms, 2 * prec)
                with working_precision(2 * prec):
                    gap = abs(value - want)
                    assert gap <= _rounding_bound(config, l, terms, value, prec) + own


def _coefficient_reference(config, l, j, terms, ref_prec):
    """compile_psi's q_j at a centre whose terms are given:
    s_j sum_k mu_k (B_{2l-j}(u_k) + B_{2l-j}(v_k)) by Horner at ref_prec,
    s_j = (4a)^(2l-1-j)/(j! (2l-j)!), and a bound on this evaluation's own
    error, as _horner_reference's with 2l + 3 more units for s_j."""
    with working_precision(ref_prec):
        scale = (4 * config.a) ** (2 * l - 1 - j) \
            / (math.factorial(j) * math.factorial(2 * l - j))
        b = bernoulli_poly_mpf(2 * l - j)
        total = mp.fsum(m_k * (horner(b, u) + horner(b, v)) for m_k, u, v in terms)
        s = mp.fsum(abs(m_k) for m_k, _, _ in terms)
        n_ops = 12 * l + len(terms) + 8
        own = abs(scale) * 2 * s * mp.fsum(abs(c) for c in b) \
            * n_ops * mp.mpf(2) ** -(mp.prec - 1)
        return scale * total, scale, own


def _coefficient_bound(l, j, terms, scale, value, prec):
    """compile_psi's docstring bound on q_j's distance from the exact sum."""
    with working_precision(2 * prec):
        return abs(scale) * _moment_bound(terms, 2 * l - j, prec) \
            + mp.mpf(2) ** (1 - prec - GUARD_BITS) * abs(value)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_compiled_coefficients_are_within_their_rounding_bound(prec):
    rng = random.Random(prec + 11)
    for n in range(1, 5):
        config = random_config(rng, n, prec=prec)
        mu = coefficients(config, prec=prec).mu
        for l in (1, 2, 4, 6, 8, 10):
            comp = compile_psi(config, l, mu, prec=prec)
            for c, q in zip(comp.centers, comp.coeffs):
                terms = _direct_terms(config, c, mu, prec, 2 * prec + 64)
                for j, q_j in enumerate(q):
                    want, scale, own = _coefficient_reference(
                        config, l, j, terms, 2 * prec + 64)
                    with working_precision(2 * prec + 64):
                        gap = abs(q_j - want)
                        assert gap <= _coefficient_bound(l, j, terms, scale, q_j,
                                                         prec) + own


def test_psi_orders_makes_no_horner_pass(monkeypatch):
    def no_horner(*args):
        raise AssertionError("a Horner pass ran")

    monkeypatch.setattr(kernel, "horner", no_horner)
    rng = random.Random(113)
    for n in (1, 4, 12):
        config = random_config(rng, n, prec=PREC)
        mu = coefficients(config, prec=PREC).mu
        with working_precision(PREC):
            xs = [config.a, -config.a, config.a * mp.mpf(rng.uniform(-1, 1))]
            c = mp.mpf(rng.uniform(0.05, 0.95)) * mp.pi / config.a
        for x in xs:
            psi_orders(config, range(1, 13), x, mu, prec=PREC)
        boundary_sum_bound(config, c, 12, prec=PREC)


def test_an_order_below_one_is_refused():
    strict = _simple_config()
    weak = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    mu = coefficients(strict, prec=PREC).mu
    for orders in ([0], [2, 0, 3], [-1]):
        with pytest.raises(ValueError):
            psi_orders(strict, orders, 1, mu, prec=PREC)
        for cfg in (strict, weak):
            with pytest.raises(ValueError):
                psi_star_boundary(cfg, orders, 1, prec=PREC)
