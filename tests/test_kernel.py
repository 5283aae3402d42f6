"""Unit tests for the node-configuration kernels."""

import random

import pytest
from mpmath import mp

from hardyz import kernel
from hardyz.extremal import (ExtremalParams, equal_angle_nodes, equal_angle_weights,
                             extremal_config, sine_product)
from hardyz.kernel import (DuplicateNodeError, NodeConfig, SingularParameterError,
                           boundary_sum_bound, chebyshev_moment, coefficients,
                           compile_psi, divided_bound_direct, kernel_knots, psi,
                           psi_chebyshev_series, psi_orders, psi_star_boundary,
                           random_config)
from hardyz.precision import working_precision

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
    for j in range(1, 2 * cfg.n):
        s = chebyshev_moment(cfg, j, prec=PREC)
        assert abs(s) < mp.mpf(2) ** (-(PREC - 80))
    s0 = chebyshev_moment(cfg, 0, prec=PREC)
    assert abs(s0) < mp.mpf(2) ** (-(PREC - 80))
    assert abs(chebyshev_moment(cfg, 2 * cfg.n, prec=PREC)) > 0


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
    # distinct nodes; chebyshev_psi evaluates the weak series without one
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
                assert abs(comp(x) - direct) <= TOL * max(1, abs(direct))
        for x in (knots[0], knots[-1]):
            direct = psi(cfg, l, x, prec=PREC, weights=weights)
            assert abs(comp(x) - direct) <= TOL * max(1, abs(direct))


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
        assert abs(comp(x) - direct) <= TOL * max(1, abs(direct))


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


def test_coefficients_equal_an_explicit_product_loop():
    cfg = random_config(random.Random(41), 3, prec=PREC)
    with working_precision(2 * PREC):
        alpha = _explicit_weights(cfg.sine_nodes(prec=mp.prec))
        mu = [v / alpha[cfg.n] for v in alpha]
    with working_precision(PREC):
        alpha, mu = [+v for v in alpha], [+v for v in mu]
    co = coefficients(cfg, prec=PREC)
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
