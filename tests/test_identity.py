"""Unit tests for the key identity and the reconstruction path."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from hardyz import identity
from hardyz.identity import (NodeNotZeroError, WeightContractError,
                             piecewise_weight_integral, reconstruct_f0,
                             verify_key_identity)
from hardyz.kernel import (NodeConfig, chebyshev_psi, coefficients,
                           interior_kernel, kernel_knots, psi, psi_star_boundary,
                           random_config)
from hardyz.precision import working_precision
from hardyz.probes import (cardinal_probe, cosine_probe, gaussian_cosine_probe,
                           polynomial_probe)

PREC = 192


def _zero_sum_weights(rng, count):
    w = [rng.uniform(-1, 1) for _ in range(count - 1)]
    return w + [-sum(w)]


def test_key_identity_polynomial_probe():
    rng = random.Random(2)
    cfg = random_config(rng, 2, prec=PREC)
    mu = _zero_sum_weights(rng, 5)
    probe = polynomial_probe([rng.uniform(-1, 1) for _ in range(8)], prec=PREC)
    rep = verify_key_identity(cfg, mu, probe, m=5, prec=PREC)
    assert rep.passed
    assert len(rep.boundary_terms) == 10


def test_key_identity_cosine_probe():
    rng = random.Random(9)
    cfg = random_config(rng, 3, prec=PREC)
    mu = _zero_sum_weights(rng, 7)
    rep = verify_key_identity(cfg, mu, cosine_probe(1.3, prec=PREC), m=4, prec=PREC)
    assert rep.passed


def test_key_identity_gaussian_cosine_probe():
    rng = random.Random(14)
    cfg = random_config(rng, 2, prec=PREC)
    mu = _zero_sum_weights(rng, 5)
    probe = gaussian_cosine_probe(0.8, 2.0, prec=PREC)
    rep = verify_key_identity(cfg, mu, probe, m=3, prec=PREC)
    assert rep.passed


def test_weight_contract_enforced():
    rng = random.Random(4)
    cfg = random_config(rng, 2, prec=PREC)
    probe = polynomial_probe([1, 2, 3], prec=PREC)
    with pytest.raises(WeightContractError):
        verify_key_identity(cfg, [1, 1, 1, 1, 1], probe, m=3, prec=PREC)


def test_cardinal_reconstruction_strict():
    rng = random.Random(6)
    cfg = random_config(rng, 3, prec=PREC)
    probe = cardinal_probe(cfg, prec=PREC)
    res = reconstruct_f0(cfg, probe, m=cfg.n + 1, prec=PREC)
    assert abs(res.value - 1) < mp.mpf(2) ** -120


def test_cardinal_reconstruction_confluent():
    cfg = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    probe = cardinal_probe(cfg, prec=PREC)
    res = reconstruct_f0(cfg, probe, m=cfg.n + 1, prec=PREC)
    assert abs(res.value - 1) < mp.mpf(2) ** -120


def test_reconstruction_rejects_nonzero_nodes():
    rng = random.Random(8)
    cfg = random_config(rng, 2, prec=PREC)
    probe = polynomial_probe([1, 0, 1], prec=PREC)
    with pytest.raises(NodeNotZeroError):
        reconstruct_f0(cfg, probe, m=cfg.n + 1, prec=PREC)


def test_reconstruction_order_floor():
    rng = random.Random(10)
    cfg = random_config(rng, 2, prec=PREC)
    probe = cardinal_probe(cfg, prec=PREC)
    with pytest.raises(ValueError):
        reconstruct_f0(cfg, probe, m=cfg.n, prec=PREC)


def test_piecewise_integral_telescopes():
    rng = random.Random(12)
    cfg = random_config(rng, 3, prec=PREC)
    mu = _zero_sum_weights(rng, 7)
    probe = cosine_probe(0.9, prec=PREC)
    with working_precision(PREC):
        lhs = mp.fsum(mp.mpf(m) * mp.mpf(probe.value(x))
                      for m, x in zip(mu, cfg.nodes))
        rhs = piecewise_weight_integral(cfg, mu, probe, prec=PREC)
        assert abs(lhs - rhs) < mp.mpf(2) ** (-(PREC - 40))


def test_lemma_weights_collapse_to_f0():
    # with the reciprocal-product weights and f vanishing at the nonzero
    # nodes, the weighted node sum is exactly f(0)
    rng = random.Random(13)
    cfg = random_config(rng, 2, prec=PREC)
    mu = coefficients(cfg, prec=PREC).mu
    probe = cardinal_probe(cfg, prec=PREC)
    rep = verify_key_identity(cfg, mu, probe, m=cfg.n + 1, prec=PREC)
    assert rep.passed
    assert abs(rep.lhs - 1) < mp.mpf(2) ** -120


def _magnitude(rep):
    return max([abs(b) for b in rep.boundary_terms]
               + [abs(rep.lhs), abs(rep.integral_term), mp.mpf(1)])


def test_closed_form_integral_matches_quadrature():
    # degree 7 >= 2m = 4: the integral term is non-zero
    rng = random.Random(61)
    cfg = random_config(rng, 1, prec=PREC)
    mu = _zero_sum_weights(rng, 3)
    m = 2
    probe = polynomial_probe([rng.uniform(-1, 1) for _ in range(8)], prec=PREC)
    rep = verify_key_identity(cfg, mu, probe, m=m, prec=PREC)
    assert rep.passed
    assert rep.quadrature_error_estimate == 0
    assert rep.integral_term != 0
    with working_precision(PREC):
        mu_m = [mp.mpf(v) for v in mu]

        def integrand(x):
            return mp.mpf(probe.deriv(x, 2 * m)) \
                * psi(cfg, m, x, prec=PREC, weights=mu_m)

        quad, err = identity._integrate(integrand, kernel_knots(cfg, PREC), PREC)
        gap = abs(rep.integral_term - quad)
        assert gap <= err + mp.mpf(2) ** (-(PREC - 40)) * _magnitude(rep)


def test_closed_form_integral_exact_rational_coefficients():
    rng = random.Random(67)
    cfg = random_config(rng, 2, prec=PREC)
    mu = _zero_sum_weights(rng, 5)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
    exact = verify_key_identity(cfg, mu, polynomial_probe(coeffs, prec=PREC),
                                m=3, prec=PREC)
    rounded = verify_key_identity(
        cfg, mu, polynomial_probe([float(c) for c in coeffs], prec=PREC),
        m=3, prec=PREC)
    assert exact.passed and exact.quadrature_error_estimate == 0
    # the float coefficients differ from the Fractions by about 2^-53
    assert abs(exact.integral_term - rounded.integral_term) \
        <= mp.mpf(2) ** -40 * _magnitude(exact)


def test_low_degree_probe_skips_the_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel built for a vanishing integrand")

    monkeypatch.setattr(identity, "compile_psi", refuse)
    monkeypatch.setattr(identity, "interior_kernel", refuse)
    monkeypatch.setattr(identity, "_integrate", refuse)
    rng = random.Random(71)
    cfg = random_config(rng, 2, prec=PREC)
    mu = _zero_sum_weights(rng, 5)
    rep = verify_key_identity(cfg, mu, polynomial_probe([1, -2, 3, 0.5, 1.5, -1]),
                              m=3, prec=PREC)
    assert rep.integral_term == 0 and rep.quadrature_error_estimate == 0
    assert rep.passed
    res = reconstruct_f0(cfg, cardinal_probe(cfg, prec=PREC), m=cfg.n + 1, prec=PREC)
    assert res.integral_term == 0 and res.quadrature_error_estimate == 0


def test_key_identity_with_zero_weights():
    rng = random.Random(73)
    cfg = random_config(rng, 3, prec=PREC)
    mu = [2, 0, -3, 0, -1, 0, 2]
    probe = polynomial_probe([rng.uniform(-1, 1) for _ in range(12)], prec=PREC)
    rep = verify_key_identity(cfg, mu, probe, m=4, prec=PREC)
    assert rep.passed and rep.integral_term != 0
    rep = verify_key_identity(cfg, mu, cosine_probe(0.7, prec=PREC), m=4, prec=PREC)
    assert rep.passed


def test_reconstruction_with_closed_form_integral():
    # cardinal polynomial times 1 + x^2/7 - x^3/5: still zero at the nodes
    # and 1 at 0, of degree 2n + 3 >= 2m, so the integral term is non-zero
    rng = random.Random(79)
    cfg = random_config(rng, 2, prec=PREC)
    card = cardinal_probe(cfg, prec=PREC).coeffs
    with working_precision(PREC):
        factor = [mp.mpf(1), 0, mp.mpf(1) / 7, -mp.mpf(1) / 5]
        coeffs = [mp.fsum(card[i] * factor[k - i] for i in range(len(card))
                          if 0 <= k - i < len(factor))
                  for k in range(len(card) + len(factor) - 1)]
    res = reconstruct_f0(cfg, polynomial_probe(coeffs, prec=PREC), m=cfg.n + 1,
                         prec=PREC)
    assert res.integral_term != 0 and res.quadrature_error_estimate == 0
    assert abs(res.value - 1) < mp.mpf(2) ** -120


def test_weak_interior_kernel_is_the_chebyshev_series():
    cfg = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    l = cfg.n + 1
    J = max(40, int(2 * PREC / (2 * l - 1)))
    kern = interior_kernel(cfg, l, prec=PREC)
    series = chebyshev_psi(cfg, l, J, prec=PREC)
    for x in ("-3.1", "0.4", "1.7", "3.9"):
        assert kern(mp.mpf(x))._mpf_ == series(mp.mpf(x))._mpf_


def test_polynomial_probe_cached_derivatives_are_bit_identical():
    coeffs = [Fraction(3, 7), mp.mpf("0.1"), -2, Fraction(-5, 3), 0.25, 1]
    probe = polynomial_probe(coeffs, prec=PREC)
    x = mp.mpf("0.37")
    for k in range(probe.degree + 2):
        # the uncached route: fresh derivative coefficients, converted per call
        with working_precision(PREC):
            expected = mp.mpf(0)
            for c in reversed(probe.derivative_coeffs(k)):
                if isinstance(c, Fraction):
                    c = mp.mpf(c.numerator) / c.denominator
                expected = expected * x + c
        first, cached = probe.deriv(x, k), probe.deriv(x, k)
        assert first._mpf_ == expected._mpf_
        assert cached._mpf_ == expected._mpf_


def _per_order_boundary_terms(probe, a, m, kernel_at):
    """sign * f^(2k-1)(sign a) * kernel_at(k, sign), one order at a time."""
    with working_precision(PREC):
        return [sign * (mp.mpf(probe.deriv(sign * a, 2 * k - 1)) * kernel_at(k, sign))
                for sign in (1, -1) for k in range(1, m + 1)]


def _bits(values):
    return [v._mpf_ for v in values]


def test_key_identity_boundary_terms_equal_per_order_psi():
    rng = random.Random(103)
    for n, m, probe in [(2, 5, polynomial_probe([rng.uniform(-1, 1) for _ in range(8)],
                                                prec=PREC)),
                        (3, 4, cosine_probe(1.3, prec=PREC)),
                        (1, 7, gaussian_cosine_probe(0.8, 2.0, prec=PREC))]:
        cfg = random_config(rng, n, prec=PREC)
        mu = _zero_sum_weights(rng, 2 * n + 1)
        rep = verify_key_identity(cfg, mu, probe, m=m, prec=PREC)
        with working_precision(PREC):
            mu_m = [mp.mpf(v) for v in mu]
        want = _per_order_boundary_terms(
            probe, cfg.a, m,
            lambda k, sign: psi(cfg, k, sign * cfg.a, mu_m, prec=PREC))
        assert _bits(rep.boundary_terms) == _bits(want)


def test_reconstruction_boundary_terms_equal_per_order_psi_star_boundary():
    rng = random.Random(107)
    weak = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    for cfg in (random_config(rng, 3, prec=PREC), random_config(rng, 1, prec=PREC),
                weak):
        m = cfg.n + 2
        res = reconstruct_f0(cfg, cardinal_probe(cfg, prec=PREC), m=m, prec=PREC)
        want = _per_order_boundary_terms(
            cardinal_probe(cfg, prec=PREC), cfg.a, m,
            lambda k, sign: psi_star_boundary(cfg, [k], sign, prec=PREC)[0])
        assert _bits(res.boundary_terms) == _bits(want)
