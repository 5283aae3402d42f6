"""Unit tests for the key identity and the reconstruction path."""

import dataclasses
import random
from fractions import Fraction

import pytest
from mpmath import libmp, mp

from hardyz import identity, kernel
from hardyz.divided_diff import FunctionProbe
from hardyz.identity import (NodeNotZeroError, WeightContractError,
                             piecewise_weight_integral, reconstruct_f0,
                             verify_key_identity)
from hardyz.kernel import (DuplicateNodeError, NodeConfig, coefficients,
                           compile_psi, kernel_knots, psi, psi_star_boundary,
                           random_config)
from hardyz.polynomials import horner
from hardyz.precision import working_precision
from hardyz.probes import (PASS_GUARD_BITS, cardinal_probe, cosine_probe,
                           gaussian_cosine_probe, polynomial_probe)
from hardyz.quadrature import nodes

from panel_values import panel_value
from quadrature_oracle import fixed_degree, ladder
from test_libmp import measured_errors, over_assumed

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

        # f^(4) Psi_3 has degree 3 + 4 on each panel, and degree 2's six
        # nodes integrate degree 11 exactly: the reference has no
        # truncation error
        quad = fixed_degree(integrand, kernel_knots(cfg, PREC), 2)
        gap = abs(rep.integral_term - quad)
        assert gap <= mp.mpf(2) ** (-(PREC - 40)) * _magnitude(rep)


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


def _vanishing_at_the_nodes(cfg):
    """The cardinal polynomial times 1 + x^2/7 - x^3/5: still zero at the
    nodes (with multiplicity) and 1 at 0, of degree 2n + 3 >= 2m for
    m = n + 1, so its integral term does not vanish."""
    card = cardinal_probe(cfg, prec=PREC).coeffs
    with working_precision(PREC):
        factor = [mp.mpf(1), 0, mp.mpf(1) / 7, -mp.mpf(1) / 5]
        coeffs = [mp.fsum(card[i] * factor[k - i] for i in range(len(card))
                          if 0 <= k - i < len(factor))
                  for k in range(len(card) + len(factor) - 1)]
    return polynomial_probe(coeffs, prec=PREC)


def test_reconstruction_with_closed_form_integral():
    rng = random.Random(79)
    cfg = random_config(rng, 2, prec=PREC)
    res = reconstruct_f0(cfg, _vanishing_at_the_nodes(cfg), m=cfg.n + 1, prec=PREC)
    assert res.integral_term != 0 and res.quadrature_error_estimate == 0
    assert abs(res.value - 1) < mp.mpf(2) ** -120


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


# ---------------------------------------------------------------------------
# the integral term of a smooth probe: one Gauss-Legendre rule per panel, of
# the degree its proved bound chooses, against mp.quad's ladder

def _criterion01_smooth_cases(prec):
    """(config, weights, m, make_probe, probe arguments) for each of criterion
    01's 33 cosine and gaussian-cosine cases, drawn as criterion 01 draws
    them, at prec."""
    rng = random.Random(101)
    for case in range(50):
        n, m = rng.randint(1, 4), rng.randint(1, 10)
        cfg = random_config(rng, n, prec=prec)
        with working_precision(prec):
            w = [mp.mpf(rng.uniform(-1, 1)) for _ in range(2 * n)]
            mu = w + [-mp.fsum(w)]
        if case % 3 == 0:
            [rng.uniform(-1, 1) for _ in range(rng.randint(3, 2 * m + 3))]
        elif case % 3 == 1:
            yield cfg, mu, m, cosine_probe, (rng.uniform(0.2, 1.5),)
        else:
            yield cfg, mu, m, gaussian_cosine_probe, (rng.uniform(0.3, 1.0),
                                                      rng.uniform(2, 5))


def _cosine_reference(b: float, k: int, kern) -> mp.mpf:
    """int f^(k) times the kernel polynomials over their panels, f = cos(b x),
    in closed form at the ambient precision.  On the panel with centre c,
    f^(k)(c + h) = b^k cos(b h + psi) with psi = b c + k pi/2, and repeated
    integration by parts gives the antiderivative
    sum_j (-1)^j q^(j)(h) b^-(j+1) cos(b h + psi - (j+1) pi/2)."""
    b = mp.mpf(b)
    panels = []
    for lo, hi, c, q in zip(kern.knots, kern.knots[1:], kern.centers, kern.coeffs):
        psi_c = b * c + k * mp.pi / 2
        derivatives = [list(q)]
        while len(derivatives[-1]) > 1:
            derivatives.append([i * v for i, v in enumerate(derivatives[-1])][1:])

        def antiderivative(h):
            cos, sin = mp.cos(b * h + psi_c), mp.sin(b * h + psi_c)
            # cos(theta - j pi/2) for j = 0, 1, 2, 3
            shifted = (cos, sin, -cos, -sin)
            return mp.fsum((-1) ** j * horner(dq, h) * shifted[(j + 1) % 4]
                           / b ** (j + 1) for j, dq in enumerate(derivatives))

        panels.append(antiderivative(hi - c) - antiderivative(lo - c))
    return b ** k * mp.fsum(panels)


@pytest.mark.parametrize("prec", [128, 192])
def test_integral_term_is_enclosed_by_its_estimate(prec, monkeypatch):
    # the reference integrates the same integrand, the probe's f^(2m) times
    # the kernel polynomials as compiled at prec, at twice the precision: in
    # closed form for the cosine, and for the gaussian cosine each panel one
    # degree above where mp.quad's ladder stopped at prec, twice the nodes,
    # which squares the error the ladder's stop guessed
    rules = []  # the node count of each panel's rule
    integrate = identity._integrate

    def recorded(f, points, p):
        rules.append(len(points))
        return integrate(f, points, p)

    monkeypatch.setattr(identity, "_integrate", recorded)
    calls = ladder_calls = 0
    for cfg, mu, m, make_probe, args in _criterion01_smooth_cases(prec):
        rules.clear()
        rep = verify_key_identity(cfg, mu, make_probe(*args, prec=prec), m, prec=prec)
        with working_precision(prec):
            kern = compile_psi(cfg, m, mu, prec=prec)
            probe = make_probe(*args, prec=prec)
            degrees, count = ladder(
                lambda x: mp.mpf(probe.deriv(x, 2 * m)) * panel_value(kern, x),
                kern.knots)
        with working_precision(2 * prec):
            if make_probe is cosine_probe:
                reference = _cosine_reference(*args, 2 * m, kern)
            else:
                fine_kern = dataclasses.replace(kern, prec=2 * prec)
                fine = make_probe(*args, prec=2 * prec)
                reference = mp.fsum(
                    fixed_degree(lambda x: mp.mpf(fine.deriv(x, 2 * m))
                                 * panel_value(fine_kern, x), [lo, hi], d + 1)
                    for lo, hi, d in zip(kern.knots, kern.knots[1:], degrees))
            assert abs(rep.integral_term - reference) <= rep.quadrature_error_estimate
        # N = 3 2^(d-1) nodes at mpmath's degree d
        assert len(rules) == len(degrees)
        assert all((n // 3).bit_length() <= d for n, d in zip(rules, degrees))
        calls += sum(rules)
        ladder_calls += count
    assert 2 * calls <= ladder_calls


def _exact_derivative(probe, k, z):
    """f^(k)(z) at a complex z from mpmath's complex exp, at the probe's
    stored alpha and b: f(z + h) = sum over s = -+1 of
    exp(phi_s(z)) exp(phi_s'(z) h + alpha h^2)/2 with
    phi_s(z) = alpha z^2 + i s b z, and the h^k coefficient of
    exp(A h + alpha h^2) is sum_j A^(k-2j) alpha^j/((k-2j)! j!)."""
    alpha, b = probe.alpha, probe.b
    total = 0
    for s in (1, -1):
        slope = 2 * alpha * z + 1j * s * b
        powers = [1]
        for _ in range(k):
            powers.append(powers[-1] * slope)
        coeff = mp.fsum(powers[k - 2 * j] * alpha ** j
                        / (mp.factorial(k - 2 * j) * mp.factorial(j))
                        for j in range(k // 2 + 1))
        total += mp.exp(alpha * z ** 2 + 1j * s * b * z) * coeff
    return mp.factorial(k) * total / 2


def _deriv_bound(probe, x, k):
    """The stated error of probe.deriv(x, k): derivative_pairs' units at the
    one point, and the final rounding, at most 2^-P of the value."""
    with working_precision(probe.prec):
        F = mp.prec + PASS_GUARD_BITS
        s, (value,), _, units = probe.derivative_pairs(mp.mpf(x), k, 0, [0], F)
        return mp.ldexp(units, s - F) + mp.ldexp(abs(value), s - F - mp.prec)


@pytest.mark.parametrize("prec", [128, 192])
def test_majorants_bound_the_derivatives_off_the_real_line(prec):
    # b and the width across criterion 01's ranges, z on the edge of the
    # strip |Im z| <= height; at real points, each value within its proved
    # bound (_deriv_bound) of the exact derivative
    rng = random.Random(prec + 7)
    for make_probe, ranges in ((cosine_probe, [(0.2, 1.5)]),
                               (gaussian_cosine_probe, [(0.3, 1.0), (2, 5)])):
        for _ in range(6):
            args = tuple(rng.uniform(lo, hi) for lo, hi in ranges)
            probe = make_probe(*args, prec=prec)
            for _ in range(12):
                k, height = rng.randint(0, 20), rng.uniform(0, 8)
                x = rng.uniform(-6, 6)
                with working_precision(2 * prec):
                    z = mp.mpc(x, rng.choice((-1, 1)) * height)
                    value = abs(_exact_derivative(probe, k, z))
                    assert value <= mp.exp(probe.majorant(k, height))
                    with working_precision(prec):
                        real = probe.deriv(mp.mpf(x), k)
                    gap = abs(real - _exact_derivative(probe, k, mp.mpf(x)))
                    assert gap <= _deriv_bound(probe, x, k)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_derivative_pairs_are_within_their_bound_of_the_exact_derivatives(prec):
    # f^(k)(c +- h) at y = 0, 2^F and random y about random centres, on
    # panels of rho = 2^-3 .. 2^2, and the scalar deriv, k = 0..24 and
    # widths from 1, against mpmath's complex exp at 2 prec; the bound is
    # below 2^16 units of 2^-(prec + GUARD_BITS + PASS_GUARD_BITS) of the
    # scale 2^s
    rng = random.Random(prec + 11)
    for make_probe, ranges in ((cosine_probe, [(0.2, 1.5)]),
                               (gaussian_cosine_probe, [(0.3, 1.0), (1, 5)])):
        for _ in range(2):
            probe = make_probe(*(rng.uniform(lo, hi) for lo, hi in ranges), prec=prec)
            for k in range(25):
                with working_precision(prec):
                    c, e = mp.mpf(rng.uniform(-6, 6)), rng.randint(-3, 2)
                    F = mp.prec + PASS_GUARD_BITS
                    ys = [0, 1 << F] + [rng.randrange(1 << F) for _ in range(3)]
                    s, plus, minus, units = probe.derivative_pairs(c, k, e, ys, F)
                    x = mp.mpf(rng.uniform(-6, 6))
                    value = probe.deriv(x, k)
                assert units < 2 ** PASS_GUARD_BITS
                bound = mp.ldexp(units, s - F)
                with working_precision(2 * prec):
                    for y, at_plus, at_minus in zip(ys, plus, minus):
                        h = mp.ldexp(y, e - F)
                        for v, point in ((at_plus, c + h), (at_minus, c - h)):
                            exact = _exact_derivative(probe, k, point)
                            assert abs(mp.ldexp(v, s - F) - exact) <= bound, (k, y)
                    exact = _exact_derivative(probe, k, x)
                    assert abs(value - exact) <= _deriv_bound(probe, x, k), k


@pytest.mark.parametrize("prec", [128, 192])
def test_panel_pass_is_within_its_rounding_bound_of_the_mpf_rule(prec):
    # each panel's integer sum against the same N-point rule summed in mpf
    # at 2 prec, f^(2m) from mpmath's complex exp and the kernel polynomial
    # by Horner: within the rounding bound of _panel_rule and _panel_pass
    for cfg, mu, m, make_probe, args in _criterion01_smooth_cases(prec):
        probe, k = make_probe(*args, prec=prec), 2 * m
        with working_precision(prec):
            kern = compile_psi(cfg, m, mu, prec=prec)
            for lo, hi, c, q in zip(kern.knots, kern.knots[1:], kern.centers, kern.coeffs):
                got, _, log_round = identity._panel(probe, lo, hi, c, q, k, prec)
                r = mp.make_mpf(libmp.mpf_shift(libmp.mpf_sub(hi._mpf_, lo._mpf_), -1))
                N = identity._panel_rule(q, float(r) * (1 + 2.0 ** -52), probe.majorant, k)[0]
                with mp.workprec(2 * mp.prec):
                    reference = mp.fdot(
                        (r * w, _exact_derivative(probe, k, c + r * t).real * horner(q, r * t))
                        for t, w in nodes(N))
                    assert abs(got - reference) <= mp.exp(log_round)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_libmp_calls_of_the_pass_are_within_the_assumed_ulps(monkeypatch, prec):
    # every mpf_exp and mpf_cos_sin call the probes make on criterion 01's
    # smooth cases, integral term and boundary terms
    def workload(recorder):
        for cfg, mu, m, make_probe, args in _criterion01_smooth_cases(prec):
            verify_key_identity(cfg, mu, make_probe(*args, prec=prec), m, prec=prec)

    worst = measured_errors(monkeypatch, workload)
    assert set(worst) == {"mpf_exp", "mpf_cos_sin"}, worst
    assert not over_assumed(worst)


def test_integral_term_refuses_a_probe_without_a_majorant():
    rng = random.Random(9)
    cfg = random_config(rng, 2, prec=PREC)
    mu = _zero_sum_weights(rng, 5)
    bare = FunctionProbe(deriv=cosine_probe(1.3, prec=PREC).deriv)
    with pytest.raises(ValueError, match="no majorant"):
        verify_key_identity(cfg, mu, bare, m=3, prec=PREC)


def test_integral_term_refuses_a_weak_configuration(monkeypatch):
    # the integrand does not vanish, and a weakly ordered configuration has
    # no kernel weights to compile the interior kernel over: it is refused
    # before any Chebyshev polynomial is evaluated
    def refuse(*args, **kwargs):
        raise AssertionError("Chebyshev polynomial evaluated")

    monkeypatch.setattr(kernel, "chebyshev_rows", refuse)
    cfg = NodeConfig(n=2, a=4, nodes=[-2.2, -1.1, 0, 1.7, 1.7], strict=False)
    with pytest.raises(DuplicateNodeError):
        reconstruct_f0(cfg, _vanishing_at_the_nodes(cfg), m=cfg.n + 1, prec=PREC)
