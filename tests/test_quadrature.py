"""Unit tests for the program's Gauss-Legendre rule: its nodes and weights
against mpmath's, the sign check that bounds its nodes, and the node counts
its bound chooses."""

import math
import random

import pytest
from mpmath import mp

from hardyz import quadrature
from hardyz.precision import working_precision
from hardyz.quadrature import (ELLIPSES, NODE_BITS, RULE_FRACTION_BITS,
                               exact_count, least_count, nodes)


def _reference_rule(N, prec):
    """(node, weight) pairs of the N-point rule at prec bits, increasing:
    mpmath's Gauss-Legendre nodes where mpmath has a rule of N nodes
    (N = 3 2^(d-1)), else Newton's iteration in mpf on P_N from the float
    starts cos(pi (i - 1/4)/(N + 1/2)), P_N by its three-term recurrence,
    for the roots x > 0 and their mirror images."""
    with mp.workprec(prec):
        degree = (N // 3).bit_length()
        if N == 3 << (degree - 1):
            return sorted(mp._gauss_legendre.get_nodes(-1, 1, degree, prec))

        def slope_and_step(x):
            p_prev, p = 1, x
            for k in range(1, N):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            slope = N * (x * p - p_prev) / (x * x - 1)
            return slope, p / slope

        rule = [(mp.mpf(0), 2 / slope_and_step(mp.mpf(0))[0] ** 2)] if N % 2 else []
        for i in range(1, N // 2 + 1):
            x = mp.mpf(math.cos(math.pi * (i - 0.25) / (N + 0.5)))
            for _ in range(40):
                _, step = slope_and_step(x)
                x -= step
                if abs(step) < mp.ldexp(1, -prec):
                    break
            slope, _ = slope_and_step(x)
            w = 2 / ((1 - x * x) * slope * slope)
            rule += [(x, w), (-x, w)]
        return sorted(rule)


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_gauss_legendre_rule_matches_mpmath_within_its_bound(prec):
    # every node within 2^-(P+NODE_BITS) and every weight within
    # 2^-(P+NODE_BITS-2) of mpmath's at 2P + 20 bits; N = 3 and 45 have the
    # node 0
    with working_precision(prec):
        P = mp.prec
        rules = {N: nodes(N) for N in (3, 12, 24, 45, 48, 96, 200)}
    for N, rule in rules.items():
        reference = _reference_rule(N, 2 * P + 20)
        assert len(rule) == len(reference) == N
        with mp.workprec(2 * P + 20):
            assert [x for x, _ in rule] == sorted(x for x, _ in rule)
            for (x, w), (x_ref, w_ref) in zip(rule, reference):
                assert abs(x - x_ref) <= mp.ldexp(1, -(P + NODE_BITS)), (N, x_ref)
                assert abs(w - w_ref) <= mp.ldexp(1, -(P + NODE_BITS - 2)), (N, x_ref)
    assert rules[3][1][0] == rules[45][22][0] == 0


@pytest.mark.parametrize("shift", [1, -1])
def test_a_moved_node_fails_the_sign_check(monkeypatch, shift):
    # one Newton root moved by 2^-(P+4), 16 times the checked distance: the
    # rule refuses it, whichever root it is
    P = 208
    F = P + RULE_FRACTION_BITS
    roots = quadrature._newton_roots
    assert len(quadrature._rule.__wrapped__(12, P)) == 12
    for N, i in ((3, 0), (12, 0), (12, 3), (12, 5), (48, 17)):
        def moved(N, F_, d):
            half = roots(N, F_, d)
            half[i] += shift << (F - P - 4)
            return half

        monkeypatch.setattr(quadrature, "_newton_roots", moved)
        with pytest.raises(ArithmeticError, match="sign change"):
            quadrature._rule.__wrapped__(N, P)
        monkeypatch.setattr(quadrature, "_newton_roots", roots)


def test_least_count_is_the_least_count_its_bound_accepts():
    # against a walk over N of the same float bound
    rng = random.Random(5)
    with working_precision(128):
        log_eps = (1 - mp.prec) * math.log(2)
        for _ in range(200):
            r = rng.uniform(0.01, 3)
            growth = rng.uniform(0, 40)
            log_ms = [rng.uniform(-5, 30) + growth * A if rng.random() > 0.2 else math.inf
                      for _, A, _ in ELLIPSES]

            def log_bound(N):
                return min((log_m + math.log(r * 64 / 15) - 2 * N * log_rho
                            - math.log(1 - math.exp(-2 * log_rho))
                            for log_m, (log_rho, _, _) in zip(log_ms, ELLIPSES)),
                           default=math.inf)

            walk = next((N for N in range(1, 4 * mp.prec) if log_bound(N) <= log_eps),
                        4 * mp.prec)
            N, log_trunc = least_count(r, log_ms)
            assert N == walk
            assert math.isclose(log_trunc, log_bound(N), rel_tol=1e-12, abs_tol=1e-9)


def test_exact_count_integrates_its_degree_exactly():
    with working_precision(128):
        for d in range(0, 14):
            N = exact_count(d)
            assert 2 * N - 1 >= d and (N == 1 or 2 * N - 3 < d)
            exact = mp.mpf(2) / (d + 1) if d % 2 == 0 else 0
            total = mp.fsum(w * x ** d for x, w in nodes(N))
            assert abs(total - exact) <= mp.ldexp(1, 8 - mp.prec)
