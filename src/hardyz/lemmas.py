"""The seeded checks that `hardyz verify-lemmas` runs, six suites of them.

Each suite draws from its own substream of the seed (_suite_rng), so a suite
is reproducible alone, and runs inside run_suites' working precision; its
prec is the requested bits for tolerances and library calls.  A check is a
dict of name, passed and margin.  Three pass rules have one helper each:
_below (the largest gap is below a tolerance; the margin is that gap),
_no_violations (the margin is their count) and _exact (the margin is 0).
The other checks state their rule through _check.

_suite_rng, _seeded_probe and _zero_sum_weights are also the draws of the
`identity` command's seeded case.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, perm
from typing import Callable, Dict, Iterable, List

from mpmath import mp

from . import divided_diff, extremal, identity, kernel, polynomials, probes, \
    sequences
from .precision import serialize, working_precision

SEEDED_PROBES = ("polynomial", "cosine", "gaussian-cosine")


def _suite_rng(seed: int, suite: str) -> random.Random:
    """Per-suite substream so suites are individually reproducible."""
    return random.Random(f"{seed}:{suite}")


def _seeded_probe(rng: random.Random, kind: str, m: int, prec: int):
    """The seeded probe of a key-identity case, kind one of SEEDED_PROBES; a
    polynomial draws 2m + 3 coefficients."""
    if kind == "polynomial":
        return probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(2 * m + 3)], prec=prec)
    if kind == "cosine":
        return probes.cosine_probe(rng.uniform(0.3, 1.5), prec=prec)
    return probes.gaussian_cosine_probe(rng.uniform(0.3, 1.0),
                                        rng.uniform(2, 5), prec=prec)


def _zero_sum_weights(rng: random.Random, n: int) -> List:
    """2n + 1 weights summing to zero at the ambient precision: 2n uniform
    draws on [-1, 1] and minus their sum."""
    mu = [mp.mpf(rng.uniform(-1, 1)) for _ in range(2 * n)]
    mu.append(-mp.fsum(mu))
    return mu


def _check(name: str, passed: bool, margin, prec: int) -> Dict:
    """margin is an mpf or an exact count, taken at the suite's precision."""
    return {"name": name, "passed": bool(passed),
            "margin": serialize(mp.mpf(margin), prec)}


def _below(name: str, gaps: Iterable, tol, prec: int) -> Dict:
    """Passes when the largest of 0 and the gaps is below tol."""
    worst = max([mp.mpf(0), *gaps])
    return _check(name, worst < tol, worst, prec)


def _no_violations(name: str, violated: Iterable[bool], prec: int) -> Dict:
    """violated holds one truth value a case, true where the case fails."""
    count = sum(map(bool, violated))
    return _check(name, count == 0, count, prec)


def _exact(name: str, holds: Iterable[bool], prec: int) -> Dict:
    return _check(name, all(holds), 0, prec)


def _multiset(values) -> divided_diff.NodeMultiset:
    return divided_diff.NodeMultiset([mp.mpf(v) for v in values])


# ---------------------------------------------------------------------------
# the suites: the cases of a check are drawn in turn, each one whole before
# the next, so every check keeps its draws' order


def _suite_polynomials(rng: random.Random, prec: int) -> List[Dict]:
    bern = polynomials.bernoulli_numbers(24)
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    known.update(dict.fromkeys(range(3, 24, 2), 0))
    # defining recurrence (B_1 = -1/2 convention):
    # sum_{k=0}^{n} binom(n+1,k) B_k = 0 for n >= 1
    recurrence = [sum(comb(n + 1, k) * bern[k] for k in range(n + 1))
                  for n in range(1, 24)]

    def symmetry_gap():
        n = rng.randrange(1, 17)
        x = mp.mpf(rng.uniform(-2, 2))
        return abs(polynomials.bernoulli_poly(n, 1 - x, prec=prec)
                   - (-1) ** n * polynomials.bernoulli_poly(n, x, prec=prec))

    def high_derivative_at_one(j, n):
        """T_j^(2n)(1) from T_j's exact coefficients."""
        return sum(c * perm(i, 2 * n)
                   for i, c in enumerate(polynomials.chebyshev_coeffs(j)))

    out = [
        _exact("bernoulli-number-values",
               [bern[k] == v for k, v in known.items()]
               + [s == 0 for s in recurrence], prec),
        _below("bernoulli-poly-symmetry", (symmetry_gap() for _ in range(10)),
               mp.mpf(2) ** (-(prec - 24)), prec),
        _exact("chebyshev-high-derivative-at-one",
               (high_derivative_at_one(j, n)
                == polynomials.chebyshev_deriv_at_one(j, n)
                for n in range(1, 4) for j in range(2 * n, 13)), prec)]

    gaps, ok = [], True
    for _ in range(5):
        l = rng.randrange(1, 5)
        x = mp.mpf(rng.uniform(0, 1))
        val, tail = polynomials.bernoulli_fourier_partial(l, x, 400, prec=prec)
        gaps.append(abs(val - polynomials.bernoulli_poly(2 * l, x, prec=prec)))
        ok = ok and gaps[-1] <= tail
    out.append(_check("bernoulli-fourier-partial-sum", ok,
                      max([mp.mpf(0), *gaps]), prec))
    return out


def _suite_divided_diff(rng: random.Random, prec: int) -> List[Dict]:
    tol = mp.mpf(2) ** (-(prec - 48))

    def dd(probe, values):
        return divided_diff.divided_difference(probe, _multiset(values),
                                               prec=prec)

    def sorted_draws(count, lo, hi):
        return sorted(rng.uniform(lo, hi) for _ in range(count))

    def top_monomial_gap():
        N = rng.randrange(2, 8)
        return abs(dd(probes.monomial_probe(N, prec=prec),
                      sorted_draws(N + 1, -3, 3)) - 1)

    def low_degree_gap():
        N = rng.randrange(2, 8)
        nodes = sorted_draws(N + 1, -3, 3)
        return abs(dd(probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(N)], prec=prec), nodes))

    def cluster_gap():
        probe = probes.cosine_probe(rng.uniform(0.5, 2), prec=prec)
        base = sorted(set(round(rng.uniform(-1, 1), 3) for _ in range(3)))
        return abs(dd(probe, base + base[:1])
                   - dd(probe, base + [mp.mpf(base[0]) + mp.mpf(2) ** (-40)]))

    def hermite_weights_gap():
        N = rng.randrange(2, 6)
        base = sorted_draws(N, -2, 2)
        nm = _multiset(base + base[:1])
        w = divided_diff.hermite_weights(nm, prec=prec)
        probe = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(N + 2)], prec=prec)
        via_w = mp.fsum(mp.mpf(wt) * mp.mpf(probe.deriv(z, j))
                        for (z, j, wt) in w)
        return abs(via_w - divided_diff.divided_difference(probe, nm, prec=prec))

    def oracle_gap():
        probe = probes.cosine_probe(1.3, prec=prec)
        nodes = _multiset((-1, 0.25, 1))
        return abs(divided_diff.divided_difference(probe, nodes, prec=prec)
                   - divided_diff.divided_difference_simplex(probe, nodes,
                                                             prec=prec))

    return [
        _below("top-monomial-divided-difference",
               (top_monomial_gap() for _ in range(10)), tol, prec),
        _below("low-degree-annihilation",
               (low_degree_gap() for _ in range(10)), tol, prec),
        _below("confluent-matches-cluster-limit",
               (cluster_gap() for _ in range(5)), mp.mpf(2) ** (-30), prec),
        _below("hermite-weights-reproduce",
               (hermite_weights_gap() for _ in range(5)), tol, prec),
        _below("hermite-genocchi-oracle", [oracle_gap()], tol, prec)]


def _suite_kernel(rng: random.Random, prec: int) -> List[Dict]:
    slack = mp.mpf(2) ** (-(prec - 48))

    def draw_config():
        return kernel.random_config(rng, rng.randrange(1, 5), prec=prec)

    def alpha_sum():
        alpha = kernel.coefficients(draw_config(), prec=prec).alpha
        return abs(mp.fsum(alpha)) / max(abs(v) for v in alpha)

    def largest_moment():
        cfg = draw_config()
        scale = max(abs(v) for v in kernel.coefficients(cfg, prec=prec).alpha)
        return max(abs(kernel.chebyshev_moment(cfg, j, prec=prec)) / scale
                   for j in range(1, 2 * cfg.n))

    def boundary_signs_violated():
        n = rng.randrange(1, 7)
        l = rng.randrange(1, 11)
        cfg = kernel.random_config(rng, n, prec=prec)
        return [not (-1) ** (n + l + 1)
                * kernel.psi_star_boundary(cfg, [l], sign, prec=prec)[0] > 0
                for sign in (1, -1)]

    def monotonicity_violated():
        for _ in range(5):
            n = rng.randrange(1, 4)
            l = rng.randrange(1, 6)
            cfg = kernel.random_config(rng, n, prec=prec)
            h = cfg.a * mp.mpf(2) ** (-20)
            for i in range(2 * n + 1):
                if i == n:
                    continue
                lo = list(cfg.nodes)
                hi = list(cfg.nodes)
                lo[i] -= h
                hi[i] += h
                try:
                    c_lo = kernel.NodeConfig(n=n, a=cfg.a, nodes=lo)
                    c_hi = kernel.NodeConfig(n=n, a=cfg.a, nodes=hi)
                except ValueError:
                    continue
                for sign in (1, -1):
                    v_lo, v_hi = ((-1) ** (n + l + 1) * kernel.psi_star_boundary(
                        c, [l], sign, prec=prec)[0] for c in (c_lo, c_hi))
                    # the sign of the central difference quotient
                    yield (v_hi - v_lo > 0) != (i > n)

    def confluent_gap(sign):
        a = mp.mpf(4)
        weak = kernel.NodeConfig(
            n=2, a=a, nodes=[mp.mpf(v) for v in (-3, "-1.5", 0, "1.5", "1.5")],
            strict=False)
        near = kernel.NodeConfig(
            n=2, a=a, nodes=[mp.mpf(v) for v in (-3, "-1.5", 0, "1.5")]
            + [mp.mpf("1.5") + mp.mpf(2) ** (-50)], strict=True)
        return abs(kernel.psi_star_boundary(weak, [3], sign, prec=prec)[0]
                   - kernel.psi_star_boundary(near, [3], sign, prec=2 * prec)[0])

    def boundary_sums_violated():
        checked = 0
        while checked < 20:
            n = rng.randrange(1, 4)
            cfg = kernel.random_config(rng, n, prec=prec)
            c = mp.mpf(rng.uniform(0.05, float(n))) * mp.pi / cfg.a
            try:
                lhs, rhs = kernel.boundary_sum_bound(cfg, c, 4, prec=prec)
            except kernel.SingularParameterError:
                continue
            checked += 1
            yield not lhs <= rhs + slack

    out = [
        _below("alpha-zero-sum", (alpha_sum() for _ in range(10)),
               mp.mpf(2) ** (-(prec - 32)), prec),
        _below("vanishing-moments", (largest_moment() for _ in range(6)),
               mp.mpf(2) ** (-(prec - 40)), prec)]

    gaps, ok = [], True
    for _ in range(4):
        n = rng.randrange(1, 4)
        cfg = kernel.random_config(rng, n, prec=prec)
        l = n + 1 + rng.randrange(0, 3)
        x = cfg.a * mp.mpf(rng.uniform(-0.9, 0.9))
        direct = kernel.psi(cfg, l, x, kernel.coefficients(cfg, prec=prec).mu,
                            prec=prec)
        series, tail = kernel.psi_chebyshev_series(cfg, l, x, 60, prec=prec)
        gaps.append(abs(direct - series))
        ok = ok and gaps[-1] <= tail + slack
    out.append(_check("series-vs-direct", ok, max([mp.mpf(0), *gaps]), prec))

    return out + [
        _no_violations("boundary-sign-property",
                       (v for _ in range(200) for v in boundary_signs_violated()),
                       prec),
        _no_violations("boundary-monotonicity", monotonicity_violated(), prec),
        _below("confluent-boundary-extension",
               (confluent_gap(sign) for sign in (1, -1)),
               mp.mpf(2) ** (-40), prec),
        _no_violations("boundary-sum-inequality", boundary_sums_violated(),
                       prec)]


def _suite_identity(rng: random.Random, prec: int) -> List[Dict]:
    worst_ratio = mp.mpf(0)
    ok = True
    for _ in range(10):
        n = rng.randrange(1, 5)
        cfg = kernel.random_config(rng, n, prec=prec)
        mu = _zero_sum_weights(rng, n)
        m = rng.randrange(1, 7)
        probe = _seeded_probe(rng, rng.choice(SEEDED_PROBES), m, prec)
        rep = identity.verify_key_identity(cfg, mu, probe, m, prec=prec)
        ok = ok and rep.passed
        if rep.residual_budget > 0:
            worst_ratio = max(worst_ratio, rep.residual / rep.residual_budget)

    def cardinal_gap():
        n = rng.randrange(1, 5)
        cfg = kernel.random_config(rng, n, prec=prec)
        res = identity.reconstruct_f0(cfg, probes.cardinal_probe(cfg, prec=prec),
                                      n + 1 + rng.randrange(0, 3), prec=prec)
        return abs(res.value - 1)

    def telescoping_gap():
        n = rng.randrange(1, 4)
        cfg = kernel.random_config(rng, n, prec=prec)
        mu = _zero_sum_weights(rng, n)
        probe = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(6)], prec=prec)
        lhs = mp.fsum(mk * mp.mpf(probe.value(x))
                      for mk, x in zip(mu, cfg.nodes))
        return abs(lhs - identity.piecewise_weight_integral(cfg, mu, probe,
                                                            prec=prec))

    return [
        _check("key-identity-residual", ok, worst_ratio, prec),
        _below("cardinal-reconstruction", (cardinal_gap() for _ in range(5)),
               mp.mpf(2) ** (-(prec - 40)), prec),
        _below("telescoping-top-derivative",
               (telescoping_gap() for _ in range(5)),
               mp.mpf(2) ** (-(prec - 48)), prec)]


def _suite_sequences(rng: random.Random, prec: int) -> List[Dict]:
    b = sequences.b_table(1, 30)
    out = [
        _exact("b-first-row-exact",
               (b[1, l] == factorial(l - 1) ** 2 for l in range(1, 31)), prec),
        _exact("g-first-row-is-one",
               (sequences.g_poly(1, l) == sequences.PiSquarePoly({0: Fraction(1)})
                for l in range(1, 21)), prec),
        _exact("closed-form-rational-sum-zero",
               (sequences.g_closed_form_sum(m) == 0 for m in range(1, 9)), prec),
        _exact("e-coefficients-positive",
               (e.evaluate(prec) > 0 for m in range(1, 9)
                for e in sequences.e_coefficients(m, 40)[1:]), prec)]

    _, limit, gap = sequences.d_limit_check(2, 200, prec=prec)
    out.append(_below("d2-limit-within-1pct", [gap / limit], mp.mpf("0.01"),
                      prec))

    _, limit3, _ = sequences.d_limit_check(3, 200, prec=prec)
    samples = [sequences.d_limit_check(3, L, prec=prec)[0]
               for L in (50, 100, 150, 200)]
    ok = all(x < limit3 for x in samples) \
        and all(a < bb for a, bb in zip(samples, samples[1:]))
    out.append(_check("d3-below-limit-increasing", ok,
                      limit3 - samples[-1], prec))

    w10 = {l: sequences.tail_weight(10, l, prec=prec) for l in range(0, 2001, 97)}
    excess = [sequences.tail_weight(n, l, prec=prec) - w
              for n in range(11, 21) for l, w in w10.items()]
    out.append(_check("tail-weight-dominated-by-n10",
                      all(e <= 0 for e in excess), max([mp.mpf(0), *excess]),
                      prec))

    # the mpf route against the float C*: at or below it, within 2^-38
    partial, tail = sequences.tail_weight_sum(
        sequences.TAIL_WEIGHT_MIN_N, sequences.TAIL_WEIGHT_DEFAULT_LMAX, prec=prec)
    c_star = sequences.tail_weight_constant()
    gap = (c_star - (partial + tail)) / c_star
    out.append(_check("tail-weight-constant-bounds-the-sum",
                      0 <= gap <= mp.mpf(2) ** -38, gap, prec))
    return out


def _suite_extremal(rng: random.Random, prec: int) -> List[Dict]:
    def angle_weight_gaps(n):
        g0 = mp.mpf((-1) ** n) * mp.mpf(2) ** (2 * n - 2) / n
        targets = [g0] + [(-1) ** k * 2 * g0 for k in range(1, n)] \
            + [(-1) ** n * g0]
        return [abs(wk - target) / abs(target) for wk, target
                in zip(extremal.equal_angle_weights(n, prec=prec), targets)]

    def grid_violated():
        for n in (8, 12):
            for eps in ("0.5", "0.65"):
                c_eps = extremal.find_c_eps(mp.mpf(eps), prec=prec)
                hi = 1 - mp.mpf(1) / (2 * n)
                for frac in ("0.3", "0.6", "0.9"):
                    c = c_eps + (hi - c_eps) * mp.mpf(frac)
                    params = extremal.ExtremalParams(n=n, c=c, eps=mp.mpf(eps),
                                                     prec=prec)
                    cfg = extremal.extremal_config(params)
                    P = extremal.sine_product(cfg, prec=prec)
                    D = extremal.divided_bound(cfg, params, prec=prec)
                    yield not 0 < P < mp.mpf(2) ** (-2 * n)
                    yield not 0 < D < mp.mpf(2) ** (2 * n - 1)

    def dual_route_gap(n):
        params = extremal.ExtremalParams(n=n, c=mp.mpf("0.9"),
                                         eps=mp.mpf("0.5"), prec=prec)
        cfg = extremal.extremal_config(params)
        D1 = extremal.divided_bound(cfg, params, prec=prec)
        D2 = extremal.divided_bound_direct(cfg, params.c, prec=prec)
        return abs(D1 - D2) / abs(D1)

    t = mp.mpf("0.37")
    out = [
        _below("equal-angle-weight-formula",
               (g for n in range(2, 11) for g in angle_weight_gaps(n)),
               mp.mpf(2) ** (-(prec - 48)), prec),
        _below("log-sine-integral-dual-route",
               [abs(extremal.log_sine_integral(t, prec=prec)
                    - extremal.log_sine_integral_closed(t, prec=prec))],
               mp.mpf(2) ** (-(prec // 2)), prec),
        _exact("hypergeometric-coefficient-signs",
               ((-1) ** n * c > 0 for n in range(1, 13)
                for c in extremal.hyp_coefficients(n, n + 40)[n:]), prec),
        _no_violations("extremal-grid-bounds", grid_violated(), prec),
        _below("divided-bound-dual-route",
               (dual_route_gap(n) for n in (6, 9)),
               mp.mpf(2) ** (-(prec // 3)), prec)]
    rep = extremal.theorem2_certificate(12, mp.mpf("0.95"), mp.mpf("0.65"),
                                        30, prec=prec)
    return out + [_check("theorem2-certificate-total",
                         rep.total_below_one and rep.admissible, rep.margin,
                         prec)]


SUITES: Dict[str, Callable[[random.Random, int], List[Dict]]] = {
    "polynomials": _suite_polynomials,
    "divided_diff": _suite_divided_diff,
    "kernel": _suite_kernel,
    "identity": _suite_identity,
    "sequences": _suite_sequences,
    "extremal": _suite_extremal,
}


def run_suites(names: List[str], seed: int, prec: int) -> Dict:
    suites = []
    all_passed = True
    with working_precision(prec):
        for name in names:
            checks = SUITES[name](_suite_rng(seed, name), prec)
            passed = all(c["passed"] for c in checks)
            all_passed = all_passed and passed
            suites.append({"suite": name, "passed": passed, "checks": checks})
    return {"seed": seed, "precision_bits": prec, "all_passed": all_passed,
            "suites": suites}
