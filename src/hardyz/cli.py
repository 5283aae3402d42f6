"""Command-line entry point: verification suites and exploration drivers.

Subcommands: verify-lemmas, identity, zeros, explore, extremal.  Output is
deterministic for a fixed (seed, precision) pair: JSON is emitted with
sorted keys, numbers are serialized to int(0.302 * precision_bits) + 1
significant digits (precision.serialize), and no timestamps or machine
identifiers appear.  identity, zeros, explore and extremal emit their
library report plus a command/seed/precision_bits envelope.

Formats: verify-lemmas json or text, zeros json or csv, the others json.
Every report is serialized by precision.serialize, and laid out here: JSON in
_emit_json, verify-lemmas' text in cmd_verify_lemmas, zeros' CSV in cmd_zeros.

Exit codes: 0 all checks passed, 1 a mathematical check failed (explore's
T included, when Z(T) is indistinguishable from zero), 2 usage error, 3 z_eval
could not confirm a zero's sign change, even with its bracket widened 256
times.  main refuses an --out path whose directory is missing, or that is a
directory, before any command runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Optional

from mpmath import mp

from . import divided_diff, extremal, hardy, identity, kernel, polynomials, \
    probes, sequences
from .precision import DEFAULT_PREC, MIN_PREC, serialize, working_precision

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNCONFIRMED = 3

SUITES = ("polynomials", "divided_diff", "kernel", "identity", "sequences",
          "extremal")
SEEDED_PROBES = ("polynomial", "cosine", "gaussian-cosine")


def _check(name: str, passed: bool, margin, prec: int) -> Dict:
    """margin is an mpf or an exact count, taken at the suite's precision."""
    return {"name": name, "passed": bool(passed),
            "margin": serialize(mp.mpf(margin), prec)}


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


# ---------------------------------------------------------------------------
# verification suites: each runs inside run_suites' working precision, and
# its prec is the requested bits for tolerances and library calls


def _suite_polynomials(rng: random.Random, prec: int) -> List[Dict]:
    out = []
    bern = polynomials.bernoulli_numbers(24)
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             10: Fraction(5, 66), 12: Fraction(-691, 2730)}
    exact_ok = all(bern[k] == v for k, v in known.items()) \
        and all(bern[k] == 0 for k in range(3, 24, 2))
    # defining recurrence (B_1 = -1/2 convention):
    # sum_{k=0}^{n} binom(n+1,k) B_k = 0 for n >= 1
    for n in range(1, 24):
        s = sum(Fraction(comb(n + 1, k)) * bern[k] for k in range(n + 1))
        exact_ok = exact_ok and s == 0
    out.append(_check("bernoulli-number-values", exact_ok, 0, prec))

    worst = mp.mpf(0)
    for _ in range(10):
        n = rng.randrange(1, 17)
        x = mp.mpf(rng.uniform(-2, 2))
        r = polynomials.bernoulli_poly(n, 1 - x, prec=prec) \
            - (-1) ** n * polynomials.bernoulli_poly(n, x, prec=prec)
        worst = max(worst, abs(r))
    out.append(_check("bernoulli-poly-symmetry", worst < mp.mpf(2) ** (-(prec - 24)),
                      worst, prec))

    exact_ok = True
    for n in range(1, 4):
        for j in range(2 * n, 13):
            cs = [Fraction(c) for c in polynomials.chebyshev_coeffs(j)]
            for _ in range(2 * n):
                cs = [i * c for i, c in enumerate(cs)][1:] or [Fraction(0)]
            direct = sum(cs)
            exact_ok = exact_ok and \
                direct == polynomials.chebyshev_deriv_at_one(j, n)
    out.append(_check("chebyshev-high-derivative-at-one", exact_ok, 0, prec))

    worst = mp.mpf(0)
    ok = True
    for _ in range(5):
        l = rng.randrange(1, 5)
        x = mp.mpf(rng.uniform(0, 1))
        val, tail = polynomials.bernoulli_fourier_partial(l, x, 400, prec=prec)
        ref = polynomials.bernoulli_poly(2 * l, x, prec=prec)
        worst = max(worst, abs(val - ref))
        ok = ok and abs(val - ref) <= tail
    out.append(_check("bernoulli-fourier-partial-sum", ok, worst, prec))
    return out


def _suite_divided_diff(rng: random.Random, prec: int) -> List[Dict]:
    out = []
    worst = mp.mpf(0)
    for _ in range(10):
        N = rng.randrange(2, 8)
        nodes = sorted(rng.uniform(-3, 3) for _ in range(N + 1))
        probe = probes.monomial_probe(N, prec=prec)
        dd = divided_diff.divided_difference(
            probe, divided_diff.NodeMultiset([mp.mpf(v) for v in nodes]),
            prec=prec)
        worst = max(worst, abs(dd - 1))
    out.append(_check("top-monomial-divided-difference",
                      worst < mp.mpf(2) ** (-(prec - 48)), worst, prec))

    worst = mp.mpf(0)
    for _ in range(10):
        N = rng.randrange(2, 8)
        nodes = sorted(rng.uniform(-3, 3) for _ in range(N + 1))
        probe = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(N)], prec=prec)
        dd = divided_diff.divided_difference(
            probe, divided_diff.NodeMultiset([mp.mpf(v) for v in nodes]),
            prec=prec)
        worst = max(worst, abs(dd))
    out.append(_check("low-degree-annihilation",
                      worst < mp.mpf(2) ** (-(prec - 48)), worst, prec))

    worst = mp.mpf(0)
    for _ in range(5):
        b = rng.uniform(0.5, 2)
        probe = probes.cosine_probe(b, prec=prec)
        base = sorted(set(round(rng.uniform(-1, 1), 3) for _ in range(3)))
        nodes = [mp.mpf(v) for v in base] + [mp.mpf(base[0])]
        confluent = divided_diff.divided_difference(
            probe, divided_diff.NodeMultiset(nodes), prec=prec)
        eps = mp.mpf(2) ** (-40)
        split = [mp.mpf(v) for v in base] + [mp.mpf(base[0]) + eps]
        near = divided_diff.divided_difference(
            probe, divided_diff.NodeMultiset(split), prec=prec)
        worst = max(worst, abs(confluent - near))
    out.append(_check("confluent-matches-cluster-limit",
                      worst < mp.mpf(2) ** (-30), worst, prec))

    worst = mp.mpf(0)
    for _ in range(5):
        N = rng.randrange(2, 6)
        base = sorted(rng.uniform(-2, 2) for _ in range(N))
        nodes = [mp.mpf(v) for v in base] + [mp.mpf(base[0])]
        nm = divided_diff.NodeMultiset(nodes)
        w = divided_diff.hermite_weights(nm, prec=prec)
        probe = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(N + 2)], prec=prec)
        via_w = mp.fsum(mp.mpf(wt) * mp.mpf(probe.deriv(z, j))
                        for (z, j, wt) in w)
        dd = divided_diff.divided_difference(probe, nm, prec=prec)
        worst = max(worst, abs(via_w - dd))
    out.append(_check("hermite-weights-reproduce",
                      worst < mp.mpf(2) ** (-(prec - 48)), worst, prec))

    probe = probes.cosine_probe(1.3, prec=prec)
    nodes = divided_diff.NodeMultiset([mp.mpf(v) for v in (-1, 0.25, 1)])
    dd = divided_diff.divided_difference(probe, nodes, prec=prec)
    gap = abs(dd - divided_diff.divided_difference_simplex(probe, nodes, prec=prec))
    out.append(_check("hermite-genocchi-oracle",
                      gap < mp.mpf(2) ** (-(prec - 48)), gap, prec))
    return out


def _suite_kernel(rng: random.Random, prec: int) -> List[Dict]:
    out = []
    worst = mp.mpf(0)
    for _ in range(10):
        cfg = kernel.random_config(rng, rng.randrange(1, 5), prec=prec)
        co = kernel.coefficients(cfg, prec=prec)
        scale = max(abs(v) for v in co.alpha)
        worst = max(worst, abs(mp.fsum(co.alpha)) / scale)
    out.append(_check("alpha-zero-sum", worst < mp.mpf(2) ** (-(prec - 32)),
                      worst, prec))

    worst = mp.mpf(0)
    for _ in range(6):
        cfg = kernel.random_config(rng, rng.randrange(1, 5), prec=prec)
        co = kernel.coefficients(cfg, prec=prec)
        scale = max(abs(v) for v in co.alpha)
        for j in range(1, 2 * cfg.n):
            worst = max(worst, abs(kernel.chebyshev_moment(
                cfg, j, prec=prec)) / scale)
    out.append(_check("vanishing-moments", worst < mp.mpf(2) ** (-(prec - 40)),
                      worst, prec))

    worst = mp.mpf(0)
    ok = True
    for _ in range(4):
        n = rng.randrange(1, 4)
        cfg = kernel.random_config(rng, n, prec=prec)
        l = n + 1 + rng.randrange(0, 3)
        x = cfg.a * mp.mpf(rng.uniform(-0.9, 0.9))
        direct = kernel.psi(cfg, l, x, kernel.coefficients(cfg, prec=prec).mu,
                            prec=prec)
        series, tail = kernel.psi_chebyshev_series(cfg, l, x, 60, prec=prec)
        gap = abs(direct - series)
        worst = max(worst, gap)
        ok = ok and gap <= tail + mp.mpf(2) ** (-(prec - 48))
    out.append(_check("series-vs-direct", ok, worst, prec))

    violations = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        l = rng.randrange(1, 11)
        cfg = kernel.random_config(rng, n, prec=prec)
        for sign in (1, -1):
            v = kernel.psi_star_boundary(cfg, [l], sign, prec=prec)[0]
            if not (-1) ** (n + l + 1) * v > 0:
                violations += 1
    out.append(_check("boundary-sign-property", violations == 0,
                      violations, prec))

    violations = 0
    for _ in range(5):
        n = rng.randrange(1, 4)
        l = rng.randrange(1, 6)
        cfg = kernel.random_config(rng, n, prec=prec)
        h = cfg.a * mp.mpf(2) ** (-20)
        for i in range(2 * n + 1):
            k = i - n
            if k == 0:
                continue
            for sign in (1, -1):
                lo = list(cfg.nodes)
                hi = list(cfg.nodes)
                lo[i] -= h
                hi[i] += h
                try:
                    c_lo = kernel.NodeConfig(n=n, a=cfg.a, nodes=lo)
                    c_hi = kernel.NodeConfig(n=n, a=cfg.a, nodes=hi)
                except ValueError:
                    continue
                f = lambda c: (-1) ** (n + l + 1) \
                    * kernel.psi_star_boundary(c, [l], sign, prec=prec)[0]
                quotient = (f(c_hi) - f(c_lo)) / (2 * h)
                if (quotient > 0) != (k > 0):
                    violations += 1
    out.append(_check("boundary-monotonicity", violations == 0,
                      violations, prec))

    worst = mp.mpf(0)
    for sign in (1, -1):
        n = 2
        a = mp.mpf(4)
        dup = [mp.mpf(v) for v in (-3, "-1.5", 0, "1.5", "1.5")]
        cfg_w = kernel.NodeConfig(n=n, a=a, nodes=dup, strict=False)
        conf = kernel.psi_star_boundary(cfg_w, [3], sign, prec=prec)[0]
        eps = mp.mpf(2) ** (-50)
        near = [mp.mpf(v) for v in (-3, "-1.5", 0, "1.5")] \
            + [mp.mpf("1.5") + eps]
        cfg_s = kernel.NodeConfig(n=n, a=a, nodes=near, strict=True)
        lim = kernel.psi_star_boundary(cfg_s, [3], sign, prec=2 * prec)[0]
        worst = max(worst, abs(conf - lim))
    out.append(_check("confluent-boundary-extension",
                      worst < mp.mpf(2) ** (-40), worst, prec))

    violations = 0
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
        if not lhs <= rhs + mp.mpf(2) ** (-(prec - 48)):
            violations += 1
    out.append(_check("boundary-sum-inequality", violations == 0,
                      violations, prec))
    return out


def _suite_identity(rng: random.Random, prec: int) -> List[Dict]:
    out = []
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
    out.append(_check("key-identity-residual", ok, worst_ratio, prec))

    worst = mp.mpf(0)
    for _ in range(5):
        n = rng.randrange(1, 5)
        cfg = kernel.random_config(rng, n, prec=prec)
        probe = probes.cardinal_probe(cfg, prec=prec)
        res = identity.reconstruct_f0(cfg, probe, n + 1 + rng.randrange(0, 3),
                                      prec=prec)
        worst = max(worst, abs(res.value - 1))
    out.append(_check("cardinal-reconstruction",
                      worst < mp.mpf(2) ** (-(prec - 40)), worst, prec))

    worst = mp.mpf(0)
    for _ in range(5):
        n = rng.randrange(1, 4)
        cfg = kernel.random_config(rng, n, prec=prec)
        mu = _zero_sum_weights(rng, n)
        probe = probes.polynomial_probe(
            [rng.uniform(-1, 1) for _ in range(6)], prec=prec)
        lhs = mp.fsum(mk * mp.mpf(probe.value(x))
                      for mk, x in zip(mu, cfg.nodes))
        tele = identity.piecewise_weight_integral(cfg, mu, probe, prec=prec)
        worst = max(worst, abs(lhs - tele))
    out.append(_check("telescoping-top-derivative",
                      worst < mp.mpf(2) ** (-(prec - 48)), worst, prec))
    return out


def _suite_sequences(rng: random.Random, prec: int) -> List[Dict]:
    out = []
    b = sequences.b_table(1, 30)
    ok = all(b[1, l] == factorial(l - 1) ** 2 for l in range(1, 31))
    out.append(_check("b-first-row-exact", ok, 0, prec))

    ok = all(sequences.g_poly(1, l) ==
             sequences.PiSquarePoly({0: Fraction(1)}) for l in range(1, 21))
    out.append(_check("g-first-row-is-one", ok, 0, prec))

    ok = all(sequences.g_closed_form_sum(m) == 0 for m in range(1, 9))
    out.append(_check("closed-form-rational-sum-zero", ok, 0, prec))

    ok = True
    for m in range(1, 9):
        es = sequences.e_coefficients(m, 40)
        for l in range(1, 41):
            if not es[l].evaluate(prec) > 0:
                ok = False
    out.append(_check("e-coefficients-positive", ok, 0, prec))

    d, limit, gap = sequences.d_limit_check(2, 200, prec=prec)
    out.append(_check("d2-limit-within-1pct", gap / limit < mp.mpf("0.01"),
                      gap / limit, prec))

    _, limit3, _ = sequences.d_limit_check(3, 200, prec=prec)
    samples = [sequences.d_limit_check(3, L, prec=prec)[0]
               for L in (50, 100, 150, 200)]
    ok = all(x < limit3 for x in samples) \
        and all(a < bb for a, bb in zip(samples, samples[1:]))
    out.append(_check("d3-below-limit-increasing", ok,
                      limit3 - samples[-1], prec))

    ok = True
    worst = mp.mpf(0)
    for n in range(11, 21):
        for l in range(0, 2001, 97):
            w = sequences.tail_weight(n, l, prec=prec)
            w10 = sequences.tail_weight(10, l, prec=prec)
            if w > w10:
                ok = False
                worst = max(worst, w - w10)
    out.append(_check("tail-weight-dominated-by-n10", ok, worst, prec))

    # the mpf route against the float C*: at or below it, within 2^-38
    partial, tail = sequences.tail_weight_sum(
        sequences.TAIL_WEIGHT_MIN_N, sequences.TAIL_WEIGHT_DEFAULT_LMAX, prec=prec)
    c_star = sequences.tail_weight_constant()
    gap = (c_star - (partial + tail)) / c_star
    out.append(_check("tail-weight-constant-bounds-the-sum",
                      0 <= gap <= mp.mpf(2) ** -38, gap, prec))
    return out


def _suite_extremal(rng: random.Random, prec: int) -> List[Dict]:
    out = []
    worst = mp.mpf(0)
    for n in range(2, 11):
        w = extremal.equal_angle_weights(n, prec=prec)
        g0 = mp.mpf((-1) ** n) * mp.mpf(2) ** (2 * n - 2) / n
        for k, wk in enumerate(w):
            if k == 0:
                target = g0
            elif k == n:
                target = (-1) ** n * g0
            else:
                target = (-1) ** k * 2 * g0
            worst = max(worst, abs(wk - target) / abs(target))
    out.append(_check("equal-angle-weight-formula",
                      worst < mp.mpf(2) ** (-(prec - 48)), worst, prec))

    gq = extremal.log_sine_integral(mp.mpf("0.37"), prec=prec)
    gc = extremal.log_sine_integral_closed(mp.mpf("0.37"), prec=prec)
    out.append(_check("log-sine-integral-dual-route",
                      abs(gq - gc) < mp.mpf(2) ** (-(prec // 2)),
                      abs(gq - gc), prec))

    ok = True
    for n in range(1, 13):
        hc = extremal.hyp_coefficients(n, n + 40)
        for k in range(n, n + 41):
            if not (-1) ** n * hc[k] > 0:
                ok = False
    out.append(_check("hypergeometric-coefficient-signs", ok, 0, prec))

    violations = 0
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
                if not 0 < P < mp.mpf(2) ** (-2 * n):
                    violations += 1
                if not 0 < D < mp.mpf(2) ** (2 * n - 1):
                    violations += 1
    out.append(_check("extremal-grid-bounds", violations == 0,
                      violations, prec))

    worst = mp.mpf(0)
    for n in (6, 9):
        params = extremal.ExtremalParams(n=n, c=mp.mpf("0.9"),
                                         eps=mp.mpf("0.5"), prec=prec)
        cfg = extremal.extremal_config(params)
        D1 = extremal.divided_bound(cfg, params, prec=prec)
        D2 = extremal.divided_bound_direct(cfg, params.c, prec=prec)
        worst = max(worst, abs(D1 - D2) / abs(D1))
    out.append(_check("divided-bound-dual-route",
                      worst < mp.mpf(2) ** (-(prec // 3)), worst, prec))

    rep = extremal.theorem2_certificate(12, mp.mpf("0.95"), mp.mpf("0.65"),
                                        30, prec=prec)
    out.append(_check("theorem2-certificate-total",
                      rep.total_below_one and rep.admissible,
                      rep.margin, prec))
    return out


_SUITE_FUNCS: Dict[str, Callable] = {
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
            rng = _suite_rng(seed, name)
            checks = _SUITE_FUNCS[name](rng, prec)
            passed = all(c["passed"] for c in checks)
            all_passed = all_passed and passed
            suites.append({"suite": name, "passed": passed, "checks": checks})
    return {"seed": seed, "precision_bits": prec, "all_passed": all_passed,
            "suites": suites}


# ---------------------------------------------------------------------------
# subcommand drivers


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_verify_lemmas(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = run_suites(names, args.seed, args.precision_bits)
    if args.format == "text":
        lines = []
        for s in report["suites"]:
            for c in s["checks"]:
                lines.append(f"{'PASS' if c['passed'] else 'FAIL'} "
                             f"{s['suite']}/{c['name']} margin={c['margin']}")
        lines.append(f"seed={report['seed']} precision_bits="
                     f"{report['precision_bits']} all_passed={report['all_passed']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, sort_keys=True, indent=2), args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


def _emit_json(command: str, body: Dict, args) -> None:
    """body plus the command/seed/precision_bits envelope, as sorted JSON."""
    payload = dict(body, command=command, seed=args.seed,
                   precision_bits=args.precision_bits)
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)


def cmd_identity(args) -> int:
    prec = args.precision_bits
    rng = _suite_rng(args.seed, "identity-cmd")
    cfg = kernel.random_config(rng, args.n, prec=prec)
    if args.probe == "cardinal":
        probe = probes.cardinal_probe(cfg, prec=prec)
        rep = identity.reconstruct_f0(cfg, probe, max(args.m, args.n + 1),
                                      prec=prec)
    else:
        probe = _seeded_probe(rng, args.probe, args.m, prec)
        with working_precision(prec):
            mu = _zero_sum_weights(rng, args.n)
        rep = identity.verify_key_identity(cfg, mu, probe, args.m, prec=prec)
    _emit_json("identity", serialize(rep, prec), args)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_zeros(args) -> int:
    prec = args.precision_bits
    with working_precision(prec):
        lo = mp.mpf(args.t_lo)
        hi = mp.mpf(args.t_hi)
        scan_lo = mp.mpf(0) if lo <= 15 else lo
        found = hardy.find_zeros(scan_lo, hi, prec=prec)
        visible = dataclasses.replace(
            found, t_lo=lo, zeros=[z for z in found.zeros if z.t > lo])
        body = serialize(visible, prec)
        if args.format == "csv":
            buf = io.StringIO()
            rows = csv.writer(buf)
            rows.writerow(["index", "t", "bracket_half_width"])
            rows.writerows([i, z["t"], z["half_width"]]
                           for i, z in enumerate(body["zeros"], start=1))
            _emit(buf.getvalue(), args.out)
            return EXIT_OK
        if hi >= 10 and scan_lo == 0:
            body["count_stats"] = serialize(
                hardy.count_stats(hi, found, prec=prec), prec)
    _emit_json("zeros", body, args)
    return EXIT_OK


def cmd_explore(args) -> int:
    prec = args.precision_bits
    rep = hardy.theorem1_explore(args.T, args.C, m_cap=args.m_cap, prec=prec)
    _emit_json("explore", serialize(rep, prec), args)
    return EXIT_OK


def cmd_extremal(args) -> int:
    prec = args.precision_bits
    rep = extremal.theorem2_certificate(args.n, mp.mpf(args.c), mp.mpf(args.eps),
                                        args.m, prec=prec)
    _emit_json("extremal", serialize(rep, prec), args)
    return EXIT_OK if rep.total_below_one else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hardyz",
        description="Verification suites and explorations for the Hardy "
                    "Z-function kernel toolkit.")
    p.add_argument("--precision-bits", type=int, default=DEFAULT_PREC)
    p.add_argument("--seed", type=int, default=0)
    # parsed, with its one value, only because perfbench/worker.py passes it
    p.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help=argparse.SUPPRESS)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out")
    sub = p.add_subparsers(dest="command", required=True)

    vl = sub.add_parser("verify-lemmas", help="run module invariant suites")
    vl.add_argument("suite", choices=SUITES + ("all",))
    vl.set_defaults(func=cmd_verify_lemmas, formats=("json", "text"))

    ident = sub.add_parser("identity", help="evaluate the key identity")
    ident.add_argument("--n", type=int, required=True)
    ident.add_argument("--m", type=int, required=True)
    ident.add_argument("--probe", required=True,
                       choices=SEEDED_PROBES + ("cardinal",))
    ident.set_defaults(func=cmd_identity, formats=("json",))

    zr = sub.add_parser("zeros", help="locate zeros of Z in an interval")
    zr.add_argument("t_lo", type=str)
    zr.add_argument("t_hi", type=str)
    zr.set_defaults(func=cmd_zeros, formats=("json", "csv"))

    ex = sub.add_parser("explore", help="derivative-maximum exploration report")
    ex.add_argument("T", type=str)
    ex.add_argument("C", type=str)
    ex.add_argument("m_cap", type=int)
    ex.set_defaults(func=cmd_explore, formats=("json",))

    xt = sub.add_parser("extremal", help="extremal configuration certificate")
    xt.add_argument("n", type=int)
    xt.add_argument("c", type=str)
    xt.add_argument("eps", type=str)
    xt.add_argument("m", type=int)
    xt.set_defaults(func=cmd_extremal, formats=("json",))
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision_bits < MIN_PREC:
        parser.error(f"--precision-bits must be >= {MIN_PREC}")
    if args.format not in args.formats:
        parser.error(f"{args.command} supports --format "
                     f"{' or '.join(args.formats)}, not {args.format!r}")
    # _emit opens --out only once the report exists, so its failure would
    # come after the whole computation
    if args.out and (os.path.isdir(args.out)
                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
        sys.stderr.write(f"error: --out {args.out!r} is not a file in an "
                         f"existing directory\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except hardy.UnconfirmedSignChangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNCONFIRMED
    except hardy.RejectedPointError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
