"""Acceptance suite: one test per end-to-end criterion.

Each test prints a single PASS/FAIL line before asserting, so the criterion
status survives in the captured output even when pytest truncates tracebacks.
"""

import json
import random
import time
from fractions import Fraction
from math import comb, factorial

import sympy
from mpmath import mp

from hardyz import cli, extremal, hardy, identity, kernel, polynomials, probes, sequences
from hardyz.precision import serialize, working_precision

PREC = 192


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _zero_sum(rng, count):
    with working_precision(PREC):
        w = [mp.mpf(rng.uniform(-1, 1)) for _ in range(count - 1)]
        return w + [-mp.fsum(w)]


def test_criterion_01_key_identity_seeded_cases():
    rng = random.Random(101)
    start = time.monotonic()
    worst = mp.mpf(0)
    failures = 0
    for case in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 10)
        cfg = kernel.random_config(rng, n, prec=PREC)
        mu = _zero_sum(rng, 2 * n + 1)
        kind = case % 3
        if kind == 0:
            probe = probes.polynomial_probe(
                [rng.uniform(-1, 1) for _ in range(rng.randint(3, 2 * m + 3))],
                prec=PREC)
        elif kind == 1:
            probe = probes.cosine_probe(rng.uniform(0.2, 1.5), prec=PREC)
        else:
            probe = probes.gaussian_cosine_probe(rng.uniform(0.3, 1.0),
                                                 rng.uniform(2, 5), prec=PREC)
        rep = identity.verify_key_identity(cfg, mu, probe, m, prec=PREC)
        if not rep.passed:
            failures += 1
        worst = max(worst, rep.residual)
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120
    _report(1, ok, f"50 cases, failures={failures}, "
                   f"worst residual={mp.nstr(worst, 5)}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_cardinal_reconstruction():
    rng = random.Random(202)
    bound = mp.mpf(2) ** -120
    worst = mp.mpf(0)
    for _ in range(20):
        n = rng.randint(1, 5)
        cfg = kernel.random_config(rng, n, prec=PREC)
        probe = probes.cardinal_probe(cfg, prec=PREC)
        res = identity.reconstruct_f0(cfg, probe, n + 1, prec=PREC)
        worst = max(worst, abs(res.value - 1))
    ok = worst < bound
    _report(2, ok, f"20 cases, worst |f(0)-1|={mp.nstr(worst, 5)} < 2^-120")
    assert ok


def test_criterion_03_exact_sequence_identities():
    b = sequences.b_table(1, 30)
    first_row = all(b[1, l] == factorial(l - 1) ** 2 for l in range(1, 31))
    g_row = all(sequences.g_poly(1, l) == sequences.PiSquarePoly({0: Fraction(1)})
                for l in range(1, 31))
    closed = all(sequences.g_closed_form_sum(m) == 0 for m in range(1, 9))
    e_pos = all(sequences.e_coefficients(m, 40)[l].evaluate(PREC) > 0
                for m in range(1, 9) for l in range(1, 41))
    ok = first_row and g_row and closed and e_pos
    _report(3, ok, f"b-row={first_row} g-row={g_row} closed-sum={closed} "
                   f"e-positive={e_pos}")
    assert ok


def test_criterion_04_d_limits():
    d2, limit2, gap2 = sequences.d_limit_check(2, 200, prec=PREC)
    within = bool(gap2 < mp.mpf("0.01") * limit2)
    d3, limit3, _ = sequences.d_limit_check(3, 200, prec=PREC)
    below = bool(d3 < limit3)
    increasing = sequences.d_value(3, 199) < sequences.d_value(3, 200)
    ok = within and below and increasing
    _report(4, ok, f"d_2,200 gap={mp.nstr(gap2 / limit2, 4)} of pi^2/6; "
                   f"d_3,200 below pi^4/120={below}, increasing={increasing}")
    assert ok


def test_criterion_05_boundary_sign_property():
    rng = random.Random(505)
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        cfg = kernel.random_config(rng, n, prec=PREC)
        l = rng.randint(1, 10)
        sign = rng.choice((1, -1))
        v = kernel.psi_star_boundary(cfg, [l], sign, prec=PREC)[0]
        if not (-1) ** (n + l + 1) * v > 0:
            violations += 1
    ok = violations == 0
    _report(5, ok, f"200 configs (n<=6, l<=10), sign violations={violations}")
    assert ok


def test_criterion_06_boundary_sum_inequality():
    rng = random.Random(606)
    violations = 0
    checked = 0
    with working_precision(PREC):
        while checked < 100:
            n = rng.randint(1, 3)
            cfg = kernel.random_config(rng, n, prec=PREC)
            a = mp.mpf(cfg.a)
            frac = mp.mpf(rng.uniform(0.05, 0.95)) * n
            if min(abs(frac - j) for j in range(n + 1)) < mp.mpf("0.02"):
                continue  # too close to a removable singularity of the rhs
            c = frac * mp.pi / a
            m = rng.randint(2, 6)
            lhs, rhs = kernel.boundary_sum_bound(cfg, c, m, prec=PREC)
            if not lhs <= rhs:
                violations += 1
            checked += 1
    ok = violations == 0
    _report(6, ok, f"100 admissible tuples, lhs<=rhs violations={violations}")
    assert ok


def test_criterion_07_extremal_grid_bounds():
    eps_grid = ("0.05", "0.1", "0.3", "0.5", "0.65")
    violations_large = 0
    violations_small = 0
    admissible_large = 0
    with working_precision(PREC):
        for n in range(5, 17):
            hi = 1 - mp.mpf(1) / (2 * n)
            for eps_s in eps_grid:
                eps = mp.mpf(eps_s)
                c_eps = extremal.find_c_eps(eps, prec=PREC)
                if not c_eps < hi:
                    continue  # c_eps >= 1 - 1/2n (eps 0.05, 0.1): no admissible c
                for frac in ("0.25", "0.5", "0.75"):
                    c = c_eps + (hi - c_eps) * mp.mpf(frac)
                    params = extremal.ExtremalParams(n=n, c=c, eps=eps, prec=PREC)
                    if not params.admissible(c_eps):
                        continue
                    cfg = extremal.extremal_config(params, prec=PREC)
                    P = extremal.sine_product(cfg, prec=PREC)
                    D = extremal.divided_bound(cfg, params, prec=PREC)
                    good = bool(0 < P < mp.mpf(2) ** (-2 * n)) \
                        and bool(0 < D < mp.mpf(2) ** (2 * n - 1))
                    if n >= 8:
                        admissible_large += 1
                        if not good:
                            violations_large += 1
                    elif not good:
                        violations_small += 1
    ok = violations_large == 0 and admissible_large > 0
    _report(7, ok, f"grid n=5..16: {admissible_large} admissible tuples at "
                   f"n>=8, violations={violations_large} "
                   f"(informational n<8 violations={violations_small})")
    assert ok


def test_criterion_08_equal_angle_weights_exact():
    # Exact symbolic check in the cyclotomic field: with z = e^(i pi/n) a
    # primitive 2n-th root of unity, sin^2(k pi/(2n)) = (1 - (z^k+z^-k)/2)/2,
    # so 1/prod_{j!=k}(t_k - t_j) equals the rational closed form iff
    # prod * closed_form - 1 vanishes modulo the cyclotomic polynomial
    # Phi_2n.  Phi_2n divides z^2n - 1, so z^-k is z^(2n-k) there, and the
    # product is reduced modulo Phi_2n after each factor.
    z = sympy.symbols("z")
    ok = True
    for n in range(2, 11):
        cyc = sympy.Poly(sympy.cyclotomic_poly(2 * n, z), z, domain="QQ")
        t = [sympy.Poly((1 - (z ** k + z ** (2 * n - k)) / 2) / 2, z, domain="QQ")
             for k in range(n + 1)]
        g0 = sympy.Rational((-1) ** n * 2 ** (2 * n - 2), n)
        for k in range(n + 1):
            prod = sympy.Poly(1, z, domain="QQ")
            for j in range(n + 1):
                if j != k:
                    prod = (prod * (t[k] - t[j])).rem(cyc)
            if k == 0:
                target = g0
            elif k == n:
                target = (-1) ** n * g0
            else:
                target = (-1) ** k * 2 * g0
            if not (prod * target - 1).rem(cyc).is_zero:
                ok = False
    _report(8, ok, "closed-form weights equal direct reciprocal products in "
                   "the cyclotomic field for n=2..10")
    assert ok


def test_criterion_09_tail_weight_domination():
    prec = 64
    with working_precision(prec):
        expo10 = 2 * 10 * mp.log(10) - 1
        violations = 0
        for n in range(11, 21):
            expo = 2 * n * mp.log(n) - 1
            binom10 = 1
            binom = 1
            for l in range(0, 2001):
                if l > 0:
                    binom10 = binom10 * (40 + l - 1) // l
                    binom = binom * (4 * n + l - 1) // l
                cap = (mp.mpf(20) / (20 + l)) ** expo10 * binom10
                val = (mp.mpf(2 * n) / (2 * n + l)) ** expo * binom
                if val > cap:
                    violations += 1
        # spot check the incremental form against the module function
        sample_ok = all(
            abs(sequences.tail_weight(n, l, prec=prec)
                - (mp.mpf(2 * n) / (2 * n + l)) ** (2 * n * mp.log(n) - 1)
                * comb(4 * n + l - 1, l)) <= mp.mpf(2) ** -30
            * sequences.tail_weight(n, l, prec=prec)
            for n, l in ((11, 7), (15, 100), (20, 1999)))
        total, tail = sequences.tail_weight_sum(10, 10 ** 5, prec=prec)
        finite = bool(mp.isfinite(total) and mp.isfinite(tail))
    ok = violations == 0 and sample_ok and finite
    _report(9, ok, f"n=11..20, l<=2000: violations={violations}, "
                   f"sum at n=10 through 1e5 finite={finite} "
                   f"(C*={mp.nstr(total + tail, 8)})")
    assert ok


def test_criterion_10_chebyshev_derivative_formula():
    x = sympy.symbols("x")
    ok = True
    for n in range(1, 4):
        for j in range(2 * n, 13):
            sym = sympy.diff(sympy.chebyshevt(j, x), x, 2 * n).subs(x, 1)
            if int(sym) != polynomials.chebyshev_deriv_at_one(j, n):
                ok = False
    _report(10, ok, "2n-th derivative at 1 matches symbolic differentiation "
                    "exactly for j<=12, n<=3")
    assert ok


def test_criterion_11_hardy_engine():
    prec = 128
    start = time.monotonic()
    zl = hardy.find_zeros(0, 100, prec=prec)
    count_ok = len(zl) == 29
    with working_precision(prec):
        gamma1_ok = bool(abs(zl.zeros[0].gamma
                             - mp.mpf("14.134725141734693790")) < mp.mpf(10) ** -6)
    rng = random.Random(1111)
    dual_ok = True
    for _ in range(100):
        t = rng.uniform(15, 400)
        em, _ = hardy.z_eval(t, prec=prec)
        with working_precision(prec):
            rs = mp.siegelz(t)
            if abs(em - rs) > mp.mpf(10) ** -20 * max(1, abs(em)):
                dual_ok = False
    deriv_ok = True
    for k in range(1, 9):
        t = rng.uniform(30, 120)
        a = hardy.z_derivatives_batch(t, [k], prec=prec)[k]
        b = hardy.z_derivative_fd(t, k, prec=prec)
        if abs(a - b) > mp.mpf(10) ** -15 * max(1, abs(a)):
            deriv_ok = False
    elapsed = time.monotonic() - start
    ok = count_ok and gamma1_ok and dual_ok and deriv_ok and elapsed < 300
    _report(11, ok, f"29 zeros={count_ok}, gamma_1 to 1e-6={gamma1_ok}, "
                    f"100 dual-method points={dual_ok}, "
                    f"derivative dual-path k<=8={deriv_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_12_certificate():
    rep = extremal.theorem2_certificate(12, mp.mpf("0.95"), mp.mpf("0.65"), 30,
                                        prec=PREC)
    payload = json.loads(json.dumps(serialize(rep, PREC), sort_keys=True, indent=2))
    ok = (rep.admissible and rep.total_below_one
          and float(rep.margin) > 0 and payload["n"] == 12)
    _report(12, ok, f"n=12 c=0.95 eps=0.65 m=30: total={rep.total}, "
                    f"margin={rep.margin}, report fields={len(payload)}")
    assert ok


def test_criterion_13_deterministic_output(tmp_path):
    paths = []
    for i in (1, 2):
        target = tmp_path / f"run{i}.json"
        code = cli.main(["--precision-bits", "192", "--seed", "7",
                         "--out", str(target), "verify-lemmas", "all"])
        assert code == 0
        paths.append(target)
    a = paths[0].read_bytes()
    b = paths[1].read_bytes()
    ok = a == b and b"false" not in a
    _report(13, ok, f"two full verify-lemmas runs byte-identical={a == b}, "
                    f"{len(a)} bytes")
    assert ok
