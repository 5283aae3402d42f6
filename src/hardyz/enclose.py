"""Enclosures: values that come with a proved bound on their error.

z_rs(t) encloses Hardy's Z for t >= 200 by the Riemann-Siegel formula with
its first two correction terms,

    Z(t) = 2 sum_{n<=N} n^-1/2 cos(theta(t) - t log n)
           + (-1)^(N-1) tau^-1/2 (C0(p) + C1(p)/tau) + R(t),

tau = sqrt(t/2pi), N = floor(tau), p = tau - N (Edwards, Riemann's Zeta
Function, 1974, ch. 7), evaluated in floats.  It costs microseconds where
the Euler-Maclaurin Z (hardy.z_eval) costs milliseconds (about 1.0 at
t = 500.3 and 9 at t = 10^4 + 0.3, at 128 bits, warm); hardy.find_zeros
states where the zero finder reads which.

C0 = Psi and C1 = -Psi'''/(96 pi^2), with
Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p).  Psi is entire (the zeros of
its denominator at p = 1/4 and 3/4 are zeros of its numerator too), and even
about p = 1/2: with x = p - 1/2 and y = x^2,

    Psi = -cos(2pi y - 5pi/8)/cos(2pi x) = sum_j a_j y^j,

so C0 and C1 are evaluated as polynomials in y, never as the quotient.
On the circle |x| = 1 the numerator is at most cosh(2pi), since
|Im 2pi x^2| <= 2pi, and |cos(2pi x)| >= 0.99: where |Im x| >= 0.2 it is at
least sinh(0.4 pi) > 1.6, and elsewhere |Re x| > 0.979, so
cos(2pi Re x) > cos(0.127) > 0.99.  Hence |Psi| < cosh(2pi)/0.99 < 271
there, and Cauchy's estimates give |a_j| < 271 and the bounds z_rs uses.

z_log_majorant(c, R) bounds |Z| on the circle of radius R about a real c,
off the real line: hardy._TaylorPatches sizes its Taylor series from it,
and hardy.find_zeros bounds Z'' with it.
It sums no zeta and no loggamma: Stirling's formula bounds the phase and an
Euler-Maclaurin majorant bounds zeta (see its docstring).

h_float(delta, gap) encloses the Clausen difference h(delta) of Theorem 2's
admissible range in floats, with the Bernoulli series of extremal._clausen:
extremal.find_c_eps decides each sign of its delta search from it where its
bound proves one.

log_add is the float log of a sum of exponentials that these bounds, the
series bounds of hardy._TaylorPatches and identity's quadrature bound add
their terms with.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import List, Tuple

from mpmath import libmp

from .polynomials import clausen_coeffs, horner

RS_MIN_T = 200  # Gabcke's remainder bound holds from t = 200 on
GABCKE_D1 = 0.053  # |R(t)| <= GABCKE_D1 tau^-5/2 (see z_rs)
PSI_TERMS = 40  # a_0..a_39; the truncated tails are below 2^-49 (see z_rs)
PSI_SERIES_BITS = 5 * PSI_TERMS + 128  # the series division loses under 5 bits a term
ROUNDING_ALLOWANCE = 2.0 ** -40  # per unit of the magnitudes named in z_rs and h_float
# log Gamma's Stirling sum keeps B_2..B_8; B_10 = 5/66 bounds its remainder.
# z_log_majorant's Euler-Maclaurin majorant of zeta uses B_2..B_8 too.
STIRLING_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30)
STIRLING_NEXT_BERNOULLI = 5 / 66
EPS = 2.0 ** -53  # unit roundoff of a float
LOG_2PI = math.log(2 * math.pi)
CLAUSEN_TERMS = 15  # c_1..c_15 leave 2^-62 of Cl_2 up to pi/2 (see h_float)
CLAUSEN_TAIL = 2.0 ** -62
H_MIN_ETA = 2.0 ** -1000  # below it h_float proves nothing (see h_float)


def log_add(*logs: float) -> float:
    """log(sum e^x) for the given logs, in floats."""
    top = max(logs)
    if top in (-math.inf, math.inf):
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


@lru_cache(maxsize=1)
def _psi_series() -> Tuple[List[float], List[float]]:
    """(a, b): Psi = sum_j a_j y^j and C1 = x sum_j b_j y^j, as floats,
    computed once in fixed point (Python ints with PSI_SERIES_BITS fraction
    bits), each rounded once to the nearest float.

    a is the power-series quotient of -cos(2pi y - 5pi/8) by cos(2pi x) in
    y: with n_j and d_j the y^j coefficients of the numerator and of
    cos(2pi x) = sum_j (-1)^j (2pi)^(2j)/(2j)! y^j, d_0 = 1,
    a_j = n_j - sum_(i<j) a_i d_(j-i).  Psi''' = x sum_j a_(j+2)
    (2j+4)(2j+3)(2j+2) y^j gives b.  Each step adds a few units of rounding
    of its own, and passes on the errors of the earlier a_i weighted by
    |d_k|.  sum_(k>=1) |d_k| z^k = cosh(2pi sqrt z) - 1 reaches 1 at
    z = 0.0439, so the errors grow by less than 23 (4.6 bits) a term: over
    the 42 terms, to some 2^194 units of 2^-PSI_SERIES_BITS, 2^-134.  The
    smallest coefficient read, a_40 (b_38 is formed from it), is about
    2^-71, so every coefficient is known to 2^-63 of itself, and its float
    is the nearest one unless the coefficient lies that close to a rounding
    tie.  The tests compare all
    80 floats with tests/psi_series_oracle.py, the same recursion in mpf.
    """
    bits = PSI_SERIES_BITS
    one = 1 << bits
    pi = libmp.pi_fixed(bits)
    shift = libmp.mpf_mul(libmp.mpf_pi(bits + 8), libmp.from_rational(5, 8, bits + 8),
                          bits + 8)
    phase = [libmp.to_fixed(v, bits) for v in libmp.mpf_cos_sin(shift, bits + 8)]
    powers = [one]  # (2pi)^k/k!
    for k in range(1, 2 * PSI_TERMS + 3):
        powers.append((powers[-1] * 2 * pi >> bits) // k)
    a = []
    for j in range(PSI_TERMS + 2):
        # cos(2pi y - s) = cos(2pi y) cos s + sin(2pi y) sin s, term y^j
        num = -(-1) ** (j // 2) * (powers[j] * phase[j % 2] >> bits)
        a.append(num - (sum((-1) ** (j - i) * a[i] * powers[2 * (j - i)]
                            for i in range(j)) >> bits))
    scale = 96 * (pi * pi >> bits)  # 96 pi^2
    b = [-(a[j + 2] * (2 * j + 4) * (2 * j + 3) * (2 * j + 2) << bits) // scale
         for j in range(PSI_TERMS)]
    return [v / one for v in a[:PSI_TERMS]], [v / one for v in b]


def _c0_c1(p: float) -> Tuple[float, float]:
    """(C0(p), C1(p)) for 0 <= p <= 1 from the series about p = 1/2."""
    a, b = _psi_series()
    x = p - 0.5
    y = x * x
    return horner(a, y), x * horner(b, y)


def _theta(x: float) -> Tuple[float, float]:
    """(theta(x), bound on the Stirling remainder) for x >= RS_MIN_T:
    theta = Im log Gamma(z) - (x/2) log pi with z = 1/4 + ix/2, log Gamma by
    its Stirling sum through B_8 (see z_rs for the remainder)."""
    z = complex(0.25, 0.5 * x)
    z2 = z * z
    w = (z - 0.5) * cmath.log(z) - z
    power = z
    for k, bern in enumerate(STIRLING_BERNOULLI, start=1):
        w += bern / (2 * k * (2 * k - 1) * power)
        power *= z2
    remainder = 32 * STIRLING_NEXT_BERNOULLI / (90 * abs(z) ** 9)
    return w.imag - 0.5 * x * math.log(math.pi), remainder


def z_rs(t) -> Tuple[float, float]:
    """(value, bound) with |Z(t) - value| <= bound, for real t >= RS_MIN_T.

    The value is the formula of the module docstring without R, in floats.
    The bound adds up three things.

    1. Gabcke's remainder.  W. Gabcke, Neue Herleitung und explizite
       Restabschaetzung der Riemann-Siegel-Formel, Dissertation, Goettingen,
       1979, Satz 4.2.3: for t >= 200 and 0 <= K <= 10, the remainder after
       the terms C_0 .. C_K satisfies |R_K(t)| <= d_K (t/2pi)^(-(2K+3)/4),
       with d_0 = 0.127 and d_1 = 0.053.  Here K = 1, so
       |R| <= 0.053 tau^-5/2.
    2. theta's Stirling remainder.  theta(t) = Im log Gamma(z) - (t/2) log pi
       with z = 1/4 + it/2.  log Gamma(z) is summed through B_8/(56 z^7);
       by Stieltjes' bound (Olver, Asymptotics and Special Functions, 1974,
       ch. 8 sec. 4) the rest is at most |B_10| sec^10(arg(z)/2)/(90|z|^9),
       and arg z < pi/2 makes sec^10 at most 2^5.  Every phase carries that
       error r, and sum_{n<=N} n^-1/2 <= 2 sqrt(N), so the sum carries at
       most 4 sqrt(N) r.
    3. Rounding, as the allowance ROUNDING_ALLOWANCE (4 sqrt(N) t log t
       + 8 (tau + 1)).  With e = 2^-53, to first order in e, taking +, -,
       *, / and sqrt as correctly rounded and log, cos and the complex log
       as within one ulp (2e relative):
       - x = float(t) is within one ulp of t.  theta' < log(t/2pi)/2 and
         log n <= log tau, so each phase phi_n = theta(t) - t log n moves by
         less than 2e t log t when t becomes x.
       - The Stirling sum's terms are at most t log t in size and take about
         a dozen operations, so theta(x) is within 24 e t log t; x log n
         adds 3 e t log t and the subtraction e t log t.  So each phase is
         within 30 e t log t.
       - cos is 1-Lipschitz and within 2e, and 2/sqrt(n) is within 2e, so
         each term errs by less than 2 n^-1/2 (30 e t log t + 5e); adding
         the N terms adds less than N e 4 sqrt(N).  The sum therefore errs
         by less than 4 sqrt(N) 31 e t log t.
       - tau is within 3e of sqrt(t/2pi) (relative) and p = tau - N is exact
         once N is right, so p is within 3e tau; x = p - 1/2 and y = x^2
         add 2e.  On |x| <= 1/2, Cauchy's estimate on circles of radius
         1/2 inside |x| <= 1, where |Psi| < 271, gives |C0'| < 542
         and |C1'| < 110, so this moves the correction by less than
         2300 e tau^1/2.  |a_j| and |Psi'''| series terms are bounded by the
         same estimate (|a_j| < 271, sum_k k^3 2^-k = 26), so the Horner
         passes over PSI_TERMS coefficients, each a float within e, err by
         less than 81 e (362 + 60).  The tails the series drop,
         sum_{j>=40} 271 4^-j and their Psi''' counterpart over 96 pi^2,
         are below 1e-21 and 1e-15.  Together that is below
         6000 e (tau + 1).
       The allowance is 2^13 e per unit of each magnitude: over 260 times
       the first-order bound on the sum and 10 times the one on the
       correction.  That leaves room for the second-order terms and, in the
       sum, for a libm that errs by a few hundred ulps.  The bound is itself
       computed in floats, and its own rounding is far below that room.

    Where float rounding could put N = floor(tau) on the wrong integer (p
    within 4 e tau of 0 or 1) nothing is proved: the result is (0, inf).
    Raises ValueError for t < RS_MIN_T, where Gabcke's bound does not hold.
    """
    if not t >= RS_MIN_T:
        raise ValueError(f"z_rs needs t >= {RS_MIN_T}, got {t}")
    x = float(t)
    tau = math.sqrt(x / (2 * math.pi))
    n_terms = int(tau)
    p = tau - n_terms
    if min(p, 1 - p) <= 4 * EPS * tau:
        return 0.0, math.inf
    theta, stirling = _theta(x)
    total = 0.0
    for n in range(1, n_terms + 1):
        total += math.cos(theta - x * math.log(n)) / math.sqrt(n)
    c0, c1 = _c0_c1(p)
    correction = (c0 + c1 / tau) / math.sqrt(tau)
    value = 2 * total + (correction if n_terms % 2 else -correction)
    sum_scale = 4 * math.sqrt(n_terms)
    bound = (GABCKE_D1 * tau ** -2.5 + sum_scale * stirling
             + ROUNDING_ALLOWANCE * (sum_scale * x * math.log(x) + 8 * (tau + 1)))
    return value, bound


@lru_cache(maxsize=1)
def _clausen_floats() -> List[float]:
    """polynomials.clausen_coeffs(CLAUSEN_TERMS), the series of
    extremal._clausen, each the float nearest its exact rational."""
    return [float(c) for c in clausen_coeffs(CLAUSEN_TERMS)]


def _clausen_float(a: float) -> Tuple[float, float]:
    """(Cl_2(a), m(a)) for 0 < a <= pi/2 in floats, with
    Cl_2(a) = a - a log a + a^3 sum_k c_k a^(2k-2) and
    m(a) = a + a |log a| + a^3 sum_k c_k a^(2k-2), the magnitude h_float's
    bound scales with."""
    log_a = math.log(a)
    a2 = a * a
    series = a * a2 * horner(_clausen_floats(), a2)
    return a - a * log_a + series, a + a * abs(log_a) + series


def h_float(delta, gap: float) -> Tuple[float, float]:
    """(value, bound) with |h(delta) - value| <= bound, where

        h(delta) = [Cl_2(pi eta) - Cl_2(theta) + Cl_2(2 theta)/2]/pi,

    eta = gap delta/|log delta| and theta = pi (delta - eta): the h of
    extremal.g_and_h with gap = log 2 - eps.  The caller rounds gap to a
    float once, from its working precision; h is h at the gap it rounded.
    The value is the formula in floats, each Cl_2 summed over the first
    CLAUSEN_TERMS coefficients.  With M = [m(pi eta) + m(theta)
    + m(2 theta)/2]/pi (m as in _clausen_float, and m(a) >= Cl_2(a) > 0),
    the bound is (CLAUSEN_TAIL + ROUNDING_ALLOWANCE) M.

    For 0 < delta < 1/4 and 0 < gap < 1, |log delta| > log 4 > 4/3 puts eta
    below 3 delta/4, so theta > pi delta/4 and every argument a lies in
    (0, pi/2].  The bound adds up three things.

    1. The truncation.  Lewin's bound, as extremal._clausen states it: the
       terms after the K-th are below 4 x^(2K+2) Cl_2(a) with
       x = a/(2pi) <= 1/4, which is 2^-62 Cl_2(a) for K = CLAUSEN_TERMS.
    2. The evaluation, with e = EPS, to first order in e, taking +, -, *
       and / as correctly rounded and log as within one ulp (2e relative).
       Each c_k is the float nearest a rational.  The series term is at
       most a^3/70 <= a/28, so even the 60e of its 15-term Horner pass
       over positive terms is below 3e m(a).  a log a is within
       3e a |log a|, and the two additions add e m(a) each, so each Cl_2
       is within 8e m(a).  The combination and the division by pi, a float
       within e, add 4e M: the evaluation is within 12e M.
    3. The arguments.  float(delta) is within one ulp, 2e delta (exact for
       the dyadic delta extremal.find_c_eps reads), and the float gap is
       within e of the gap it rounds.  L = -log x is within 4e L (2e/L
       from x, 2e from log), so eta = gap x/L is within 9e eta and
       pi eta within 11e.  delta - eta > delta/4 magnifies the errors of
       x and eta at most four times, and with the subtraction's own
       rounding delta - eta is within 4 (2e + 9e 3/4) + e = 36e; pi and
       the product add 2e to theta and 2 theta.  Since
       |Cl_2'(a)| = |log(2 sin(a/2))| <= |log a| + 0.11 on (0, pi/2], an
       argument within r a moves Cl_2(a) by at most r m(a): together the
       arguments move h by at most 38e M.
    The allowance 2^-40 = 2^13 e per unit of M is over 150 times the 50e M
    of 2 and 3, which leaves room for the second-order terms and for a
    libm that errs by several ulps; the bound is itself computed in floats,
    and its own rounding is far below that room.  A sign the bound proves
    is the sign of an h at least 2^-41 M away from 0.

    Where nothing is proved the result is (0, inf): for delta outside
    (0, 1/4), gap outside (0, 1) and eta below H_MIN_ETA.  Above it x, eta
    and the arguments are normal floats with the errors above (a^2 may
    underflow, which moves Cl_2(a) by less than a 2^-1000).  Below it lie
    the deltas near or under the end of the float range, such as the
    2^-(prec+1) of find_c_eps' k search at prec >= 1074, where float(delta)
    is 0.
    """
    x = float(delta)
    if not (0 < x < 0.25 and 0 < gap < 1):
        return 0.0, math.inf
    eta = gap * x / -math.log(x)
    if eta < H_MIN_ETA:
        return 0.0, math.inf
    theta = math.pi * (x - eta)
    near, m_near = _clausen_float(math.pi * eta)
    far, m_far = _clausen_float(theta)
    far2, m_far2 = _clausen_float(2 * theta)
    value = (near - (far - far2 / 2)) / math.pi
    magnitude = (m_near + m_far + m_far2 / 2) / math.pi
    return value, (CLAUSEN_TAIL + ROUNDING_ALLOWANCE) * magnitude


def _head_sum_bound(s0: float, n: int) -> float:
    """An upper bound on sum_(j<n) j^-s0 for s0 > 0 and n >= 2, in O(1):
    1 + the integral of x^-s0 over [1, n - 1], ((n - 1)^(1-s0) - 1)/(1 - s0)
    or log(n - 1) at s0 = 1.  x^-s0 falls, so each term j^-s0, j >= 2, is
    at most its integral over [j - 1, j]."""
    log_m = math.log(n - 1)
    return 1 + (log_m if s0 == 1 else math.expm1((1 - s0) * log_m) / (1 - s0))


def _log_z_box(s0: float, s1: float, x0: float, x1: float) -> float:
    """An upper bound on log |Z(w)| for s = 1/2 + iw = sigma + ix in the box
    s0 <= sigma <= s1, x0 <= x <= x1, where 1/2 <= s0 and s = 1 is outside.
    See z_log_majorant for the two bounds it adds up."""
    x_hi = max(abs(x0), abs(x1))
    x_lo = 0.0 if x0 <= 0 <= x1 else min(abs(x0), abs(x1))
    s_hi, s_lo = math.hypot(s1, x_hi), math.hypot(s0, x_lo)
    log_s = math.log(s_hi)
    log_phase = (math.log(2) + LOG_2PI / 2 - s0 * (LOG_2PI + 1)
                 + max((s0 - 0.5) * log_s, (s1 - 0.5) * log_s)
                 + x_hi * math.atan2(s1, x_hi)
                 + math.log((1 + math.exp(-math.pi * x_lo)) / 2) + 1 / (6 * s_lo)) / 2
    pole = math.hypot(max(0.0, s0 - 1, 1 - s1), x_lo)
    corrections = len(STIRLING_BERNOULLI) - 1  # B_2, B_4, B_6; B_8 bounds the rest
    n = max(2, math.ceil((s_hi + 2 * corrections + 1) / math.pi))
    zeta = _head_sum_bound(s0, n) + n ** -s0 / 2 + n ** (1 - s0) / pole
    rising, factorial = s_hi, 2.0  # |s (s+1) .. (s+2j-2)| and (2j)!
    for j, bern in enumerate(STIRLING_BERNOULLI, start=1):
        term = abs(bern) / factorial * rising * n ** (1 - s0 - 2 * j)
        if j > corrections:
            term *= math.hypot(s1 + 2 * j - 1, x_hi) / (s0 + 2 * j - 1)
        zeta += term
        rising *= math.hypot(s1 + 2 * j - 1, x_hi) * math.hypot(s1 + 2 * j, x_hi)
        factorial *= (2 * j + 1) * (2 * j + 2)
    return log_phase + math.log(zeta)


def z_log_majorant(centre, radius) -> float:
    """An upper bound on log |Z(w)| over the circle |w - centre| = radius,
    for a real centre and 0 < radius < sqrt(centre^2 + 1/4).

    Z is analytic inside that radius: its singularities nearest the real
    line are at w = +-i/2, where zeta has its pole and theta its branch
    points.  Z is even and real on the real line, so |Z(-w)| = |Z(w)| and
    |Z(conj w)| = |Z(w)|; only the half-circle with Im w <= 0 about |centre|
    is bounded.  There s = 1/2 + iw = sigma + ix has sigma >= 1/2.

    1. The phase.  |e^{i theta(w)}|^2 = |Gamma(s/2)/Gamma((1-s)/2)| pi^(1/2-sigma),
       and the reflection and duplication formulas turn that into
       2 (2 pi)^-sigma |Gamma(s)| |cos(pi s/2)|.  Stirling's formula with
       Stieltjes' bound on its remainder (Olver, Asymptotics and Special
       Functions, 1974, ch. 8 sec. 4; |arg s| < pi/2 makes the secant
       factor at most 2) gives
       log |Gamma(s)| <= (sigma - 1/2) log|s| - x arg s - sigma
       + log(2 pi)/2 + 1/(6|s|), and |cos(pi s/2)| <= cosh(pi x/2).  With
       pi|x|/2 - |x| arg s = |x| atan2(sigma, |x|) no large terms cancel.
    2. zeta.  Euler-Maclaurin summation with n terms and the corrections
       B_2, B_4, B_6, whose remainder is at most |s + 7|/(sigma + 7) times
       the first omitted term, the one with B_8 (Edwards, Riemann's Zeta
       Function, 1974, sec. 6.4).  Every term is bounded by its modulus,
       with |j^-s| = j^-sigma, so no zeta is evaluated, and the head
       sum_(j<n) j^-sigma by 1 + the integral of x^-sigma over [1, n - 1]
       (_head_sum_bound), since j^-sigma falls: O(1) work where n reaches
       |s|/pi.  n > (|s| + 7)/pi keeps the corrections falling by 4 a step.

    The half-circle is cut into arcs, each inside a box in (sigma, x).  On a
    box every term is bounded at its worst corner: each is monotone in
    sigma and in |x| (|x| atan2(sigma, |x|) rises with both), except
    (sigma - 1/2) log|s|, bounded by (sigma - 1/2) log max|s| at an end of
    the sigma range.  The arcs are short enough (length at most gap/(2
    sqrt 2), gap the distance from the circle to s = 1) that every box
    stays gap/2 away from the pole.  The bound is computed in floats and
    raised by log 2, which covers their rounding many times over.
    """
    c, r = abs(float(centre)), float(radius)
    gap = math.hypot(c, 0.5) - r
    if not (r > 0 and gap > 0):
        raise ValueError(f"radius {radius} must lie in (0, {math.hypot(c, 0.5)})")
    arcs = 16 + math.ceil(2 * r) + math.ceil(9 * r / gap)
    best = -math.inf
    for i in range(arcs):
        a, b = math.pi * i / arcs, math.pi * (i + 1) / arcs
        y0, y1 = sorted((r * math.sin(a), r * math.sin(b)))
        if a <= math.pi / 2 <= b:
            y1 = r
        best = max(best, _log_z_box(0.5 + y0, 0.5 + y1,
                                    c + r * math.cos(b), c + r * math.cos(a)))
    return best + math.log(2)
