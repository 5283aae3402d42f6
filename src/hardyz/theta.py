"""Riemann-Siegel theta from Stirling's series with a proved bound, in
Python ints: theta and theta' at a real point (theta_point) and theta's
Taylor series about a real centre (ThetaJet), each from one evaluation of
the series there (StirlingSum).  theta(t) = Im log Gamma(1/4 + it/2)
- (t/2) log pi continues to (log Gamma(1/4 + iw/2) - log Gamma(1/4
- iw/2))/2i - (w/2) log pi, analytic off w = +-i/2.  Stieltjes bounds the
remainder (Olver, Asymptotics and Special Functions, 1974, ch. 8, sec. 4;
DLMF 5.11.ii) at z0 + m, z0 = 1/4 + ic/2, after m shifts log Gamma(z) =
log Gamma(z + m) - sum_(k<m) log(z + k).  StirlingSum takes libmp's errors
from precision.LIBMP_ULPS."""

from __future__ import annotations

import bisect
import functools
import math
from typing import List, Tuple

from mpmath import libmp

from .polynomials import bernoulli_numbers
from .precision import LIBMP_ULPS

JET_GUARD_BITS = 16  # a jet's bits above its budget's: a few units a term stay far under its rounding share
STIRLING_GUARD_BITS = 8  # StirlingSum's bits above those its outputs and its terms' sizes need
MAX_SHIFTS = 512  # the shifts stop here, far past any disc the program asks for (31 near t = 0)


def _fewest(fits, low: int, high: int) -> int:
    """The least n > low with fits(n), where fits is false below some n and
    true from it on: high doubled until it fits, then bisected."""
    while not fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid, high)
    return high


@functools.cache
def _beta(k: int) -> Tuple[float, int, int, float]:
    """(log |beta_k|, and beta_(k+1)/beta_k as numerator, denominator and
    modulus), beta_k = B_2k/(2k(2k-1)); log |beta_(K+1)| is Stieltjes'
    remainder's constant after K terms."""
    bern = bernoulli_numbers(2 * k + 2)
    ratio = bern[2 * k + 2] * (2 * k) * (2 * k - 1) / (bern[2 * k] * (2 * k + 2) * (2 * k + 1))
    return (math.log(abs(bern[2 * k].numerator)) - math.log(bern[2 * k].denominator * 2 * k * (2 * k - 1)),
            ratio.numerator, ratio.denominator, abs(float(ratio)))


_STEPS: List[float] = []  # log |beta_(K+2)/beta_(K+1)|, K = 1, 2, ..: they rise with K


@functools.cache
def _pi_and_log_pi(wp: int) -> Tuple[tuple, tuple]:
    pi = libmp.mpf_pi(wp)
    return pi, libmp.mpf_log(pi, wp)


def _stirling_size(c: float, half: float, log_part: float) -> Tuple[int, int, float]:
    """(m, K, log of the remainder bound): the fewest shifts m, then terms
    K, whose remainder on |u| <= half fits e^log_part, by ThetaJet's bound;
    at half = 0, a point, also half psi's, |B_(2K+2)| sec^(2K+3)(arg a/2)
    /((2K+2) |a|^(2K+2)) (DLMF 5.11.ii), theta''s.  A shift is skipped where
    sec^2 e^(-2 pi zmin/sec)/(2 pi^2 zmin), below every term by |B_2n| >=
    2 (2n)!/(2 pi)^2n and n! >= (n/e)^n, passes e^log_part.  The terms fall
    and then rise: the fewest that fit lie at or below the least."""
    for m in range(MAX_SHIFTS):
        a_abs = math.hypot(0.25 + m, c / 2)
        zmin, floor = a_abs - half, a_abs + 0.25 + m - 2 * half  # |z|, |z| + Re z at least
        if zmin <= 0 or floor <= 0:
            continue
        log_sec2, log_z = math.log(2 * (a_abs + half) / floor), math.log(zmin)
        if log_sec2 - math.log(2 * math.pi ** 2 * zmin) - 2 * math.pi * zmin * math.exp(-log_sec2 / 2) > log_part:
            continue

        def log_rem(K: int) -> float:
            rem = _beta(K + 1)[0] + (K + 1) * log_sec2 - (2 * K + 1) * log_z
            return rem + max(0.0, log_sec2 / 2 + math.log(K + 0.5) - log_z) if not half else rem

        level, low, high = 2 * log_z - log_sec2, 0, 1  # the terms fall while _STEPS < level
        while log_rem(high) > log_part:
            while len(_STEPS) < high:
                _STEPS.append(math.log(_beta(len(_STEPS) + 2)[3]))
            if _STEPS[high - 1] >= level:
                break
            low, high = high, 2 * high
        if log_rem(high) > log_part:  # the least term lies in (low, high]
            high = bisect.bisect_left(_STEPS, level, low, high) + 1
            if log_rem(high) > log_part:
                continue
        K = _fewest(lambda K: log_rem(K) <= log_part, low, high)
        return m, K, log_rem(K)
    raise ValueError("no Stirling sum reaches the theta budget")


class StirlingSum:
    """Stirling's series with K terms at a = z0 + m after m shifts, at a
    real mpf c, in ints with W >= bits + STIRLING_GUARD_BITS + the bits of
    |a| and 3 of K's fraction bits, c exact.  With b_k = beta_k a^(1-2k) and
    g_1 = sum_k (2k - 1) b_k, theta(c) and theta'(c) less the remainder,
    Im and Re/2 of (a - 1/2) log a - a + sum_k b_k - sum_(k<m) log(z0 + k)
    and of its derivative less the log pi terms, are

        theta = (m - 1/4) arg a + Im a (log|a| - 1) + sum_k Im b_k
                - sum_(k<m) arg(z0 + k) - (c/2) log pi,
        slope = (log|a| - Re((1/2 + g_1)/a) - sum_(k<m) Re 1/(z0 + k) - log pi)/2;

    error bounds the rounding of both in units of 2^-W.  A ThetaJet also
    takes 1/a (inverse), the 1/(z0 + k) (inverses) and the b_k (b, within
    b_errors units).  1/a, the 1/(z0 + k), b_1 = 1/(12 a) and a^-2 (at W +
    |a|'s bits) are floors of exact quotients, b_(k+1) = floor(b_k a^-2
    beta_(k+1)/beta_k), and libmp gives log|a|^2, log pi, pi, arg a and
    the arg of the shifts' product (cut to wp = W + STIRLING_GUARD_BITS
    bits a factor, moving it by <= 1.01 sqrt 2 2^(1-wp); its 2 pi wraps
    counted in floats) at wp.  A product errs by its factors' errors times
    the other's size, and a floor; the bounds are raised by 2^-40."""

    def __init__(self, centre, m: int, K: int, bits: int):
        sign, man, exp, _ = centre._mpf_
        c = float(centre)
        L = math.ceil(math.log2(math.hypot(m + 0.25, c / 2))) + 1  # |a| <= 2^(L-1)
        self.W = W = max(bits + STIRLING_GUARD_BITS + L + 3 * K.bit_length(), 1 - exp)
        W2, wp, unit, root2 = W + L, W + STIRLING_GUARD_BITS, 2.0 ** -W, math.sqrt(2)
        ar, ai = (4 * m + 1) << (W - 2), (-man if sign else man) << (exp + W - 1)
        norm = ar * ar + ai * ai
        self.inverse = v = ((ar << 2 * W) // norm, (-ai << 2 * W) // norm)
        factors = [(4 * k + 1) << (W - 2) for k in range(m)]
        self.inverses = [((f << 2 * W) // (n := f * f + ai * ai), (-ai << 2 * W) // n) for f in factors]
        v2r, v2i = ((ar * ar - ai * ai) << 2 * W + W2) // norm ** 2, (-2 * ar * ai << 2 * W + W2) // norm ** 2
        v2_size, spill = (math.hypot(v2r, v2i) + root2) * 2.0 ** -W2, root2 * 2.0 ** (W - W2)
        br, bi = (ar << 2 * W) // (12 * norm), (-ai << 2 * W) // (12 * norm)
        self.b, self.b_errors = [(br, bi)], [root2]
        # sum_k Im b_k, g_1 and their errors; size is the exact |b_k|
        b_im, g_re, g_im, e, e_b, e_g = bi, br, bi, root2, root2, root2
        size, shrink = 1 / (12 * math.hypot(m + 0.25, c / 2)), 1 / ((m + 0.25) ** 2 + c * c / 4)
        for k in range(1, K):
            _, num, den, ratio = _beta(k)
            e, size = ratio * (v2_size * e + size * spill) + root2, size * ratio * shrink
            br, bi = ((br * v2r - bi * v2i) * num >> W2) // den, ((br * v2i + bi * v2r) * num >> W2) // den
            self.b.append((br, bi))
            self.b_errors.append(e)
            b_im, g_re, g_im = b_im + bi, g_re + (2 * k + 1) * br, g_im + (2 * k + 1) * bi
            e_b, e_g = e_b + e, e_g + (2 * k + 1) * e

        def fixed(x, name, shift=0):  # x, libmp's `name` at wp, floored to W - shift bits, and its error
            return libmp.to_fixed(x, W - shift), LIBMP_ULPS[name] * 2.0 ** (x[2] + x[3] - wp + W - shift) + 1

        log_abs, e_log = fixed(libmp.mpf_log(libmp.from_man_exp(norm, -2 * W), wp), "mpf_log", 1)
        arg, e_arg = fixed(libmp.mpf_atan2(libmp.from_man_exp(ai, -W), libmp.from_man_exp(ar, -W), wp),
                           "mpf_atan2")
        (pi, e_pi), (log_pi, e_log_pi) = map(fixed, _pi_and_log_pi(wp), ("mpf_pi", "mpf_log"))
        e_log_pi += e_pi / 3  # pi's error through the log
        shifts, e_shifts, pr, pim = 0, 0.0, 1, 0
        if m:
            for f in factors:
                pr, pim = pr * f - pim * ai, pr * ai + pim * f
                cut = max(0, pr.bit_length() - wp, pim.bit_length() - wp)
                pr, pim = pr >> cut, pim >> cut
            product = libmp.mpf_atan2(libmp.from_int(pim), libmp.from_int(pr), wp)
            args = math.fsum(math.atan2(c / 2, k + 0.25) for k in range(m))
            wraps = round((args - libmp.to_float(product)) / (2 * math.pi))
            shifts, e_shifts = fixed(product, "mpf_atan2")
            shifts += 2 * wraps * pi
            e_shifts += 2 * abs(wraps) * e_pi + 1.01 * root2 * m * 2.0 ** (1 + W - wp)
        self.theta = ((4 * m - 1) * arg >> 2) + (ai * (log_abs - (1 << W) - log_pi) >> W) + b_im - shifts
        h_re = g_re + (1 << (W - 1))  # Re(1/2 + g_1)
        self.slope = (log_abs - (h_re * v[0] - g_im * v[1] >> W)
                      - sum(x[0] for x in self.inverses) - log_pi) >> 1
        self.error = max((m + 0.25) * e_arg + abs(c / 2) * (e_log + e_log_pi) + e_b + e_shifts + 2,
                         (e_log + math.hypot(h_re, g_im) * unit * root2 + math.hypot(*v) * unit * e_g
                          + m + e_log_pi + 1) / 2 + 1) * (1 + 2.0 ** -40)


def theta_point(t, bits: int) -> Tuple[int, int, float]:
    """(theta, slope, error): theta(t) and theta'(t), t a real mpf, as ints
    with `bits` fraction bits rounded from one StirlingSum sized for an
    eighth of 2^-bits; error bounds both, at most about 5/8 of 2^-bits."""
    m, K, log_rem = _stirling_size(float(t), 0.0, (-bits - 3) * math.log(2))
    total = StirlingSum(t, m, K, bits)
    cut, half = total.W - bits, 1 << (total.W - bits - 1)
    error = (total.error * 2.0 ** -cut + 0.5) * 2.0 ** -bits + math.exp(log_rem)
    return (total.theta + half) >> cut, (total.slope + half) >> cut, error * (1 + 2.0 ** -40)


class ThetaJet:
    """theta(centre + h) for complex |h| <= radius as the polynomial
    sum_(j<=J) t_j y^j with y = h/rho, rho = 2^scale twice the least power
    of two above the radius, so |y| <= lam = radius/rho < 1/2: the t_j as
    ints with F = bits fraction bits (`coefficients`), and `error`, at most
    about half the budget, bounding |theta(centre + h) - sum_j t_j 2^-F y^j|.

    With a = z0 + m, u = i rho y/2, s = i rho/(2a) and s_k = i rho/(2(z0
    + k)), the coefficients of log Gamma(z0 + u) in y are Lambda_0 and
    Lambda_1, theta(c) and rho theta'(c) of a StirlingSum at c once less
    the log pi terms, and, for j >= 2,

        Lambda_j = (-1)^j [(i rho/2) s^(j-1)/(j(j-1)) + s^j (1/(2j) + G_j)
                           + sum_(k<m) s_k^j/j],
        G_j = sum_(k=1..K) b_k C(2k-2+j, j),  b_k = beta_k a^(1-2k),
        beta_k = B_2k/(2k(2k-1)),

    from (z - 1/2) log z - z + sum_k beta_k z^(1-2k) at z = a + u, log z =
    log a + log(1 + sy), (1 + sy)^(1-2k) = sum_j C(2k-2+j, j) (-sy)^j, and
    -log(1 + s_k y) for each shift; t_j = Im Lambda_j.

    The bound has three parts, each sized to an eighth of the budget; it is
    their sum, doubled to cover the floats it is computed in:
    - Stieltjes' remainder after K terms, |B_(2K+2)| sec^(2K+2)(arg z/2)
      /((2K+2)(2K+1) |z|^(2K+1)) for |arg z| < pi, at the least |z| on the
      disc |z - a| <= radius/2 and the largest sec^2(arg z/2) = 2|z|/(|z|
      + Re z) there, at most 2(|a| + radius/2)/(|a| + Re a - radius); it
      bounds both log Gammas, and m and K are the fewest for which it fits.
    - The tails after J terms, with q = lam |s| = radius/(2|a|) and
      q_k = radius/(2|z0 + k|), both below 1 inside the disc: the log
      series' sum_(j>J) [(radius/2) q^(j-1)/(j(j-1)) + q^j/(2j)] and
      sum_(j>J) q_k^j/j, each geometric, and the binomial series'
      |b_k| sum_(j>J) C(2k-2+j, j) q^j, whose term ratios fall with j, so
      that it is at most its first term over 1 - (2k+J) q/(J+2).  J is the
      fewest for which they fit.
    - The rounding, in units of 2^-F.  s, the s_k, the b_k (E more
      fraction bits keep their error, which the binomials multiply by up to
      (1 - q)^(1-2k), small), t_0 and t_1 are the sum's values floored,
      each within its units scaled down plus a floor.  The powers s^j =
      floor(s^(j-1) s) carry an error that each step bounds in floats from
      the last, |s| e_(j-1) + |s^(j-1)| e_s + sqrt 2, as do the s_k^j; G_j
      is exact given the b_k; and t_j is one floor of an exact rational in
      them, so it errs by the bound that the step carries plus 1.  That of
      s^j enters times |1/(2j) + G_j| lam^j, and sum_j |G_j| lam^j <= sum_k
      |b_k| (1 - lam)^(1-2k), which lam < 1/2 keeps moderate.  So the
      polynomial errs by sum_j e_j lam^j units, e_j the bound on t_j.
    """

    def __init__(self, centre, radius: float, budget: float):
        c, reach = float(centre), math.hypot(float(centre), 0.5)
        if not 0 < radius < reach:
            raise ValueError(f"a theta jet about {c} needs 0 < radius < {reach}")
        self.scale = e = math.frexp(radius)[1] + 1  # radius < 2^(e-1)
        lam, half = radius / math.ldexp(1, e), radius / 2  # |u| <= half on the disc
        self.bits = F = math.ceil(-math.log2(budget)) + JET_GUARD_BITS
        log_part = math.log(budget / 8)  # each part's share
        m, K, log_rem = _stirling_size(c, half, log_part)
        a_abs = math.hypot(0.25 + m, c / 2)
        q = radius / (2 * a_abs)  # |s y| on the disc
        q_shift = [radius / (2 * math.hypot(0.25 + k, c / 2)) for k in range(m)]
        log_b = [_beta(k)[0] + (1 - 2 * k) * math.log(a_abs) for k in range(1, K + 1)]
        # the fewest J >= 2 whose tails fit: every tail falls with J
        J = _fewest(lambda J: self._log_tails(J, q, q_shift, log_b, half) <= log_part, 1, 2)
        # the b_k's rounding is multiplied by up to (1 - q)^(1-2k)
        E = max(0, math.ceil(math.log2(sum((1 - q) ** (1 - 2 * k) for k in range(1, K + 1)))) + 4)
        total = StirlingSum(centre, m, K, F + E + max(e, 0))
        cut, sh = total.W - F, e - 1  # to F bits from the sum's; rho/2 = 2^sh
        # s and the s_k, and their powers as (re, im, error bound in units)
        bases = [(-x[1] >> (cut - sh), x[0] >> (cut - sh)) for x in [total.inverse] + total.inverses]
        s_err = math.sqrt(2) * (2.0 ** (sh - cut) + 1)
        B = [(x[0] >> (cut - E), x[1] >> (cut - E)) for x in total.b]
        b_errors = [x * 2.0 ** (E - cut) + math.sqrt(2) for x in total.b_errors]
        t = [total.theta >> cut, total.slope >> (cut - e)]
        errors = [total.error * 2.0 ** -cut + 1, total.error * 2.0 ** (e - cut) + 1]
        unit, up, down, half_unit = 2.0 ** -F, max(sh, 0), max(-sh, 0), 1 << (F + E - 1)
        powers, sizes = [(*x, s_err) for x in bases], [(math.hypot(*x) + s_err) * unit for x in bases]

        def step(power, base, base_size):
            (pr, pi, err), (br, bi) = power, base
            return ((pr * br - pi * bi) >> F, (pr * bi + pi * br) >> F,
                    base_size * err + math.hypot(pr, pi) * unit * s_err + math.sqrt(2))

        for j in range(2, J + 1):
            last = powers[0]
            powers = [step(p, x, size) for p, x, size in zip(powers, bases, sizes)]
            (pr, pi, p_err), shift_powers = powers[0], powers[1:]
            binomials = [math.comb(2 * k - 2 + j, j) for k in range(1, K + 1)]
            xr = half_unit // j + sum(b[0] * n for b, n in zip(B, binomials))
            xi = sum(b[1] * n for b, n in zip(B, binomials))
            x_err = (1 + sum(err * n for err, n in zip(b_errors, binomials))) * 2.0 ** -E
            pairs = j * (j - 1)
            numerator = ((last[0] << (F + E + up))
                         + ((pairs * (pr * xi + pi * xr)) << down)
                         + (((j - 1) * sum(p[1] for p in shift_powers)) << (F + E + down)))
            t.append(((-1) ** j * numerator) // (pairs << (F + E + down)))
            x_size = math.hypot(xr, xi) * 2.0 ** -(F + E) + x_err * unit
            errors.append(2.0 ** sh * last[2] / pairs + x_size * p_err
                          + math.hypot(pr, pi) * unit * x_err
                          + sum(p[2] for p in shift_powers) / j + 1)
        self.coefficients, self.shifts = t, m
        rounding = sum(err * lam ** j for j, err in enumerate(errors)) * unit
        tails = math.exp(self._log_tails(J, q, q_shift, log_b, half))
        self.error = 2 * (math.exp(log_rem) + tails + rounding)

    @staticmethod
    def _log_tails(J: int, q: float, q_shift: List[float], log_b: List[float], half: float) -> float:
        """log of the tails after J terms (class docstring)."""
        terms = [math.log(half) + J * math.log(q) - math.log(J * (J + 1)) - math.log1p(-q),
                 (J + 1) * math.log(q) - math.log(2 * (J + 1)) - math.log1p(-q)]
        terms += [(J + 1) * math.log(qk) - math.log(J + 1) - math.log1p(-qk) for qk in q_shift]
        for k, lb in enumerate(log_b, 1):
            ratio = (2 * k + J) * q / (J + 2)
            if ratio >= 1:
                return math.inf
            terms.append(lb + math.lgamma(2 * k + J) - math.lgamma(J + 2) - math.lgamma(2 * k - 1)
                         + (J + 1) * math.log(q) - math.log1p(-ratio))
        top = max(terms)
        return top + math.log(sum(math.exp(x - top) for x in terms))

