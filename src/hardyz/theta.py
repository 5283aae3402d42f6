"""Riemann-Siegel theta off the real line, from one Taylor series about a
real centre with a proved error bound: ThetaJet.

theta(w) = (log Gamma(1/4 + iw/2) - log Gamma(1/4 - iw/2))/2i - (w/2) log pi
is the analytic continuation of theta(t) = Im log Gamma(1/4 + it/2)
- (t/2) log pi, and it is analytic on every disc about a real centre c that
stays off the singularities w = +-i/2.  About c, with z0 = 1/4 + ic/2 and
L(u) = log Gamma(z0 + u) = sum_j L_j u^j, the series in h = w - c is

    theta(c + h) = sum_j Im(L_j (i/2)^j) h^j - (c + h)/2 log pi,

real coefficients, since log Gamma(1/4 - iw/2) is the conjugate series.
L_j comes from Stirling's series with Stieltjes' bound on its remainder
(Olver, Asymptotics and Special Functions, 1974, ch. 8, sec. 4; DLMF
5.11.ii), at z0 + m after m shifts log Gamma(z) = log Gamma(z + m)
- sum_(k<m) log(z + k), where |z| is too small for the sum to reach the
budget.
ThetaJet computes the coefficients in Python ints, with one bound on the
series over its disc; its docstring states it.  hardy's Taylor patches
take theta's series from it, and nothing of it calls mpmath's loggamma.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Tuple

from mpmath import libmp, mp

from .polynomials import bernoulli_numbers
from .precision import held

JET_GUARD_BITS = 16  # a jet's bits above its budget's: a few units a term stay far under its rounding share
CONSTANT_GUARD_BITS = 32  # a jet's mpmath constants are computed this far below a unit of 2^-F
MAX_SHIFTS = 512  # the shifts stop here, far past any disc the program asks for (31 near t = 0)


def _log_abs(x) -> float:
    """log |x| for a nonzero Fraction, exact ints and all."""
    return math.log(abs(x.numerator)) - math.log(x.denominator)


def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


class ThetaJet:
    """theta(centre + h) for complex |h| <= radius as the polynomial
    sum_(j<=J) t_j y^j with y = h/rho, rho = 2^scale twice the least power
    of two above the radius, so |y| <= lam = radius/rho < 1/2.  The t_j
    are kept in fixed point, Python ints with F = bits fraction bits
    (`coefficients`), and `error` bounds |theta(centre + h) - sum_j t_j
    2^-F y^j| for every such h; it is at most about half the budget it was
    sized for.

    With a = z0 + m and u = i rho y/2, s = u/(a y) = i rho/(2a) and
    s_k = i rho/(2(z0 + k)), the coefficients of log Gamma(z0 + u) in y are
    Lambda_0 and Lambda_1 (computed by mpmath) and, for j >= 2,

        Lambda_j = (-1)^j [(i rho/2) s^(j-1)/(j(j-1)) + s^j (1/(2j) + G_j)
                           + sum_(k<m) s_k^j/j],
        G_j = sum_(k=1..K) b_k C(2k-2+j, j),  b_k = beta_k a^(1-2k),
        beta_k = B_2k/(2k(2k-1)),

    from (z - 1/2) log z - z + 1/2 log 2pi + sum_k beta_k z^(1-2k) at
    z = a + u, log z = log a + log(1 + sy), (1 + sy)^(1-2k) = sum_j
    C(2k-2+j, j) (-sy)^j, and -log(1 + s_k y) for each shift.  Then
    t_j = Im Lambda_j, minus (c/2) log pi at j = 0 and (rho/2) log pi at
    j = 1.

    The bound has three parts, each sized to an eighth of the budget; it is
    their sum, doubled to cover the floats it is computed in:
    - Stieltjes' remainder after K terms, |B_(2K+2)| sec^(2K+2)(arg z/2)
      /((2K+2)(2K+1) |z|^(2K+1)) for |arg z| < pi, taken at the least |z|
      on the disc |z - a| <= radius/2 and the largest sec^2(arg z/2) =
      2|z|/(|z| + Re z) there, at most 2(|a| + radius/2)/(|a| + Re a
      - radius).  It bounds both log Gammas, so theta's error too.  m is the
      fewest shifts, and K the fewest terms, for which it fits; a larger m
      raises |z| and Re z.
    - The tails after J terms, with q = lam |s| = radius/(2|a|) and
      q_k = radius/(2|z0 + k|), both below 1 inside the disc: the log
      series' sum_(j>J) [(radius/2) q^(j-1)/(j(j-1)) + q^j/(2j)] and
      sum_(j>J) q_k^j/j, each geometric, and the binomial series'
      |b_k| sum_(j>J) C(2k-2+j, j) q^j, whose term ratios fall with j, so
      that it is at most its first term over 1 - (2k+J) q/(J+2).  J is the
      fewest for which they fit.
    - The rounding, in units of 2^-F.  Each constant (s, s_k, b_k,
      t_0, t_1) is computed by mpmath CONSTANT_GUARD_BITS below a unit of
      its fixed point and floored, and is taken within 2 units: this
      assumes mpmath's complex log, division and powers good to 2^30 ulps
      at that precision; the b_k carry E more fraction bits, so that their
      error, which the binomials multiply by up to (1 - q)^(1-2k), stays
      small.  The powers s^j = floor(s^(j-1) s) carry an error that each
      step bounds in floats from the last, |s| e_(j-1) + |s^(j-1)| e_s
      + sqrt 2, as do the s_k^j; G_j is exact given the b_k; and t_j is one
      floor of an exact rational in them, so it errs by the bound that the
      step carries plus 1.  That of s^j enters times |1/(2j) + G_j| lam^j,
      and sum_j |G_j| lam^j <= sum_k |b_k| (1 - lam)^(1-2k), which
      lam < 1/2 keeps moderate where K is large against |a|.  So the
      polynomial errs by sum_j e_j lam^j units, e_j the bound on t_j.
    """

    def __init__(self, centre, radius: float, budget: float):
        c = float(centre)
        reach = math.hypot(c, 0.5)
        if not 0 < radius < reach:
            raise ValueError(f"a theta jet about {c} needs 0 < radius < {reach}")
        self.scale = e = math.frexp(radius)[1] + 1  # radius < 2^(e-1)
        rho = math.ldexp(1, e)
        lam = radius / rho
        self.bits = F = math.ceil(-math.log2(budget)) + JET_GUARD_BITS
        log_part = math.log(budget / 8)
        half = radius / 2  # |u| on the disc
        m, K, log_rem = self._stirling_size(c, half, log_part)
        a_re, a_im = 0.25 + m, c / 2
        a_abs = math.hypot(a_re, a_im)
        q = radius / (2 * a_abs)
        q_shift = [radius / (2 * math.hypot(0.25 + k, a_im)) for k in range(m)]
        bern = bernoulli_numbers(2 * K)
        betas = [bern[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, K + 1)]
        log_b = [_log_abs(beta) + (1 - 2 * k) * math.log(a_abs)
                 for k, beta in enumerate(betas, 1)]
        J = self._terms(q, q_shift, log_b, half, log_part)
        # the b_k's rounding is multiplied by up to (1 - q)^(1-2k)
        E = max(0, math.ceil(math.log2(sum((1 - q) ** (1 - 2 * k) for k in range(1, K + 1)))) + 4)
        S, S_shift, B, t0, t1 = self._constants(centre, rho, m, betas, F, E)

        t = [t0, t1]
        errors = [2.0, 2.0]
        unit = 2.0 ** -F
        sh = e - 1  # rho/2 = 2^sh
        up, down = max(sh, 0), max(-sh, 0)
        half_unit = 1 << (F + E - 1)
        # s^j and each s_k^j as (re, im, error bound in units)
        power = (S[0], S[1], 2.0)
        shift_powers = [(sr, si, 2.0) for sr, si in S_shift]
        abs_s = math.hypot(*S) * unit + 2 * unit
        abs_shift = [math.hypot(sr, si) * unit + 2 * unit for sr, si in S_shift]

        def step(power, base, abs_base):
            pr, pi, err = power
            br, bi = base
            size = math.hypot(pr, pi) * unit
            return ((pr * br - pi * bi) >> F, (pr * bi + pi * br) >> F,
                    abs_base * err + size * 2 + math.sqrt(2))

        for j in range(2, J + 1):
            last, power = power, step(power, S, abs_s)
            pr, pi, p_err = power
            shift_powers = [step(power, base, abs_base) for power, base, abs_base
                            in zip(shift_powers, S_shift, abs_shift)]
            binomials = [math.comb(2 * k - 2 + j, j) for k in range(1, K + 1)]
            xr = half_unit // j + sum(b[0] * n for b, n in zip(B, binomials))
            xi = sum(b[1] * n for b, n in zip(B, binomials))
            x_err = (1 + 2 * sum(float(n) for n in binomials)) * 2.0 ** -E
            pairs = j * (j - 1)
            numerator = ((last[0] << (F + E + up))
                         + ((pairs * (pr * xi + pi * xr)) << down)
                         + (((j - 1) * sum(p[1] for p in shift_powers)) << (F + E + down)))
            t.append(((-1) ** j * numerator) // (pairs << (F + E + down)))
            x_size = math.hypot(xr, xi) * 2.0 ** -(F + E) + x_err * unit
            errors.append(2.0 ** sh * last[2] / pairs + x_size * p_err
                          + math.hypot(pr, pi) * unit * x_err
                          + sum(p[2] for p in shift_powers) / j + 1)
        self.coefficients: List[int] = t
        self.shifts = m
        rounding = sum(err * lam ** j for j, err in enumerate(errors)) * unit
        tails = math.exp(self._log_tails(J, q, q_shift, log_b, half))
        self.error = 2 * (math.exp(log_rem) + tails + rounding)

    @staticmethod
    def _stirling_size(c: float, half: float, log_part: float) -> Tuple[int, int, float]:
        """(m, K, log of the remainder bound): the fewest shifts m, and then
        the fewest Stirling terms K, whose remainder on |u| <= half is
        within e^log_part."""
        log_bern: List[float] = []  # log |B_(2K+2)|, K = 1, 2, ..
        for m in range(MAX_SHIFTS):
            a_re = 0.25 + m
            a_abs = math.hypot(a_re, c / 2)
            zmin, low = a_abs - half, a_abs - half + a_re - half
            if zmin <= 0 or low <= 0:
                continue
            log_sec2 = math.log(2 * (a_abs + half) / low)
            last = math.inf
            # the terms fall and then grow, as |B_(2K+2)| does like (2K+2)!
            for K in itertools.count(1):
                if len(log_bern) < K:
                    log_bern.append(_log_abs(bernoulli_numbers(2 * K + 2)[-1]))
                log_rem = (log_bern[K - 1] + (K + 1) * log_sec2
                           - math.log((2 * K + 2) * (2 * K + 1)) - (2 * K + 1) * math.log(zmin))
                if log_rem <= log_part:
                    return m, K, log_rem
                if log_rem >= last:
                    break
                last = log_rem
        raise ValueError("no Stirling sum reaches the theta budget")

    @staticmethod
    def _log_tails(J: int, q: float, q_shift: List[float], log_b: List[float],
                   half: float) -> float:
        """log of the tails after J terms (class docstring)."""
        terms = [math.log(half) + J * math.log(q) - math.log(J * (J + 1)) - math.log1p(-q),
                 (J + 1) * math.log(q) - math.log(2 * (J + 1)) - math.log1p(-q)]
        terms += [(J + 1) * math.log(qk) - math.log(J + 1) - math.log1p(-qk) for qk in q_shift]
        for k, lb in enumerate(log_b, 1):
            ratio = (2 * k + J) * q / (J + 2)
            if ratio >= 1:
                return math.inf
            terms.append(lb + _log_binomial(2 * k - 1 + J, J + 1) + (J + 1) * math.log(q)
                         - math.log1p(-ratio))
        top = max(terms)
        return top + math.log(sum(math.exp(x - top) for x in terms))

    @classmethod
    def _terms(cls, q, q_shift, log_b, half, log_part) -> int:
        """The fewest J >= 2 whose tails fit e^log_part: doubled, then
        bisected, since every tail falls with J."""
        def fits(J: int) -> bool:
            return cls._log_tails(J, q, q_shift, log_b, half) <= log_part

        low, high = 1, 2
        while not fits(high):
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if fits(mid) else (mid, high)
        return high

    @staticmethod
    def _constants(centre, rho: float, m: int, betas, F: int, E: int):
        """s, the s_k, the b_k (F + E fraction bits), t_0 and t_1 in fixed
        point, floored from mpmath at CONSTANT_GUARD_BITS below a unit."""
        c = held(centre)
        wp = (F + E + CONSTANT_GUARD_BITS + 2 * int(abs(c) + 1).bit_length()
              + max(0, c._mpf_[3] - F))

        def fixed(x, bits):
            return libmp.to_fixed(x.real._mpf_, bits), libmp.to_fixed(x.imag._mpf_, bits)

        with mp.workprec(wp):
            z0 = mp.mpc(mp.mpf(0.25), c / 2)
            a = z0 + m
            i_half_rho = mp.mpc(0, mp.mpf(rho) / 2)
            s = i_half_rho / a
            s_shift = [i_half_rho / (z0 + k) for k in range(m)]
            inverse_square, power = 1 / (a * a), 1 / a
            b = []
            for k, beta in enumerate(betas, 1):
                b.append(mp.mpf(beta.numerator) / beta.denominator * power)
                power *= inverse_square
            log_a = mp.log(a)
            log_pi = mp.log(mp.pi)
            lam0 = (a - 0.5) * log_a - a + mp.fsum(b) - mp.fsum(mp.log(z0 + k) for k in range(m))
            g1 = mp.fsum((2 * k - 1) * bk for k, bk in enumerate(b, 1))
            lam1 = i_half_rho * log_a - s * (0.5 + g1) - mp.fsum(s_shift)
            t0 = lam0.imag - c / 2 * log_pi
            t1 = lam1.imag - mp.mpf(rho) / 2 * log_pi
            return (fixed(s, F), [fixed(x, F) for x in s_shift],
                    [fixed(x, F + E) for x in b],
                    libmp.to_fixed(t0._mpf_, F), libmp.to_fixed(t1._mpf_, F))
