"""The zeta of the program, by Euler-Maclaurin summation in fixed point
(Edwards, Riemann's Zeta Function, 1974, 6.4): zeta(s) = sum_{n<N} n^-s
+ N^-s/2 + N^(1-s)/(s-1) + N^(1-s) sum_{k<=K} Q_k + R_K, with
Q_k = c_k s(s+1)..(s+2k-2)/N^2k and c_k = B_2k/(2k)!, as a Taylor series
about 1/2 + ic (_zeta_series, its rounding bounded by _zeta_series_bound
and N and K from _em_size).  Its one reader is module hardy: the Taylor
patches take the series, and the point reads its orders 0 and 1 at one
point of the critical line.  It reads one Dirichlet table of n^-1/2-it
(_dirichlet_table) in Python ints: a prime costs a log and a cos_sin from
mpmath's libmp at wp = bits + PHASE_GUARD_BITS, a composite one product.
The rounding bounds take libmp's errors from precision.LIBMP_ULPS.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, List, Tuple

from mpmath import libmp

from .polynomials import bernoulli_numbers
from .precision import LIBMP_ULPS

PHASE_GUARD_BITS = 20  # t log p for p^-s: keeps its rounding under a unit of 2^-bits to t = 10^4


class _PrimeTable:
    """What n^-1/2-it needs that does not depend on t: the smallest prime
    factor of each n, from one sieve that grows when a larger n is asked
    for, and per (p, bits) log p, rounded at bits + PHASE_GUARD_BITS, and
    floor(2^bits p^-1/2)."""

    def __init__(self):
        self.spf: List[int] = [0, 1]
        self.constants: Dict[Tuple[int, int], Tuple[tuple, int]] = {}

    def factors(self, n: int) -> List[int]:
        """spf[m] for m <= n, the smallest prime factor of m (spf[m] = m
        for a prime m)."""
        if n >= len(self.spf):
            size = max(n + 1, 2 * len(self.spf))
            spf = list(range(size))
            for p in range(2, math.isqrt(size - 1) + 1):
                if spf[p] == p:
                    for m in range(p * p, size, p):
                        if spf[m] == m:
                            spf[m] = p
            self.spf = spf
        return self.spf

    def constant(self, p: int, bits: int) -> Tuple[tuple, int]:
        """(log p as a raw mpf, floor(2^bits p^-1/2))."""
        key = (p, bits)
        if key not in self.constants:
            self.constants[key] = (libmp.mpf_log(libmp.from_int(p), bits + PHASE_GUARD_BITS),
                                   math.isqrt((1 << 2 * bits) // p))
        return self.constants[key]


_PRIMES = _PrimeTable()


def _dirichlet_table(t, N: int, bits: int) -> Tuple[List[int], List[int]]:
    """(re, im): n^-s, s = 1/2 + it, for 1 <= n <= N in fixed point with
    `bits` fraction bits (index 0 unused).  A prime p costs one cos_sin of
    t log p at bits + PHASE_GUARD_BITS, times the isqrt floor(2^bits p^-1/2);
    a composite n = p m, p its smallest prime factor, the floor of one
    complex product of the entries of p and m.  _entry_units bounds the
    rounding."""
    spf = _PRIMES.factors(N)
    wp = bits + PHASE_GUARD_BITS
    tt = t._mpf_
    re, im = [0] * (N + 1), [0] * (N + 1)
    re[1] = 1 << bits
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            log_p, root = _PRIMES.constant(p, bits)
            c, s = libmp.mpf_cos_sin(libmp.mpf_mul(tt, log_p, wp), wp)
            re[n] = libmp.to_fixed(c, bits) * root >> bits
            im[n] = -libmp.to_fixed(s, bits) * root >> bits
        else:
            ar, ai, br, bi = re[p], im[p], re[n // p], im[n // p]
            re[n] = (ar * br - ai * bi) >> bits
            im[n] = (ar * bi + ai * br) >> bits
    return re, im


def _entry_units(t, N: int) -> float:
    """B: every entry of _dirichlet_table(t, N, bits) is within B units of
    2^-bits of n^-s.

    The rounding, in units of 2^-bits, as complex moduli: a floor of an
    exact integer product or quotient, under sqrt 2; a prime's entry, with
    the phase t log p within 2 |t| log N (L + 1) 2^-wp, cos and sin
    within a = 1 + 2^-PHASE_GUARD_BITS (2 |t| log N (L + 1) + 2 C) and the
    isqrt within 1, by P = a + 1 + sqrt 2; a
    composite n = p m, m >= p >= 2, by E_p |m^-s| + |p^-s| E_m + E_p E_m
    2^-bits plus a floor, |p^-s| = p^-1/2 < 1, so every entry is within
    B = (P + 2)/(sqrt 2 - 1) + 1, about 14; L and C are the mpf_log and
    mpf_cos_sin entries of LIBMP_ULPS.
    """
    phase = 2 * abs(float(t)) * math.log(N) * (LIBMP_ULPS["mpf_log"] + 1) + 2 * LIBMP_ULPS["mpf_cos_sin"]
    a = 1 + phase / 2 ** PHASE_GUARD_BITS
    return (a + 3 + math.sqrt(2)) / (math.sqrt(2) - 1) + 1


def _log_table(N: int, bits: int) -> List[int]:
    """log n, n <= N, with `bits` fraction bits: _PRIMES' log p floored for
    a prime, log p + log m for a composite p m (index 0 unused).  Entry n
    is within log2(n) (1 + L log N 2^(1-PHASE_GUARD_BITS)) units, L the
    mpf_log entry of LIBMP_ULPS."""
    spf = _PRIMES.factors(N)
    logs = [0] * (N + 1)
    for n in range(2, N + 1):
        p = spf[n]
        logs[n] = (libmp.to_fixed(_PRIMES.constant(p, bits)[0], bits) if p == n
                   else logs[p] + logs[n // p])
    return logs


@functools.cache
def _bernoulli_ratio(k: int, bits: int) -> int:
    """round(2^bits c_(k+1)/c_k), c_k = B_2k/(2k)!."""
    bern = bernoulli_numbers(2 * k + 2)
    return round(bern[2 * k + 2] / (bern[2 * k] * (2 * k + 1) * (2 * k + 2)) * 2 ** bits)


@functools.cache
def _log_c(k: int) -> float:
    """log |c_k|, c_k = B_2k/(2k)!."""
    b = bernoulli_numbers(2 * k)[-1]
    return math.log(abs(b.numerator)) - math.log(b.denominator) - math.lgamma(2 * k + 1)


def _em_size(c: float, r: float, slope: float, log_target: float) -> Tuple[int, int, float]:
    """(N, K, log E): the fewest N >= max((|c| + r)/2, b/4), b =
    -log_target/log 2 the target's bits, then K, with e^(slope v)
    |R_K(s)| <= E <= e^log_target at every s = 1/2 + i(c + u + iv),
    |u + iv| = r (a point at r = 0).  Below b/4 the least N can need some
    pi N corrections, each a step of _zeta_series dearer than a table
    entry; from b/4 on K stays near b/8 at small |c|.  Edwards' |R_K| <= |s+2K+1|/(sigma+2K+1) |T_(K+1)|, T_(K+1)
    = N^(1-s) c_(K+1) s(s+1)..(s+2K)/N^(2K+2), holds for sigma = 1/2 - v >
    -(2K+1), as 2K + 3/2 > r; each factor at its largest on the circle:
    |s + j| <= |1/2 + ic + j| + r, sigma + 2K + 1 >= 2K + 3/2 - r,
    e^(slope v) |N^(1-s)| <= N^1/2 e^(r |log N + slope|)."""
    # log |s + j| at its largest on the circle, each computed once a call
    factors = [math.log(math.hypot(0.5, c) + r)]
    k_min = max(1, math.floor((r - 1.5) / 2) + 1)
    N = max(1, math.ceil((abs(c) + r) / 2), math.ceil(-log_target / (4 * math.log(2))))
    while True:
        log_n = math.log(N)
        # log of N^1/2 e^(r |log N + slope|) prod_(j<=2K) (|s0 + j| + r)/N^(2K+2)
        prod, last = 0.5 * log_n + r * abs(log_n + slope) + factors[0] - 2 * log_n, math.inf
        for K in range(1, 4 * N + math.ceil(r) + 8):
            if len(factors) <= 2 * K + 1:
                factors += [math.log(math.hypot(0.5 + j, c) + r)
                            for j in range(len(factors), 2 * K + 8)]
            prod += factors[2 * K - 1] + factors[2 * K] - 2 * log_n
            if K < k_min:
                continue
            bound = prod + _log_c(K + 1) + factors[2 * K + 1] - math.log(2 * K + 1.5 - r)
            if bound <= log_target:
                return N, K, bound
            if bound > last:
                break
            last = bound
        N += 1


def _zeta_series(c, d, J: int, N: int, K: int, bits: int) -> Tuple[List[int], List[int]]:
    """(re, im): the coefficients in y of the sum with N terms and K
    corrections at s = 1/2 + i(c + d y), j < J, with `bits` fraction bits;
    c and d are exact there, d < |s0 - 1|, s0 = 1/2 + ic, and d > 0, or
    d = 0 at J = 1 (zeta at s0 alone).  J passes P_n <- floor(P_n (-i d
    log n)/j) over the table (log n from _log_table) give the sum's terms,
    and n = N's times N those of N^(1-s); 1/(s-1) is a geometric series,
    and the Q_k polynomials in y, each step one exact product with
    (u + idy)(u + 1 + idy), u = s0 + 2k - 1, floored once, times the
    rounded ratio; N^(1-s) (1/(s-1) + sum Q_k) is one product.
    _zeta_series_bound bounds the rounding.
    """
    one = 1 << bits
    half = one >> 1
    C, D = libmp.to_fixed(c._mpf_, bits), libmp.to_fixed(d._mpf_, bits)
    re, im = _dirichlet_table(c, N, bits)
    ells = [D * x >> bits for x in _log_table(N, bits)[1:]] if J > 1 else []
    pr, pi = re[1:], im[1:]
    z_re, z_im, v_re, v_im = [], [], [], []
    for j in range(J):
        if j:
            pr, pi = ([(b * x >> bits) // j for b, x in zip(pi, ells)],
                      [(-a * x >> bits) // j for a, x in zip(pr, ells)])
        z_re.append(sum(pr) - pr[-1] + (pr[-1] >> 1))
        z_im.append(sum(pi) - pi[-1] + (pi[-1] >> 1))
        v_re.append(N * pr[-1])
        v_im.append(N * pi[-1])
    den = half * half + C * C  # |s0 - 1|^2, 2 bits
    wr, wi = -D * C, D * half  # -i d conj(s0 - 1), 2 bits
    g_re, g_im = [(-half << 2 * bits) // den], [(-C << 2 * bits) // den]
    for j in range(1, J):
        gr, gi = g_re[-1], g_im[-1]
        g_re.append((gr * wr - gi * wi) // den)
        g_im.append((gr * wi + gi * wr) // den)
    N2, C2, shift = N * N, C * C, 2 * bits
    b1r, b2r = -2 * D * C, -D * D
    q_re, q_im = [half // (12 * N2), 0][:J], [C // (12 * N2), D // (12 * N2)][:J]
    g_re[:len(q_re)] = map(operator.add, g_re, q_re)
    g_im[:len(q_im)] = map(operator.add, g_im, q_im)
    for k in range(1, K):
        # Q_(k+1) = Q_k (b0 + b1 y + b2 y^2) rho~_k/N^2, b2 = -D^2 real, each
        # coefficient floored after the product and after rho~_k/(N^2 2^(2 bits))
        u = (4 * k - 1) << (bits - 1)  # Re u = 2k - 1/2, Im u = c
        w = 2 * u + one
        b0r, b0i, b1i = u * (u + one) - C2, C * w, D * w
        ratio = _bernoulli_ratio(k, bits)
        ar, ai = [0, 0] + q_re + [0, 0], [0, 0] + q_im + [0, 0]
        q_re, q_im = [], []
        for j in range(min(len(ar) - 2, J)):
            x = ((ar[j + 2] * b0r + ar[j + 1] * b1r + ar[j] * b2r
                  - ai[j + 2] * b0i - ai[j + 1] * b1i >> bits) * ratio >> shift) // N2
            y = ((ar[j + 2] * b0i + ar[j + 1] * b1i + ai[j + 2] * b0r + ai[j + 1] * b1r
                  + ai[j] * b2r >> bits) * ratio >> shift) // N2
            q_re.append(x)
            q_im.append(y)
            g_re[j] += x
            g_im[j] += y
    c_re, c_im = _product(v_re, v_im, g_re, g_im, bits, J)
    return list(map(operator.add, z_re, c_re)), list(map(operator.add, z_im, c_im))


def _zeta_series_bound(c: float, d: float, J: int, N: int, K: int,
                       bits: int) -> Tuple[List[float], List[float]]:
    """(sizes, errors): bounds on |z_j| of the exact sum and on the
    rounding of _zeta_series(c, d, J, N, K, bits) in units of 2^-bits.
    Entries err by B = _entry_units(c, N), d log n by delta = d log2(N)
    (1 + L log N 2^(1-PHASE_GUARD_BITS)) + 1, L as in _log_table, and with
    X >= d log N pass j by E_j(n) <= X E_(j-1)(n)/j + delta n^-1/2
    X^(j-1)/j! + sqrt 2, E_0 = B, as |P_n^(j)| <= n^-1/2 X^j/j!; the sum
    takes sum n^-1/2 <= 2 sqrt N and sqrt 2 for a_N/2, N^(1-s) N E_j(N).
    1/(s-1)'s terms are
    q^j/|s0 - 1|, q = d/|s0 - 1|, within sqrt 2/(1 - q); Q_k's at most
    ||Q_k|| (sum of moduli), ||Q_(k+1)|| <= ||Q_k|| |rho_k| S_k, rho_k =
    c_(k+1)/c_k, S_k = (|u||u+1| + d|2u+1| + d^2)/N^2, and Q_(k+1) errs by
    (|rho~_k| e_k + ||Q_k||/2) S_k + 2 (two floors, the first far below a
    unit), rho~ rounded.  Products as _product_bound bounds them.
    """
    root2 = math.sqrt(2)
    X = d * math.log(N) * (1 + 2.0 ** -40)
    delta = d * math.log2(N) * (1 + LIBMP_ULPS["mpf_log"] * math.log(N) * 2.0 ** (1 - PHASE_GUARD_BITS)) + 1
    root_n, B = math.sqrt(N), _entry_units(c, N)
    term, total, last = 1.0, N * B, B  # X^j/j!, sum_n E_j(n), E_j(N)
    sizes, errors, v_sizes, v_errors = [], [], [], []
    for j in range(J):
        if j:
            power, term = term / j, term * X / j  # X^(j-1)/j!, X^j/j!
            total = X * total / j + 2 * delta * root_n * power + N * root2
            last = X * last / j + delta * power / root_n + root2
        sizes.append(2 * root_n * term)
        errors.append(total + root2)
        v_sizes.append(root_n * term)
        v_errors.append(N * last)
    pole = math.hypot(0.5, c)
    q = d / pole * (1 + 2.0 ** -40)
    norm, flat, e_q, e_sum = (pole + d) / (12 * N * N), 0.0, root2, 0.0
    half_unit, log_c = 2.0 ** -(bits + 1), _log_c(1)
    for k in range(1, K + 1):
        flat, e_sum = flat + norm, e_sum + e_q
        s_k = (math.hypot(2 * k - 0.5, c) * math.hypot(2 * k + 0.5, c)
               + d * math.hypot(4 * k, 2 * c) + d * d) / (N * N)
        log_c, last_log_c = _log_c(k + 1), log_c
        rho = math.exp(log_c - last_log_c) * (1 + 2.0 ** -40)
        e_q = ((rho + half_unit) * e_q + norm / 2) * s_k + 2
        norm *= rho * s_k
    c_sizes, c_errors = _product_bound(v_sizes, v_errors, [q ** j / pole + flat for j in range(J)],
                                       [root2 / (1 - q) + e_sum] * J, bits)
    return list(map(operator.add, sizes, c_sizes)), list(map(operator.add, errors, c_errors))


def _product(a_re, a_im, b_re, b_im, bits: int, size: int) -> Tuple[List[int], List[int]]:
    """The first `size` coefficients of the product of two complex series
    in fixed point, each floored once; b may be the shorter."""
    out_re, out_im = [], []
    for j in range(size):
        lo = max(0, j + 1 - len(b_re))
        ar, ai, br, bi = a_re[lo:j + 1], a_im[lo:j + 1], b_re[j - lo::-1], b_im[j - lo::-1]
        out_re.append(sum(map(operator.mul, ar, br)) - sum(map(operator.mul, ai, bi)) >> bits)
        out_im.append(sum(map(operator.mul, ar, bi)) + sum(map(operator.mul, ai, br)) >> bits)
    return out_re, out_im


def _product_bound(a_sizes, a_errors, b_sizes, b_errors,
                   bits: int) -> Tuple[List[float], List[float]]:
    """(sizes, errors) for a _product, from its factors' exact sizes and
    rounding bounds: coefficient j errs by sum_i (|a_i| e'_(j-i)
    + |b_(j-i)| e_i + e_i e'_(j-i) 2^-bits) + sqrt 2."""
    def convolve(x, y):
        return [sum(map(operator.mul, x[:j + 1], y[j::-1])) for j in range(len(x))]

    errors = [u + v + w * 2.0 ** -bits + math.sqrt(2) for u, v, w in zip(
        convolve(a_sizes, b_errors), convolve(b_sizes, a_errors), convolve(a_errors, b_errors))]
    return convolve(a_sizes, b_sizes), errors
