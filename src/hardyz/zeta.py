"""The zeta of the program, by Euler-Maclaurin summation in fixed point
(Edwards, Riemann's Zeta Function, 1974, 6.4): zeta(s) = sum_{n<N} n^-s
+ N^-s/2 + N^(1-s)/(s-1) + N^(1-s) sum_{k<=K} Q_k + R_K, with
Q_k = c_k s(s+1)..(s+2k-2)/N^2k and c_k = B_2k/(2k)!; at one point
s = 1/2 + it for z_eval (_zeta_em), and as a Taylor series about 1/2 + ic
for hardy's Taylor patches (_zeta_series, N and K from _em_size), each with
a proved bound.  Both read one Dirichlet table of n^-1/2-it
(_dirichlet_table) in Python ints: a prime costs a log and a cos_sin from
mpmath's libmp, a composite one product.  The rounding bounds assume, at
wp = bits + PHASE_GUARD_BITS and libmp's default rounding (towards zero),
that mpf_log(p) is within LOG_ULPS ulps of log p and mpf_cos_sin(x), x the
rounded t log p, gives cos x and sin x within COS_SIN_ULPS units of 2^-wp;
tests/test_zeta.py measures both against the same calls at 2 wp.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Dict, List, Tuple

from mpmath import libmp, mp, mpf

from .polynomials import bernoulli_numbers

EM_GUARD_BITS = 8  # _zeta_em rounds its fixed-point result once, 2^-8 of z_eval's rounding
EM_FIXED_BITS = 16  # _zeta_em's fraction bits above mp.prec: its sum rounds by about 14 N units
PHASE_GUARD_BITS = 20  # t log p for p^-s: keeps its rounding under a unit of 2^-bits to t = 10^4
LOG_ULPS = 2  # assumed error of libmp.mpf_log (module docstring)
COS_SIN_ULPS = 2  # assumed error of libmp.mpf_cos_sin (module docstring)


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
    complex product of the entries of p and m.  _zeta_em bounds the
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
    2^-bits of n^-s (derived in _zeta_em)."""
    phase = 2 * abs(float(t)) * math.log(N) * (LOG_ULPS + 1) + 2 * COS_SIN_ULPS
    a = 1 + phase / 2 ** PHASE_GUARD_BITS
    return (a + 3 + math.sqrt(2)) / (math.sqrt(2) - 1) + 1


def _log_table(N: int, bits: int) -> List[int]:
    """log n, n <= N, with `bits` fraction bits: _PRIMES' log p floored for
    a prime, log p + log m for a composite p m (index 0 unused).  Entry n
    is within log2(n) (1 + LOG_ULPS log N 2^(1-PHASE_GUARD_BITS)) units."""
    spf = _PRIMES.factors(N)
    logs = [0] * (N + 1)
    for n in range(2, N + 1):
        p = spf[n]
        logs[n] = (libmp.to_fixed(_PRIMES.constant(p, bits)[0], bits) if p == n
                   else logs[p] + logs[n // p])
    return logs


@functools.cache
def _bernoulli_ratios(count: int, bits: int) -> Tuple[int, ...]:
    """round(2^bits c_(k+1)/c_k) for k = 1..count, c_k = B_2k/(2k)!."""
    bern = bernoulli_numbers(2 * count + 2)
    return tuple(round(bern[2 * k + 2] / (bern[2 * k] * (2 * k + 1) * (2 * k + 2)) * 2 ** bits)
                 for k in range(1, count + 1))


def _zeta_em(t, prec: int) -> Tuple[object, mpf]:
    """(zeta(s), error bound), s = 1/2 + it, by the module's sum.

    prec is the caller's requested bits: N = max(ceil(|t|/2), prec/4, 10),
    and T_k = N^(1-s) Q_k are added up to the first below 2^-(prec+10), or
    up to K_cap = max(prec/2, 20).  The truncation bound is Edwards'
    |s+2K+1|/(2K+3/2) times the first omitted term, |T_K| = |Q_K| N^1/2
    standing in for it.  That needs
    |T_(K+1)| <= |T_K|: |c_(k+1)/c_k| < 1/(4 pi^2), so |Q_(k+1)/Q_k| <=
    ((1/2+2k)^2 + t^2)/(4 pi^2 N^2) < 0.99 for N >= 10, prec <= 4N + 3,
    |t| <= 2N and 2k <= 2 K_cap <= 4N + 2; in fixed point a step adds under
    3 units, and a term the loop steps from is at least 2^14 N^-1/2 units,
    so the computed terms fall too while N < 4 10^6.

    It is summed in Python ints with bits = mp.prec + EM_FIXED_BITS
    fraction bits (more if t needs them), mp.prec EM_GUARD_BITS above the
    ambient precision: the table's entries, N^(1-s) = N N^-s, and
    Q_(k+1) = Q_k (c_(k+1)/c_k) (s+2k-1)(s+2k)/N^2 with the ratios rounded
    to bits fraction bits, (s+2k-1)(s+2k) = (16k^2 - 1)/4 - t^2 + 4ikt.
    The rounding, in units of 2^-bits, as complex moduli: a floor of an
    exact integer product or quotient, under sqrt 2; a prime's entry, with
    the phase t log p within 2 |t| log N (LOG_ULPS + 1) 2^-wp, cos and sin
    within a = 1 + 2^-PHASE_GUARD_BITS (2 |t| log N (LOG_ULPS + 1)
    + 2 COS_SIN_ULPS) and the isqrt within 1, by P = a + 1 + sqrt 2; a
    composite n = p m, m >= p >= 2, by E_p |m^-s| + |p^-s| E_m + E_p E_m
    2^-bits plus a floor, |p^-s| = p^-1/2 < 1, so every entry is within
    B = (P + 2)/(sqrt 2 - 1) + 1 (about 14; _entry_units).  So the sum
    over n < N errs by (N - 2) B, N^-s/2 by B/2 and a floor, and
    N^(1-s)/(s-1) = N N^-s conj(s-1)/|s-1|^2 by N B/max(|t|, 1/2) and a
    floor.  Q_1 = s/(12 N^2) errs by sqrt 2; while the terms fall
    |Q_k| <= |Q_1| = q and |c_(k+1)/c_k| > 1/65, so Q_k errs by e k,
    e = max(2.5, 32.5 q + sqrt 2) = 2.5 as q < 1/58, their sum by
    e K(K+1)/2, and its product with N^(1-s) by e K(K+1) N^1/2/2
    + |sum Q_k| N B and a floor.  The conversion to an mpc adds
    2^(1-mp.prec) |zeta|.  The bound is the truncation plus these, in
    floats with B's unit of slack to spare.
    """
    with mp.extraprec(EM_GUARD_BITS):
        N = int(max(mp.ceil(abs(t) / 2), prec // 4, 10))
        bits = max(mp.prec + EM_FIXED_BITS, -t._mpf_[2])
        T = libmp.to_fixed(t._mpf_, bits)
        T2 = T * T
        half = 1 << (bits - 1)
        c = -half  # sigma - 1; conj(s-1) = c - iT
        d = c * c + T2  # |s-1|^2 2^(2 bits)
        re, im = _dirichlet_table(t, N, bits)
        zr = sum(re[1:N]) + (re[N] >> 1)
        zi = sum(im[1:N]) + (im[N] >> 1)
        xr, xi = N * re[N], N * im[N]  # N^(1-s)
        zr += ((xr * c + xi * T) << bits) // d
        zi += ((xi * c - xr * T) << bits) // d
        # correction terms N^(1-s) Q_k
        K_cap = max(prec // 2, 20)
        ratios = _bernoulli_ratios(K_cap, bits)
        N2 = N * N
        div = N2 << 3 * bits
        qr, qi = half // (12 * N2), T // (12 * N2)
        # |Q_k|^2 N < tol2: the term is below 2^-(prec+10)
        tol2 = 1 << 2 * (bits - prec - 10)
        sr = si = 0
        k = 1
        while k <= K_cap:
            mag2 = qr * qr + qi * qi
            sr, si = sr + qr, si + qi
            if mag2 * N < tol2:
                k += 1
                break
            # (s+2k-1)(s+2k), 2 bits fraction bits
            a = ((16 * k * k - 1) << 2 * bits - 2) - T2
            b = 4 * k * T << bits
            qr, qi = ((qr * a - qi * b) * ratios[k - 1] // div,
                      (qr * b + qi * a) * ratios[k - 1] // div)
            k += 1
        zr += (sr * xr - si * xi) >> bits
        zi += (sr * xi + si * xr) >> bits
        zeta = mp.mpc(mp.ldexp(zr, -bits), mp.ldexp(zi, -bits))
        term_mag = mp.ldexp(mp.sqrt(mag2 * N), -bits)
        truncation = abs(mp.mpc(0.5, t) + 2 * k - 1) / (2 * k - mp.mpf(0.5)) * term_mag

        tf, K, B = float(t), k - 1, _entry_units(t, N)
        step = max(2.5, 32.5 * math.hypot(0.5, tf) / (12 * N2) + math.sqrt(2))
        q_sum = float(mp.ldexp(mp.hypot(sr, si), -bits))
        units = ((N - 1.5 + N / max(abs(tf), 0.5) + q_sum * N) * B
                 + step / 2 * K * (K + 1) * math.sqrt(N) + 4)
        rounding = mp.ldexp(units, -bits) + mp.ldexp(abs(zeta), 1 - mp.prec)
        return +zeta, +(truncation + rounding)


@functools.cache
def _log_c(k: int) -> float:
    """log |c_k|, c_k = B_2k/(2k)!."""
    b = bernoulli_numbers(2 * k)[-1]
    return math.log(abs(b.numerator)) - math.log(b.denominator) - math.lgamma(2 * k + 1)


def _em_size(c: float, r: float, slope: float, log_target: float) -> Tuple[int, int, float]:
    """(N, K, log E): the fewest N >= (|c| + r)/2, then K, with e^(slope v)
    |R_K(s)| <= E <= e^log_target at every s = 1/2 + i(c + u + iv),
    |u + iv| = r.  Edwards' |R_K| <= |s+2K+1|/(sigma+2K+1) |T_(K+1)|, T_(K+1)
    = N^(1-s) c_(K+1) s(s+1)..(s+2K)/N^(2K+2), holds for sigma = 1/2 - v >
    -(2K+1), as 2K + 3/2 > r; each factor at its largest on the circle:
    |s + j| <= |1/2 + ic + j| + r, sigma + 2K + 1 >= 2K + 3/2 - r,
    e^(slope v) |N^(1-s)| <= N^1/2 e^(r |log N + slope|)."""
    def factor(j: int) -> float:  # log |s + j| at its largest on the circle
        return math.log(math.hypot(0.5 + j, c) + r)

    k_min = max(1, math.floor((r - 1.5) / 2) + 1)
    N = max(1, math.ceil((abs(c) + r) / 2))
    while True:
        log_n = math.log(N)
        # log of N^1/2 e^(r |log N + slope|) prod_(j<=2K) (|s0 + j| + r)/N^(2K+2)
        prod, last = 0.5 * log_n + r * abs(log_n + slope) + factor(0) - 2 * log_n, math.inf
        for K in range(1, 4 * N + math.ceil(r) + 8):
            prod += factor(2 * K - 1) + factor(2 * K) - 2 * log_n
            if K < k_min:
                continue
            bound = prod + _log_c(K + 1) + factor(2 * K + 1) - math.log(2 * K + 1.5 - r)
            if bound <= log_target:
                return N, K, bound
            if bound > last:
                break
            last = bound
        N += 1


def _zeta_series(c, d, J: int, N: int, K: int, bits: int) -> Tuple[List[int], List[int]]:
    """(re, im): the coefficients in y of the sum with N terms and K
    corrections at s = 1/2 + i(c + d y), j < J, with `bits` fraction bits;
    c and d > 0 are exact there and d < |s0 - 1|, s0 = 1/2 + ic.  J passes
    P_n <- floor(P_n (-i d log n)/j) over the table (log n from _log_table)
    give the sum's terms, and n = N's times N those of N^(1-s); 1/(s-1) is
    a geometric series, and the Q_k polynomials in y, each step one exact
    product with (u + idy)(u + 1 + idy), u = s0 + 2k - 1, times the rounded
    ratio; N^(1-s) (1/(s-1) + sum Q_k) is one product.
    _zeta_series_bound bounds the rounding.
    """
    one = 1 << bits
    half = one >> 1
    C, D = libmp.to_fixed(c._mpf_, bits), libmp.to_fixed(d._mpf_, bits)
    re, im = _dirichlet_table(c, N, bits)
    ells = [D * x >> bits for x in _log_table(N, bits)[1:]]
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
    N2 = N * N
    q_re, q_im = [half // (12 * N2), 0][:J], [C // (12 * N2), D // (12 * N2)][:J]
    for k in range(1, K + 1):
        g_re[:len(q_re)] = map(operator.add, g_re, q_re)
        g_im[:len(q_im)] = map(operator.add, g_im, q_im)
        if k == K:
            break
        u = (4 * k - 1) << (bits - 1)  # Re u = 2k - 1/2, Im u = c
        quad_re = [u * (u + one) - C * C, -2 * D * C, -D * D]
        quad_im = [C * (2 * u + one), D * (2 * u + one), 0]
        q_re, q_im = _product(q_re + [0, 0], q_im + [0, 0], quad_re, quad_im, bits,
                              min(len(q_re) + 2, J))
        ratio, div = _bernoulli_ratios(K, bits)[k - 1], N2 << 2 * bits
        q_re, q_im = [x * ratio // div for x in q_re], [x * ratio // div for x in q_im]
    c_re, c_im = _product(v_re, v_im, g_re, g_im, bits, J)
    return list(map(operator.add, z_re, c_re)), list(map(operator.add, z_im, c_im))


def _zeta_series_bound(c: float, d: float, J: int, N: int, K: int,
                       bits: int) -> Tuple[List[float], List[float]]:
    """(sizes, errors): bounds on |z_j| of the exact sum and on the
    rounding of _zeta_series(c, d, J, N, K, bits) in units of 2^-bits.
    Entries err by B = _entry_units(c, N), d log n by delta = d log2(N)
    (1 + LOG_ULPS log N 2^(1-PHASE_GUARD_BITS)) + 1, and with
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
    delta = d * math.log2(N) * (1 + LOG_ULPS * math.log(N) * 2.0 ** (1 - PHASE_GUARD_BITS)) + 1
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
    for k in range(1, K + 1):
        flat, e_sum = flat + norm, e_sum + e_q
        s_k = (math.hypot(2 * k - 0.5, c) * math.hypot(2 * k + 0.5, c)
               + d * math.hypot(4 * k, 2 * c) + d * d) / (N * N)
        rho = math.exp(_log_c(k + 1) - _log_c(k)) * (1 + 2.0 ** -40)
        e_q = ((rho + 2.0 ** -(bits + 1)) * e_q + norm / 2) * s_k + 2
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
