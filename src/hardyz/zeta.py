"""The zeta of the program: zeta(s) for sigma >= 1/2, by one Euler-Maclaurin
sum in fixed point with a proved bound on its truncation and its rounding
(_zeta_em; Edwards, Riemann's Zeta Function, 1974, 6.4).  hardy reads it
for z_eval on the critical line and for every contour sample off it.

The sum's entries n^-s come from one Dirichlet table (_dirichlet_table) in
Python ints: a prime p costs a log, a cos_sin and, off the critical line,
an exp from mpmath's libmp, and a composite one product of two entries.
The rounding bound _zeta_em derives rests on three assumptions about those
calls, at wp = bits + PHASE_GUARD_BITS and libmp's default rounding
(towards zero):

- mpf_log(p) is within LOG_ULPS ulps of log p;
- mpf_cos_sin(x), x the rounded t log p, gives cos x and sin x each within
  COS_SIN_ULPS units of 2^-wp;
- mpf_exp(x), x the rounded -sigma log p, is within EXP_ULPS ulps of e^x.

tests/test_zeta.py measures all three, against the same call at 2 wp, on
every prime the table uses at three heights up to t = 10^4.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Tuple

from mpmath import libmp, mp, mpf

from .polynomials import bernoulli_numbers

EM_GUARD_BITS = 8  # _zeta_em rounds its fixed-point result once, 2^-8 of z_eval's rounding
EM_FIXED_BITS = 16  # _zeta_em's fraction bits above mp.prec: its sum rounds by about 14 N units
PHASE_GUARD_BITS = 20  # t log p for p^-s: keeps its rounding under a unit of 2^-bits to t = 10^4
LOG_ULPS = 2  # assumed error of libmp.mpf_log (module docstring)
COS_SIN_ULPS = 2  # assumed error of libmp.mpf_cos_sin (module docstring)
EXP_ULPS = 2  # assumed error of libmp.mpf_exp (module docstring)


class _PrimeTable:
    """What n^-s = n^-sigma e^(-it log n) needs that depends on neither
    sigma nor t: the smallest prime factor of each n, from one sieve that
    grows when a larger n is asked for, and per (p, bits) log p, rounded at
    bits + PHASE_GUARD_BITS, and floor(2^bits p^-1/2)."""

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


def _dirichlet_table(sigma, t, N: int, bits: int) -> Tuple[List[int], List[int]]:
    """(re, im): n^-s, s = sigma + it, sigma >= 1/2, for 1 <= n <= N in
    fixed point with `bits` fraction bits (index 0 unused).  A prime p costs
    one cos_sin of t log p at bits + PHASE_GUARD_BITS, times
    floor(2^bits p^-sigma): an isqrt at sigma = 1/2, elsewhere the exp of
    -sigma log p at bits + PHASE_GUARD_BITS; a composite n = p m, p its
    smallest prime factor, the floor of one complex product of the entries
    of p and m.  _zeta_em bounds the rounding."""
    spf = _PRIMES.factors(N)
    wp = bits + PHASE_GUARD_BITS
    tt = t._mpf_
    minus_sigma = None if sigma._mpf_ == libmp.fhalf else libmp.mpf_neg(sigma._mpf_)
    re, im = [0] * (N + 1), [0] * (N + 1)
    re[1] = 1 << bits
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            log_p, root = _PRIMES.constant(p, bits)
            if minus_sigma is not None:
                root = libmp.to_fixed(libmp.mpf_exp(libmp.mpf_mul(minus_sigma, log_p, wp), wp),
                                      bits)
            c, s = libmp.mpf_cos_sin(libmp.mpf_mul(tt, log_p, wp), wp)
            re[n] = libmp.to_fixed(c, bits) * root >> bits
            im[n] = -libmp.to_fixed(s, bits) * root >> bits
        else:
            ar, ai, br, bi = re[p], im[p], re[n // p], im[n // p]
            re[n] = (ar * br - ai * bi) >> bits
            im[n] = (ar * bi + ai * br) >> bits
    return re, im


def _entry_units(sigma, t, N: int) -> float:
    """B: every entry of _dirichlet_table(sigma, t, N, bits) is within B
    units of 2^-bits of n^-s (derived in _zeta_em)."""
    log_n = math.log(N)
    phase = 2 * abs(float(t)) * log_n * (LOG_ULPS + 1) + 2 * COS_SIN_ULPS
    a = 1 + phase / 2 ** PHASE_GUARD_BITS
    mu = 0.0 if sigma._mpf_ == libmp.fhalf else (
        (2 * float(sigma) * log_n * (LOG_ULPS + 1) + 2 * EXP_ULPS) / 2 ** PHASE_GUARD_BITS)
    return (a + mu + 3 + math.sqrt(2)) / (math.sqrt(2) - 1) + 1


@functools.cache
def _bernoulli_ratios(count: int, bits: int) -> Tuple[int, ...]:
    """round(2^bits c_(k+1)/c_k) for k = 1..count, c_k = B_2k/(2k)!."""
    bern = bernoulli_numbers(2 * count + 2)
    return tuple(round(bern[2 * k + 2] / (bern[2 * k] * (2 * k + 1) * (2 * k + 2)) * 2 ** bits)
                 for k in range(1, count + 1))


def _zeta_em(sigma, t, prec: int) -> Tuple[object, mpf]:
    """(zeta(s), error bound), s = sigma + it with sigma >= 1/2 and any real
    t other than s = 1, by Euler-Maclaurin summation (Edwards, Riemann's
    Zeta Function, 1974, 6.4):

        zeta(s) = sum_{n<N} n^-s + N^-s/2 + N^(1-s)/(s-1)
                  + N^(1-s) sum_{k<=K} Q_k + R_K,
        Q_k = c_k s(s+1)..(s+2k-2)/N^2k,  c_k = B_2k/(2k)!.

    prec is the caller's requested bits, which set the term counts:
    N = max(ceil(|t|/2), prec/4, 10, ceil((sigma + 2)/5.9)), so the
    correction terms decay by several bits each, and
    K <= K_cap = max(prec/2, 20).  Terms
    T_k = N^(1-s) Q_k are added up to and including the first below
    2^-(prec+10), or up to K_cap.  The truncation bound is Edwards'
    |s+2K+1|/(sigma+2K+1) multiple of the first omitted term T_(K+1), K the
    number of terms added, with |T_K| standing in for it;
    |T_k| = |Q_k| N^(1-sigma).

    That needs |T_(K+1)| <= |T_K|.  c_k = (-1)^(k+1) 2 zeta(2k)/(2 pi)^2k,
    so |c_(k+1)/c_k| < 1/(4 pi^2) and |Q_(k+1)/Q_k| <= ((sigma+2k)^2 + t^2)
    /(4 pi^2 N^2).  With N >= 10, prec <= 4N + 3 and |t| <= 2N, every k the
    loop reaches has 2k <= 2 K_cap <= 4N + 2, so for sigma <= 1.7 N that
    ratio is at most ((5.7 N + 2)^2 + 4 N^2)/(4 pi^2 N^2) < 0.99: the terms
    fall at every step, and the loop needs no test of their growth.  For
    sigma > 1.7 N it stops at k = 1: |T_1| <= (sigma + 2N)/(12 N^2)
    N^(1-sigma), which falls with sigma, is below (3.7/12) N^(-1.7 N)
    < 2^-(4N+13) <= 2^-(prec+10), since 1.7 N log2 N + 1.7 > 4N + 13 for
    N >= 10; there |T_2| <= |T_1| while sigma + 2 <= 2 sqrt(pi^2 - 1) N,
    about 5.96 N, which the last term of N's maximum ensures.  In fixed
    point a step adds under 3 units of 2^-bits (the 32.5 q + sqrt 2 below,
    with q < 0.04), while a term the loop steps from is above the
    tolerance, at least 2^14 N^(sigma-1) units; the ratio is below 0.6
    where sigma < 1, so the computed terms fall too while N < 4 10^6.

    All of it is summed in fixed point, Python ints with bits = mp.prec +
    EM_FIXED_BITS fraction bits (more if sigma or t needs them to be
    exact), mp.prec being EM_GUARD_BITS above the ambient precision.  The
    entries n^-s, n <= N, come from _dirichlet_table, and
    Q_(k+1) = Q_k (c_(k+1)/c_k) (s+2k-1)(s+2k)/N^2 from the ratios
    c_(k+1)/c_k rounded to bits fraction bits, with sigma = 1/2 + delta:
    (s+2k-1)(s+2k) = (16k^2 - 1)/4 + 4k delta + delta^2 - t^2
    + i t (4k + 2 delta).  N^(1-s) is N times the entry of N.  At
    sigma = 1/2, delta = 0, and every sum is the one of the critical line.

    The rounding, in units of 2^-bits, as complex moduli:
    - the floor of an exact integer product or quotient errs by less than
      1 a component, sqrt 2 in all;
    - a prime p: log p is within LOG_ULPS ulps and the cos_sin of
      the rounded t log p within COS_SIN_ULPS, at wp = bits +
      PHASE_GUARD_BITS.  The phase then errs by at most
      2 |t| log N (LOG_ULPS + 1) 2^-wp, and cos and sin, truncated to bits,
      by a = 1 + 2^-PHASE_GUARD_BITS (2 |t| log N (LOG_ULPS + 1)
      + 2 COS_SIN_ULPS).  At sigma = 1/2 the modulus floor(2^bits p^-1/2)
      is an exact isqrt and errs by less than 1.  Elsewhere it is the
      truncated exp of the rounded -sigma log p, the exp within
      EXP_ULPS ulps, and it errs by less than 1 + mu,
      mu = 2^-PHASE_GUARD_BITS (2 sigma log N (LOG_ULPS + 1) + 2 EXP_ULPS)
      (mu = 0 at sigma = 1/2).  So with p >= 2 the entry errs by at most
      P = a + 1 + mu + sqrt 2;
    - a composite n = p m with m >= p >= 2: the product of entries with
      errors E_p and E_m errs by E_p |m^-s| + |p^-s| E_m + E_p E_m 2^-bits,
      plus its floor.  |p^-s| = p^-sigma <= p^-1/2 < 1, so an error carried
      through n = p m shrinks, and every entry is within
      B = (P + 2)/(sqrt 2 - 1) + 1 (about 14) of n^-s: B exceeds
      P/sqrt 2 + B/sqrt 2 + sqrt 2 by more than the second-order term;
    - so the sum over n < N errs by at most (N - 2) B, N^-s/2 by B/2 plus a
      floor, and N^(1-s)/(s-1) = N N^-s conj(s-1)/|s-1|^2, in which sigma
      and t are exact, by N B/max(|t|, |sigma - 1|) plus a floor;
    - Q_1 = s/(12 N^2) errs by sqrt 2.  While the terms fall,
      |Q_k| <= |Q_1| = q, and |c_(k+1)/c_k| >= 1/(4 pi^2 zeta(2)) > 1/65,
      so the rounded ratio adds less than 32.5 q a step, and a step adds at
      most 32.5 q + sqrt 2 to the error it inherits: Q_k errs by e k,
      e = max(2.5, 32.5 q + sqrt 2), which is 2.5 on the critical line,
      where q < 1/58.  The sum of K of them errs by e K(K+1)/2, and its
      product with N^(1-s), |N^(1-s)| = N^(1-sigma), by
      e K(K+1) N^(1-sigma)/2 + |sum Q_k| N B plus a floor;
    - converting the result to an mpc rounds it once: 2^(1-mp.prec) |zeta|.
    The bound returned is the truncation bound plus these, which are
    computed in floats with B's unit of slack to spare.
    """
    with mp.extraprec(EM_GUARD_BITS):
        N = int(max(mp.ceil(abs(t) / 2), prec // 4, 10))
        if sigma + 2 > 5.9 * N:
            N = int(mp.ceil((sigma + 2) / 5.9))
        bits = max(mp.prec + EM_FIXED_BITS, -t._mpf_[2], -sigma._mpf_[2])
        T = libmp.to_fixed(t._mpf_, bits)
        T2 = T * T
        half = 1 << (bits - 1)
        S = libmp.to_fixed(sigma._mpf_, bits)
        D, c = S - half, S - 2 * half  # sigma - 1/2 and sigma - 1; conj(s-1) = c - iT
        d = c * c + T2  # |s-1|^2 2^(2 bits)
        if D < 0 or not d:
            raise ValueError("_zeta_em needs sigma >= 1/2 and s != 1")
        re, im = _dirichlet_table(sigma, t, N, bits)
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
        qr, qi = S // (12 * N2), T // (12 * N2)
        # |Q_k|^2 N < tol2: the term is below 2^-(prec+10); at sigma = 1/2,
        # D = 0, lift = 1 and the D terms below add 0
        lift = mp.mpf(N) ** (sigma - 0.5)  # N^(sigma-1/2) = N^1/2/|N^(1-s)|
        tol2 = int(lift * lift * (1 << 2 * (bits - prec - 10)))
        D2_T2, TD2 = D * D - T2, 2 * T * D
        sr = si = 0
        k = 1
        while k <= K_cap:
            mag2 = qr * qr + qi * qi
            sr, si = sr + qr, si + qi
            if mag2 * N < tol2:
                k += 1
                break
            # (s+2k-1)(s+2k), 2 bits fraction bits
            a = ((16 * k * k - 1) << 2 * bits - 2) + (4 * k * D << bits) + D2_T2
            b = (4 * k * T << bits) + TD2
            qr, qi = ((qr * a - qi * b) * ratios[k - 1] // div,
                      (qr * b + qi * a) * ratios[k - 1] // div)
            k += 1
        zr += (sr * xr - si * xi) >> bits
        zi += (sr * xi + si * xr) >> bits
        zeta = mp.mpc(mp.ldexp(zr, -bits), mp.ldexp(zi, -bits))
        term_mag = mp.ldexp(mp.sqrt(mag2 * N), -bits) / lift
        truncation = abs(mp.mpc(sigma, t) + 2 * k - 1) / (sigma + 2 * k - 1) * term_mag

        sf, tf, K, B = float(sigma), float(t), k - 1, _entry_units(sigma, t, N)
        step = max(2.5, 32.5 * math.hypot(sf, tf) / (12 * N2) + math.sqrt(2))
        q_sum = float(mp.ldexp(mp.hypot(sr, si), -bits))
        units = ((N - 1.5 + N / max(abs(tf), abs(sf - 1)) + q_sum * N) * B
                 + step / 2 * K * (K + 1) * math.sqrt(N) / float(lift) + 4)
        rounding = mp.ldexp(units, -bits) + mp.ldexp(abs(zeta), 1 - mp.prec)
        return +zeta, +(truncation + rounding)
