"""Hardy Z function engine: evaluation, derivatives, zeros, counting.

Z(t) = e^{i theta(t)} zeta(1/2 + it) is real for real t.  Every zeta the
program reads comes from one Euler-Maclaurin sum (_zeta_em), in fixed
point, with an explicit bound on its truncation and its rounding: z_eval's
on the critical line and the contour samples' off it.
find_zeros states how the zero finder reads Z and what it proves.
Derivatives come from the Taylor coefficients of the analytic continuation
of Z on a Cauchy circle: the half with Im w <= 0, where zeta sits at
sigma >= 1/2, is sampled with _zeta_em, and Schwarz reflection fills the
other.
_TaylorPatches is the one place that builds such circles and keeps their
series: z_derivatives_batch reads one patch at its centre, and
theorem1_explore reads every point of its window from seven.  Finite
differences of mpmath's Z^(4) cross-check the contour route.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import libmp, mp, mpf

from .enclose import RS_MIN_T, z_log_majorant, z_rs
from .polynomials import bernoulli_numbers, horner
from .precision import DEFAULT_PREC, digits_for, refine_sign_change, working_precision

MAX_DERIVATIVE_ORDER = 64
ZERO_HALF_WIDTH_BITS = 48
MAX_RESCANS = 4
THETA_GUARD_BITS = 16  # theta ~ t log t, and its absolute error is Z's relative error
EM_GUARD_BITS = 8  # _zeta_em rounds its fixed-point result once, 2^-8 of z_eval's rounding
EM_FIXED_BITS = 16  # _zeta_em's fraction bits above mp.prec: its sum rounds by about 14 N units
PHASE_GUARD_BITS = 20  # t log p for p^-s: keeps its rounding under a unit of 2^-bits to t = 10^4
LOG_ULPS = 2  # assumed error of libmp.mpf_log (see _zeta_em)
COS_SIN_ULPS = 2  # assumed error of libmp.mpf_cos_sin (see _zeta_em)
EXP_ULPS = 2  # assumed error of libmp.mpf_exp (see _zeta_em)
CONTOUR_RADIUS = 2  # Cauchy circles; z_derivatives_batch shrinks it to |t|/2 + 1/4 near 0
SAMPLE_ULPS = 16  # assumed error of a contour sample (see _TaylorPatches)
SIEGELZ_MAX_DERIVATIVE = 4  # mp.siegelz(t, derivative=k) takes k <= 4
FD_BITS_PER_ORDER = 12  # z_derivative_fd: a difference of order j loses bits with j
FD_GUARD_BITS = 24  # z_derivative_fd: bits above the working precision, on top of those


class CapacityError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class UnconfirmedSignChangeError(ArithmeticError):
    """z_eval could not confirm a zero's sign change, even with the bracket
    widened 256 times."""


class RejectedPointError(ValueError):
    """Z(T) indistinguishable from zero; the report would be meaningless."""


# ---------------------------------------------------------------------------
# theta


def theta(t, prec: int = DEFAULT_PREC) -> mpf:
    """Riemann-Siegel theta via the log-Gamma branch.

    theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi; exact for all real t.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        return mp.loggamma(mp.mpf(0.25) + 0.5j * tm).imag - tm / 2 * mp.log(mp.pi)


def theta_prime(t, prec: int = DEFAULT_PREC) -> mpf:
    """theta'(t) = Re psi(1/4 + it/2)/2 - log(pi)/2."""
    with working_precision(prec):
        tm = mp.mpf(t)
        return mp.digamma(mp.mpf(0.25) + 0.5j * tm).real / 2 - mp.log(mp.pi) / 2


def _theta_complex(w):
    """Analytic continuation of theta, real on the real axis."""
    wm = mp.mpc(w)
    lg = (mp.loggamma(mp.mpf(0.25) + 0.5j * wm)
          - mp.loggamma(mp.mpf(0.25) - 0.5j * wm)) / 2j
    return lg - wm / 2 * mp.log(mp.pi)


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


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
    N = max(ceil(|t|/2), prec/4, 10), so the correction terms decay by
    several bits each, and K <= max(prec/2, 20).  Terms T_k = N^(1-s) Q_k
    are added while |T_k| falls, up to and including the first below
    2^-(prec+10).  The truncation bound is Edwards' |s+2K+1|/(sigma+2K+1)
    multiple of the first omitted term T_(K+1), K the number of terms added,
    with |T_K| standing in for it when the sum stopped at the tolerance or at
    K's cap; |T_k| = |Q_k| N^(1-sigma).

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
    - a prime p: log p is assumed within LOG_ULPS ulps and the cos_sin of
      the rounded t log p within COS_SIN_ULPS, at wp = bits +
      PHASE_GUARD_BITS.  The phase then errs by at most
      2 |t| log N (LOG_ULPS + 1) 2^-wp, and cos and sin, truncated to bits,
      by a = 1 + 2^-PHASE_GUARD_BITS (2 |t| log N (LOG_ULPS + 1)
      + 2 COS_SIN_ULPS).  At sigma = 1/2 the modulus floor(2^bits p^-1/2)
      is an exact isqrt and errs by less than 1.  Elsewhere it is the
      truncated exp of the rounded -sigma log p, the exp assumed within
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
        prev = None
        k = 1
        while k <= K_cap:
            mag2 = qr * qr + qi * qi
            if prev is not None and mag2 > prev:
                break
            sr, si = sr + qr, si + qi
            if mag2 * N < tol2:
                k += 1
                break
            prev = mag2
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


# ---------------------------------------------------------------------------
# Z evaluation


def z_eval(t, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """(value, error estimate) for Z(t) = e^{i theta(t)} zeta(1/2 + it) by
    Euler-Maclaurin, the (value, bound) shape of enclose.z_rs.

    The error estimate is _zeta_em's bound at sigma = 1/2, its truncation
    plus the proved rounding of its fixed-point sums, plus the imaginary
    residue of the complex product; the contour samples (_z_complex) read
    the same sum off the line.  The tests check the value against z_rs's
    enclosure from t = 200 on and against mp.siegelz at every height.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 0:
            raise ValueError("t must be >= 0")
        zeta_val, zeta_err = _zeta_em(mp.mpf(0.5), tm, prec)
        phase = mp.e ** (1j * theta(tm, prec=prec + THETA_GUARD_BITS))
        zc = phase * zeta_val
        return zc.real, +(zeta_err + abs(zc.imag))


def _z_complex(w):
    """Analytic continuation Z(w) = e^{i theta(w)} zeta(1/2 + iw) at
    Im w <= 0, a contour sample: zeta from _zeta_em at sigma = 1/2 - Im w
    (rounded at the ambient precision) and t = Re w, with the ambient
    precision as its requested bits, and theta from the library loggamma.
    _zeta_em refuses Im w > 0, where sigma < 1/2 and _dirichlet_table's
    bound does not hold; the contours fill that half by reflection.  The
    pole of zeta sits at w = -i/2."""
    wm = mp.mpc(w)
    zeta_val, _ = _zeta_em(mp.mpf(0.5) - wm.imag, wm.real, mp.prec)
    return mp.e ** (1j * _theta_complex(wm)) * zeta_val


# ---------------------------------------------------------------------------
# derivatives


def _z_taylor(centre, radius, M: int, count: int, bits: int) -> List[mpf]:
    """[a_0, .., a_(count-1)], count <= M: Taylor coefficients of Z about the
    real point centre, from one circle of M points, all at the given bits.

    Only the M/2 + 1 points with Im w <= 0 are sampled, where zeta sits at
    sigma >= 1/2.  The Schwarz reflection Z(conj w) = conj Z(w) fills the
    other half: Z is real on the real axis, and theta's principal loggamma
    commutes with conjugation away from its cut.  a_n r^n is then the
    trapezoid sum (Re f_0 + (-1)^n Re f_{M/2} + 2 sum_{0<j<M/2} Re(f_j u^(nj)))/M
    over one table of M-th roots of unity u^j, with f_j = Z(centre + r u^-j).
    For every n < M that sum is a_n plus the aliases a_(n+jM) r^(jM), j >= 1.
    The sums run in fixed point with `bits` fraction bits: the integer
    products are exact, so each input is truncated once and each sum
    rounded once.
    """
    half = M // 2
    with mp.workprec(bits):
        r = mp.mpf(radius)
        roots = mp.unitroots(M)
        samples = [_z_complex(centre + r * mp.conj(roots[j])) for j in range(half + 1)]

        def fixed(xs):
            return [int(mp.ldexp(x, bits)) for x in xs]

        f_re, f_im = fixed(f.real for f in samples), fixed(f.imag for f in samples)
        u_re, u_im = fixed(u.real for u in roots), fixed(u.imag for u in roots)
        coeffs = []
        for n in range(count):
            acc = 2 * sum(f_re[j] * u_re[n * j % M] - f_im[j] * u_im[n * j % M]
                          for j in range(1, half))
            acc += (f_re[0] + (-1) ** n * f_re[half]) << bits
            coeffs.append(mp.ldexp(acc, -2 * bits) / (M * r ** n))
        return coeffs


def z_derivative_fd(t, k: int, prec: int = DEFAULT_PREC) -> mpf:
    """Cross-check path for the contour derivatives, sharing no code with
    them: mpmath's own Z^(k) for k <= 4 (mp.siegelz(t, derivative=k), which
    combines zeta's derivatives with theta's), and above that finite
    differences of order k - 4 of mpmath's Z^(4), at elevated precision."""
    if k < 0:
        raise ValueError("k must be >= 0")
    with working_precision(prec):
        top = min(k, SIEGELZ_MAX_DERIVATIVE)
        with mp.extraprec(FD_BITS_PER_ORDER * (k - top) + FD_GUARD_BITS):
            d = mp.diff(lambda u: mp.siegelz(u, derivative=top), mp.mpf(t), k - top)
        return +d


def z_derivatives_batch(t, orders: Sequence[int],
                        prec: int = DEFAULT_PREC) -> Dict[int, mpf]:
    """All requested derivative orders from a single contour about t: the
    centre read of one Taylor patch (_TaylorPatches over the width-0 window
    [t, t]) of radius min(CONTOUR_RADIUS, |t|/2 + 1/4), which keeps the
    circle inside the disc where Z is analytic: its nearest singularities
    are at w = +-i/2.  _TaylorPatches sizes M and the sample bits from its
    proved error bound, so near t = 0, where that disc is small, the circle
    gets more points, not fewer bits.
    """
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        return {}
    if orders[0] < 0:
        raise ValueError("orders must be >= 0")
    with working_precision(prec):
        tm = mp.mpf(t)
        radius = min(mp.mpf(CONTOUR_RADIUS), abs(tm) / 2 + mp.mpf(0.25))
        patch = _TaylorPatches(tm, tm, radius, orders, prec)
        return {k: patch.derivative(tm, k) for k in orders}


# ---------------------------------------------------------------------------
# zeros


@dataclass
class Zero:
    gamma: mpf
    half_width: mpf


@dataclass
class ZeroList:
    t_lo: mpf
    t_hi: mpf
    zeros: List[Zero]
    rescans: int
    suspected_missing: bool

    def __len__(self) -> int:
        return len(self.zeros)

    def serialize(self, prec: int = DEFAULT_PREC) -> Dict:
        """The zeros shape of both the JSON and the CSV output: each zero
        is its t to digits_for(prec) digits and a 6-digit half-width."""
        d = digits_for(prec)
        return {
            "t_lo": mp.nstr(self.t_lo, d),
            "t_hi": mp.nstr(self.t_hi, d),
            "count": len(self.zeros),
            "rescans": self.rescans,
            "suspected_missing": self.suspected_missing,
            "zeros": [{"t": mp.nstr(z.gamma, d),
                       "half_width": mp.nstr(z.half_width, 6)}
                      for z in self.zeros],
        }

    def to_csv(self, prec: int = DEFAULT_PREC) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "t", "bracket_half_width"])
        for i, z in enumerate(self.serialize(prec)["zeros"], start=1):
            w.writerow([i, z["t"], z["half_width"]])
        return buf.getvalue()


def _scan_step(t, prec: int) -> mpf:
    """pi/(4 theta'(max(t, 20))): theta' is small or negative below ~18, and
    rises from theta'(20) = 0.579."""
    return mp.pi / (4 * theta_prime(max(mp.mpf(t), mp.mpf(20)), prec=prec))


def expected_zero_count(t_lo, t_hi, prec: int = DEFAULT_PREC) -> mpf:
    """(theta(t_hi) - theta(t_lo))/pi, the smooth count of zeros in the
    interval (off by the bounded fluctuation term)."""
    with working_precision(prec):
        lo = max(mp.mpf(t_lo), mp.mpf(0))
        return (theta(t_hi, prec=prec) - theta(lo, prec=prec)) / mp.pi


def _certified_sign_change(t, w, prec: int) -> bool:
    """Euler-Maclaurin Z has opposite signs at t - w and t + w, and each
    value exceeds its own error estimate."""
    za, ea = z_eval(t - w, prec=prec)
    zb, eb = z_eval(t + w, prec=prec)
    return (za > 0) != (zb > 0) and abs(za) > ea and abs(zb) > eb


def find_zeros(t_lo, t_hi, prec: int = DEFAULT_PREC) -> ZeroList:
    """All sign-change zeros of Z in (t_lo, t_hi], each the midpoint of a
    bracket of half-width <= 2^-48 refined by Illinois regula falsi.

    Scans a finite window at step pi/(4 theta'); the count is cross-checked
    against the smooth theta-based estimate and the scan is repeated at half
    step (up to MAX_RESCANS times) when a missed close pair is suspected.
    The scan and the refinement read Z by one rule at every height: from
    t = 200 on, enclose.z_rs's value wherever it exceeds z_rs's bound, which
    proves Z's sign there; everywhere else z_eval's value.  The scan's
    values seed the refinement.
    What is proved about a zero is the Euler-Maclaurin sign check that
    follows: z_eval has opposite signs at gamma - 2^-46 and gamma + 2^-46
    (or, after one retry, at gamma +- 2^-38), each value larger than its
    error estimate.  The signs at the ends of the 2^-48 bracket come from
    z_rs, which proves them, or from a z_eval value whose estimate is not
    compared.
    """
    with working_precision(prec):
        lo = mp.mpf(t_lo)
        hi = mp.mpf(t_hi)
        if not (hi > lo >= 0 and mp.isfinite(hi)):
            raise ValueError("need finite t_hi > t_lo >= 0")

        def z_sign(t):
            """Z(t) by find_zeros' rule."""
            if t >= RS_MIN_T:
                value, bound = z_rs(t)
                if abs(value) > bound:
                    return mp.mpf(value)
            return z_eval(t, prec=prec)[0]

        expected = expected_zero_count(lo, hi, prec=prec)
        rescans = 0
        step_scale = mp.mpf(1)
        while True:
            brackets = []
            u = lo
            fu = z_sign(u) if u > 0 else None
            while u < hi:
                v = min(u + _scan_step(u, prec) * step_scale, hi)
                fv = z_sign(v)
                if fu is not None and fu != 0 and (fu > 0) != (fv > 0):
                    brackets.append((u, v, fu, fv))
                u, fu = v, fv
            # the smooth estimate can be off by the fluctuation term, so only
            # a deficit of 2 or more triggers a rescan
            if expected - len(brackets) < 2 or rescans >= MAX_RESCANS:
                break
            rescans += 1
            step_scale /= 2
        zeros = []
        for (a, b, fa, fb) in brackets:
            zlo, zhi = refine_sign_change(z_sign, a, b, fa, fb,
                                          mp.mpf(2) ** (-ZERO_HALF_WIDTH_BITS))
            zeros.append(Zero(gamma=(zlo + zhi) / 2, half_width=(zhi - zlo) / 2))
        w = mp.mpf(2) ** (-ZERO_HALF_WIDTH_BITS + 2)
        for z in zeros:
            # widen once; a second failure means the sign change is not proved
            if not (_certified_sign_change(z.gamma, w, prec)
                    or _certified_sign_change(z.gamma, w * 256, prec)):
                raise UnconfirmedSignChangeError(
                    f"could not certify sign change at t = {mp.nstr(z.gamma, 20)}")
        return ZeroList(t_lo=lo, t_hi=hi, zeros=zeros, rescans=rescans,
                        suspected_missing=bool(expected - len(zeros) >= 2))


# ---------------------------------------------------------------------------
# counting statistics


@dataclass
class CountStats:
    t: mpf
    n_counted: int
    n_main: mpf
    s_estimate: mpf


def n_main(t, prec: int = DEFAULT_PREC) -> mpf:
    """Smooth zero-count main term t/2pi log(t/2pi e), without the constant
    7/8 (which is folded into the fluctuation estimate)."""
    with working_precision(prec):
        tm = mp.mpf(t)
        return tm / (2 * mp.pi) * mp.log(tm / (2 * mp.pi * mp.e))


def count_stats(t, zero_list: ZeroList, prec: int = DEFAULT_PREC) -> CountStats:
    """Counted-minus-main realization of the fluctuation term at height t,
    counting the zeros of zero_list (a scan of (0, t]).

    The fluctuation estimate is N_counted - N_main - 7/8; equal to S(t) up
    to the integer consistency the count check enforces.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 10:
            raise ValueError("count_stats requires t >= 10")
        main = n_main(tm, prec=prec)
        return CountStats(t=tm, n_counted=len(zero_list), n_main=main,
                          s_estimate=len(zero_list) - main - mp.mpf(7) / 8)


# ---------------------------------------------------------------------------
# derivative-maximum exploration


@dataclass
class ExploreRow:
    k: int
    max_abs_deriv: mpf
    t_at_max: mpf
    bound: mpf
    margin: mpf
    witness: bool


@dataclass
class ExploreReport:
    T: mpf
    C: mpf
    m_theorem: int
    m_used: int
    z_at_T: mpf
    grid_points: int
    witness_k: Optional[int]
    rows: List[ExploreRow]
    contours: int
    series_error: mpf
    exploratory_note: str = field(
        default="desk-scale T cannot validate an asymptotic statement; "
        "margins are raw data", init=False)


def _log_add(*logs: float) -> float:
    """log(sum e^x) for the given logs."""
    top = max(logs)
    if top in (-math.inf, math.inf):
        return top
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


class _TaylorPatches:
    """Z^(k) on [lo, hi] from truncated Taylor series of Z, one contour
    each; the only code that builds a contour.

    count = ceil((hi - lo)/r) patches (at least one) of width
    (hi - lo)/count <= r tile the interval, and a point is read by Horner
    from the series about its nearest centre, at most d = width/2 away.
    Every circle has the given radius r, the same number M of points and
    the same sample bits, and each series keeps a_n for n < N = M - 1, or
    for n <= kmax on a width-0 window, which is read only at its centre.

    The error of a read is bounded from A, an upper bound on |Z| over the
    circles of a larger radius R about the centres (enclose.z_log_majorant;
    R < sqrt(c^2 + 1/4), the distance to the singularities +-i/2), through
    Cauchy's estimate |a_n| <= A R^-n.  The M-point sum returns a_n plus
    sum_{j>=1} a_(n+jM) r^(jM) (Trefethen and Weideman, SIAM Review 56,
    2014), so for Z^(k) at distance <= d from a centre, with q = r/R:
    - aliasing is at most A q^M/(1 - q^M) k! R/(R - d)^(k+1);
    - truncation is at most A R^-k sum_{n>=N} n!/(n-k)! (d/R)^(n-k),
      bounded by its first term over 1 - rho, rho the ratio of its first
      two terms (the ratios fall with n); it is 0 at width 0;
    - rounding: each sample is assumed within
      SAMPLE_ULPS (1 + W log(2 + W)) 2^-bits m of Z at its exact point, W the
      largest |w| sampled and m = z_log_majorant's bound on the r-circles.
      Zeta comes from _zeta_em with a proved bound, which times
      |e^(i theta)| the tests check stays inside that allowance on
      explore's circles; mpmath guarantees nothing for loggamma.  W log W
      is the size of theta(w), whose ulps become Z's relative error, and
      measured errors stay below 1.4 such units.  The fixed-point sums add
      2 (m + 2) 2^-bits a sample, and a sample error delta moves Z^(k) by
      at most delta k! r/(r - d)^(k+1).  Forming the coefficients, the
      Horner pass and rounding h = u - centre add (3N + 6) 2^-bits S, and
      rounding the read to the working precision 2^-mp.prec S, with
      S = max sum_n |a_n| n!/(n-k)! d^(n-k) over the patches.
    series_error is the largest sum of the three over the orders, doubled,
    which covers the second-order rounding terms and the floats the bound is
    computed in.

    M, N and the bits come from one budget: 2^-prec times the largest
    |Z^(k)| read at the centres over the orders, taken as 1 until the
    circles are sampled.  M is the smallest even M whose aliasing and
    truncation take at most a quarter of it at every order, with R the
    radius that allows the smallest M (tried at r (R_max/r)^(j/16),
    j = 1..15, about the centre farthest from 0, R_max the reach above);
    the bits are the fewest whose rounding, with
    S <= (m + 1) k! r/(r - d)^(k+1), takes at most an eighth.  If
    series_error then exceeds the budget the reads set (where the largest
    read is below 1; it counts as at least 2^-prec), the circles are sized
    for that budget and sampled once more.
    """

    def __init__(self, lo, hi, radius, orders: Sequence[int], prec: int):
        kmax = max(orders)
        if kmax > MAX_DERIVATIVE_ORDER:
            raise CapacityError(f"order {kmax} exceeds {MAX_DERIVATIVE_ORDER}")
        self.lo = lo
        r = mp.mpf(radius)
        self.count = max(1, int(mp.ceil((hi - lo) / r)))
        self.width = (hi - lo) / self.count
        self.centres = [lo + (i + mp.mpf(0.5)) * self.width for i in range(self.count)]
        self.series: List[Dict[int, List[mpf]]] = []  # per patch and order
        self._orders = sorted(orders)
        self._r, self._d = float(r), float(self.width) / 2
        self._centres = [float(c) for c in self.centres]
        self._far = max(abs(c) for c in self._centres)
        self._reach = min(math.hypot(c, 0.5) for c in self._centres)
        self._m = math.exp(max(z_log_majorant(c, self._r) for c in self._centres))
        w = self._far + self._r
        self._ulps = SAMPLE_ULPS * (1 + w * math.log(2 + w))
        self._majorants: Dict[float, float] = {}
        unit = prec * math.log(2)
        log_budget = -unit  # 2^-prec times a largest |Z^(k)| of 1, until one is read
        self.M = self.bits = 0
        for _ in range(2):
            M, bits, R = self._size(log_budget)
            if M > self.M or bits > self.bits:
                self.M, self.bits = max(M, self.M), max(bits, self.bits)
                self._sample(r)
            log_error = self._log_error(R)
            read = max(abs(patch[k][0]) for patch in self.series for k in orders)
            log_budget = max(float(mp.log(read)) if read else -unit, -unit) - unit
            if log_error <= log_budget:
                break
        self.series_error = mp.exp(log_error)

    def _sample(self, r) -> None:
        """Sample every circle at the current M and bits and keep the series."""
        N = self._terms(self.M)
        self.series = []
        for c in self.centres:
            a = _z_taylor(c, r, self.M, N, self.bits)
            with mp.workprec(self.bits):
                self.series.append({k: [a[n] * math.perm(n, k) for n in range(k, N)]
                                    for k in self._orders})

    def _terms(self, M: int) -> int:
        return M - 1 if self.width else self._orders[-1] + 1

    def _majorant(self, R: float) -> float:
        """log A: z_log_majorant's bound at radius R, the largest over the
        centres."""
        if R not in self._majorants:
            self._majorants[R] = max(z_log_majorant(c, R) for c in self._centres)
        return self._majorants[R]

    def _log_series(self, k: int, M: int, R: float, log_a: float) -> float:
        """log of the aliasing plus truncation bound on Z^(k)."""
        q, N = self._r / R, self._terms(M)
        alias = (log_a + M * math.log(q) - math.log1p(-q ** M) + math.lgamma(k + 1)
                 + math.log(R) - (k + 1) * math.log(R - self._d))
        trunc = -math.inf
        if self._d:
            x = self._d / R
            rho = x * (N + 1) / (N + 1 - k)
            trunc = math.inf if rho >= 1 else (
                log_a - k * math.log(R) + math.lgamma(N + 1) - math.lgamma(N + 1 - k)
                + (N - k) * math.log(x) - math.log1p(-rho))
        return _log_add(alias, trunc)

    def _log_gain(self, k: int) -> float:
        """log of k! r/(r - d)^(k+1), which turns a sample error into one of
        Z^(k)."""
        return math.lgamma(k + 1) + math.log(self._r) - (k + 1) * math.log(self._r - self._d)

    def _size(self, log_budget: float) -> Tuple[int, int, float]:
        """(M, bits, R) for the error budget e^log_budget on every Z^(k)."""
        best, worse = None, 0
        for j in range(1, 16):
            R = self._r * (self._reach / self._r) ** (j / 16)
            M = self._points(log_budget, R, z_log_majorant(self._far, R))
            if best is None or M < best[0]:
                best, worse = (M, R), 0
            else:
                worse += 1
                if worse == 2:
                    break
        R = best[1]
        M = self._points(log_budget, R, self._majorant(R))
        N = self._terms(M)
        log_unit = math.log((self._ulps + 3 * N + 8) * (self._m + 2))
        bits = max(math.ceil((self._log_gain(k) + log_unit + 3 * math.log(2)
                              - log_budget) / math.log(2)) for k in self._orders)
        return M, bits, R

    def _points(self, log_budget: float, R: float, log_a: float) -> int:
        """The smallest even M > kmax + 1 whose aliasing and truncation take a
        quarter of the budget."""
        kmax = self._orders[-1]
        M = kmax + 2 + kmax % 2
        while any(self._log_series(k, M, R, log_a) > log_budget - 2 * math.log(2)
                  for k in self._orders):
            M += 2
        return M

    def _log_error(self, R: float) -> float:
        """log of series_error for the circles as sampled."""
        N = self._terms(self.M)
        log_a = self._majorant(R)
        m = self._m
        log_delta = math.log(self._ulps * m + 2 * (m + 2)) - self.bits * math.log(2)
        log_arithmetic = math.log(3 * N + 6) - self.bits * math.log(2)
        log_output = -mp.prec * math.log(2)
        d = self.width / 2
        worst = -math.inf
        for k in self._orders:
            size = max(mp.fsum(abs(b) * d ** n for n, b in enumerate(patch[k]))
                       for patch in self.series)
            log_size = float(mp.log(size)) if size else -math.inf
            worst = max(worst, _log_add(self._log_series(k, self.M, R, log_a),
                                        log_delta + self._log_gain(k),
                                        log_arithmetic + log_size,
                                        log_output + log_size))
        return worst + math.log(2)

    def derivative(self, u, k: int) -> mpf:
        """Z^(k)(u) from the nearest patch, rounded to the ambient precision."""
        i = min(int((u - self.lo) / self.width), self.count - 1) if self.width else 0
        with mp.workprec(self.bits):
            v = horner(self.series[i][k], u - self.centres[i])
        return +v


def theorem1_explore(T, C, m_cap: int = 16, prec: int = DEFAULT_PREC) -> ExploreReport:
    """Grid maxima of |Z^(k)| over [T-2pi, T+2pi] against the shrinking-factor
    bound, for k in {1, 3, ..., 2m-1, 2m}.

    m = min(floor(C log T loglog T), m_cap); the grid step is
    pi/(8 theta'(T)) with local refinement around each running maximum.  A
    witness is any k whose grid maximum meets its bound.  Every value is
    read from Taylor patches: contours = ceil(4 pi/CONTOUR_RADIUS) = 7
    circles of M/2 + 1 zeta samples each (16 at 64 bits for T in [55, 65]),
    instead of one full circle per point.  series_error is the patches'
    proved bound on the error of every value read, from truncation,
    aliasing and rounding (see _TaylorPatches).  Explicitly exploratory
    output.
    """
    with working_precision(prec):
        Tm = mp.mpf(T)
        Cm = mp.mpf(C)
        if Tm < 30:
            raise ValueError("explore requires T >= 30 (loglog scale)")
        if m_cap < 1:
            raise ValueError("m_cap must be >= 1")
        z_T, z_T_error = z_eval(Tm, prec=prec)
        if abs(z_T) <= 4 * z_T_error:
            raise RejectedPointError("Z(T) indistinguishable from zero")
        m_theorem = int(mp.floor(Cm * mp.log(Tm) * mp.log(mp.log(Tm))))
        m_used = max(1, min(m_theorem, m_cap))
        orders = list(range(1, 2 * m_used, 2)) + [2 * m_used]
        step = mp.pi / (8 * theta_prime(Tm, prec=prec))  # theta'(30) = 0.78
        grid = []
        u = Tm - 2 * mp.pi
        while u <= Tm + 2 * mp.pi:
            grid.append(u)
            u += step
        patches = _TaylorPatches(Tm - 2 * mp.pi, Tm + 2 * mp.pi, CONTOUR_RADIUS,
                                 orders, prec)
        maxima: Dict[int, Tuple[mpf, mpf]] = {k: (mp.mpf(-1), Tm) for k in orders}
        for u in grid:
            for k in orders:
                v = abs(patches.derivative(u, k))
                if v > maxima[k][0]:
                    maxima[k] = (v, u)
        # one refinement pass: re-sample at half step around each maximum
        for k in orders:
            _, t0 = maxima[k]
            for du in (-step / 2, step / 2):
                u = t0 + du
                if Tm - 2 * mp.pi <= u <= Tm + 2 * mp.pi:
                    v = abs(patches.derivative(u, k))
                    if v > maxima[k][0]:
                        maxima[k] = (v, u)
        # T >= 30, so log log T > 1 and the factor lies in (0, 1)
        shrink = 1 - mp.log(mp.log(mp.log(Tm))) / mp.log(mp.log(Tm))
        log_scale = mp.log(mp.sqrt(Tm / (2 * mp.pi)))
        rows = []
        witness_k = None
        for k in orders:
            mx, t_at = maxima[k]
            bound = (shrink * log_scale) ** k * abs(z_T)
            witness = bool(mx >= bound)
            if witness and witness_k is None:
                witness_k = k
            rows.append(ExploreRow(k=k, max_abs_deriv=mx, t_at_max=t_at,
                                   bound=bound, margin=mx - bound,
                                   witness=witness))
        return ExploreReport(T=Tm, C=Cm, m_theorem=m_theorem, m_used=m_used,
                             z_at_T=z_T, grid_points=len(grid),
                             witness_k=witness_k, rows=rows,
                             contours=patches.count,
                             series_error=patches.series_error)
