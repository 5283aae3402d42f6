"""Exact integer/rational sequence machinery.

Covers the arcsin-power coefficient table b_{k,l}, its normalized limits
d_{k,l} (partial sums of the multiple zeta value zeta({2}_{k-1})), the
positivity chain f/g/e for the composed Bernoulli expansion, and the
binomial tail weights behind the certificate's integral_bound.  Their sum at
n = 10, the constant C*, is a float partial sum with a derived rounding
allowance plus a tail bound proved by AM-GM and an integral comparison, so
C* is an upper bound, not an estimate.  tail_weight_sum sums the same terms
in mpf at any precision: it is the route the tests check C* against.

f_{m,l} and g_{m,l} are kept symbolic as polynomials in pi^2 with rational
coefficients (class PiSquarePoly); signs are decided by one high-precision
evaluation at comparison time, never by float pipelines.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, exp, factorial, fsum, log
from typing import Dict, List, Tuple

from mpmath import iv, mp, mpf
from mpmath.libmp import from_float, mpf_add, round_ceiling

from .enclose import ROUNDING_ALLOWANCE
from .polynomials import bernoulli_poly_exact
from .precision import DEFAULT_PREC, interval_precision, working_precision

TAIL_WEIGHT_MIN_N = 10
TAIL_WEIGHT_DEFAULT_LMAX = 5000


def b_table(K: int, L: int) -> Dict[Tuple[int, int], int]:
    """Integers b_{k,l} of the arcsin-power expansion, keyed by (k, l).

    b_{0,0} = 1, b_{k,0} = b_{0,l} = 0 for k,l >= 1, and
    b_{k+1,l+1} = b_{k,l} + l^2 b_{k+1,l}.
    """
    if K < 0 or L < 0:
        raise ValueError("K and L must be >= 0")
    b: Dict[Tuple[int, int], int] = {}
    for k in range(K + 1):
        for l in range(L + 1):
            if k == 0 and l == 0:
                b[k, l] = 1
            elif k == 0 or l == 0:
                b[k, l] = 0
            else:
                b[k, l] = b[k - 1, l - 1] + (l - 1) ** 2 * b[k, l - 1]
    return b


def d_limit_check(k: int, L: int, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf, mpf]:
    """(d_{k,L}, limit, gap) with d_{k,l} = b_{k,l}/((l-1)!)^2.

    The limit as l -> infinity is pi^(2k-2)/(2k-1)!, the multiple zeta value
    zeta({2}_{k-1}).
    """
    if k < 1 or L < k:
        raise ValueError("need k >= 1 and L >= k")
    d_exact = d_value(k, L)
    with working_precision(prec):
        d = mp.mpf(d_exact.numerator) / d_exact.denominator
        limit = mp.pi ** (2 * k - 2) / mp.factorial(2 * k - 1)
        return d, limit, abs(d - limit)


def d_value(k: int, l: int) -> Fraction:
    """Exact d_{k,l} = b_{k,l}/((l-1)!)^2 for l >= 1."""
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    return Fraction(b_table(k, l)[k, l], factorial(l - 1) ** 2)


class PiSquarePoly:
    """Exact Laurent polynomial in pi^2 with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Fraction] | None = None):
        self.coeffs = {e: Fraction(c) for e, c in (coeffs or {}).items() if c != 0}

    def scale(self, r: Fraction) -> "PiSquarePoly":
        return PiSquarePoly({e: c * r for e, c in self.coeffs.items()})

    def shift(self, de: int) -> "PiSquarePoly":
        """Multiply by (pi^2)^de."""
        return PiSquarePoly({e + de: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PiSquarePoly) and self.coeffs == other.coeffs

    def evaluate(self, prec: int = DEFAULT_PREC) -> mpf:
        with working_precision(prec):
            pi2 = mp.pi ** 2
            total = mp.mpf(0)
            for e, c in self.coeffs.items():
                total += mp.mpf(c.numerator) / c.denominator * pi2 ** e
            return total

    def __repr__(self):
        return f"PiSquarePoly({self.coeffs!r})"


def f_poly(m: int, l: int) -> PiSquarePoly:
    """f_{m,l} as an exact polynomial in pi^2.

    f_{m,l} = (-1)^(m+1) sum_{k=0}^m (2 pi)^(2m-2k)/(2m-2k)! B_{2m-2k}(1/2) b_{k,l}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    b = b_table(m, l)
    sign = Fraction((-1) ** (m + 1))
    coeffs: Dict[int, Fraction] = {}
    for k in range(m + 1):
        bv = b[k, l]
        if bv == 0:
            continue
        j = 2 * m - 2 * k
        r = sign * Fraction(2 ** j, factorial(j)) * bernoulli_poly_exact(j, Fraction(1, 2)) * bv
        if r != 0:
            coeffs[m - k] = coeffs.get(m - k, Fraction(0)) + r
    return PiSquarePoly(coeffs)


def g_poly(m: int, l: int) -> PiSquarePoly:
    """g_{m,l} = f_{m,l}/((l-1)!)^2 for l >= 1, exact in pi^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return f_poly(m, l).scale(Fraction(1, factorial(l - 1) ** 2))


def e_coefficients(m: int, L: int) -> List[PiSquarePoly]:
    """Taylor coefficients e_{m,l}, l = 0..L, of the composed expansion
    (-1)^(m+1) B_2m(1/2 + Arcsin(x)/pi) = sum_l e_{m,l} x^(2l).

    Each e_{m,l} = (2m)! 2^(2l) / ((2l)! (2 pi)^(2m)) f_{m,l} is returned as
    an exact Laurent polynomial in pi^2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = []
    for l in range(L + 1):
        fp = f_poly(m, l)
        r = Fraction(factorial(2 * m) * 2 ** (2 * l), factorial(2 * l) * 2 ** (2 * m))
        out.append(fp.scale(r).shift(-m))
    return out


def g_closed_form_sum(m: int) -> Fraction:
    """Exact rational sum sum_{j=0}^{2m+1} 2^j/(j!(2m+1-j)!) B_j(1/2).

    Equals 2^(2m+1)/(2m+1)! B_{2m+1}(1) = 0; the limit of g_{m+1,l}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = Fraction(0)
    for j in range(2 * m + 2):
        total += Fraction(2 ** j, factorial(j) * factorial(2 * m + 1 - j)) \
            * bernoulli_poly_exact(j, Fraction(1, 2))
    return total


def tail_weight(n: int, l: int, prec: int = DEFAULT_PREC) -> mpf:
    """Weight (2n/(2n+l))^(2n log n - 1) * binom(4n+l-1, l).

    The exponent uses the natural logarithm at full working precision; the
    n >= 10 regime is where the uniform summability argument applies.
    """
    if n < TAIL_WEIGHT_MIN_N:
        raise ValueError(f"tail_weight requires n >= {TAIL_WEIGHT_MIN_N}")
    if l < 0:
        raise ValueError("l must be >= 0")
    with working_precision(prec):
        expo = 2 * n * mp.log(n) - 1
        ratio = mp.mpf(2 * n) / (2 * n + l)
        return ratio ** expo * comb(4 * n + l - 1, l)


def tail_weight_sum(n: int, L: int, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """(partial sum through l = L, proved upper bound on the terms after L).

    Binomials are updated incrementally.  For the tail, AM-GM on
    binom(4n-1+l, l) = prod_{j=1}^{4n-1} (l+j) / (4n-1)! gives
    binom <= (l+2n)^(4n-1) / (4n-1)!, so term l is at most K (l+2n)^-(s+1)
    with e = 2n log n - 1, K = (2n)^e / (4n-1)! and s = e - 4n (about 5.05
    at n = 10).  That bound decreases in l, so the terms after L sum to at
    most K times its integral from L to infinity, K (L+2n)^-s / s.  It is
    evaluated in mpmath.iv at the working precision and its upper end
    returned.
    """
    if n < TAIL_WEIGHT_MIN_N:
        raise ValueError(f"tail_weight_sum requires n >= {TAIL_WEIGHT_MIN_N}")
    with working_precision(prec):
        expo = 2 * n * mp.log(n) - 1
        total = mp.mpf(0)
        binom = 1  # binom(4n-1, 0)
        for l in range(L + 1):
            if l > 0:
                binom = binom * (4 * n + l - 1) // l
            total += (mp.mpf(2 * n) / (2 * n + l)) ** expo * binom
        return total, _tail_bound(n, L)


def _tail_bound(n: int, L: int) -> mpf:
    """Upper end of K (L+2n)^-s / s, the tail_weight_sum bound, enclosed in
    mpmath.iv at the ambient precision."""
    with interval_precision():
        e = 2 * n * iv.log(n) - 1
        s = e - 4 * n
        K = iv.exp(e * iv.log(2 * n)) / factorial(4 * n - 1)
        return mp.mpf((K * iv.exp(-s * iv.log(L + 2 * n)) / s).b)


@functools.cache
def tail_weight_constant() -> mpf:
    """C*, a proved upper bound on the uniform tail-sum constant

        sum_{l>=0} tail_weight(10, l) = sum_l q_l^E binom(39+l, l),

    q_l = 20/(20+l), E = 20 log 10 - 1: the integral_bound of
    extremal.theorem2_certificate uses this number.  It is one 53-bit mpf,
    the same at every precision, computed on the first call.

    The terms l <= TAIL_WEIGHT_DEFAULT_LMAX are summed in floats, each as
    exp(E log q_l) times the float of its exact integer binomial, and added
    by math.fsum.  With u = enclose.EPS, to first order in u, taking +, -,
    *, / (int / int too) and int -> float as correctly rounded and log and
    exp as within one ulp (2u relative), as enclose.h_float does:
    - E in floats, 20 log 10 rounded twice and 1 subtracted, is within
      183u < 5uE of E.
    - q_l in floats is within u q_l, so its log is within u(1 + 2 lam) of
      log q_l, lam = |log q_l| <= log 251 < 5.53.  The product with E is
      then within uE(1 + 8 lam) of E log q_l, which exp turns into a
      relative error, plus 2u of its own.
    - The binomial's float and the product add u each.
    So each term is within u(E(1 + 8 lam) + 4) < 2043u of its value
    (relative), the terms are positive, and fsum's result is within
    2044u S of their sum S.  exp's factor is above 1e-109 and each binomial
    below 1e99, so every factor and term is a normal float.  The allowance
    enclose.ROUNDING_ALLOWANCE S = 8192u S is four times that, which leaves
    room for the second-order terms and for a libm whose log and exp err by
    up to 13 ulps each.  C* is fsum's result plus the allowance plus
    _tail_bound's bound on the terms after TAIL_WEIGHT_DEFAULT_LMAX, taken
    in mpmath.iv at 53 bits; both additions round up.  The tests and
    verify-lemmas check it against the mpf route tail_weight_sum.
    """
    n, L = TAIL_WEIGHT_MIN_N, TAIL_WEIGHT_DEFAULT_LMAX
    expo = 2 * n * log(n) - 1
    terms = []
    binom = 1  # binom(4n-1, 0)
    for l in range(L + 1):
        if l > 0:
            binom = binom * (4 * n + l - 1) // l
        terms.append(exp(expo * log(2 * n / (2 * n + l))) * float(binom))
    partial = fsum(terms)
    with mp.workprec(53):
        tail = _tail_bound(n, L)
    upper = mpf_add(from_float(partial), from_float(ROUNDING_ALLOWANCE * partial),
                    53, round_ceiling)
    return mp.make_mpf(mpf_add(upper, tail._mpf_, 53, round_ceiling))
