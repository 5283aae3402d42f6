"""Bernoulli and Chebyshev polynomial machinery.

Exact-rational coefficient expansions (Fractions) back every evaluation, so
the only rounding happens in the final Horner pass at the caller-requested
precision.  Bernoulli numbers follow the B_1 = -1/2 convention, which makes
B_n(0) = B_n for the polynomial coefficients used here.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial
from typing import List, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul

from .precision import DEFAULT_PREC, working_precision

MAX_DEGREE = 256


class DegreeOverflowError(ValueError):
    """Requested degree exceeds the configured maximum."""


_bernoulli: Tuple[Fraction, ...] = ()  # B_0..B_N for the largest N asked for


@functools.cache
def bernoulli_numbers(n: int) -> Tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_n as exact Fractions (B_1 = -1/2).

    They are read from one table, which _tangent_bernoulli recomputes to at
    least twice its length when n passes its end, so a run that asks for
    ever larger n pays a bounded multiple of the last table.  The tuple for
    each n is kept too, so a repeated call returns the same object."""
    global _bernoulli
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_bernoulli):
        _bernoulli = _tangent_bernoulli(max(n, 2 * len(_bernoulli)))
    return _bernoulli[:n + 1]


def _tangent_bernoulli(n: int) -> Tuple[Fraction, ...]:
    """B_0..B_n from the tangent numbers T_1..T_K, K = n // 2, with
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  The T_k are exact integers
    from Brent & Harvey's algorithm TangentNumbers ("Fast computation of
    Bernoulli, tangent and secant numbers", 2013), O(K^2) integer steps."""
    K = n // 2
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, K + 1):
        B[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * T[k], 4 ** k * (4 ** k - 1))
    return tuple(B[:n + 1])


@functools.cache
def bernoulli_poly_coeffs(n: int) -> Tuple[Fraction, ...]:
    """Exact coefficients (c_0, ..., c_n) of B_n(x) = sum c_k x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {n} exceeds maximum {MAX_DEGREE}")
    B = bernoulli_numbers(n)
    return tuple(comb(n, k) * B[n - k] for k in range(n + 1))


@functools.cache
def bernoulli_centered_coeffs(n: int) -> Tuple[Fraction, ...]:
    """Exact beta_{n,i} of B_n(1/2 + y) = sum_i beta_{n,i} y^i for the
    i = n mod 2, n mod 2 + 2, ..., n, in that order: Taylor's theorem at 1/2
    (DLMF 24.4) gives beta_{n,i} = binom(n, i) B_{n-i}(1/2), and
    B_k(1/2) = -(1 - 2^(1-k)) B_k vanishes for odd k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {n} exceeds maximum {MAX_DEGREE}")
    B = bernoulli_numbers(n)
    return tuple(comb(n, i) * (Fraction(2) ** (1 - n + i) - 1) * B[n - i]
                 for i in range(n % 2, n + 1, 2))


@functools.cache
def clausen_coeffs(n: int) -> Tuple[Fraction, ...]:
    """Exact c_k = |B_2k| / (2k (2k+1)!), k = 1..n, of the Clausen series
    Cl_2(theta) = theta - theta log theta + sum_k c_k theta^(2k+1) (Lewin,
    Polylogarithms and Associated Functions, 1981)."""
    B = bernoulli_numbers(2 * n)
    return tuple(abs(B[2 * k]) / (2 * k * factorial(2 * k + 1))
                 for k in range(1, n + 1))


def bernoulli_poly_mpf(n: int) -> Tuple[mpf, ...]:
    """Coefficients of B_n(x) rounded at the ambient precision.

    Each is numerator/denominator with both rounded to mp.prec first, as the
    Horner pass always converted them; cached per (n, mp.prec), so a cached
    vector is bit-identical to a fresh conversion.
    """
    return _rounded(bernoulli_poly_coeffs, n, mp.prec)


@functools.cache
def _rounded(exact, n: int, prec: int) -> Tuple[mpf, ...]:
    """exact(n)'s Fractions at the ambient precision prec."""
    return tuple(mpf(c.numerator) / mpf(c.denominator) for c in exact(n))


def horner(coeffs, x):
    """sum_k coeffs[k] x^k, the package's one Horner pass over exact or mpf
    values (hardy._TaylorPatches reads its fixed-point series with its own
    integer loop, which shifts after every product, and pair_values is the
    fixed-point pass at a symmetric pair +-y).  Starting at the
    integer 0 keeps Fractions exact and rounds an mpf leading coefficient as
    an mp.mpf(0) start does; an mpc one keeps its imaginary bits in that
    step, so mpc coefficients should be at the ambient precision.

    When x and every coefficient are mpf, the loop runs on their libmp
    tuples, with the roundings acc * x + c makes (mpf_mul, then mpf_add, at
    mp.prec and the context's rounding mode), so the result is the same mpf
    without the operator dispatch and object allocation of each step."""
    if type(x) is mpf and coeffs and all(type(c) is mpf for c in coeffs):
        prec, rnd = mp._prec_rounding  # what mpf's operators round at
        xv = x._mpf_
        acc = fzero
        for c in reversed(coeffs):
            acc = mpf_add(mpf_mul(acc, xv, prec, rnd), c._mpf_, prec, rnd)
        return mp.make_mpf(acc)
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def parity_split(coeffs: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(even, odd): the coefficients of the even and of the odd powers,
    highest power first, as pair_values reads them."""
    return list(coeffs[::2])[::-1], list(coeffs[1::2])[::-1]


def pair_values(even: Sequence[int], odd: Sequence[int], y: int, F: int) -> Tuple[int, int]:
    """(p(y), p(-y)) in F-bit fixed point, p = sum_j c_j x^j with
    (even, odd) = parity_split of the c_j in F-bit fixed point and
    0 <= y <= 2^F: one Horner pass over each part in u = y^2, exact with 2F
    fraction bits, each step floored once, and the odd part's product by y
    floored once.  |u| <= 1 does not grow the error a step inherits, so
    each value is within len(even) + len(odd) - 1 units of 2^-F of p at
    the given c_j (the first step of each pass is exact)."""
    u, bits = y * y, 2 * F
    e = o = 0
    for c in even:
        e = (e * u >> bits) + c
    for c in odd:
        o = (o * u >> bits) + c
    o = o * y >> F
    return e + o, e - o


def bernoulli_poly(n: int, x, prec: int = DEFAULT_PREC) -> mpf:
    """B_n(x) evaluated at precision via the exact coefficient expansion."""
    with working_precision(prec):
        return horner(bernoulli_poly_mpf(n), mp.mpf(x))


def bernoulli_poly_exact(n: int, x: Fraction) -> Fraction:
    """B_n(x) for rational x, exact."""
    return horner(bernoulli_poly_coeffs(n), x)


def chebyshev_rows(xs: Sequence, j: int, prec: int = DEFAULT_PREC) -> List[List[mpf]]:
    """[T_i(x) for x in xs] for i = 0..j, by the three-term recurrence
    T_(i+1) = 2 x T_i - T_(i-1), each row formed from the two before it.

    The recurrence stays valid for |x| slightly above 1, unlike the
    cos(j*arccos x) route.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    with working_precision(prec):
        xm = [mp.mpf(x) for x in xs]
        rows = [[mp.mpf(1)] * len(xm), xm]
        for _ in range(j - 1):
            rows.append([2 * x * t_cur - t_prev
                         for x, t_cur, t_prev in zip(xm, rows[-1], rows[-2])])
        return rows[:j + 1]


def chebyshev_coeffs(j: int) -> Tuple[int, ...]:
    """Exact integer coefficients of T_j(x)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return (1,)
    prev, cur = [1], [0, 1]
    for _ in range(j - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def chebyshev_deriv_at_one(j: int, n: int) -> int:
    """Exact value of the 2n-th derivative of T_j at x = 1.

    T_j^(2n)(1) = 2^(2n-1) (2n-1)! j binom(2n+j-1, j-2n), valid for j >= 2n >= 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < 2 * n:
        raise ValueError(f"formula requires j >= 2n (got j={j}, n={n})")
    return 2 ** (2 * n - 1) * factorial(2 * n - 1) * j * comb(2 * n + j - 1, j - 2 * n)


def bernoulli_fourier_partial(l: int, x, J: int, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Partial Fourier sum for B_2l(x) on [0,1] plus an analytic tail bound.

    B_2l(x) = (-1)^(l+1) 2 (2l)! sum_{j>=1} cos(2 pi j x) / (2 pi j)^(2l);
    returns (partial sum through j=J, bound on the dropped tail).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if J < 1:
        raise ValueError("J must be >= 1")
    with working_precision(prec):
        xm = mp.mpf(x)
        if xm < 0 or xm > 1:
            raise ValueError("x must lie in [0, 1]")
        two_l = 2 * l
        fact = mp.factorial(two_l)
        sign = mp.mpf(-1) ** (l + 1)
        twopi = 2 * mp.pi
        total = mp.mpf(0)
        for j in range(1, J + 1):
            total += mp.cos(twopi * j * xm) / (twopi * j) ** two_l
        value = sign * 2 * fact * total
        # sum_{j>J} j^(-2l) <= J^(1-2l) / (2l-1)
        tail = 2 * fact / twopi ** two_l * mp.mpf(J) ** (1 - two_l) / (two_l - 1)
        return value, tail
