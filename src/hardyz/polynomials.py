"""Bernoulli and Chebyshev polynomial machinery.

Exact-rational coefficient expansions (Fractions) back every evaluation, so
the only rounding happens in the final Horner pass at the caller-requested
precision.  Bernoulli numbers follow the B_1 = -1/2 convention, which makes
B_n(0) = B_n for the polynomial coefficients used here.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

from mpmath import mp, mpf

from .precision import DEFAULT_PREC, working_precision

MAX_DEGREE = 256

_lock = threading.Lock()
_bernoulli_cache: List[Fraction] = []
_bpoly_coeff_cache: dict = {}
_bpoly_mpf_cache: dict = {}


class DegreeOverflowError(ValueError):
    """Requested degree exceeds the configured maximum."""


def bernoulli_numbers(n: int) -> List[Fraction]:
    """Bernoulli numbers B_0..B_n as exact Fractions (B_1 = -1/2).

    Computed once by the Akiyama-Tanigawa triangular recurrence and cached;
    the cache is append-only and safe for concurrent readers.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_bernoulli_cache):
        with _lock:
            if n >= len(_bernoulli_cache):
                A = [Fraction(0)] * (n + 1)
                out: List[Fraction] = []
                for m in range(n + 1):
                    A[m] = Fraction(1, m + 1)
                    for j in range(m, 0, -1):
                        A[j - 1] = j * (A[j - 1] - A[j])
                    out.append(A[0])
                # Akiyama-Tanigawa yields B_1 = +1/2; flip to the polynomial
                # convention B_n(0) = B_n with B_1(x) = x - 1/2.
                if n >= 1:
                    out[1] = Fraction(-1, 2)
                _bernoulli_cache[:] = out
    return _bernoulli_cache[: n + 1]


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact Fraction."""
    return bernoulli_numbers(n)[n]


def bernoulli_poly_coeffs(n: int) -> Tuple[Fraction, ...]:
    """Exact coefficients (c_0, ..., c_n) of B_n(x) = sum c_k x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {n} exceeds maximum {MAX_DEGREE}")
    with _lock:
        cached = _bpoly_coeff_cache.get(n)
    if cached is not None:
        return cached
    B = bernoulli_numbers(n)
    coeffs = tuple(comb(n, k) * B[n - k] for k in range(n + 1))
    with _lock:
        _bpoly_coeff_cache[n] = coeffs
    return coeffs


def bernoulli_poly_mpf(n: int) -> Tuple[mpf, ...]:
    """Coefficients of B_n(x) rounded at the ambient precision.

    Each is numerator/denominator with both rounded to mp.prec first, as the
    Horner pass always converted them; cached per (n, mp.prec), so a cached
    vector is bit-identical to a fresh conversion.
    """
    key = (n, mp.prec)
    cached = _bpoly_mpf_cache.get(key)
    if cached is None:
        cached = tuple(mpf(c.numerator) / mpf(c.denominator)
                       for c in bernoulli_poly_coeffs(n))
        _bpoly_mpf_cache[key] = cached
    return cached


def _horner(coeffs, x: mpf) -> mpf:
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def bernoulli_poly(n: int, x, prec: int = DEFAULT_PREC) -> mpf:
    """B_n(x) evaluated at precision via the exact coefficient expansion."""
    with working_precision(prec):
        return _horner(bernoulli_poly_mpf(n), mp.mpf(x))


def bernoulli_poly_exact(n: int, x: Fraction) -> Fraction:
    """B_n(x) for rational x, exact."""
    coeffs = bernoulli_poly_coeffs(n)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def periodic_bernoulli(n: int, x, prec: int = DEFAULT_PREC) -> mpf:
    """B_n({x}) with {x} = x - floor(x), period-1 extension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with working_precision(prec):
        xm = mp.mpf(x)
        frac = xm - mp.floor(xm)
        return bernoulli_poly(n, frac, prec=mp.prec)


def chebyshev(j: int, x, prec: int = DEFAULT_PREC) -> mpf:
    """Chebyshev polynomial T_j(x) by the three-term recurrence.

    The recurrence stays valid for |x| slightly above 1, unlike the
    cos(j*arccos x) route.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    with working_precision(prec):
        xm = mp.mpf(x)
        if j == 0:
            return mp.mpf(1)
        t_prev, t_cur = mp.mpf(1), xm
        for _ in range(j - 1):
            t_prev, t_cur = t_cur, 2 * xm * t_cur - t_prev
        return t_cur


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


def chebyshev_derivatives(j: int, x, kmax: int, prec: int = DEFAULT_PREC) -> List[mpf]:
    """[T_j(x), T_j'(x), ..., T_j^(kmax)(x)] for |x| < 1.

    Uses the differentiated Chebyshev ODE
    (1-x^2) y^(k+2) = (2k+1) x y^(k+1) + (k^2 - j^2) y^(k),
    seeded with T_j and T_j' = j*U_{j-1}.
    """
    with working_precision(prec):
        xm = mp.mpf(x)
        if abs(xm) >= 1:
            raise ValueError("chebyshev_derivatives requires |x| < 1")
        vals = [chebyshev(j, xm, prec=mp.prec)]
        if kmax >= 1:
            # U_{j-1} via its own recurrence
            if j == 0:
                up = mp.mpf(0)
            else:
                u_prev, u_cur = mp.mpf(1), 2 * xm
                if j - 1 == 0:
                    up = u_prev
                else:
                    for _ in range(j - 2):
                        u_prev, u_cur = u_cur, 2 * xm * u_cur - u_prev
                    up = u_cur
            vals.append(j * up)
        one_minus = 1 - xm * xm
        for k in range(kmax - 1):
            nxt = ((2 * k + 1) * xm * vals[k + 1] + (k * k - j * j) * vals[k]) / one_minus
            vals.append(nxt)
        return vals[: kmax + 1]


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
