"""Built-in smooth test functions with exact derivatives of any order.

Each factory returns a FunctionProbe whose deriv(x, k) is computed
analytically (coefficient manipulation), never by finite differences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from mpmath import mp

from .divided_diff import FunctionProbe
from .precision import DEFAULT_PREC, working_precision

LARGE_ORDER = 10 ** 6


class PolynomialProbe(FunctionProbe):
    """Probe backed by an explicit coefficient list (c_0 + c_1 x + ...)."""

    def __init__(self, coeffs: Sequence, prec: int = DEFAULT_PREC):
        # floats convert exactly; keeping them raw would round the k-fold
        # derivative coefficient products at double precision.  The mpf
        # constructor rounds to the ambient precision, so convert inside
        # the probe's own working precision.
        with working_precision(prec):
            self.coeffs = [c if isinstance(c, Fraction) else mp.mpf(c)
                           for c in coeffs]
        self.prec = prec
        super().__init__(deriv=self._deriv, max_order=LARGE_ORDER)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative_coeffs(self, k: int) -> list:
        """Coefficients of f^(k): Fractions stay exact, mpf are rounded at
        the probe precision.  Empty when k exceeds the degree."""
        with working_precision(self.prec):
            cs = self.coeffs
            for _ in range(k):
                cs = [i * c for i, c in enumerate(cs)][1:]
            return list(cs)

    def _deriv(self, x, k: int):
        with working_precision(self.prec):
            if k > self.degree:
                return mp.mpf(0)
            acc = mp.mpf(0)
            for c in reversed(self.derivative_coeffs(k)):
                if isinstance(c, Fraction):
                    c = mp.mpf(c.numerator) / c.denominator
                acc = acc * mp.mpf(x) + c
            return acc


def polynomial_probe(coeffs: Sequence, prec: int = DEFAULT_PREC) -> PolynomialProbe:
    return PolynomialProbe(coeffs, prec=prec)


def monomial_probe(k: int, prec: int = DEFAULT_PREC) -> PolynomialProbe:
    return PolynomialProbe([0] * k + [1], prec=prec)


def cosine_probe(b, amplitude=1, prec: int = DEFAULT_PREC) -> FunctionProbe:
    """f(x) = amplitude * cos(b x)."""

    def deriv(x, k):
        with working_precision(prec):
            bm = mp.mpf(b)
            phase = mp.mpf(k) * mp.pi / 2
            return mp.mpf(amplitude) * bm ** k * mp.cos(bm * mp.mpf(x) + phase)

    return FunctionProbe(deriv=deriv, max_order=LARGE_ORDER)


def exp_probe(prec: int = DEFAULT_PREC) -> FunctionProbe:
    def deriv(x, k):
        with working_precision(prec):
            return mp.exp(mp.mpf(x))

    return FunctionProbe(deriv=deriv, max_order=LARGE_ORDER)


def constant_probe(value=1, prec: int = DEFAULT_PREC) -> FunctionProbe:
    def deriv(x, k):
        with working_precision(prec):
            return mp.mpf(value) if k == 0 else mp.mpf(0)

    return FunctionProbe(deriv=deriv, max_order=LARGE_ORDER)


def gaussian_cosine_probe(b, width, prec: int = DEFAULT_PREC) -> FunctionProbe:
    """f(x) = exp(-x^2/(2 width^2)) cos(b x) = Re exp(q(x)), q quadratic.

    Derivatives via the polynomial recurrence P_{k+1} = P_k' + q' P_k with
    f^(k) = Re[P_k exp(q)].
    """
    cache: dict = {}

    def poly_for(k, workprec):
        # complex coefficient lists of P_k at the given working precision
        key = (k, workprec)
        if key in cache:
            return cache[key]
        with working_precision(workprec, guard=0):
            w2 = mp.mpf(width) ** 2
            qp = [mp.mpc(0, b), mp.mpc(-1 / w2, 0)]  # q'(x) = ib - x/w^2
            P = [mp.mpc(1)]
            for _ in range(k):
                dP = [i * c for i, c in enumerate(P)][1:] or [mp.mpc(0)]
                prod = [mp.mpc(0)] * (len(P) + 1)
                for i, c in enumerate(P):
                    prod[i] += qp[0] * c
                    prod[i + 1] += qp[1] * c
                n = max(len(dP), len(prod))
                P = [(dP[i] if i < len(dP) else 0) + (prod[i] if i < len(prod) else 0)
                     for i in range(n)]
            cache[key] = P
        return P

    def deriv(x, k):
        with working_precision(prec):
            P = poly_for(k, mp.prec)
            xm = mp.mpf(x)
            acc = mp.mpc(0)
            for c in reversed(P):
                acc = acc * xm + c
            q = -xm ** 2 / (2 * mp.mpf(width) ** 2) + mp.mpc(0, b) * xm
            return (acc * mp.exp(q)).real

    return FunctionProbe(deriv=deriv, max_order=LARGE_ORDER)


def cardinal_probe(config, prec: int = DEFAULT_PREC) -> PolynomialProbe:
    """Polynomial prod_{k!=0}(x - x_k)/(0 - x_k), respecting multiplicity.

    Vanishes at every nonzero node of the configuration and equals 1 at 0.
    """
    with working_precision(prec):
        coeffs = [mp.mpf(1)]
        norm = mp.mpf(1)
        for i, xk in enumerate(config.nodes):
            if i == config.n:
                continue
            xkm = mp.mpf(xk)
            coeffs = [mp.mpf(0)] + coeffs
            for j in range(len(coeffs) - 1):
                coeffs[j] -= xkm * coeffs[j + 1]
            norm *= -xkm
        coeffs = [c / norm for c in coeffs]
    return PolynomialProbe(coeffs, prec=prec)
