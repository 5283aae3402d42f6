"""Built-in smooth test functions with exact derivatives of any order.

Each factory returns a FunctionProbe whose deriv(x, k) is computed
analytically (coefficient manipulation), never by finite differences.  The
cosine and gaussian-cosine probes also give a majorant of |f^(k)| off the
real line, which the Gauss-Legendre rules of identity's integral term and
of divided_difference_simplex read; a polynomial probe needs none, because
its integral term is taken in closed form and its simplex rule is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from mpmath import mp
from mpmath.libmp import mpf_mul, mpf_sub

from .divided_diff import FunctionProbe
from .polynomials import horner
from .precision import DEFAULT_PREC, working_precision


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
        self._horner_coeffs: dict = {}  # k -> mpf coefficients of f^(k)
        super().__init__(deriv=self._deriv)

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
            cs = self._horner_coeffs.get(k)
            if cs is None:
                cs = self._horner_coeffs[k] = [
                    mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction)
                    else c for c in self.derivative_coeffs(k)]
            return horner(cs, mp.mpf(x))


def polynomial_probe(coeffs: Sequence, prec: int = DEFAULT_PREC) -> PolynomialProbe:
    return PolynomialProbe(coeffs, prec=prec)


def monomial_probe(k: int, prec: int = DEFAULT_PREC) -> PolynomialProbe:
    return PolynomialProbe([0] * k + [1], prec=prec)


def cosine_probe(b, prec: int = DEFAULT_PREC) -> FunctionProbe:
    """f(x) = cos(b x), with b held as an mpf from construction, rounded at
    the probe's working precision.

    Its majorant: f^(k)(z) = b^k cos(b z + k pi/2) and |cos w| <= e^|Im w|,
    so |f^(k)(z)| <= |b|^k e^(|b| height) where |Im z| <= height.
    """
    with working_precision(prec):
        bm = mp.mpf(b)
    b_abs = abs(float(bm))

    def deriv(x, k):
        with working_precision(prec):
            phase = mp.mpf(k) * mp.pi / 2
            return bm ** k * mp.cos(bm * mp.mpf(x) + phase)

    def majorant(k, height):
        if k == 0:
            return b_abs * height
        return k * math.log(b_abs) + b_abs * height if b_abs else -math.inf

    return FunctionProbe(deriv=deriv, majorant=majorant)


def gaussian_cosine_probe(b, width, prec: int = DEFAULT_PREC) -> FunctionProbe:
    """f(x) = exp(-x^2/(2 width^2)) cos(b x) = Re exp(q(x)), q quadratic.

    Derivatives via the polynomial recurrence P_{k+1} = P_k' + q' P_k with
    f^(k) = Re[P_k exp(q)].  b, width^2 and q' are held from construction,
    rounded at the probe's working precision.

    Its majorant: with z = x + iy, |exp(-z^2/(2 width^2))| =
    exp((y^2 - x^2)/(2 width^2)) and |cos(b z)| <= e^(|b y|), so
    |f(z)| <= exp(y^2/(2 width^2) + |b y|) whatever x.  Cauchy's estimate on
    the circle of radius R about z, where |Im| <= height + R, gives
    |f^(k)(z)| <= k! R^-k exp((height + R)^2/(2 width^2) + |b| (height + R))
    for every R > 0 (R = 0 when k = 0).  The R taken sets the derivative of
    the log in R to zero: R^2 + (height + |b| width^2) R - k width^2 = 0.
    """
    with working_precision(prec):
        w2 = mp.mpf(width) ** 2
        ib = mp.mpc(0, b)
        qp = [ib, mp.mpc(-1 / w2, 0)]  # q'(x) = ib - x/w^2
    b_abs, w2_float = abs(float(ib.imag)), float(w2)

    @functools.cache
    def parts_for(k):
        # real and imaginary coefficients of P_k, at the probe's working
        # precision.  The leading one, (-1/w^2)^k, has imaginary part 0, so
        # the real Horner pass over the imaginary parts, whose first step
        # rounds that 0, gives the bits of a complex pass, which keeps it
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
        return [c.real for c in P], [c.imag for c in P]

    def deriv(x, k):
        with working_precision(prec):
            re, im = parts_for(k)
            xm = mp.mpf(x)
            q = -xm ** 2 / (2 * w2) + ib * xm
            # Re(P_k(x) e^q) as mpc's product forms it: both real Horner
            # passes round as the complex one, the products are exact and
            # the difference is rounded once
            e_re, e_im = mp.exp(q)._mpc_
            return mp.make_mpf(mpf_sub(mpf_mul(horner(re, xm)._mpf_, e_re),
                                       mpf_mul(horner(im, xm)._mpf_, e_im),
                                       *mp._prec_rounding))

    def majorant(k, height):
        if k == 0:
            return height * height / (2 * w2_float) + b_abs * height
        p = height + b_abs * w2_float
        # the positive root, in the form that does not cancel
        R = 2 * k * w2_float / (p + math.sqrt(p * p + 4 * k * w2_float))
        reach = height + R
        return (math.lgamma(k + 1) - k * math.log(R)
                + reach * reach / (2 * w2_float) + b_abs * reach)

    return FunctionProbe(deriv=deriv, majorant=majorant)


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
            coeffs = [mp.mpf(0)] + coeffs
            for j in range(len(coeffs) - 1):
                coeffs[j] -= xk * coeffs[j + 1]
            norm *= -xk
        coeffs = [c / norm for c in coeffs]
    return PolynomialProbe(coeffs, prec=prec)
