"""Point values of a compiled kernel (kernel.CompiledPsi), read by the tests
that compare its panel polynomials with the direct sum and by the integral
term's reference integrand."""

from bisect import bisect_right

from mpmath import mp, mpf

from hardyz.polynomials import horner
from hardyz.precision import working_precision


def panel_value(kern, x) -> mpf:
    """kern's panel polynomial at x, by Horner at kern.prec: the panel whose
    knots hold x, the first or the last one beyond the knots."""
    with working_precision(kern.prec):
        xm = mp.mpf(x)
        i = min(max(bisect_right(kern.knots, xm) - 1, 0), len(kern.coeffs) - 1)
        return horner(kern.coeffs[i], xm - kern.centers[i])
