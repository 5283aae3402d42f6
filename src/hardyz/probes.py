"""Built-in smooth test functions with exact derivatives of any order.

Each factory returns a FunctionProbe whose deriv(x, k) is computed
analytically (coefficient manipulation), never by finite differences.  A
polynomial probe differentiates its coefficients.  The cosine and the
gaussian cosine are one ExpQuadraticProbe, f = Re e^q with q quadratic,
whose f^(k) has one route: derivative_pairs, in Python ints, which
identity's integral term reads at the symmetric node pairs of a panel and
deriv at one point.  Both also give a majorant of |f^(k)| off the real
line, which the Gauss-Legendre rules of identity's integral term and of
divided_difference_simplex read; a polynomial probe needs none, because
its integral term is taken in closed form and its simplex rule is exact.
derivative_pairs takes libmp's errors from precision.LIBMP_ULPS: U_exp and
U_cs are its exp and cos_sin entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Callable, List, Sequence, Tuple

from mpmath import libmp, mp

from .divided_diff import FunctionProbe
from .polynomials import horner, pair_values, parity_split
from .precision import DEFAULT_PREC, LIBMP_ULPS, floor_shifted, working_precision

# derivative_pairs' values carry mp.prec + 16 fraction bits, in units of a
# power of two at the majorant's size, in deriv and in identity's panel pass
PASS_GUARD_BITS = 16
# the error of e^(q(c)) in units of 2^-W: the exp's 2 U_exp (relative,
# e^(alpha c^2) <= 1), cos and sin's U_cs each and the two floors
_KAPPA = 2 * LIBMP_ULPS["mpf_exp"] + math.sqrt(2) * (LIBMP_ULPS["mpf_cos_sin"] + 1)


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


def _exact_ints(*values: tuple) -> Tuple[List[int], int]:
    """(ints, E): raw mpf values as exact signed integers times 2^E, E <= 0."""
    E = min([v[2] for v in values if v[1]] + [0])
    return [(-1) ** v[0] * (v[1] << (v[2] - E)) if v[1] else 0 for v in values], E


class ExpQuadraticProbe(FunctionProbe):
    """f(x) = Re e^(q(x)), q(x) = alpha x^2 + i b x with alpha <= 0, alpha
    and b held as mpf from construction: the cosine (alpha = 0) and the
    gaussian cosine.  f^(k) = Re P_k e^q with P_(k+1) = P_k' + q' P_k.

    About a centre c, with beta = q'(c) = 2 alpha c + i b, the shift of P_k
    is P_k(c + h) = sum_i binom(k, i) (2 alpha h)^i D_(k-i), D_n = P_n(c)
    (P_n' = 2 alpha n P_(n-1)), from D_n = beta D_(n-1)
    + 2 (n - 1) alpha D_(n-2), and e^(q(c + h)) = e^(q(c))
    e^(alpha (h^2 + 2 c h)) e^(i b h).  derivative_pairs reads f^(k) at
    c + h and c - h from one cos_sin of b h and, for alpha < 0, two real
    exps; deriv(x, k) is its read at c = x, h = 0, rounded at the probe's
    working precision.  majorant(k, height) is the factory's.
    """

    def __init__(self, alpha, b, majorant: Callable[[int, float], float],
                 prec: int = DEFAULT_PREC):
        super().__init__(deriv=self._deriv)
        self.alpha, self.b, self.majorant, self.prec = alpha, b, majorant, prec

    def _deriv(self, x, k: int):
        with working_precision(self.prec):
            F = mp.prec + PASS_GUARD_BITS
            s, (value,), _, _ = self.derivative_pairs(mp.mpf(x), k, 0, [0], F)
            return mp.make_mpf(libmp.from_man_exp(value, s - F, *mp._prec_rounding))

    def derivative_pairs(self, c, k: int, e: int, ys: Sequence[int],
                         F: int) -> Tuple[int, List[int], List[int], float]:
        """(s, plus, minus, units): f^(k)(c + h) and f^(k)(c - h) at
        h = 2^e y 2^-F for each y of ys (integers, 0 <= y <= 2^F) as
        integers V, the values V 2^(s-F), each within units 2^(s-F) of the
        exact value at the stored alpha and b; c is an mpf and
        s = floor(majorant(k, 0)/log 2), so |f^(k)| < 2^(s+1) on the line.

        The pass runs at G = F + g fraction bits over 2^s, g >= 0 chosen
        from float sizes so that (l1 + 1) X_max 2^-g, with l1 and X_max
        below, stays near 1: the reads of a pair are then as good as F bits
        of its value, wherever the panel's coefficients or e^(alpha c^2)
        make them larger or smaller than it.

        The panel, with rho = 2^e and d = k (d = 0 when alpha = 0 or every
        y is 0, where only i = 0 is read).  The coefficients of
        A(y') = e^(q(c)) P_k(c + rho y') in y' = y 2^-F,
        a_i = E Gamma_i binom(k, i) D_(k-i) with E = e^(q(c)) and
        Gamma_i = gamma^i, gamma = 2 alpha rho, are formed in fixed point
        with W fraction bits: beta, alpha, gamma and c exact; D_n by its
        recurrence, each step one floor per part (for the cosine
        D_k = (i b)^k, one floor of the exact power), so within sqrt2 T_n
        units with T_n = |beta| T_(n-1) + 2 (n - 1) |alpha| T_(n-2) + 1
        (T_0 = 0), and |D_n| <= m_n, the same recurrence without the 1
        (m_0 = 1); Gamma_i one floor a step, within
        tau_i = |gamma| tau_(i-1) + 1 units; E from mpf_exp and mpf_cos_sin
        at W bits, each part floored, within _KAPPA units.  So
        sum_i |E Gamma_i binom(k, i) D_(k-i)|'s error is at most
        lambda 2^-W, lambda = sum_i binom(k, i) ((_KAPPA |gamma|^i + tau_i)
        m_(k-i) + sqrt2 |gamma|^i T_(k-i)), to first order, and
        W = G + max(0, ceil(log2 lambda) - s + 2) keeps it below a quarter
        unit of 2^(s-G).  Each a_i is one floor of the exact product, at G
        bits: each part of A(+-y') is within 2d + 2 units of 2^(s-G), the
        floors of the a_i and pair_values' passes included.

        A pair.  Z = Re(A(y') e^(i b rho y')) at +y' and Re(A(-y')
        e^(-i b rho y')) at -y' from one mpf_cos_sin at G bits, floored, is
        within dZ = 2 (2d + 2) + l1 (U_cs + 1) + 2 units of
        2^(s-G), l1 the sum of |Re a_i| + |Im a_i| over 2^(s-G), which
        bounds |Re A| + |Im A|.  For alpha < 0 the value is Z X,
        X = e^(alpha (h^2 +- 2 c h)) from mpf_exp at G bits, floored, so
        within 2 U_exp X + 1 units of 2^-G, and
        X <= X_max = e^(|alpha| (c^2 - max(|c| - h_max, 0)^2)), h_max the
        largest h.  The product is floored to F bits:
        units = 2^-g (dZ X_max + (l1 + 1)(2 U_exp X_max + 1)) + 2, and
        2^-g dZ + 2 when alpha = 0 (X = 1).  At y = 0, e^(i b h) = X = 1 and
        the value is Re A(0).  The + 2 terms and the quarter unit left cover
        the final floor and the second order.
        """
        log_size = self.majorant(k, 0.0)
        s = math.floor(log_size / math.log(2)) if log_size > -math.inf else 0
        alpha, b, cm = self.alpha._mpf_, self.b._mpf_, c._mpf_
        d = k if alpha[1] and any(ys) else 0
        beta_re = libmp.mpf_mul(libmp.mpf_shift(alpha, 1), cm)  # 2 alpha c
        gamma = libmp.mpf_shift(alpha, e + 1)  # 2 alpha rho

        # g and W: the float sizes of the reads and of their first-order
        # error, rounded up
        up = 1 + 2.0 ** -40
        beta_abs = (abs(libmp.to_float(beta_re)) + abs(libmp.to_float(b))) * up
        alpha_abs, gamma_abs = abs(libmp.to_float(alpha)) * up, abs(libmp.to_float(gamma)) * up
        T, M = [0.0, 0.0], [0.0, 1.0]  # from n = -1: T[n + 1], M[n + 1]
        for n in range(1, k + 1):
            T.append(beta_abs * T[-1] + 2 * (n - 1) * alpha_abs * T[-2] + 1)
            M.append(beta_abs * M[-1] + 2 * (n - 1) * alpha_abs * M[-2])
        lam, size, tau, power = 0.0, 0.0, 0.0, 1.0
        for i in range(d + 1):
            lam += comb(k, i) * ((_KAPPA * power + tau) * M[k - i + 1]
                                 + math.sqrt(2) * power * T[k - i + 1])
            size += comb(k, i) * power * M[k - i + 1]
            tau, power = gamma_abs * tau + 1, power * gamma_abs
        cf, h_max = abs(libmp.to_float(cm)), max(ys) / (1 << F) * 2.0 ** e
        log2_x = alpha_abs * (cf * cf - max(cf - h_max, 0) ** 2) * up / math.log(2)
        log2_l1 = (math.log2(math.sqrt(2) * size) - s - alpha_abs * cf * cf / math.log(2)
                   if size else -math.inf)  # the float size of l1
        g = max(0, math.ceil(max(log2_l1, 0) + 1 + log2_x))
        G = F + g
        W = G + max(0, math.ceil(math.log2(lam)) - s + 2)

        if alpha[1]:  # D_0..D_k, D[-1 - i] = D_(k-i)
            (Br, Bi, A), E0 = _exact_ints(beta_re, b, alpha)
            D, back = [(1 << W, 0)], (0, 0)
            for n in range(1, k + 1):
                t, (pr, pi), (qr, qi) = 2 * (n - 1) * A, D[-1], back
                back = D[-1]
                D.append(((Br * pr - Bi * pi + t * qr) >> -E0,
                          (Br * pi + Bi * pr + t * qi) >> -E0))
        else:  # the cosine: D_k = (i b)^k, one floor of the exact power
            (B,), Eb = _exact_ints(b)
            p = floor_shifted(B ** k, 1, k * Eb + W)
            D = [((p, 0), (0, p), (-p, 0), (0, -p))[k % 4]]
        (Gm,), Ge = _exact_ints(gamma)
        powers = [1 << W]
        for i in range(d):
            powers.append(powers[-1] * Gm >> -Ge)
        X = libmp.mpf_exp(libmp.mpf_mul(alpha, libmp.mpf_mul(cm, cm)), W)
        cos, sin = libmp.mpf_cos_sin(libmp.mpf_mul(b, cm), W)
        Er, Ei = libmp.to_fixed(libmp.mpf_mul(X, cos), W), libmp.to_fixed(libmp.mpf_mul(X, sin), W)
        shift = 3 * W - G + s
        re, im = [], []
        for i in range(d + 1):
            (dr, di), weight = D[-1 - i], comb(k, i) * powers[i]
            re.append(floor_shifted((Er * dr - Ei * di) * weight, 1, -shift))
            im.append(floor_shifted((Er * di + Ei * dr) * weight, 1, -shift))
        l1 = sum(map(abs, re + im)) / (1 << G)
        re_even, re_odd = parity_split(re)
        im_even, im_odd = parity_split(im)

        b_rho = libmp.mpf_shift(b, e)
        if alpha[1]:
            square, linear = libmp.mpf_shift(alpha, 2 * e), libmp.mpf_shift(beta_re, e)
        plus, minus = [], []
        for y in ys:
            y <<= g
            ap, am = pair_values(re_even, re_odd, y, G)
            bp, bm = pair_values(im_even, im_odd, y, G)
            if not y:  # e^(i b h) = X = 1
                plus.append(ap >> g)
                minus.append(am >> g)
                continue
            yv = libmp.from_man_exp(y, -G)
            cos, sin = libmp.mpf_cos_sin(libmp.mpf_mul(b_rho, yv), G)
            cos, sin = libmp.to_fixed(cos, G), libmp.to_fixed(sin, G)
            zp, zm = (ap * cos - bp * sin) >> G, (am * cos + bm * sin) >> G
            if alpha[1]:
                even, odd = libmp.mpf_mul(square, libmp.mpf_mul(yv, yv)), libmp.mpf_mul(linear, yv)
                plus.append(zp * libmp.to_fixed(libmp.mpf_exp(libmp.mpf_add(even, odd), G), G) >> (G + g))
                minus.append(zm * libmp.to_fixed(libmp.mpf_exp(libmp.mpf_sub(even, odd), G), G) >> (G + g))
            else:
                plus.append(zp >> g)
                minus.append(zm >> g)

        dz = 2 * (2 * d + 2) + l1 * (LIBMP_ULPS["mpf_cos_sin"] + 1) + 2
        if not alpha[1]:
            return s, plus, minus, dz / 2 ** g + 2
        x_max = 2 ** log2_x * up
        return s, plus, minus, (dz * x_max + (l1 + 1) * (2 * LIBMP_ULPS["mpf_exp"] * x_max + 1)) / 2 ** g + 2


def cosine_probe(b, prec: int = DEFAULT_PREC) -> ExpQuadraticProbe:
    """f(x) = cos(b x), with b held as an mpf from construction, rounded at
    the probe's working precision: the ExpQuadraticProbe with alpha = 0.

    Its majorant: f^(k)(z) = b^k cos(b z + k pi/2) and |cos w| <= e^|Im w|,
    so |f^(k)(z)| <= |b|^k e^(|b| height) where |Im z| <= height.
    """
    with working_precision(prec):
        bm = mp.mpf(b)
    b_abs = abs(float(bm))

    def majorant(k, height):
        if k == 0:
            return b_abs * height
        return k * math.log(b_abs) + b_abs * height if b_abs else -math.inf

    return ExpQuadraticProbe(mp.mpf(0), bm, majorant, prec=prec)


def gaussian_cosine_probe(b, width, prec: int = DEFAULT_PREC) -> ExpQuadraticProbe:
    """f(x) = exp(-x^2/(2 width^2)) cos(b x) = Re exp(q(x)), q quadratic:
    the ExpQuadraticProbe with alpha = -1/(2 width^2).  b, width^2 and
    alpha are held from construction, rounded at the probe's working
    precision; f is e^(alpha x^2) cos(b x) at that alpha.

    Its majorant: with z = x + iy, |exp(-z^2/(2 width^2))| =
    exp((y^2 - x^2)/(2 width^2)) and |cos(b z)| <= e^(|b y|), so
    |f(z)| <= exp(y^2/(2 width^2) + |b y|) whatever x.  Cauchy's estimate on
    the circle of radius R about z, where |Im| <= height + R, gives
    |f^(k)(z)| <= k! R^-k exp((height + R)^2/(2 width^2) + |b| (height + R))
    for every R > 0 (R = 0 when k = 0).  The R taken sets the derivative of
    the log in R to zero: R^2 + (height + |b| width^2) R - k width^2 = 0.
    The width^2 it reads is within 2^-52 relative of -1/(2 alpha), which
    the callers' BOUND_SLACK covers.
    """
    with working_precision(prec):
        bm, w2 = mp.mpf(b), mp.mpf(width) ** 2
        alpha = -1 / (2 * w2)
    b_abs, w2_float = abs(float(bm)), float(w2)

    def majorant(k, height):
        if k == 0:
            return height * height / (2 * w2_float) + b_abs * height
        p = height + b_abs * w2_float
        # the positive root, in the form that does not cancel
        R = 2 * k * w2_float / (p + math.sqrt(p * p + 4 * k * w2_float))
        reach = height + R
        return (math.lgamma(k + 1) - k * math.log(R)
                + reach * reach / (2 * w2_float) + b_abs * reach)

    return ExpQuadraticProbe(alpha, bm, majorant, prec=prec)


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
