"""Extremal node configurations and the numeric certificate chain.

The extremal configuration places |x*_k| = (k-1) pi + s* inside the interval
of half-width a = (n - 1/2) pi / c.  Two bounds are checked on it: the sine
product lies in (0, 2^-2n) and the cosine divided difference lies in
(0, 2^(2n-1)).  Their product, together with the kernel sup bound scaled by
the tail constant C*, forms the certificate total that must stay below 1.

The configuration is admissible for c > c_eps, where h(delta) < 0.  h is a
difference of Clausen values Cl_2, computed by its Bernoulli series
(_clausen) with a proved bound on the omitted terms; mp.clsin and
log_sine_integral are the routes the tests check it against.  The latter
takes G(t) = t log(pi t/2) - t + integral_0^t log sinc(pi tau/2) d tau by
the one Gauss-Legendre rule of quadrature, whose node count a proved bound
chooses (_log_sine_rule).
find_c_eps refines the edge delta_eps = 1 - c_eps with the sign-change
finder find_zeros uses, precision.refine_sign_change.  Its search reads h
by one rule: enclose.h_float's float value wherever it exceeds h_float's
proved bound, which proves the sign there, and g_and_h everywhere else and
at the two ends of the bracket it refines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import node_product
from .enclose import h_float
# also reached through this module: coefficients, divided_bound_direct, sine_product
from .kernel import (NodeConfig, boundary_sum_bound, coefficients,  # noqa: F401
                     divided_bound_direct, sine_product)
from .polynomials import _rounded, clausen_coeffs, horner
from .precision import DEFAULT_PREC, refine_sign_change, working_precision
from .quadrature import BOUND_SLACK, ELLIPSES, least_count, nodes
from .sequences import tail_weight_constant

FIND_C_EPS_RESOLUTION_BITS = 12


@dataclass
class ExtremalParams:
    """(n, c, eps) with delta = 1 - c, eta, a and s* = eta a set at construction.

    c and eps are rounded once, at the working precision of prec, and held."""

    n: int
    c: object
    eps: object
    prec: int = DEFAULT_PREC
    delta: mpf = field(init=False)
    eta: mpf = field(init=False)
    a: mpf = field(init=False)
    s_star: mpf = field(init=False)

    def __post_init__(self):
        with working_precision(self.prec):
            c = self.c = mp.mpf(self.c)
            if not 0 < c < 1:
                raise ValueError("c must lie in (0, 1)")
            eps = self.eps = _checked_eps(self.eps)
            if self.n < 1:
                raise ValueError("n must be >= 1")
            self.delta = 1 - c
            self.eta = _eta(self.delta, eps)
            self.a = (self.n - mp.mpf(0.5)) * mp.pi / c
            self.s_star = self.eta * self.a

    def admissible(self, c_eps) -> bool:
        with working_precision(self.prec):
            return bool(mp.mpf(c_eps) < self.c < 1 - mp.mpf(1) / (2 * self.n))


def log_sine_integral(t, prec: int = DEFAULT_PREC) -> mpf:
    """G(t) = integral_0^t log sin(pi tau/2) d tau by quadrature, for t in
    [0, 1]: G(t) = t log(pi t/2) - t + integral_0^t log sinc(pi tau/2) d tau,
    whose integrand is analytic on [0, t], by the one Gauss-Legendre rule
    _log_sine_rule chooses.  The test oracle of log_sine_integral_closed.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm == 0:
            return mp.mpf(0)
        if tm < 0 or tm > 1:
            raise ValueError("t must lie in [0, 1]")
        N, _ = _log_sine_rule(float(tm))
        half = tm / 2
        body = mp.fdot((half * w, mp.log(mp.sinc(mp.pi * (half + half * x) / 2)))
                       for x, w in nodes(N))
        return tm * mp.log(mp.pi * tm / 2) - tm + body


def _log_sine_rule(t: float) -> Tuple[int, float]:
    """(N, log bound) of log_sine_integral's N-point rule for
    integral_0^t log sinc(pi tau/2) d tau, in floats at the ambient
    precision.

    sinc w = prod_n (1 - w^2/(n pi)^2), and |log(1 - x)| <= -log(1 - |x|)
    for |x| < 1, so |log sinc w| <= -log sinc |w| = log(|w|/sin |w|) for
    |w| < pi.  On the ellipse E_rho about [0, t] (half-width r = t/2,
    semi-axes r A and r B of quadrature.ELLIPSES), |tau| <= r (1 + A), so
    |w| <= (pi/2) r (1 + A); an ellipse that takes |w| above 3 gets no
    bound.  Below 2^-8 the bound read is (w^2/6)/(1 - (w/pi)^2), which is
    larger (-log(1 - x) <= x/(1 - x) and sum_n 1/n^2 = pi^2/6), because
    log(w/sin w) loses its digits to cancellation there.  Up to w = 3 the
    float logs are within 2^-30 relative, and t and r (rounded up) within
    2^-52: all far below quadrature.BOUND_SLACK.  The bound grows with t,
    so a t below 2^-60, which a float may not hold, takes 2^-60's.
    """
    r = max(t, 2.0 ** -60) / 2 * (1 + 2.0 ** -52)

    def log_majorant(w):
        if w > 3:
            return math.inf
        if w < 2.0 ** -8:
            return math.log(w * w / 6 / (1 - (w / math.pi) ** 2))
        return math.log(math.log(w / math.sin(w)))

    N, log_trunc = least_count(
        r, [log_majorant(math.pi / 2 * r * (1 + A)) for _, A, _ in ELLIPSES])
    return N, log_trunc + BOUND_SLACK


def log_sine_integral_closed(t, prec: int = DEFAULT_PREC) -> mpf:
    """Closed form G(t) = -t log 2 - Cl_2(pi t)/pi for t in [0, 1].

    Cl_2 is the Bernoulli series of _clausen, so G(0) = 0 and G(1) = -log 2
    come out exactly; the quadrature route log_sine_integral is its test
    oracle.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 0 or tm > 1:
            raise ValueError("t must lie in [0, 1]")
        return -tm * mp.ln2 - _clausen(mp.pi * tm) / mp.pi


def _clausen(theta) -> mpf:
    """Cl_2(theta) for 0 <= theta <= pi, to 2^-(mp.prec+1) relative.

    Cl_2(theta) = theta - theta log theta + sum_k c_k theta^(2k+1) with
    c_k = |B_2k| / (2k (2k+1)!) (polynomials.clausen_coeffs).  |B_2k| <=
    2 zeta(2) (2k)!/(2 pi)^(2k) bounds the terms after the K-th by
    zeta(2) theta x^(2K+2) / ((K+1)(2K+3)(1 - x^2)) with
    x = theta/(2 pi).  For theta <= 2 pi/3, where x <= 1/3 and
    Cl_2(theta) >= theta/4, that is below 4 x^(2K+2) Cl_2(theta), and K is
    the smallest count that puts it under 2^-(mp.prec+1) Cl_2(theta).  Above
    2 pi/3 the argument goes through Cl_2(pi - t) = Cl_2(t) - Cl_2(2t)/2,
    whose t and 2t stay below 2 pi/3 (a cut at pi/2 would send 2t back
    above it).
    """
    if theta > 2 * mp.pi / 3:
        t = mp.pi - theta
        return _clausen(t) - _clausen(2 * t) / 2
    if not theta:
        return mp.zero
    log_theta = mp.log(theta)
    bits_per_term = 2 * (math.log(2 * math.pi) - float(log_theta)) / math.log(2)
    terms = math.ceil((mp.prec + 4) / bits_per_term) - 1  # 1 bit spare for the floats
    table = math.ceil((mp.prec + 4) / (2 * math.log2(3)))  # one more than 2 pi/3 uses
    coeffs = _rounded(clausen_coeffs, table, mp.prec)[:terms]
    theta2 = theta * theta
    return theta - theta * log_theta + theta * theta2 * horner(coeffs, theta2)


def _checked_eps(eps) -> mpf:
    """eps at the ambient precision, or ValueError outside 0 < eps < log 2,
    where Theorem 2 takes it."""
    eps = mp.mpf(eps)
    if not 0 < eps < mp.log(2):
        raise ValueError("eps must lie in (0, log 2)")
    return eps


def _eta(delta, eps) -> mpf:
    """eta = (log 2 - eps) delta/|log delta|, at the ambient precision."""
    return (mp.log(2) - mp.mpf(eps)) * delta / abs(mp.log(delta))


def g_and_h(delta, eps, prec: int = DEFAULT_PREC) -> Tuple[Tuple[mpf, mpf], mpf]:
    """((G(1-delta+eta), G(eta)), h(delta)) for the sine-product bound.

    h(delta) = (1-delta) log 2 + G(1-delta+eta) - G(eta) with
    eta = (log 2 - eps) delta/|log delta|; h -> 0 with slope -eps as
    delta -> 0+, and the admissible c-range is where h < 0.  With
    G(t) = -t log 2 - Cl_2(pi t)/pi the log 2 terms cancel exactly:
    h = [Cl_2(pi eta) - Cl_2(pi - theta)]/pi with theta = pi (delta - eta),
    and Cl_2(pi - theta) = Cl_2(theta) - Cl_2(2 theta)/2.  As eta < delta/2,
    every Cl_2 argument stays below pi/2.
    """
    with working_precision(prec):
        d = mp.mpf(delta)
        if not 0 < d < mp.mpf(1) / 4:
            raise ValueError("delta must lie in (0, 1/4)")
        eta = _eta(d, _checked_eps(eps))
        theta = mp.pi * (d - eta)
        cl_near = _clausen(mp.pi * eta)
        cl_far = _clausen(theta) - _clausen(2 * theta) / 2
        g_upper = -(1 - d + eta) * mp.ln2 - cl_far / mp.pi
        g_lower = -eta * mp.ln2 - cl_near / mp.pi
        return (g_upper, g_lower), (cl_near - cl_far) / mp.pi


def find_c_eps(eps, prec: int = DEFAULT_PREC) -> mpf:
    """Numerically locate c_eps = 1 - delta_eps with h < 0 on (0, delta_eps).

    If h(2^-12) < 0, scans a delta-grid of step 2^-FIND_C_EPS_RESOLUTION_BITS
    up to 1/4 for the first delta with h >= 0 (none: c_eps = 3/4).
    Otherwise delta_eps lies below the grid: k doubles from 12 until
    h(2^-k) < 0, the k interval is halved down to [2^-k, 2^-(k-1)], and
    c_eps = 1 if k would pass prec + 1.  This search assumes that h(2^-k)
    changes sign once in k, which stays unproved until an interval sweep
    shows h < 0 below delta_eps.  The asymptotic form
    h ~ delta [-eps + (log 2 - eps)(log L + 1 + log(2/(pi (log 2 - eps))))/L]
    with L = |log delta| puts its zero at 7.78e-12 for eps 0.1 and at
    1.002e-29 for eps 0.05, and the search finds the same.  The bracket is
    refined by precision.refine_sign_change to width 2^-prec, one unit in
    the last place of a prec-bit c_eps.  Results are cached per (eps at
    working precision, prec) by _c_eps.

    Each sign of the walk and of the k search is read from
    enclose.h_float(delta, gap), with gap = log 2 - eps rounded to a float
    once, where |value| exceeds bound, and from g_and_h everywhere else.  A
    sign h_float proves is that of an h at least 2^-41 of h_float's
    magnitudes away from 0, far above g_and_h's rounding at any precision
    working_precision allows (mp.prec >= 80), so g_and_h reads the same
    sign and c_eps is the one an all-g_and_h search finds.  At eps 0.65
    the walk reads all 1023 grid points in floats and calls g_and_h at
    none of them.  refine_sign_change starts from g_and_h at both ends of
    the bracket and reads only g_and_h.
    """
    with working_precision(prec):
        return _c_eps(_checked_eps(eps), prec)


@functools.cache
def _c_eps(eps: mpf, prec: int) -> mpf:
    h_at = lambda d: g_and_h(d, eps, prec=prec)[1]
    gap = float(mp.log(2) - eps)

    def negative(d) -> bool:  # h(d) < 0, from h_float where its bound proves it
        value, bound = h_float(d, gap)
        return value < 0 if abs(value) > bound else h_at(d) < 0

    k = FIND_C_EPS_RESOLUTION_BITS
    step = mp.mpf(2) ** -k
    if negative(step):  # walk the grid to the first delta with h >= 0
        lo = step
        while True:
            hi = lo + step
            if hi >= mp.mpf(1) / 4:
                return 1 - mp.mpf(1) / 4
            if not negative(hi):
                break
            lo = hi
    else:  # delta_eps < 2^-k: search on k for h(2^-j) >= 0 > h(2^-k), j = k - 1
        while True:
            if k == prec + 1:
                return mp.mpf(1)
            j, k = k, min(2 * k, prec + 1)
            if negative(mp.mpf(2) ** -k):
                break
        while k - j > 1:
            mid = (j + k) // 2
            if negative(mp.mpf(2) ** -mid):
                k = mid
            else:
                j = mid
        lo, hi = mp.mpf(2) ** -k, mp.mpf(2) ** -j
    lo, _ = refine_sign_change(h_at, lo, hi, h_at(lo), h_at(hi),
                               mp.mpf(2) ** -(prec + 1))
    return 1 - lo


def extremal_config(params: ExtremalParams, prec: Optional[int] = None) -> NodeConfig:
    """NodeConfig with x*_{+-k} = +-((k-1) pi + s*), x_0 = 0."""
    prec = prec or params.prec
    with working_precision(prec):
        s = params.s_star
        if not 0 < s < mp.pi:
            raise ValueError("s* must lie in (0, pi) for strict ordering")
        a = params.a
        pos = [(k - 1) * mp.pi + s for k in range(1, params.n + 1)]
        if not pos[-1] < a:
            raise ValueError("outermost node escapes (-a, a)")
        nodes = [-v for v in reversed(pos)] + [mp.mpf(0)] + pos
        return NodeConfig(n=params.n, a=a, nodes=nodes, strict=True)


def phi(y: Sequence, n: int, prec: int = DEFAULT_PREC) -> mpf:
    """(-1)^n sum_k cos((2n-1) Arcsin sqrt(y_k)) / prod_{j!=k}(y_k - y_j)
    over strictly increasing y_0 < ... < y_n in [0, 1]."""
    if len(y) != n + 1:
        raise ValueError("phi expects n+1 arguments")
    with working_precision(prec):
        ym = [mp.mpf(v) for v in y]
        for u, v in zip(ym, ym[1:]):
            if not u < v:
                raise ValueError("phi requires strictly increasing arguments")
        if ym[0] < 0 or ym[-1] > 1:
            raise ValueError("phi arguments must lie in [0, 1]")
        total = mp.mpf(0)
        for k, yk in enumerate(ym):
            total += mp.cos((2 * n - 1) * mp.asin(mp.sqrt(yk))) / node_product(ym, k)
        return (-1) ** n * total


def equal_angle_nodes(n: int, prec: int = DEFAULT_PREC) -> List[mpf]:
    """t*_k = sin^2(k pi/(2n)) for k = 0..n."""
    with working_precision(prec):
        return [mp.sin(k * mp.pi / (2 * n)) ** 2 for k in range(n + 1)]


def equal_angle_weights(n: int, prec: int = DEFAULT_PREC) -> List[mpf]:
    """gamma_k = 1/prod_{j!=k}(t*_k - t*_j) at the equal-angle nodes."""
    t = equal_angle_nodes(n, prec=prec)
    with working_precision(prec):
        return [1 / node_product(t, k) for k in range(len(t))]


def divided_bound(config: NodeConfig, params: ExtremalParams,
                  prec: int = DEFAULT_PREC) -> mpf:
    """The cosine divided-difference bound via the monotone functional route.

    Equals phi(0, t_1(s*), ..., t_n(s*)) with t_k = sin^2(pi x*_k/(2a));
    the reduction uses sin(c a) = (-1)^(n+1), which is checked numerically.
    """
    n = config.n
    with working_precision(prec):
        sca = mp.sin(params.c * config.a)
        if abs(sca - (-1) ** (n + 1)) > mp.mpf(2) ** (-(prec - 8)):
            raise ValueError("sin(c a) != (-1)^(n+1): params and config disagree")
        y = [mp.mpf(0)] + [t ** 2 for t in config.sine_nodes(prec=prec)[n + 1:]]
        return phi(y, n, prec=prec)


def hyp_coefficients(n: int, K: int) -> List[int]:
    """Exact integers prod_{j=0}^{k-1}(4 j^2 - (2n-1)^2) for k = 0..K.

    Taylor numerators of cos((2n-1) Arcsin sqrt(t)); sign (-1)^n for k >= n.
    """
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    out = [1]
    acc = 1
    for k in range(K):
        acc *= 4 * k * k - (2 * n - 1) ** 2
        out.append(acc)
    return out


@dataclass
class CertificateReport:
    n: int
    c: mpf
    eps: mpf
    m: int
    c_eps: mpf
    admissible: bool
    s_star: mpf
    sine_product: mpf
    sine_product_in_range: bool
    divided_bound: mpf
    divided_bound_in_range: bool
    product: mpf
    product_below_half: bool
    integral_bound: mpf
    total: mpf
    total_below_one: bool
    margin: mpf
    boundary_lhs: mpf
    boundary_rhs: mpf
    boundary_ok: bool
    s_lower_bound: mpf


def theorem2_certificate(n: int, c, eps, m: int,
                         prec: int = DEFAULT_PREC) -> CertificateReport:
    """Evaluate the full numeric chain on the extremal configuration.

    Sub-bounds: sine product in (0, 2^-2n); cosine divided difference in
    (0, 2^(2n-1)); their product below 1/2; plus the integral bound
    2^(2n) * |sine product| * (1 - 1/2n)^(2m) * C*; the total must be < 1.
    The integral bound is 2a c^(2m) times the paper's kernel sup bound
    2^(2n-1)/(|alpha_0| a) (a/(n pi))^(2m) C*, because 1/|alpha_0| is the
    |sine product| and c a = (n - 1/2) pi.
    Margins are reported rather than asserted; failures at small n are data.
    The boundary-sum inequality is checked with min(m, 12) boundary terms.
    s_lower_bound is Theorem 2's lower bound eta n pi =
    (log 2 - eps) delta/|log delta| n pi on the zero spread s.
    The chain is evaluated outside the admissible range c_eps < c <
    1 - 1/2n too, and the report's admissible says whether c is inside it
    (the bounds are well defined pointwise; only the supporting argument
    needs the range).
    """
    params = ExtremalParams(n=n, c=c, eps=eps, prec=prec)
    with working_precision(prec):
        if m < n * mp.log(n):
            raise ValueError("certificate regime requires m >= n log n")
        config = extremal_config(params, prec=prec)
        c_eps = find_c_eps(eps, prec=prec)
        admissible = params.admissible(c_eps)
        P = sine_product(config, prec=prec)
        D = divided_bound(config, params, prec=prec)
        product = P * D
        integral_bound = mp.mpf(2) ** (2 * n) * abs(P) \
            * (1 - mp.mpf(1) / (2 * n)) ** (2 * m) * tail_weight_constant()
        total = product + integral_bound
        lhs, rhs = boundary_sum_bound(config, params.c, min(m, 12), prec=prec)
        return CertificateReport(
            n=n, c=params.c, eps=params.eps, m=m, c_eps=c_eps,
            admissible=admissible, s_star=params.s_star, sine_product=P,
            sine_product_in_range=bool(0 < P < mp.mpf(2) ** (-2 * n)),
            divided_bound=D,
            divided_bound_in_range=bool(0 < D < mp.mpf(2) ** (2 * n - 1)),
            product=product, product_below_half=bool(product < mp.mpf(0.5)),
            integral_bound=integral_bound, total=total,
            total_below_one=bool(total < 1), margin=1 - total,
            boundary_lhs=lhs, boundary_rhs=rhs, boundary_ok=bool(lhs <= rhs),
            s_lower_bound=params.eta * n * mp.pi,
        )
