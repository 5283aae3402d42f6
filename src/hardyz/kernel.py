"""Bernoulli-combination kernels over symmetric node configurations.

A NodeConfig holds 2n+1 nodes x_{-n} <= ... <= x_n in (-a, a) with x_0 = 0;
strict ordering is the open set of admissible configurations, weak ordering
its closure-like superset where nodes of the same sign may coincide.  The
kernel weights are reciprocal sine-difference products; boundary values of
the kernels extend continuously to coincident nodes through confluent
divided differences of a smooth transfer function.

The direct Bernoulli sum lives once, in _bernoulli_sums: one pass over the
nodes in Python ints forms the moments sum_k mu_k ((2u_k - 1)^i +
(2v_k - 1)^i), u_k and v_k in fixed point from the stored nodes and a, and
degree n is one exact integer dot product of them with B_n's coefficients
about 1/2, rounded once.  psi_orders reads the degrees 2l at one point (psi
is its one-order form), and compile_psi, its Taylor form, every degree up
to 2l at each centre of the panels between the knots -a, the nodes and a;
both bound their distance from the exact kernel at the stored nodes, a and
weights.  coefficients forms the weights' sine-difference products in
Python ints too.  The Chebyshev series (psi_chebyshev_series, strict
configurations only) is the independent interior route.  Only this module
asks whether a configuration is strict: psi_star_boundary chooses the
boundary values' route, and the interior kernel's weights (coefficients)
refuse a weakly ordered one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, from_man_exp, mpf_add, mpf_div, mpf_shift,
                          to_fixed)

from .divided_diff import NodeMultiset, divided_difference_data, node_product
# bernoulli_poly is unused here, but perfbench's tracer patches
# kernel.bernoulli_poly
from .polynomials import (bernoulli_centered_coeffs, bernoulli_poly,  # noqa: F401
                          bernoulli_poly_mpf, chebyshev_rows, horner)
from .precision import DEFAULT_PREC, held, working_precision
# unused here, but perfbench's tracer patches kernel.tail_weight_constant
from .sequences import tail_weight_constant  # noqa: F401

MIN_NODE_GAP = 0.05
TERM_GUARD_BITS = 16  # zero-sum node sums cancel: nodes and terms get these bits more
# _bernoulli_sums' fraction bits above mp.prec: 16 over TERM_GUARD_BITS keep
# a degree-i moment's 8 (i + 1) units under 2^-(mp.prec + TERM_GUARD_BITS)
MOMENT_FIXED_BITS = TERM_GUARD_BITS + 16
# weight vectors coefficients keeps: psi_chebyshev_series needs two (prec
# and prec + TERM_GUARD_BITS), every other caller one
COEFFICIENTS_CACHE_SIZE = 2


class DuplicateNodeError(ValueError):
    """Operation requires pairwise distinct nodes (use the extension path)."""


class SingularParameterError(ValueError):
    """Parameter hits a removable singularity; we refuse rather than regularize."""


@dataclass
class NodeConfig:
    """Symmetric-interval node system x_{-n..n} with x_0 = 0 inside (-a, a).

    a and the nodes are held as mpf from construction (precision.held), and
    every reader uses them as stored, at any precision."""

    n: int
    a: object
    nodes: List[object]  # length 2n+1, index i <-> k = i - n
    strict: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.nodes) != 2 * self.n + 1:
            raise ValueError("need 2n+1 nodes")
        if self.nodes[self.n] != 0:
            raise ValueError("x_0 must be exactly 0")
        a = self.a = held(self.a)
        if not a > 0:
            raise ValueError("a must be positive")
        xs = self.nodes = [held(v) for v in self.nodes]
        if not (-a < xs[0] and xs[-1] < a):
            raise ValueError("nodes must lie in (-a, a)")
        if not (xs[self.n - 1] < 0 < xs[self.n + 1]):
            raise ValueError("x_{-1} < 0 < x_1 required")
        for i in range(2 * self.n):
            if i == self.n - 1 or i == self.n:
                continue  # already checked strictly around 0
            if self.strict:
                if not xs[i] < xs[i + 1]:
                    raise ValueError("strict configuration requires increasing nodes")
            elif not xs[i] <= xs[i + 1]:
                raise ValueError("nodes must be non-decreasing")

    def is_strict(self) -> bool:
        return all(x < y for x, y in zip(self.nodes, self.nodes[1:]))

    def sine_nodes(self, prec: int = DEFAULT_PREC) -> List[mpf]:
        """t_k = sin(pi x_k / 2a), the transformed nodes, k = -n..n."""
        with working_precision(prec):
            return [mp.sin(mp.pi * x / (2 * self.a)) for x in self.nodes]


@dataclass
class KernelCoefficients:
    alpha: List[mpf]
    mu: List[mpf]


def coefficients(config: NodeConfig, prec: int = DEFAULT_PREC) -> KernelCoefficients:
    """Weights alpha_k = 1/prod_{j!=k}(t_k - t_j) over the sine-transformed
    nodes, and mu_k = alpha_k/alpha_0.

    The differences of clustered sines lose their leading bits, so the
    sines are taken at 2 prec + TERM_GUARD_BITS and truncated once to as
    many fraction bits as they carry: every difference t_k - t_j is then
    exact.  The products do not cancel: each is an int mantissa kept to
    that many bits, and alpha_k and mu_k = prod_0/prod_k are each rounded
    once at the working precision.  Computed once per node configuration
    and prec: the last COEFFICIENTS_CACHE_SIZE results are kept, and a
    repeated call returns the stored object, which callers must not change.
    """
    with working_precision(prec):
        return _coefficients(config.n, config.a, tuple(config.nodes), prec)


@functools.lru_cache(maxsize=COEFFICIENTS_CACHE_SIZE)
def _coefficients(n: int, a, nodes: Tuple, prec: int) -> KernelCoefficients:
    """coefficients' weights, keyed by the configuration's values and prec,
    at the ambient precision coefficients opens for that prec."""
    config = NodeConfig(n=n, a=a, nodes=list(nodes), strict=False)
    if not config.is_strict():
        raise DuplicateNodeError("coefficients requires pairwise distinct nodes")
    bits = mp.prec + prec + TERM_GUARD_BITS  # the sines' own precision
    t = [to_fixed(v._mpf_, bits)
         for v in config.sine_nodes(2 * prec + TERM_GUARD_BITS)]
    products = []
    for k, t_k in enumerate(t):
        man, exp = 1, -2 * n * bits
        for j, t_j in enumerate(t):
            if j != k:
                man *= t_k - t_j
                drop = max(man.bit_length() - bits, 0)
                man >>= drop
                exp += drop
        products.append(from_man_exp(man, exp))
    wp, rnd = mp._prec_rounding
    return KernelCoefficients(
        alpha=[mp.make_mpf(mpf_div(fone, p, wp, rnd)) for p in products],
        mu=[mp.make_mpf(mpf_div(products[n], p, wp, rnd)) for p in products])


def psi(config: NodeConfig, l: int, x, weights: Sequence,
        prec: int = DEFAULT_PREC) -> mpf:
    """The order-(2l-1) kernel at x: psi_orders for the one order l."""
    return psi_orders(config, [l], x, weights, prec=prec)[0]


def psi_orders(config: NodeConfig, orders: Sequence[int], x, weights: Sequence,
               prec: int = DEFAULT_PREC) -> List[mpf]:
    """The order-(2l-1) kernels at x for each l in orders, in that order:
    pref_l sum_k mu_k (B_2l(u_k) + B_2l(v_k)), pref_l = (4a)^(2l-1)/(2l)!,
    u_k = 1/2 + (x + x_k)/4a and v_k = {(x - x_k)/4a}.

    weights is any zero-sum weight vector: the Lemma-style mu of
    coefficients(config, prec), or arbitrary ones as verify_key_identity
    passes.  The sums are _bernoulli_sums' at the degrees 2l, which read only
    the even moments; each is multiplied by pref_l at the working precision
    p = prec + GUARD_BITS.

    Rounding bound, for |x| <= a: with S = sum |mu_k| and
    F = p + MOMENT_FIXED_BITS, each value lies within
    |pref_l| 8S 2^-F sum_j (2j + 1) |beta_{2l,2j}| 4^-j + 2^(3-p) |value|
    of pref_l sum_k mu_k (B_2l(u_k) + B_2l(v_k)) taken exactly at the stored
    x_k and a, with x and the weights as rounded at p and pref_l exact; the
    last term covers the sum's rounding, pref_l's and the product's.
    """
    orders = list(orders)
    if any(l < 1 for l in orders):
        raise ValueError("orders must be >= 1")
    with working_precision(prec):
        a = config.a
        totals = _bernoulli_sums(config, x, weights, [2 * l for l in orders])
        return [(4 * a) ** (2 * l - 1) / mp.factorial(2 * l) * total
                for l, total in zip(orders, totals)]


def _bernoulli_sums(config: NodeConfig, x, weights: Sequence,
                    degrees: Sequence[int]) -> List[mpf]:
    """sum_k mu_k (B_n(u_k) + B_n(v_k)) for each n in degrees, u_k and v_k
    as in psi_orders, from one pass over the nodes in Python ints.

    With F = p + MOMENT_FIXED_BITS fraction bits, p = mp.prec, s = x/4a and
    r_k = x_k/4a are rounded to the nearest unit of 2^-F from the stored x,
    x_k and a; y_u = s + r_k, y_v = ((s - r_k) mod 1) - 1/2, the wrap
    decided exactly by x < x_k, and at x = +-a, s = +-1/4 and y_v = -y_u.
    B_n(1/2 + y) = sum_i beta_{n,i} 2^-i z^i with z = 2y over the i of n's
    parity (polynomials.bernoulli_centered_coeffs), so degree n is one exact
    integer dot product of the rationals beta_{n,i} 2^-i with the moments
    M_i = sum_k mu_k (z_{u,k}^i + z_{v,k}^i), rounded once at
    p + TERM_GUARD_BITS.  The moments sum the chains mu_k w^j, w = z^2, and,
    only when an odd degree is asked for, (mu_k z) w^j, each mu_k exact and
    each product truncated in one unit: 2^-F times the power of two just
    above the smallest |mu_k|.  At x = +-a the even chain runs once per
    node, doubled.  For |x| <= a, |z| <= 1, z errs by at most 2 units of
    2^-F, w by 5 and the term mu_k z^i by 4i |mu_k| 2^-F, so sum n lies within
    8S 2^-F sum_i (i + 1) |beta_{n,i}| 2^-i + 2^-(p + TERM_GUARD_BITS) |sum n|
    of its exact value at the stored arguments and weights, S = sum |mu_k|.
    """
    bits = mp.prec + MOMENT_FIXED_BITS
    one, half = 1 << bits, 1 << (bits - 1)
    xm = mp.mpf(x)
    s = _over_4a(xm._mpf_, config.a._mpf_, bits)
    rows = []  # (mu_k as sign, man, exp, bc; z_u; z_v), z in units of 2^-bits
    for m_k, xk in zip(weights, config.nodes):
        m_k = mp.mpf(m_k)._mpf_
        if m_k[1]:
            r = _over_4a(xk._mpf_, config.a._mpf_, bits)
            below = xm < xk
            rows.append((m_k, 2 * (s + r), 2 * ((s - r - below) % one + below - half)))
    low = min((exp + bc for (_, _, exp, bc), _, _ in rows), default=0) - bits
    top = max(degrees, default=0)
    even = [0] * (top // 2 + 1)  # M_0, M_2, ... in units of 2^low
    odd = [0] * ((top + 1) // 2 if any(n % 2 for n in degrees) else 0)
    for (sign, man, exp, _), z_u, z_v in rows:
        m_k = (-man if sign else man) << (exp - low)
        w_u, w_v = z_u * z_u >> bits, z_v * z_v >> bits
        chains = [(even, 2 * m_k, w_u)] if z_v == -z_u \
            else [(even, m_k, w_u), (even, m_k, w_v)]
        if odd:
            chains += [(odd, m_k * z_u >> bits, w_u), (odd, m_k * z_v >> bits, w_v)]
        for moments, term, w in chains:
            for j in range(len(moments)):
                moments[j] += term
                term = term * w >> bits
    wp, rnd = mp._prec_rounding  # what mpf's operators round at
    sums = []
    for n in degrees:
        nums, den = _centered_ratios(n)
        total = sum(c * m_i for c, m_i in zip(nums, odd if n % 2 else even))
        sums.append(mp.make_mpf(mpf_div(from_man_exp(total, low), den,
                                        wp + TERM_GUARD_BITS, rnd)))
    return sums


def _over_4a(v: tuple, a: tuple, bits: int) -> int:
    """v/4a rounded to the nearest unit of 2^-bits (half units away from
    zero), for libmp tuples v and a > 0: an int, from exact integers."""
    (sign, man, exp, _), (_, man_a, exp_a, _) = v, a
    shift = exp - exp_a - 2 + bits
    num, den = (man << shift, man_a) if shift >= 0 else (man, man_a << -shift)
    q = (2 * num + den) // (2 * den)
    return -q if sign else q


@functools.cache
def _centered_ratios(n: int) -> Tuple[List[int], tuple]:
    """(c, d), d least and a libmp tuple: c[j]/d = beta_{n,i} 2^-i exactly
    for the i = n mod 2 + 2j of polynomials.bernoulli_centered_coeffs(n)."""
    ratios = [b / 2 ** i for b, i in
              zip(bernoulli_centered_coeffs(n), range(n % 2, n + 1, 2))]
    den = lcm(*(r.denominator for r in ratios))
    return [r.numerator * (den // r.denominator) for r in ratios], from_int(den)


def kernel_knots(config: NodeConfig, prec: int = DEFAULT_PREC) -> List[mpf]:
    """-a, the distinct nodes and a, increasing: where the kernels' high
    derivatives break."""
    with working_precision(prec):
        out = [-config.a]
        for p in config.nodes + [config.a]:
            if p > out[-1]:
                out.append(p)
        return out


@dataclass
class CompiledPsi:
    """The order-(2l-1) kernel on [-a, a], one polynomial per panel: on
    [knots[i], knots[i+1]] it is sum_j coeffs[i][j] (x - centers[i])^j,
    centers[i] the knots' exact midpoint."""

    knots: List[mpf]
    centers: List[mpf]
    coeffs: List[List[mpf]]
    prec: int

    def integrate_polynomial(self, poly: Sequence) -> mpf:
        """Closed-form integral over [-a, a] of p(x) times the kernel.

        poly holds the coefficients of p in x (Fractions or numbers).  Each
        panel's integrand is a polynomial in h = x - centre, integrated term
        by term over h in [-r, r], where odd powers drop out.
        """
        with working_precision(self.prec):
            p = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                 if isinstance(c, Fraction) else mp.mpf(c) for c in poly]
            terms = []
            for lo, hi, c, q in zip(self.knots, self.knots[1:], self.centers,
                                    self.coeffs):
                ph = _taylor_shift(p, c)
                r = (hi - lo) / 2
                # moments int_{-r}^{r} h^s dh, zero for odd s
                moments = []
                r_pow = r
                for s in range(len(ph) + len(q) - 1):
                    moments.append(2 * r_pow / (s + 1) if s % 2 == 0 else 0)
                    r_pow *= r
                for i, pi in enumerate(ph):
                    terms.append(pi * mp.fsum(qj * moments[i + j]
                                              for j, qj in enumerate(q)))
            return mp.fsum(terms)


def _taylor_shift(p: List[mpf], c: mpf) -> List[mpf]:
    """Coefficients of p(c + h) in h, from those of p(x) in x."""
    d = list(p)
    for i in range(len(d) - 1):
        for j in range(len(d) - 2, i - 1, -1):
            d[j] += c * d[j + 1]
    return d


def compile_psi(config: NodeConfig, l: int, weights: Optional[Sequence] = None,
                prec: int = DEFAULT_PREC) -> CompiledPsi:
    """The order-(2l-1) kernel as one polynomial per panel between knots,
    the Taylor form of psi_orders' sum.  weights as in psi_orders, by
    default the mu of coefficients().

    On a panel with centre c, the exact midpoint of its knots (unrounded,
    so that identity's rule integrates over the panel itself),
    u_k = z + h/4a, h = x - c, never leaves (0, 1)
    and v_k wraps only at x_k, so B_2l^(j)/j! = binom(2l, j) B_{2l-j} makes
    the coefficient of h^j q_j = s_j sum_k mu_k (B_{2l-j}(u_k) + B_{2l-j}(v_k))
    at c, s_j = (4a)^(2l-1-j)/(j! (2l-j)!): _bernoulli_sums' sums times s_j,
    formed at TERM_GUARD_BITS more, rounded at the working precision p.

    Rounding bound, psi_orders' extended to the odd moments: q_j lies within
    |s_j| 8S 2^-F sum_i (i + 1) |beta_{2l-j,i}| 2^-i + 2^(1-p) |q_j|
    of that sum taken exactly at the stored x_k, a and c, with s_j exact;
    the last term covers the product's rounding, the sum's and s_j's, which
    is within (2l + 3) 2^-(p + TERM_GUARD_BITS) relative.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    mu = list(weights) if weights is not None else coefficients(config, prec=prec).mu
    knots = kernel_knots(config, prec)
    two_l = 2 * l
    with working_precision(prec):
        with mp.extraprec(TERM_GUARD_BITS):
            scales = [(4 * config.a) ** (two_l - 1 - j)
                      / (factorial(j) * factorial(two_l - j)) for j in range(two_l + 1)]
        centers, coeffs = [], []
        for lo, hi in zip(knots, knots[1:]):
            c = mp.make_mpf(mpf_shift(mpf_add(lo._mpf_, hi._mpf_), -1))  # exact
            sums = _bernoulli_sums(config, c, mu, range(two_l, -1, -1))
            centers.append(c)
            coeffs.append([s_j * total for s_j, total in zip(scales, sums)])
    return CompiledPsi(knots=knots, centers=centers, coeffs=coeffs, prec=prec)


def _boundary_transfer(l: int, a, sign: int) -> Callable:
    """h(t) = 2 (4a)^(2l-1)/(2l)! B_2l(1/2 +- 1/4 + Arcsin(t)/(2 pi)).

    Smooth on (-1, 1); the kernel boundary value is the divided difference of
    h over the sine-transformed nodes divided by alpha_0.  h runs at the
    ambient precision, so mp.diff's step method can raise it.
    """
    base = mp.mpf(0.5) + sign * mp.mpf(0.25)

    def h(t):
        u = base + mp.asin(t) / (2 * mp.pi)
        return 2 * (4 * a) ** (2 * l - 1) / mp.factorial(2 * l) \
            * horner(bernoulli_poly_mpf(2 * l), u)

    return h


def psi_star_boundary(config: NodeConfig, orders: Sequence[int], sign: int,
                      prec: int = DEFAULT_PREC) -> List[mpf]:
    """Continuous extension of the kernel boundary values at x = sign*a, one
    per order l in orders, in that order.

    For strict configurations these are psi_orders at sign*a, over the
    weights coefficients() keeps for the configuration.  Coincident nodes go
    order by order through the confluent divided difference of the transfer
    function over the sine-transformed nodes, at twice the caller precision,
    with derivatives by mp.diff.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    orders = list(orders)
    if any(l < 1 for l in orders):
        raise ValueError("orders must be >= 1")
    with working_precision(prec):
        if config.is_strict():
            return psi_orders(config, orders, sign * config.a,
                              coefficients(config, prec=prec).mu, prec=prec)
        with mp.extraprec(prec):
            t = config.sine_nodes(2 * prec + TERM_GUARD_BITS)
            nodes = NodeMultiset(list(t))
            inv_alpha0 = node_product(t, config.n)
            values = []
            for l in orders:
                h = _boundary_transfer(l, config.a, sign)
                dd = divided_difference_data(nodes, lambda y, i: mp.diff(h, y, i),
                                             prec=2 * prec + TERM_GUARD_BITS)
                values.append(dd * inv_alpha0)
        return [+v for v in values]


def chebyshev_moments(config: NodeConfig, lo: int, hi: int,
                      prec: int = DEFAULT_PREC) -> List[mpf]:
    """[S_lo, .., S_hi], S_j = (-1)^j sum_k alpha_k T_j(t_k) with alpha =
    coefficients(config, prec).alpha, so a weakly ordered configuration is
    refused (DuplicateNodeError), and T_j(t_k) from one chebyshev_rows table
    at prec + TERM_GUARD_BITS; each sum runs in order at prec.  S_j vanishes
    for j = 1..2n-1."""
    term_prec = prec + TERM_GUARD_BITS
    with working_precision(prec):
        alpha = coefficients(config, prec=prec).alpha
        rows = chebyshev_rows(config.sine_nodes(term_prec), hi, prec=term_prec)
        moments = []
        for j in range(lo, hi + 1):
            total = mp.mpf(0)
            for al, tj in zip(alpha, rows[j]):
                total += al * tj
            moments.append((-1) ** j * total)
        return moments


def psi_chebyshev_series(config: NodeConfig, l: int, x, J: int,
                         prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Chebyshev-series evaluation of the kernel with analytic tail bound.

    Returns (pref sum_j S_j cos(j pi (1/2 + x/2a)) / j^(2l) over
    j = 2n..2n+J, bound on the terms j > 2n+J), with the prefactor
    pref = (-1)^(l+1) 2 (2a)^(2l-1) / (alpha_0 pi^(2l)), alpha_0 from
    coefficients() at prec and the moments S_j from chebyshev_moments at
    prec + TERM_GUARD_BITS, whose one table carries T_j(t_k) from one j to
    the next, so the J + 1 moments cost O((n + J) n) steps, not
    O((n + J)^2 n).  Valid for l >= n+1.  The bound needs distinct nodes,
    so a weak configuration is refused.
    """
    if not config.is_strict():
        raise DuplicateNodeError(
            "psi_chebyshev_series requires a strict configuration")
    n = config.n
    if l < n + 1:
        raise ValueError("series representation requires l >= n+1")
    if J < 0:
        raise ValueError("J must be >= 0")
    with working_precision(prec):
        a = config.a
        alpha = coefficients(config, prec=prec).alpha
        pref = (-1) ** (l + 1) * 2 * (2 * a) ** (2 * l - 1) / (alpha[n] * mp.pi ** (2 * l))
        xm = mp.mpf(x)
        moments = chebyshev_moments(config, 2 * n, 2 * n + J, prec=prec + TERM_GUARD_BITS)
        total = mp.mpf(0)
        for j, s_j in enumerate(moments, 2 * n):
            total += s_j * mp.cos(j * mp.pi * (mp.mpf(0.5) + xm / (2 * a))) \
                / mp.mpf(j) ** (2 * l)
        M = 2 * n + J
        # |S_j| <= max|alpha_k| (2n+1); sum_{j>M} j^(-2l) <= M^(1-2l)/(2l-1)
        s_bound = max(abs(v) for v in alpha) * (2 * n + 1)
        tail = abs(pref) * s_bound * mp.mpf(M) ** (1 - 2 * l) / (2 * l - 1)
        return pref * total, tail


def divided_bound_direct(config: NodeConfig, c, prec: int = DEFAULT_PREC) -> mpf:
    """The cosine divided difference (-1/sin(ca)) sum_k alpha_k cos(c x_k)
    over all 2n+1 nodes, with alpha from the kernel coefficient products."""
    with working_precision(prec):
        cm = mp.mpf(c)
        total = mp.mpf(0)
        for al, xk in zip(coefficients(config, prec=prec).alpha, config.nodes):
            total += al * mp.cos(cm * xk)
        return -total / mp.sin(cm * config.a)


def sine_product(config: NodeConfig, prec: int = DEFAULT_PREC,
                 log_domain: bool = False) -> mpf:
    """(-1)^n prod_{j!=0} sin(pi x_j/2a); contract (0, 2^-2n) on extremal
    configurations in the admissible range."""
    with working_precision(prec):
        n = config.n
        t = config.sine_nodes(prec=prec)
        if log_domain:
            log_abs = mp.mpf(0)
            sign = 1
            for i, s in enumerate(t):
                if i == n:
                    continue
                sign *= 1 if s > 0 else -1
                log_abs += mp.log(abs(s))
            return (-1) ** n * sign * mp.e ** log_abs
        # prod_{j != 0}(t_0 - t_j) with t_0 = 0 has 2n factors
        return (-1) ** n * node_product(t, n)


def boundary_sum_bound(config: NodeConfig, c, m: int,
                       prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Both sides of the boundary-sum inequality.

    lhs = sum_{k=1..m} (-1)^(n+k+1) [Psi*_{2k-1}(a) + Psi*_{2k-1}(-a)] c^(2k-1);
    rhs = sine_product(config) * divided_bound_direct(config, c).  The
    configuration is strict, and psi_star_boundary reads all m orders at a
    and at -a.
    Contract: lhs <= rhs for 0 < c a < n pi with c a off the multiples of pi.
    """
    if not config.is_strict():
        raise DuplicateNodeError("boundary_sum_bound requires a strict configuration")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = config.n
    with working_precision(prec):
        cm = mp.mpf(c)
        ca = cm * config.a
        if not 0 < ca < n * mp.pi:
            raise ValueError("need 0 < c*a < n*pi")
        tol = mp.mpf(2) ** (-(prec // 4))
        for j in range(1, n):
            if abs(ca - j * mp.pi) < tol:
                raise SingularParameterError(
                    f"c*a within tolerance of {j}*pi (removable singularity; refused)")
        at_a, at_minus_a = (psi_star_boundary(config, range(1, m + 1), sign, prec=prec)
                            for sign in (1, -1))
        lhs = mp.mpf(0)
        for k, (plus, minus) in enumerate(zip(at_a, at_minus_a), 1):
            lhs += (-1) ** (n + k + 1) * (plus + minus) * cm ** (2 * k - 1)
        rhs = sine_product(config, prec=prec) \
            * divided_bound_direct(config, c, prec=prec)
        return lhs, rhs


def random_config(rng, n: int, prec: int = DEFAULT_PREC) -> NodeConfig:
    """Seeded random strict configuration with 2n+1 nodes in (-a, a), with a
    drawn from [2, 6).

    rng is a random.Random; node fractions keep a relative gap of
    MIN_NODE_GAP so the weight products stay well conditioned.
    """
    if n < 1:
        raise ValueError(f"a configuration needs n >= 1, got n = {n}")
    with working_precision(prec):
        am = mp.mpf(2 + 4 * rng.random())
        pos = sorted(rng.uniform(MIN_NODE_GAP, 0.95) for _ in range(n))
        neg = sorted(rng.uniform(MIN_NODE_GAP, 0.95) for _ in range(n))
        for side in (pos, neg):
            for i in range(1, n):
                if side[i] - side[i - 1] < MIN_NODE_GAP:
                    side[i] = side[i - 1] + MIN_NODE_GAP
            if side[-1] > 0.97:
                scale = 0.97 / side[-1]
                side[:] = [v * scale for v in side]
        nodes = [-am * mp.mpf(v) for v in reversed(neg)] + [mp.mpf(0)] \
            + [am * mp.mpf(v) for v in pos]
        return NodeConfig(n=n, a=am, nodes=nodes, strict=True)

