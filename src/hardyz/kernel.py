"""Bernoulli-combination kernels over symmetric node configurations.

A NodeConfig holds 2n+1 nodes x_{-n} <= ... <= x_n in (-a, a) with x_0 = 0;
strict ordering is the open set of admissible configurations, weak ordering
its closure-like superset where nodes of the same sign may coincide.  The
kernel weights are reciprocal sine-difference products; boundary values of
the kernels extend continuously to coincident nodes through confluent
divided differences of a smooth transfer function.

Between consecutive knots (-a, the nodes and a) each kernel is one
polynomial in x; compile_psi builds those polynomials once per weight vector
so the interior of [-a, a] costs one short Horner pass per point.  The
direct Bernoulli sum lives once, in psi_orders: any list of orders at one
point from one set of Bernoulli arguments and weights, one Horner pass per
order and argument (polynomials.horner, on libmp tuples when everything is
an mpf); psi is its one-order form.  compile_psi and the Chebyshev series
are the independent routes.  Only this module asks whether a configuration
is strict: psi_star_boundary and interior_kernel choose the route for the
boundary values and for the interior.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import NodeMultiset, divided_difference_data, node_product
# bernoulli_poly is unused here, but perfbench's tracer patches
# kernel.bernoulli_poly
from .polynomials import (bernoulli_poly, bernoulli_poly_mpf,  # noqa: F401
                          chebyshev, chebyshev_derivatives, horner)
from .precision import DEFAULT_PREC, held, working_precision
# unused here, but perfbench's tracer patches kernel.tail_weight_constant
from .sequences import tail_weight_constant  # noqa: F401

MIN_NODE_GAP = 0.05
TERM_GUARD_BITS = 16  # zero-sum node sums cancel: nodes and terms get these bits more
COMPILE_BITS_PER_ORDER = 2  # compile_psi's Taylor sums cancel ~binom(2l, l) ~ 4^l more
# weight vectors coefficients keeps: chebyshev_psi needs two (prec and
# prec + TERM_GUARD_BITS), every other caller one
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

    Computed at twice the caller precision (the products cancel badly for
    clustered nodes), once per node configuration and prec: the last
    COEFFICIENTS_CACHE_SIZE results are kept, and a repeated call returns
    the stored object, which callers must not change.
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
    with mp.extraprec(prec):
        t = config.sine_nodes(2 * prec + TERM_GUARD_BITS)
        alpha = [1 / node_product(t, k) for k in range(len(t))]
        mu = [v / alpha[n] for v in alpha]
    return KernelCoefficients(alpha=[+v for v in alpha], mu=[+v for v in mu])


def psi(config: NodeConfig, l: int, x, weights: Sequence,
        prec: int = DEFAULT_PREC) -> mpf:
    """The order-(2l-1) kernel at x: psi_orders for the one order l."""
    return psi_orders(config, [l], x, weights, prec=prec)[0]


def psi_orders(config: NodeConfig, orders: Sequence[int], x, weights: Sequence,
               prec: int = DEFAULT_PREC) -> List[mpf]:
    """The order-(2l-1) kernels at x for each l in orders, in that order:
    (4a)^(2l-1)/(2l)! sum_k w_k (B_2l(u_k) + B_2l(v_k)).

    weights is any zero-sum weight vector: the Lemma-style mu of
    coefficients(config, prec), or arbitrary ones as verify_key_identity
    passes.  The Bernoulli arguments u_k = 1/2 + (x + x_k)/4a and v_k =
    {(x - x_k)/4a} and the rounded weights do not depend on the order, so
    they are computed once; each order then costs its two Horner passes per
    node, at TERM_GUARD_BITS more.
    """
    orders = list(orders)
    if any(l < 1 for l in orders):
        raise ValueError("orders must be >= 1")
    with working_precision(prec):
        a = config.a
        xm = mp.mpf(x)
        terms = []
        for m_k, xk in zip(weights, config.nodes):
            m_k = mp.mpf(m_k)
            if m_k != 0:
                v = (xm - xk) / (4 * a)
                terms.append((m_k, mp.mpf(0.5) + (xm + xk) / (4 * a), v - mp.floor(v)))
        values = []
        for l in orders:
            two_l = 2 * l
            pref = (4 * a) ** (two_l - 1) / mp.factorial(two_l)
            with mp.extraprec(TERM_GUARD_BITS):
                b = bernoulli_poly_mpf(two_l)
                sums = [(m_k, horner(b, u), horner(b, v)) for m_k, u, v in terms]
            total = mp.mpf(0)
            for m_k, bu, bv in sums:
                total += m_k * (bu + bv)
            values.append(pref * total)
        return values


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
    """The order-(2l-1) kernel on [-a, a], one polynomial per panel.

    Panel i is [knots[i], knots[i+1]]; on it the kernel equals
    sum_j coeffs[i][j] (x - centers[i])^j.
    """

    knots: List[mpf]
    centers: List[mpf]
    coeffs: List[List[mpf]]
    prec: int

    def __call__(self, x) -> mpf:
        with working_precision(self.prec):
            xm = mp.mpf(x)
            i = min(max(bisect_right(self.knots, xm) - 1, 0), len(self.coeffs) - 1)
            return horner(self.coeffs[i], xm - self.centers[i])

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
    """The order-(2l-1) kernel as one polynomial per panel between knots.

    On a panel with centre c, every Bernoulli argument of psi is z + h/(4a)
    with z fixed and h = x - c: u_k = 1/2 + (x + x_k)/4a never leaves (0, 1)
    and v_k = {(x - x_k)/4a} wraps only at x_k.  Taylor's theorem with
    B_2l^(j)/j! = binom(2l, j) B_{2l-j} gives the coefficient of h^j as
    (4a)^-j sum_i b_i binom(i, j) P_{i-j}, with b_i the coefficients of
    B_2l and P_p = sum_k mu_k (u_k^p + v_k^p) at h = 0.  weights as in psi,
    by default the mu of coefficients().
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    mu = list(weights) if weights is not None else coefficients(config, prec=prec).mu
    knots = kernel_knots(config, prec)
    two_l = 2 * l
    with working_precision(prec), mp.extraprec(COMPILE_BITS_PER_ORDER * l):
        beta = 1 / (4 * config.a)
        pref = (4 * config.a) ** (two_l - 1) / mp.factorial(two_l)
        b = bernoulli_poly_mpf(two_l)
        terms = [(m_k, xk) for m_k, xk in zip(map(mp.mpf, mu), config.nodes)
                 if m_k != 0]
        centers, coeffs = [], []
        for lo, hi in zip(knots, knots[1:]):
            c = (lo + hi) / 2
            power_sums = [mp.mpf(0)] * (two_l + 1)
            for m_k, xk in terms:
                u = mp.mpf(0.5) + (c + xk) * beta
                v = (c - xk) * beta
                if v < 0:
                    v += 1  # c lies strictly between knots, never on x_k
                pu = pv = m_k
                for e in range(two_l + 1):
                    power_sums[e] += pu + pv
                    pu *= u
                    pv *= v
            q = []
            scale = pref
            for j in range(two_l + 1):
                q.append(scale * mp.fsum(b[i] * comb(i, j) * power_sums[i - j]
                                         for i in range(j, two_l + 1)))
                scale *= beta
            centers.append(c)
            coeffs.append(q)
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


def interior_kernel(config: NodeConfig, l: int, prec: int = DEFAULT_PREC) -> Callable:
    """x -> Psi*_{2l-1}(x) on [-a, a]: compile_psi over the weights
    coefficients() keeps for strict configurations, the Chebyshev series
    for weakly ordered ones (l >= n+1)."""
    if config.is_strict():
        return compile_psi(config, l, prec=prec)
    # choose J so the j^(-2l) decay pushes the tail below working accuracy
    return chebyshev_psi(config, l, max(40, int(2 * prec / (2 * l - 1))), prec=prec)


def chebyshev_moment(config: NodeConfig, j: int, prec: int = DEFAULT_PREC) -> mpf:
    """S_j = sum_k alpha_k (-1)^j T_j(t_k), confluent-safe.

    For strict configurations alpha is coefficients(config, prec).alpha; for
    weakly ordered ones S_j is the confluent divided difference of
    (-1)^j T_j over the sine-transformed nodes.  Vanishes for j = 1..2n-1.
    """
    term_prec = prec + TERM_GUARD_BITS
    with working_precision(prec):
        t = config.sine_nodes(term_prec)
        if config.is_strict():
            total = mp.mpf(0)
            for al, tk in zip(coefficients(config, prec=prec).alpha, t):
                total += al * chebyshev(j, tk, prec=term_prec)
            return (-1) ** j * total
        nm = NodeMultiset(list(t))
        need = nm.max_multiplicity() - 1

        # here the confluent triangle is the sum, and its data are the terms
        data_prec = term_prec + TERM_GUARD_BITS

        def data(y, i):
            return chebyshev_derivatives(j, y, need, prec=data_prec)[i] \
                if i > 0 else chebyshev(j, y, prec=data_prec)

        dd = divided_difference_data(nm, data, prec=term_prec)
        return (-1) ** j * dd


@dataclass
class ChebyshevPsi:
    """The order-(2l-1) kernel as its Chebyshev series through j = 2n+J:
    pref * sum_j S_j cos(j pi (1/2 + x/2a)) / j^(2l) over the moments
    (j, S_j)."""

    a: mpf
    l: int
    pref: mpf
    moments: List[Tuple[int, mpf]]
    prec: int

    def __call__(self, x) -> mpf:
        with working_precision(self.prec):
            xm = mp.mpf(x)
            total = mp.mpf(0)
            for j, s_j in self.moments:
                total += s_j * mp.cos(j * mp.pi * (mp.mpf(0.5) + xm / (2 * self.a))) \
                    / mp.mpf(j) ** (2 * self.l)
            return self.pref * total


def chebyshev_psi(config: NodeConfig, l: int, J: int,
                  prec: int = DEFAULT_PREC) -> ChebyshevPsi:
    """The Chebyshev-series kernel, with alpha_0, the prefactor
    (-1)^(l+1) 2 (2a)^(2l-1) / (alpha_0 pi^(2l)) and the moments S_j for
    j = 2n..2n+J computed once.  Strict configurations take alpha_0 from
    coefficients() at prec and the moments' weights at prec +
    TERM_GUARD_BITS, the moments' own precision.  Valid for l >= n+1, where
    it is also the continuous extension of the kernel to weakly ordered
    configurations for interior x."""
    n = config.n
    if l < n + 1:
        raise ValueError("series representation requires l >= n+1")
    if J < 0:
        raise ValueError("J must be >= 0")
    with working_precision(prec):
        a = config.a
        if config.is_strict():
            alpha0 = coefficients(config, prec=prec).alpha[n]
        else:
            alpha0 = 1 / node_product(config.sine_nodes(prec + TERM_GUARD_BITS), n)
        pref = (-1) ** (l + 1) * 2 * (2 * a) ** (2 * l - 1) / (alpha0 * mp.pi ** (2 * l))
        moments = [(j, chebyshev_moment(config, j, prec=prec + TERM_GUARD_BITS))
                   for j in range(2 * n, 2 * n + J + 1)]
    return ChebyshevPsi(a=a, l=l, pref=pref, moments=moments, prec=prec)


def psi_chebyshev_series(config: NodeConfig, l: int, x, J: int,
                         prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Chebyshev-series evaluation of the kernel with analytic tail bound.

    Returns (chebyshev_psi(config, l, J)(x), bound on the terms j > 2n+J).
    The bound needs distinct nodes; a weak configuration has no tail bound.
    """
    if not config.is_strict():
        raise DuplicateNodeError(
            "psi_chebyshev_series requires a strict configuration")
    kern = chebyshev_psi(config, l, J, prec=prec)
    n = config.n
    with working_precision(prec):
        value = kern(x)
        M = 2 * n + J
        # |S_j| <= max|alpha_k| (2n+1); sum_{j>M} j^(-2l) <= M^(1-2l)/(2l-1)
        alpha = coefficients(config, prec=prec).alpha
        s_bound = max(abs(v) for v in alpha) * (2 * n + 1)
        tail = abs(kern.pref) * s_bound * mp.mpf(M) ** (1 - 2 * l) / (2 * l - 1)
        return value, tail


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

