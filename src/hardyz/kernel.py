"""Bernoulli-combination kernels over symmetric node configurations.

A NodeConfig holds 2n+1 nodes x_{-n} <= ... <= x_n in (-a, a) with x_0 = 0;
strict ordering is the open set of admissible configurations, weak ordering
its closure-like superset where nodes of the same sign may coincide.  The
kernel weights are reciprocal sine-difference products; boundary values of
the kernels extend continuously to coincident nodes through confluent
divided differences of a smooth transfer function.

The direct Bernoulli sum lives once, in _bernoulli_sums: one pass over the
nodes forms the moments sum_k mu_k (u_k - 1/2)^i, and degree n is a short
sum of them against B_n's coefficients about 1/2.  psi_orders reads the
degrees 2l at one point (psi is its one-order form), and compile_psi, its
Taylor form, every degree up to 2l at each centre of the panels between the
knots -a, the nodes and a; both state their rounding bounds.  The Chebyshev
series (psi_chebyshev_series, strict configurations only) is the
independent interior route.  Only this module asks whether a configuration
is strict: psi_star_boundary chooses the boundary values' route, and the
interior kernel's weights (coefficients) refuse a weakly ordered one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import fhalf, fzero, mpf_add, mpf_mul, mpf_sub

from .divided_diff import NodeMultiset, divided_difference_data, node_product
# bernoulli_poly is unused here, but perfbench's tracer patches
# kernel.bernoulli_poly
from .polynomials import (bernoulli_centered_mpf, bernoulli_poly,  # noqa: F401
                          bernoulli_poly_mpf, chebyshev, horner)
from .precision import DEFAULT_PREC, held, working_precision
# unused here, but perfbench's tracer patches kernel.tail_weight_constant
from .sequences import tail_weight_constant  # noqa: F401

MIN_NODE_GAP = 0.05
TERM_GUARD_BITS = 16  # zero-sum node sums cancel: nodes and terms get these bits more
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
    pref_l sum_k mu_k (B_2l(u_k) + B_2l(v_k)), pref_l = (4a)^(2l-1)/(2l)!,
    u_k = 1/2 + (x + x_k)/4a and v_k = {(x - x_k)/4a}.

    weights is any zero-sum weight vector: the Lemma-style mu of
    coefficients(config, prec), or arbitrary ones as verify_key_identity
    passes.  The sums are _bernoulli_sums' at the degrees 2l, which read only
    the even moments; each is multiplied by pref_l at the working precision
    p = prec + GUARD_BITS.

    Rounding bound, for |x| <= a: with S = sum |mu_k|, K the number of
    nonzero weights, eps = 2^-(p + TERM_GUARD_BITS) and N = K + 2l + 4,
    each value lies within
    |pref_l| 2S sum_j |beta_{2l,2j}| 4^-j N eps/(1 - N eps) + 2^(1-p) |value|
    of pref_l sum_k mu_k (B_2l(u_k) + B_2l(v_k)), taken exactly over the
    rounded u_k, v_k and mu_k, with pref_l as rounded.
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
    as in psi_orders, from one libmp pass over the nodes.

    u_k, v_k and mu_k round at the ambient precision p, and y = u - 1/2 is
    exact.  B_n(1/2 + y) = sum_i beta_{n,i} y^i over the i of n's parity
    (polynomials.bernoulli_centered_mpf), so degree n reads the moments
    M_i = sum_k mu_k (y_{u,k}^i + y_{v,k}^i) of its parity: even ones by the
    chain mu_k w^j, w = y^2 exact, odd ones, only when asked for, by
    (mu_k y) w^j, all at TERM_GUARD_BITS more (eps).  For n <= 2l a term
    rounds at most l times in its chain, K in the sums over the nodes, 3 in
    beta and l + 1 in the sum over i, and |y| <= 1/2 where |x| <= a: sum n
    is within 2S sum_i |beta_{n,i}| 2^-i N eps/(1 - N eps) of its exact
    value over the rounded arguments (S, K and N as in psi_orders).
    """
    a = config.a
    xm = mp.mpf(x)
    rows = []  # (mu_k, y_u, y_v) as libmp tuples, y exact
    for m_k, xk in zip(weights, config.nodes):
        m_k = mp.mpf(m_k)
        if m_k != 0:
            v = (xm - xk) / (4 * a)
            u = mp.mpf(0.5) + (xm + xk) / (4 * a)
            rows.append((m_k._mpf_, mpf_sub(u._mpf_, fhalf),
                         mpf_sub((v - mp.floor(v))._mpf_, fhalf)))
    top = max(degrees, default=0)
    with mp.extraprec(TERM_GUARD_BITS):
        wp, rnd = mp._prec_rounding  # what mpf's operators round at
        even = [fzero] * (top // 2 + 1)  # M_0, M_2, ...
        odd = [fzero] * ((top + 1) // 2 if any(n % 2 for n in degrees) else 0)
        for m_k, y_u, y_v in rows:
            w_u, w_v = mpf_mul(y_u, y_u), mpf_mul(y_v, y_v)
            chains = [(even, m_k, m_k)]
            if odd:
                chains.append((odd, mpf_mul(m_k, y_u, wp, rnd),
                               mpf_mul(m_k, y_v, wp, rnd)))
            for moments, p_u, p_v in chains:
                for j in range(len(moments)):
                    moments[j] = mpf_add(moments[j], mpf_add(p_u, p_v, wp, rnd),
                                         wp, rnd)
                    p_u = mpf_mul(p_u, w_u, wp, rnd)
                    p_v = mpf_mul(p_v, w_v, wp, rnd)
        sums = []
        for n in degrees:
            total = fzero
            for b, m_i in zip(bernoulli_centered_mpf(n), odd if n % 2 else even):
                total = mpf_add(total, mpf_mul(b._mpf_, m_i, wp, rnd), wp, rnd)
            sums.append(mp.make_mpf(total))
        return sums


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
    [knots[i], knots[i+1]] it is sum_j coeffs[i][j] (x - centers[i])^j."""

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

    On a panel with centre c, u_k = z + h/4a, h = x - c, never leaves (0, 1)
    and v_k wraps only at x_k, so B_2l^(j)/j! = binom(2l, j) B_{2l-j} makes
    the coefficient of h^j q_j = s_j sum_k mu_k (B_{2l-j}(u_k) + B_{2l-j}(v_k))
    at c, s_j = (4a)^(2l-1-j)/(j! (2l-j)!): _bernoulli_sums' sums times s_j,
    formed at TERM_GUARD_BITS more, rounded at the working precision p.

    Rounding bound, psi_orders' extended to the odd moments: q_j lies within
    |s_j| 2S sum_i |beta_{2l-j,i}| 2^-i N eps/(1 - N eps) + 2^(1-p) |q_j|
    of that sum taken exactly over the rounded u_k, v_k and mu_k, with s_j
    exact; the last term covers the product's rounding and s_j's, which is
    within (2l + 3) eps relative.
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
            c = (lo + hi) / 2
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


def chebyshev_moment(config: NodeConfig, j: int, prec: int = DEFAULT_PREC) -> mpf:
    """S_j = sum_k alpha_k (-1)^j T_j(t_k), alpha = coefficients(config,
    prec).alpha, so a weakly ordered configuration is refused
    (DuplicateNodeError).  Vanishes for j = 1..2n-1."""
    term_prec = prec + TERM_GUARD_BITS
    with working_precision(prec):
        t = config.sine_nodes(term_prec)
        total = mp.mpf(0)
        for al, tk in zip(coefficients(config, prec=prec).alpha, t):
            total += al * chebyshev(j, tk, prec=term_prec)
        return (-1) ** j * total


def psi_chebyshev_series(config: NodeConfig, l: int, x, J: int,
                         prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Chebyshev-series evaluation of the kernel with analytic tail bound.

    Returns (pref sum_j S_j cos(j pi (1/2 + x/2a)) / j^(2l) over
    j = 2n..2n+J, bound on the terms j > 2n+J), with the prefactor
    pref = (-1)^(l+1) 2 (2a)^(2l-1) / (alpha_0 pi^(2l)), alpha_0 from
    coefficients() at prec and the moments S_j at prec + TERM_GUARD_BITS.
    Valid for l >= n+1.  The bound needs distinct nodes, so a weak
    configuration is refused.
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
        total = mp.mpf(0)
        for j in range(2 * n, 2 * n + J + 1):
            s_j = chebyshev_moment(config, j, prec=prec + TERM_GUARD_BITS)
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

