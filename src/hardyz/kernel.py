"""Bernoulli-combination kernels over symmetric node configurations.

A NodeConfig holds 2n+1 nodes x_{-n} <= ... <= x_n in (-a, a) with x_0 = 0;
strict ordering is the open set of admissible configurations, weak ordering
its closure-like superset where nodes of the same sign may coincide.  The
kernel weights are reciprocal sine-difference products; boundary values of
the kernels extend continuously to coincident nodes through confluent
divided differences of a smooth transfer function.

Between consecutive knots (-a, the nodes and a) each kernel is one
polynomial in x; compile_psi builds those polynomials once per weight vector
so the interior of [-a, a] costs one short Horner pass per point.  psi, the
direct Bernoulli sum, stays the reference route.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import NodeMultiset, divided_difference_data
from .polynomials import (bernoulli_poly, bernoulli_poly_mpf, chebyshev,
                          chebyshev_derivatives)
from .precision import DEFAULT_PREC, GUARD_BITS, to_mpf, working_precision
from .sequences import TAIL_WEIGHT_MIN_N, tail_weight_constant


class DuplicateNodeError(ValueError):
    """Operation requires pairwise distinct nodes (use the extension path)."""


class SingularParameterError(ValueError):
    """Parameter hits a removable singularity; we refuse rather than regularize."""


@dataclass
class NodeConfig:
    """Symmetric-interval node system x_{-n..n} with x_0 = 0 inside (-a, a)."""

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
        a = mp.mpf(self.a)
        if not a > 0:
            raise ValueError("a must be positive")
        xs = [mp.mpf(v) for v in self.nodes]
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

    def node(self, k: int):
        """x_k for k in -n..n."""
        return self.nodes[k + self.n]

    def is_strict(self) -> bool:
        xs = self.nodes
        return all(mp.mpf(xs[i]) < mp.mpf(xs[i + 1]) for i in range(len(xs) - 1))

    def sine_nodes(self, prec: int = DEFAULT_PREC) -> List[mpf]:
        """t_k = sin(pi x_k / 2a), the transformed nodes, k = -n..n."""
        with working_precision(prec):
            a = mp.mpf(self.a)
            return [mp.sin(mp.pi * mp.mpf(x) / (2 * a)) for x in self.nodes]


@dataclass
class KernelCoefficients:
    alpha: List[mpf]
    mu: List[mpf]

    def alpha_k(self, k: int):
        return self.alpha[k + (len(self.alpha) - 1) // 2]

    def mu_k(self, k: int):
        return self.mu[k + (len(self.mu) - 1) // 2]


def coefficients(config: NodeConfig, prec: int = DEFAULT_PREC) -> KernelCoefficients:
    """Weights alpha_k = 1/prod_{j!=k}(t_k - t_j) over the sine-transformed
    nodes, and mu_k = alpha_k/alpha_0.

    Computed at twice the caller precision (the products cancel badly for
    clustered nodes).
    """
    if not config.is_strict():
        raise DuplicateNodeError("coefficients requires pairwise distinct nodes")
    with working_precision(2 * prec):
        t = config.sine_nodes(prec=mp.prec)
        N = len(t)
        alpha = []
        for k in range(N):
            prod = mp.mpf(1)
            for j in range(N):
                if j != k:
                    prod *= t[k] - t[j]
            alpha.append(1 / prod)
        a0 = alpha[config.n]
        mu = [v / a0 for v in alpha]
    with working_precision(prec):
        return KernelCoefficients(alpha=[+v for v in alpha], mu=[+v for v in mu])


def psi(config: NodeConfig, l: int, x, prec: int = DEFAULT_PREC,
        weights: Optional[Sequence] = None) -> mpf:
    """Direct Bernoulli-sum evaluation of the order-(2l-1) kernel at x.

    weights overrides the mu_k (used with arbitrary zero-sum weight vectors);
    by default the Lemma-style mu from coefficients() are used.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    mu = list(weights) if weights is not None else coefficients(config, prec=prec).mu
    with working_precision(prec):
        a = mp.mpf(config.a)
        xm = mp.mpf(x)
        two_l = 2 * l
        pref = (4 * a) ** (two_l - 1) / mp.factorial(two_l)
        total = mp.mpf(0)
        for i, m_k in enumerate(mu):
            m_k = mp.mpf(m_k)
            if m_k == 0:
                continue
            xk = mp.mpf(config.nodes[i])
            u = mp.mpf(0.5) + (xm + xk) / (4 * a)
            v = (xm - xk) / (4 * a)
            v = v - mp.floor(v)
            total += m_k * (bernoulli_poly(two_l, u, prec=mp.prec)
                            + bernoulli_poly(two_l, v, prec=mp.prec))
        return pref * total


def kernel_knots(config: NodeConfig, prec: int = DEFAULT_PREC) -> List[mpf]:
    """-a, the distinct nodes and a, increasing: where the kernels' high
    derivatives break."""
    with working_precision(prec):
        a = mp.mpf(config.a)
        out = [-a]
        for p in [mp.mpf(x) for x in config.nodes] + [a]:
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
            h = xm - self.centers[i]
            acc = mp.mpf(0)
            for c in reversed(self.coeffs[i]):
                acc = acc * h + c
            return acc

    def integrate_polynomial(self, poly: Sequence) -> mpf:
        """Closed-form integral over [-a, a] of p(x) times the kernel.

        poly holds the coefficients of p in x (Fractions or numbers).  Each
        panel's integrand is a polynomial in h = x - centre, integrated term
        by term over h in [-r, r], where odd powers drop out.
        """
        with working_precision(self.prec):
            p = [to_mpf(c, self.prec) for c in poly]
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
    B_2l and P_p = sum_k mu_k (u_k^p + v_k^p) at h = 0.  weights as in psi.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    mu = list(weights) if weights is not None else coefficients(config, prec=prec).mu
    knots = kernel_knots(config, prec)
    two_l = 2 * l
    # the Taylor sums cancel by up to about binom(2l, l) ~ 4^l more than a
    # direct evaluation does, so they get 2l more bits
    with working_precision(prec, guard=GUARD_BITS + two_l):
        a = mp.mpf(config.a)
        beta = 1 / (4 * a)
        pref = (4 * a) ** (two_l - 1) / mp.factorial(two_l)
        b = bernoulli_poly_mpf(two_l)
        terms = [(m_k, mp.mpf(xk)) for m_k, xk in zip(map(mp.mpf, mu), config.nodes)
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


def _boundary_transfer(l: int, a, sign: int, prec: int) -> Callable:
    """h(t) = 2 (4a)^(2l-1)/(2l)! B_2l(1/2 +- 1/4 + Arcsin(t)/(2 pi)).

    Smooth on (-1, 1); the kernel boundary value is the divided difference of
    h over the sine-transformed nodes divided by alpha_0.
    """
    base = mp.mpf(0.5) + sign * mp.mpf(0.25)

    def h(t):
        # accepts complex t (needed by the Cauchy-integral differentiation)
        with working_precision(prec):
            u = base + mp.asin(t) / (2 * mp.pi)
            am = mp.mpf(a)
            acc = mp.mpf(0)
            for cf in reversed(bernoulli_poly_mpf(2 * l)):
                acc = acc * u + cf
            return 2 * (4 * am) ** (2 * l - 1) / mp.factorial(2 * l) * acc

    return h


def _smooth_derivative(f: Callable, t, order: int, prec: int) -> mpf:
    """order-th derivative of an analytic f at t in (-1,1), Cauchy-integral path."""
    with working_precision(2 * prec):
        tm = mp.mpf(t)
        if order == 0:
            return f(tm)
        radius = (1 - abs(tm)) / 2
        d = mp.diff(f, tm, order, method="quad", radius=radius)
        return d.real if hasattr(d, "real") and not isinstance(d, mp.mpf) else d


def psi_star_boundary(config: NodeConfig, l: int, sign: int,
                      prec: int = DEFAULT_PREC,
                      weights: Optional[Sequence] = None) -> mpf:
    """Continuous extension of the kernel boundary value at x = sign*a.

    For strict configurations this equals psi(config, l, sign*a, weights);
    callers looping over l pass coefficients(config).mu as weights so they
    are computed once.  Coincident nodes go through the confluent divided
    difference of the transfer function, with derivatives from the Cauchy
    integral formula, and take no weights.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if l < 1:
        raise ValueError("l must be >= 1")
    if config.is_strict():
        return psi(config, l, mp.mpf(config.a) * sign, prec=prec, weights=weights)
    if weights is not None:
        raise DuplicateNodeError("weights apply to strict configurations only")
    with working_precision(2 * prec):
        t = config.sine_nodes(prec=mp.prec)
        h = _boundary_transfer(l, config.a, sign, mp.prec)
        cache = {}

        def data(y, i):
            key = (y, i)
            if key not in cache:
                cache[key] = _smooth_derivative(h, y, i, prec)
            return cache[key]

        nm = NodeMultiset(list(t))
        dd = divided_difference_data(nm, data, prec=mp.prec)
        # alpha_0 = 1/prod_{j != 0}(t_0 - t_j) with t_0 = 0
        prod = mp.mpf(1)
        for j, tj in enumerate(t):
            if j != config.n:
                prod *= -tj
        value = dd * prod
    with working_precision(prec):
        return +value


def chebyshev_moment(config: NodeConfig, j: int, prec: int = DEFAULT_PREC,
                     coeffs: Optional[KernelCoefficients] = None) -> mpf:
    """S_j = sum_k alpha_k (-1)^j T_j(t_k), confluent-safe.

    For weakly ordered configurations this is the confluent divided
    difference of (-1)^j T_j over the sine-transformed nodes.  Vanishes for
    j = 1..2n-1.
    """
    with working_precision(prec):
        t = config.sine_nodes(prec=mp.prec)
        if config.is_strict():
            if coeffs is None:
                coeffs = coefficients(config, prec=prec)
            total = mp.mpf(0)
            for al, tk in zip(coeffs.alpha, t):
                total += mp.mpf(al) * chebyshev(j, tk, prec=mp.prec)
            return (-1) ** j * total
        nm = NodeMultiset(list(t))
        need = nm.max_multiplicity() - 1
        cache = {}

        def data(y, i):
            key = (y, i)
            if key not in cache:
                cache[key] = chebyshev_derivatives(j, y, need, prec=mp.prec)[i] \
                    if i > 0 else chebyshev(j, y, prec=mp.prec)
            return cache[key]

        dd = divided_difference_data(nm, data, prec=mp.prec)
        return (-1) ** j * dd


def psi_chebyshev_series(config: NodeConfig, l: int, x, J: int,
                         prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Chebyshev-series evaluation of the kernel with analytic tail bound.

    Valid in the convergence regime l >= n+1; this is also the continuous
    extension of the kernel to weakly ordered configurations for interior x.
    Returns (partial sum through j = 2n+J, tail bound).
    """
    n = config.n
    if l < n + 1:
        raise ValueError("series representation requires l >= n+1")
    if J < 0:
        raise ValueError("J must be >= 0")
    strict = config.is_strict()
    coeffs = coefficients(config, prec=prec) if strict else None
    with working_precision(prec):
        a = mp.mpf(config.a)
        xm = mp.mpf(x)
        if strict:
            alpha0 = coeffs.alpha[n]
        else:
            t = config.sine_nodes(prec=mp.prec)
            prod = mp.mpf(1)
            for j, tj in enumerate(t):
                if j != n:
                    prod *= -tj
            alpha0 = 1 / prod
        pref = (-1) ** (l + 1) * 2 * (2 * a) ** (2 * l - 1) / (alpha0 * mp.pi ** (2 * l))
        total = mp.mpf(0)
        last_moment_bound = mp.mpf(0)
        for j in range(2 * n, 2 * n + J + 1):
            s_j = chebyshev_moment(config, j, prec=mp.prec, coeffs=coeffs)
            total += s_j * mp.cos(j * mp.pi * (mp.mpf(0.5) + xm / (2 * a))) \
                / mp.mpf(j) ** (2 * l)
        value = pref * total
        M = 2 * n + J
        if strict:
            # |S_j| <= max|alpha_k| (2n+1); sum_{j>M} j^(-2l) <= M^(1-2l)/(2l-1)
            s_bound = max(abs(mp.mpf(v)) for v in coeffs.alpha) * (2 * n + 1)
            tail = abs(pref) * s_bound * mp.mpf(M) ** (1 - 2 * l) / (2 * l - 1)
        else:
            # |S_j| <= T_j^(2n)(1)/(2n)! = O(j^(4n)); bound the tail term by
            # term over a window then extend geometrically by the last ratio.
            from .polynomials import chebyshev_deriv_at_one
            tail = mp.mpf(0)
            prev = None
            ratio = mp.mpf(1)
            for j in range(M + 1, M + 202):
                term = mp.mpf(chebyshev_deriv_at_one(j, n)) / mp.factorial(2 * n) \
                    / mp.mpf(j) ** (2 * l)
                tail += term
                if prev is not None and prev > 0:
                    ratio = term / prev
                prev = term
            if 0 < ratio < 1:
                tail += prev * ratio / (1 - ratio)
            tail *= abs(pref)
        return value, tail


def boundary_sum_bound(config: NodeConfig, c, m: int,
                       prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """Both sides of the boundary-sum inequality.

    lhs = sum_{k=1..m} (-1)^(n+k+1) [Psi*_{2k-1}(a) + Psi*_{2k-1}(-a)] c^(2k-1);
    rhs = ((-1)^n prod_{j!=0} sin(pi x_j/2a)) * (-1/sin(ca)) sum_k alpha_k cos(c x_k).
    Contract: lhs <= rhs for 0 < c a < n pi with c a off the multiples of pi.
    """
    if not config.is_strict():
        raise DuplicateNodeError("boundary_sum_bound requires a strict configuration")
    n = config.n
    with working_precision(prec):
        a = mp.mpf(config.a)
        cm = mp.mpf(c)
        ca = cm * a
        if not 0 < ca < n * mp.pi:
            raise ValueError("need 0 < c*a < n*pi")
        tol = mp.mpf(2) ** (-(prec // 4))
        for j in range(1, n):
            if abs(ca - j * mp.pi) < tol:
                raise SingularParameterError(
                    f"c*a within tolerance of {j}*pi (removable singularity; refused)")
        coeffs = coefficients(config, prec=prec)
        lhs = mp.mpf(0)
        for k in range(1, m + 1):
            s = psi_star_boundary(config, k, 1, prec=prec, weights=coeffs.mu) \
                + psi_star_boundary(config, k, -1, prec=prec, weights=coeffs.mu)
            lhs += (-1) ** (n + k + 1) * s * cm ** (2 * k - 1)
        prod = mp.mpf(1)
        for i, xj in enumerate(config.nodes):
            if i != n:
                prod *= mp.sin(mp.pi * mp.mpf(xj) / (2 * a))
        dd_cos = mp.mpf(0)
        for i, al in enumerate(coeffs.alpha):
            xk = mp.mpf(config.nodes[i])
            dd_cos += mp.mpf(al) * mp.cos(cm * xk)
        rhs = ((-1) ** n * prod) * (-dd_cos / mp.sin(ca))
        return lhs, rhs


def psi_sup_bound(n: int, m: int, a, alpha0, prec: int = DEFAULT_PREC) -> mpf:
    """Uniform sup bound 2^(2n-1)/(|alpha_0| a) (a/(n pi))^(2m) C* on the
    order-(2m-1) kernel, in the regime n >= 10, m >= n log n."""
    with working_precision(prec):
        if n < TAIL_WEIGHT_MIN_N:
            raise ValueError(f"bound regime requires n >= {TAIL_WEIGHT_MIN_N}")
        if m < n * mp.log(n):
            raise ValueError("bound regime requires m >= n log n")
        am = mp.mpf(a)
        cstar = tail_weight_constant(prec=prec)
        return mp.mpf(2) ** (2 * n - 1) / (abs(mp.mpf(alpha0)) * am) \
            * (am / (n * mp.pi)) ** (2 * m) * cstar


def random_config(rng, n: int, a=None, min_gap: float = 0.05,
                  prec: int = DEFAULT_PREC) -> NodeConfig:
    """Seeded random strict configuration with 2n+1 nodes in (-a, a).

    rng is a random.Random; node fractions keep a relative gap of min_gap so
    the weight products stay well conditioned.
    """
    with working_precision(prec):
        am = mp.mpf(a) if a is not None else mp.mpf(2 + 4 * rng.random())
        pos = sorted(rng.uniform(min_gap, 0.95) for _ in range(n))
        neg = sorted(rng.uniform(min_gap, 0.95) for _ in range(n))
        for side in (pos, neg):
            for i in range(1, n):
                if side[i] - side[i - 1] < min_gap:
                    side[i] = side[i - 1] + min_gap
            if side[-1] > 0.97:
                scale = 0.97 / side[-1]
                side[:] = [v * scale for v in side]
        nodes = [-am * mp.mpf(v) for v in reversed(neg)] + [mp.mpf(0)] \
            + [am * mp.mpf(v) for v in pos]
        return NodeConfig(n=n, a=am, nodes=nodes, strict=True)

