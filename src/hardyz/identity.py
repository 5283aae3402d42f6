"""Numerical verification of the reconstruction identities.

The key identity expresses a zero-sum-weighted node sum of f through odd
boundary derivatives and one integral against the kernel; the reconstruction
identity specializes the weights so the node sum collapses to f(0) when the
nodes are zeros of f.

The integral term runs against kernel.compile_psi, the Taylor form of the
boundary values' Bernoulli sum, one polynomial per panel between the knots
-a, x_k, a.  For a polynomial probe the integrand is a polynomial on every
panel, so the integral is taken in closed form and carries no quadrature
error; when deg f < 2m it is zero and the kernel is never built.  Other probes give a majorant of |f^(2m)| off
the real line, and each panel gets one Gauss-Legendre rule, of the fewest
nodes whose proved error bound (Bernstein ellipses, see _panel_rule) is at
most mp.eps; quadrature_error_estimate is the sum of those bounds and a
rounding allowance.  reconstruct_f0 takes its boundary values from
kernel.psi_star_boundary, which extends them to weakly ordered
configurations, and its interior kernel from compile_psi over the weights
kernel.coefficients keeps: those need distinct nodes, so on a weakly ordered
configuration only a vanishing integrand (deg f < 2m) is taken, and any
other is refused with DuplicateNodeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import FunctionProbe
from .enclose import log_add
# coefficients and psi are unused here, but perfbench's tracer patches
# identity.coefficients and identity.psi
from .kernel import (NodeConfig, coefficients, compile_psi,  # noqa: F401
                     psi, psi_orders, psi_star_boundary)
from .polynomials import horner
from .precision import DEFAULT_PREC, working_precision
from .quadrature import BOUND_SLACK, ELLIPSES, NODE_BITS, least_count, nodes

# assumed: a probe's f^(k) at a real point is within PROBE_ULPS units of 2^-P
# of its majorant (see _panel_rule)
PROBE_ULPS = 256


class WeightContractError(ValueError):
    """Weights do not sum to zero (telescoping argument fails)."""


class NodeNotZeroError(ValueError):
    """A configuration node is not a zero of the probe function."""


@dataclass
class IdentityReport:
    lhs: mpf
    boundary_terms: List[mpf]  # 2m values: m at +a then m at -a
    integral_term: mpf
    residual: mpf
    quadrature_error_estimate: mpf  # a proved bound (_panel_rule); 0 in closed form
    residual_budget: mpf
    passed: bool  # residual <= residual_budget


def _integrate(f: Callable, points: Sequence[Tuple[mpf, mpf]], prec: int) -> mpf:
    """sum w f(x) over the (x, w) pairs of a Gauss-Legendre rule, each
    product exact and the sum rounded once (mp.fdot) at the ambient
    precision: the one place the integral term's quadrature sum runs.  prec
    is unused; perfbench's tracer passes it positionally."""
    return mp.fdot((w, f(x)) for x, w in points)


def _log_abs(x: mpf) -> float:
    """log |x| in floats, from x's mantissa and exponent, so that no size of
    x overflows; -inf at 0."""
    _, man, exp, _ = x._mpf_
    return math.log(man) + exp * math.log(2) if man else -math.inf


def _panel_rule(q: Sequence[mpf], r: float, c: float, majorant: Callable,
                k: int) -> Tuple[int, float]:
    """(N, log bound) of the N-point Gauss-Legendre rule for the integral
    of g(x) = f^(k)(x) q(x - c) over the panel [c - r, c + r], computed in
    floats before any integrand call.  q holds the panel's kernel
    coefficients, c is |centre| and majorant is the probe's.  N is
    quadrature.least_count's.

    Truncation.  On the Bernstein ellipse E_rho about the panel (foci
    c -+ r, semi-axes r A and r B of quadrature.ELLIPSES)
    |g| <= M(rho) = sum_j |q_j| (r A)^j exp(majorant(k, r B)): E_rho lies in
    the disc |x - c| <= r A and in the strip |Im x| <= r B.  least_count
    bounds the error by T = r (64/15) M(rho) rho^(-2N)/(1 - rho^-2), the
    least over the ellipses.

    Rounding, with P = mp.prec and u = 2^-P, for any rho of the grid, to
    first order in u (the constants below are rounded up to cover the
    rest).  The sum runs over h_i = r t_i and weights r w_i, and evaluates
    f at x_i = c + h_i and q at h_i.
    1. The domain.  The kernel's centre is within u |c| of the panel's
       midpoint, and r = (hi - lo)/2 rounds once, so each end of the rule's
       interval is within u (|c| + r) of the panel's: 2 u (|c| + r) M.
    2. The nodes and weights, as quadrature.nodes checks them: each node
       within 2^-NODE_BITS u of a root of P_N, each weight within
       2^-(NODE_BITS-2) u of the root's.  The weights move the sum by
       r N 2^-(NODE_BITS-2) u M (r N u M/64); the nodes enter at 3.
    3. The points.  With the nodes' error, h_i is within r (1 + 2^-8) u of
       r t_i and x_i within (|c| + (2 + 2^-8) r) u of c + r t_i.  The disc
       of radius r (A - 1) about a point of the panel lies in E_rho (on it
       |x - c - r| + |x - c + r| <= 2 r A), so Cauchy's estimate bounds
       each factor's derivative by its bound on E_rho over r (A - 1): the
       points move the sum by at most 2 r M u (|c|/r + 4)/(A - 1).
    4. The values.  Horner's pass over the 2m + 1 = k + 1 coefficients of
       q, with |h| <= r, is within (2k + 1) u sum_j |q_j| r^j; f^(k) is
       within PROBE_ULPS u of its majorant, as assumed; the product rounds
       once: 2 r M u (2k + 2 + PROBE_ULPS).
    5. The sums.  Each r w_i rounds once, mp.fdot forms the products
       exactly and rounds the sum once (mpf_sum drops only terms below
       2^-2P of its running sum), and the sum over the panels rounds once:
       6 r M u.
    The allowance is the least over the grid of
    r M u (N 2^-(NODE_BITS-2) + 2 (|c|/r + 4)/(A - 1) + 2 |c|/r + 4 k
    + 2 PROBE_ULPS + 12).

    The bound is T plus the allowance, as a float log plus BOUND_SLACK.
    While its logs stay below 2^20 in size (2 N log rho < 2^20 for
    N <= 4 P, quadrature.least_count's cap, below 18000 bits), each float
    operation moves them by less than 2^-32, and the c and the majorant's
    b and width that enter as floats are within 2^-52 relative (r is
    rounded up): all of it stays far below the slack.  The nodes' and weights' errors of 2
    are checked when the rule is built, and the assumed error of 4 by the
    tests.
    """
    log_q = [_log_abs(v) for v in q]

    def log_bound_on(A, B):  # log M(rho)
        log_ra = math.log(r * A)
        return log_add(*(lq + i * log_ra for i, lq in enumerate(log_q))) \
            + majorant(k, r * B)

    log_ms = [log_bound_on(A, B) for _, A, B in ELLIPSES]
    N, log_trunc = least_count(r, log_ms)
    terms = N * 2.0 ** (2 - NODE_BITS) + 2 * c / r + 4 * k + 2 * PROBE_ULPS + 12
    log_round = min(log_m + math.log(r * (terms + 2 * (c / r + 4) / (A - 1)))
                    for log_m, (_, A, _) in zip(log_ms, ELLIPSES)) \
        - mp.prec * math.log(2)
    return N, log_add(log_trunc, log_round) + BOUND_SLACK


def _integral_term(probe: FunctionProbe, m: int, config: NodeConfig,
                   weights: Optional[Sequence], prec: int) -> Tuple[mpf, mpf]:
    """int_{-a}^{a} f^(2m) Psi_{2m-1} dx and a proved bound on its error.

    Psi_{2m-1} is compile_psi(config, m, weights), weights None meaning the
    mu of kernel.coefficients, which refuses a weakly ordered configuration
    (DuplicateNodeError); it is not built when f^(2m) vanishes.  A
    polynomial probe's integral is closed-form; any other probe is
    integrated panel by panel, each panel by the one Gauss-Legendre rule
    _panel_rule chooses, and the bound is the sum of the panels' bounds.
    The integrand reads each panel's kernel coefficients directly.
    """
    if probe.degree is not None and probe.degree < 2 * m:
        return mp.mpf(0), mp.mpf(0)
    kern = compile_psi(config, m, weights, prec=prec)
    if probe.degree is not None:
        return kern.integrate_polynomial(probe.derivative_coeffs(2 * m)), mp.mpf(0)
    if probe.majorant is None:
        raise ValueError("the probe has no majorant of |f^(2m)| off the real line: "
                         "the Gauss-Legendre rule chooses its node count and bounds "
                         "its error from one")
    k = 2 * m
    values, bounds = [], []
    for lo, hi, c, q in zip(kern.knots, kern.knots[1:], kern.centers, kern.coeffs):
        r = (hi - lo) / 2
        r_up = float(r) * (1 + 2.0 ** -52)
        N, log_bound = _panel_rule(q, r_up, abs(float(c)), probe.majorant, k)
        points = [(r * t, r * w) for t, w in nodes(N)]

        def integrand(h):
            return mp.mpf(probe.deriv(c + h, k)) * horner(q, h)

        values.append(_integrate(integrand, points, prec))
        bounds.append(mp.exp(log_bound))
    return mp.fsum(values), mp.fsum(bounds)


def _boundary_terms(probe: FunctionProbe, a: mpf,
                    kernel_at: Callable[[int], Sequence[mpf]]) -> List[mpf]:
    """sign * f^(2k-1)(sign a) * Psi_{2k-1}(sign a) for k = 1..m, first at
    sign = +1, then at sign = -1; kernel_at(sign) lists the m kernel values
    at sign * a, in order."""
    boundary = []
    for sign in (1, -1):
        for k, value in enumerate(kernel_at(sign), 1):
            term = mp.mpf(probe.deriv(sign * a, 2 * k - 1)) * value
            boundary.append(sign * term)
    return boundary


def _residual_budget(quad_err: mpf, values: Sequence[mpf], prec: int) -> mpf:
    """Twice the quadrature error plus 2^-(prec-20) of the largest |value|
    (at least 1)."""
    mag = max([abs(v) for v in values] + [mp.mpf(1)])
    return 2 * quad_err + mp.mpf(2) ** (-(prec - 20)) * mag


def verify_key_identity(config: NodeConfig, mu: Sequence, probe: FunctionProbe,
                        m: int, prec: int = DEFAULT_PREC) -> IdentityReport:
    """Evaluate both sides of the key identity for arbitrary zero-sum weights.

    lhs = sum mu_k f(x_k);
    rhs = sum_k f^(2k-1)(a) Psi_{2k-1}(a) - sum_k f^(2k-1)(-a) Psi_{2k-1}(-a)
          - integral of f^(2m) Psi_{2m-1}.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    with working_precision(prec):
        a = config.a
        mu_m = [mp.mpf(v) for v in mu]
        scale = max([abs(v) for v in mu_m] + [mp.mpf(1)])
        if abs(mp.fsum(mu_m)) > scale * mp.mpf(2) ** (-(prec - 24)):
            raise WeightContractError("weights must sum to zero")
        lhs = mp.fsum(mk * mp.mpf(probe.value(x))
                      for mk, x in zip(mu_m, config.nodes))
        boundary = _boundary_terms(
            probe, a,
            lambda sign: psi_orders(config, range(1, m + 1), sign * a, mu_m, prec=prec))
        integral, quad_err = _integral_term(probe, m, config, mu_m, prec)
        rhs = mp.fsum(boundary) - integral
        residual = abs(lhs - rhs)
        budget = _residual_budget(quad_err, boundary + [lhs, integral], prec)
        return IdentityReport(lhs=lhs, boundary_terms=boundary, integral_term=integral,
                              residual=residual, quadrature_error_estimate=quad_err,
                              residual_budget=budget, passed=bool(residual <= budget))


@dataclass
class ReconstructionResult:
    m: int  # the derivative order used
    value: mpf
    boundary_terms: List[mpf]
    integral_term: mpf
    quadrature_error_estimate: mpf
    residual_budget: mpf
    reconstruction_error: mpf  # |value - f(0)|, f(0) from the probe itself
    passed: bool  # reconstruction_error <= residual_budget + 2^-(prec-40)


def reconstruct_f0(config: NodeConfig, probe: FunctionProbe, m: int,
                   prec: int = DEFAULT_PREC) -> ReconstructionResult:
    """Reconstruct f(0) from boundary derivatives and the kernel integral.

    Requires m >= n+1 and that f vanishes at every configuration node (with
    multiplicity, for weakly ordered configurations).  The boundary values
    of all m orders come from one kernel.psi_star_boundary call per end, and
    the interior kernel is compile_psi's; for a strict configuration both
    read the weights kernel.coefficients keeps for it.  A weakly ordered
    configuration has no such weights: its integral term must vanish
    (deg f < 2m), and any other probe raises DuplicateNodeError.
    """
    n = config.n
    if m < n + 1:
        raise ValueError("reconstruction requires m >= n+1")
    with working_precision(prec):
        a = config.a
        tol = mp.mpf(2) ** (-(prec // 2))
        dscale = max([abs(mp.mpf(probe.deriv(s * a, 1))) for s in (1, -1)] + [mp.mpf(1)])
        for i, xk in enumerate(config.nodes):
            if i == n:
                continue
            if abs(mp.mpf(probe.value(xk))) > tol * dscale:
                raise NodeNotZeroError(f"node x={xk} is not a zero of f")
        boundary = _boundary_terms(
            probe, a,
            lambda sign: psi_star_boundary(config, range(1, m + 1), sign, prec=prec))
        integral, quad_err = _integral_term(probe, m, config, None, prec)
        value = mp.fsum(boundary) - integral
        budget = _residual_budget(quad_err, boundary + [integral], prec)
        error = abs(value - mp.mpf(probe.value(0)))
        return ReconstructionResult(
            m=m, value=value, boundary_terms=boundary, integral_term=integral,
            quadrature_error_estimate=quad_err, residual_budget=budget,
            reconstruction_error=error,
            passed=bool(error <= budget + mp.mpf(2) ** (-(prec - 40))))


def piecewise_weight_integral(config: NodeConfig, mu: Sequence, probe: FunctionProbe,
                              prec: int = DEFAULT_PREC) -> mpf:
    """Exact piecewise evaluation of int f' * (top-derivative kernel) dx.

    The (2m-1)-th derivative of the kernel is piecewise constant, equal to
    -sum_{k<=j} mu_k on (x_j, x_{j+1}) and 0 outside the node hull, so the
    integral telescopes to sum mu_k f(x_k) without quadrature.
    """
    with working_precision(prec):
        mu_m = [mp.mpf(v) for v in mu]
        xs = config.nodes
        total = mp.mpf(0)
        for j in range(len(xs) - 1):
            level = -mp.fsum(mu_m[: j + 1])
            total += level * (mp.mpf(probe.value(xs[j + 1]))
                              - mp.mpf(probe.value(xs[j])))
        return total
