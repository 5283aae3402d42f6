"""Numerical verification of the reconstruction identities.

The key identity expresses a zero-sum-weighted node sum of f through odd
boundary derivatives and one integral against the kernel; the reconstruction
identity specializes the weights so the node sum collapses to f(0) when the
nodes are zeros of f.

The integral term runs against kernel.compile_psi, the Taylor form of the
boundary values' Bernoulli sum, one polynomial per panel between the knots
-a, x_k, a, about the panel's exact midpoint.  For a polynomial probe the
integrand is a polynomial on every panel, so the integral is taken in
closed form and carries no quadrature error; when deg f < 2m it is zero and
the kernel is never built.  An exp-quadratic probe (probes.ExpQuadraticProbe:
the cosine and the gaussian cosine) gives a majorant of |f^(2m)| off the
real line, and each panel gets one Gauss-Legendre rule over the panel
itself, of the fewest nodes whose proved error bound (Bernstein ellipses,
see _panel_rule) is at most mp.eps.  The rule's values come from one pass
in Python ints per panel (_panel_pass): f^(2m) at each symmetric node pair
from the probe's derivative_pairs and the kernel polynomial from
polynomials.pair_values, each with a proved error; _integrate sums their
exact products.  quadrature_error_estimate is the sum of the truncation
bounds and of a rounding bound read from the sizes the pass computes at the
nodes.  reconstruct_f0 takes its boundary values from
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
from mpmath.libmp import from_man_exp, mpf_mul, mpf_neg, mpf_shift, mpf_sub, to_fixed

from .divided_diff import FunctionProbe
from .enclose import log_add
# coefficients and psi are unused here, but perfbench's tracer patches
# identity.coefficients and identity.psi
from .kernel import (NodeConfig, coefficients, compile_psi,  # noqa: F401
                     psi, psi_orders, psi_star_boundary)
from .polynomials import pair_values, parity_split
from .precision import DEFAULT_PREC, working_precision
from .probes import PASS_GUARD_BITS, ExpQuadraticProbe
from .quadrature import BOUND_SLACK, ELLIPSES, NODE_BITS, least_count, nodes


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
    precision: the one place the integral term's quadrature sum runs.  The
    integral term calls it once per panel, with the exact points r t_i and
    weights r w_i and f the lookup of _panel_pass's exact values.  prec is
    unused; perfbench's tracer passes it positionally."""
    return mp.fdot((w, f(x)) for x, w in points)


def _log_abs(x: mpf) -> float:
    """log |x| in floats, from x's mantissa and exponent, so that no size of
    x overflows; -inf at 0."""
    _, man, exp, _ = x._mpf_
    return math.log(man) + exp * math.log(2) if man else -math.inf


def _panel_rule(q: Sequence[mpf], r: float, majorant: Callable,
                k: int) -> Tuple[int, float, float]:
    """(N, log truncation bound, log rounding bound of item 3) of the
    N-point Gauss-Legendre rule for the integral of g(x) = f^(k)(x) q(x - c)
    over the panel [c - r, c + r], computed in floats before the panel's
    integer pass.  q holds the panel's kernel coefficients about its centre
    c, r is at least the half-width and majorant is the probe's.  N is
    quadrature.least_count's.

    Truncation.  On the Bernstein ellipse E_rho about the panel (foci
    c -+ r, semi-axes r A and r B of quadrature.ELLIPSES)
    |g| <= M(rho) = sum_j |q_j| (r A)^j exp(majorant(k, r B)): E_rho lies in
    the disc |x - c| <= r A and in the strip |Im x| <= r B.  least_count
    bounds the error by T = r (64/15) M(rho) rho^(-2N)/(1 - rho^-2), the
    least over the ellipses.

    Rounding, with P = mp.prec and u = 2^-P, to first order in u: the
    rest is below 2^-P of it, far inside BOUND_SLACK.  The sum runs over
    the exact products x_i = r t_i and weights r w_i of the rule's nodes
    and weights, and _panel_pass reads g at c + h_i, h_i = rho y_i 2^-F
    with y_i = floor(x_i 2^F/rho), F = P + PASS_GUARD_BITS and
    rho = 2^e > r.  On the real line |g'| <= L = e^majorant(k + 1, 0) S
    + e^majorant(k, 0) S', S = sum_j |q_j| r^j and
    S' = sum_j j |q_j| r^(j-1).
    1. The domain.  The kernel's centre is the panel's exact midpoint
       (kernel.compile_psi) and r = (hi - lo)/2 is exact, so the rule's
       interval is the panel: nothing.
    2. The weights, as quadrature.nodes checks them: each within
       2^-(NODE_BITS-2) u of the root's, r N 2^-(NODE_BITS-2) u g_max, g_max
       the largest |value| the pass gives; the nodes enter at 3.
    3. The points.  Each node is within 2^-NODE_BITS u of its root and
       y_i's floor moves h_i by at most rho 2^-F <= 2 r 2^-F, so h_i is
       within r 2^-NODE_BITS u + 2 r 2^-F of r times the root, and f and q
       are read at the same h_i: 2 r L (r 2^-NODE_BITS u + 2 r 2^-F).
    4. The values.  The pass gives f^(k) within e_f units of 2^(s_f-F)
       (ExpQuadraticProbe.derivative_pairs) and q within e_q = 2k + 1 units
       of 2^(s_q-F): its k + 1 coefficients in y, q_j rho^j 2^-s_q, are
       floored once each at F bits, and pair_values adds k units.  The
       product is exact: 2 r (f_max e_q + q_max e_f + e_f e_q), f_max and
       q_max the largest |values| of the pass, in units of 2^(s_f-F) and
       2^(s_q-F).
    5. The sums.  mp.fdot forms the exact products and rounds the sum once
       (mpf_sum drops only terms below 2^-2P of its running sum), and the
       sum over the panels rounds once: 4 r u g_max.
    Item 3 is returned here, 2, 4 and 5 by _panel_pass.

    Each log gets BOUND_SLACK.  While its logs stay below 2^20 in size
    (2 N log rho < 2^20 for N <= 4 P, quadrature.least_count's cap, below
    18000 bits), each float operation moves them by less than 2^-32, and
    the majorant's b and width that enter as floats are within 2^-52
    relative (r is rounded up): all of it stays far below the slack.
    The nodes' and weights' errors of 2 and 3 are checked when the rule is
    built, and the libmp ulps the values of 4 assume by the tests.
    """
    log_q = [_log_abs(v) for v in q]

    def log_bound_on(A, B):  # log M(rho)
        log_ra = math.log(r * A)
        return log_add(*(lq + i * log_ra for i, lq in enumerate(log_q))) \
            + majorant(k, r * B)

    log_ms = [log_bound_on(A, B) for _, A, B in ELLIPSES]
    N, log_trunc = least_count(r, log_ms)
    P, log_r = mp.prec, math.log(r)
    log_s = log_add(*(lq + j * log_r for j, lq in enumerate(log_q)))
    log_ds = log_add(*(lq + math.log(j) + (j - 1) * log_r
                       for j, lq in enumerate(log_q) if j))
    log_lip = log_add(majorant(k + 1, 0.0) + log_s, majorant(k, 0.0) + log_ds)
    shift = math.ldexp(r, -P - NODE_BITS) + math.ldexp(2 * r, -P - PASS_GUARD_BITS)
    return N, log_trunc + BOUND_SLACK, math.log(2 * r * shift) + log_lip + BOUND_SLACK


def _log_int(n: int) -> float:
    """log |n| in floats for an integer of any size; -inf at 0."""
    return math.log(abs(n)) if n else -math.inf


def _panel_pass(probe: ExpQuadraticProbe, q: Sequence[mpf], c: mpf, r: mpf,
                N: int, k: int) -> Tuple[list, dict, float]:
    """(points, values, log rounding bound of items 2, 4 and 5) of the
    panel [c - r, c + r]'s N-point rule (see _panel_rule): the rule's exact
    (r t_i, r w_i) pairs; each x of them mapped to the exact mpf value of
    f^(k)(c + h) q(h) that the integer pass gives at it; and the log of the
    bound that its sizes give.

    The pass runs in Python ints with F = mp.prec + PASS_GUARD_BITS
    fraction bits, in y = h/rho, rho = 2^e > r: the rule's nodes are
    symmetric, so each pair +-x_i, x_i = r t_i >= 0, is one y_i.
    probe.derivative_pairs gives f^(k) at c +- rho y_i from one cos_sin (and
    for the gaussian cosine two exps) per pair, and pair_values gives
    q(+-rho y_i) from one Horner pass over the even and one over the odd
    coefficients of q in y, in units of 2^(s_q-F) with
    2^s_q > |q_j| rho^j for every j.
    """
    P = mp.prec
    F = P + PASS_GUARD_BITS
    rv = r._mpf_
    e = rv[2] + rv[3]
    points = [(mp.make_mpf(mpf_mul(rv, t._mpf_)), mp.make_mpf(mpf_mul(rv, w._mpf_)))
              for t, w in nodes(N)]
    half = [x for x, _ in points[N // 2:]]  # x >= 0
    ys = [to_fixed(x._mpf_, F - e) for x in half]
    s_f, plus, minus, e_f = probe.derivative_pairs(c, k, e, ys, F)
    s_q = max((v[2] + v[3] + j * e for j, v in enumerate(x._mpf_ for x in q) if v[1]),
              default=0)
    even, odd = parity_split([to_fixed(v._mpf_, F - s_q + j * e) for j, v in enumerate(q)])
    values, f_max, q_max, g_max = {}, 0, 0, 0
    for x, y, fp, fm in zip(half, ys, plus, minus):
        qp, qm = pair_values(even, odd, y, F)
        gp, gm = fp * qp, fm * qm
        values[x] = mp.make_mpf(from_man_exp(gp, s_f + s_q - 2 * F))
        values[mp.make_mpf(mpf_neg(x._mpf_))] = mp.make_mpf(from_man_exp(gm, s_f + s_q - 2 * F))
        f_max = max(f_max, abs(fp), abs(fm))
        q_max = max(q_max, abs(qp), abs(qm))
        g_max = max(g_max, abs(gp), abs(gm))
    e_q = 2 * k + 1
    rf = float(r)
    log_values = math.log(2 * rf) + log_add(_log_int(f_max) + math.log(e_q),
                                            _log_int(q_max) + math.log(e_f),
                                            math.log(e_f * e_q))
    log_sums = _log_int(g_max) + math.log(rf * (N * 2.0 ** (2 - NODE_BITS) + 4)) \
        - P * math.log(2)
    log_round = log_add(log_values, log_sums) + (s_f + s_q - 2 * F) * math.log(2)
    return points, values, log_round + BOUND_SLACK


def _integral_term(probe: FunctionProbe, m: int, config: NodeConfig,
                   weights: Optional[Sequence], prec: int) -> Tuple[mpf, mpf]:
    """int_{-a}^{a} f^(2m) Psi_{2m-1} dx and a proved bound on its error.

    Psi_{2m-1} is compile_psi(config, m, weights), weights None meaning the
    mu of kernel.coefficients, which refuses a weakly ordered configuration
    (DuplicateNodeError); it is not built when f^(2m) vanishes.  A
    polynomial probe's integral is closed-form; an exp-quadratic probe is
    integrated panel by panel, each panel by the one Gauss-Legendre rule
    _panel_rule chooses, summed by _integrate over the values of one
    integer pass (_panel_pass), and the bound is the sum of the panels'
    truncation and rounding bounds.
    """
    if probe.degree is not None and probe.degree < 2 * m:
        return mp.mpf(0), mp.mpf(0)
    kern = compile_psi(config, m, weights, prec=prec)
    if probe.degree is not None:
        return kern.integrate_polynomial(probe.derivative_coeffs(2 * m)), mp.mpf(0)
    if not isinstance(probe, ExpQuadraticProbe):  # the one kind with a majorant
        raise ValueError("the probe has no majorant of |f^(2m)| off the real line: "
                         "the Gauss-Legendre rule chooses its node count and bounds "
                         "its error from one")
    panels = [_panel(probe, lo, hi, c, q, 2 * m, prec) for lo, hi, c, q
              in zip(kern.knots, kern.knots[1:], kern.centers, kern.coeffs)]
    return (mp.fsum(value for value, _, _ in panels),
            mp.fsum(mp.exp(log_add(*logs)) for _, *logs in panels))


def _panel(probe: ExpQuadraticProbe, lo: mpf, hi: mpf, c: mpf, q: Sequence[mpf],
           k: int, prec: int) -> Tuple[mpf, float, float]:
    """(sum, log truncation bound, log rounding bound) of the panel
    [lo, hi] with kernel centre c and coefficients q: the rule _panel_rule
    chooses, summed by _integrate over _panel_pass's values, with r the
    exact half-width."""
    r = mp.make_mpf(mpf_shift(mpf_sub(hi._mpf_, lo._mpf_), -1))
    N, log_trunc, log_points = _panel_rule(q, float(r) * (1 + 2.0 ** -52),
                                           probe.majorant, k)
    points, values, log_values = _panel_pass(probe, q, c, r, N, k)
    return (_integrate(values.__getitem__, points, prec), log_trunc,
            log_add(log_points, log_values))


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
