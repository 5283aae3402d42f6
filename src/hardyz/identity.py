"""Numerical verification of the reconstruction identities.

The key identity expresses a zero-sum-weighted node sum of f through odd
boundary derivatives and one integral against the kernel; the reconstruction
identity specializes the weights so the node sum collapses to f(0) when the
nodes are zeros of f.

The integral term runs against the compiled kernel (kernel.compile_psi),
one polynomial per panel between the knots -a, x_k, a.  For a polynomial
probe the integrand is a polynomial on every panel, so the integral is taken
in closed form and carries no quadrature error; when deg f < 2m it is zero
and the kernel is never built.  Other probes use composite Gauss-Legendre
over the same panels.  Weakly ordered configurations in reconstruct_f0
evaluate the kernel by its Chebyshev series instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import FunctionProbe
from .kernel import (CompiledPsi, NodeConfig, chebyshev_moment, coefficients,
                     compile_psi, kernel_knots, psi, psi_star_boundary)
from .precision import DEFAULT_PREC, working_precision
from .probes import PolynomialProbe


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
    quadrature_error_estimate: mpf
    residual_budget: mpf

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.residual_budget)


def _integrate(f: Callable, points: Sequence[mpf], prec: int) -> Tuple[mpf, mpf]:
    """Composite Gauss-Legendre over the panel points, with error estimate."""
    with working_precision(prec):
        val, err = mp.quad(f, points, method="gauss-legendre", error=True)
        return val, err


def _integral_term(config: NodeConfig, probe: FunctionProbe, m: int,
                   kernel: Callable[[], Callable], prec: int) -> Tuple[mpf, mpf]:
    """int_{-a}^{a} f^(2m) Psi_{2m-1} dx and its error estimate.

    kernel() builds Psi_{2m-1}; it is not called when f^(2m) vanishes.
    """
    if isinstance(probe, PolynomialProbe) and probe.degree < 2 * m:
        return mp.mpf(0), mp.mpf(0)
    kern = kernel()
    if isinstance(probe, PolynomialProbe) and isinstance(kern, CompiledPsi):
        return kern.integrate_polynomial(probe.derivative_coeffs(2 * m)), mp.mpf(0)

    def integrand(x):
        return mp.mpf(probe.deriv(x, 2 * m)) * kern(x)

    return _integrate(integrand, kernel_knots(config, prec), prec)


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
        a = mp.mpf(config.a)
        mu_m = [mp.mpf(v) for v in mu]
        scale = max([abs(v) for v in mu_m] + [mp.mpf(1)])
        if abs(mp.fsum(mu_m)) > scale * mp.mpf(2) ** (-(prec - 24)):
            raise WeightContractError("weights must sum to zero")
        lhs = mp.fsum(mk * mp.mpf(probe.value(x))
                      for mk, x in zip(mu_m, config.nodes))
        boundary = []
        for sign in (1, -1):
            for k in range(1, m + 1):
                term = mp.mpf(probe.deriv(sign * a, 2 * k - 1)) \
                    * psi(config, k, sign * a, prec=prec, weights=mu_m)
                boundary.append(sign * term)
        integral, quad_err = _integral_term(
            config, probe, m, lambda: compile_psi(config, m, mu_m, prec=prec), prec)
        rhs = mp.fsum(boundary) - integral
        residual = abs(lhs - rhs)
        mag = max([abs(b) for b in boundary] + [abs(lhs), abs(integral), mp.mpf(1)])
        budget = 2 * quad_err + mp.mpf(2) ** (-(prec - 20)) * mag
        return IdentityReport(lhs=lhs, boundary_terms=boundary, integral_term=integral,
                              residual=residual, quadrature_error_estimate=quad_err,
                              residual_budget=budget)


@dataclass
class ReconstructionResult:
    value: mpf
    boundary_terms: List[mpf]
    integral_term: mpf
    quadrature_error_estimate: mpf
    residual_budget: mpf


def reconstruct_f0(config: NodeConfig, probe: FunctionProbe, m: int,
                   prec: int = DEFAULT_PREC) -> ReconstructionResult:
    """Reconstruct f(0) from boundary derivatives and the kernel integral.

    Requires m >= n+1 and that f vanishes at every configuration node (with
    multiplicity, for weakly ordered configurations).
    """
    n = config.n
    if m < n + 1:
        raise ValueError("reconstruction requires m >= n+1")
    with working_precision(prec):
        a = mp.mpf(config.a)
        tol = mp.mpf(2) ** (-(prec // 2))
        dscale = max([abs(mp.mpf(probe.deriv(s * a, 1))) for s in (1, -1)] + [mp.mpf(1)])
        for i, xk in enumerate(config.nodes):
            if i == n:
                continue
            if abs(mp.mpf(probe.value(xk))) > tol * dscale:
                raise NodeNotZeroError(f"node x={xk} is not a zero of f")
        mu = coefficients(config, prec=prec).mu if config.is_strict() else None
        boundary = []
        for sign in (1, -1):
            for k in range(1, m + 1):
                term = mp.mpf(probe.deriv(sign * a, 2 * k - 1)) \
                    * psi_star_boundary(config, k, sign, prec=prec, weights=mu)
                boundary.append(sign * term)
        integral, quad_err = _integral_term(
            config, probe, m, lambda: _interior_kernel(config, m, prec, mu), prec)
        value = mp.fsum(boundary) - integral
        mag = max([abs(b) for b in boundary] + [abs(integral), mp.mpf(1)])
        budget = 2 * quad_err + mp.mpf(2) ** (-(prec - 20)) * mag
        return ReconstructionResult(value=value, boundary_terms=boundary,
                                    integral_term=integral,
                                    quadrature_error_estimate=quad_err,
                                    residual_budget=budget)


def _interior_kernel(config: NodeConfig, l: int, prec: int,
                     mu: Optional[Sequence] = None) -> Callable:
    """x -> Psi*_{2l-1}(x): the compiled kernel over the weights mu for
    strict configurations, Chebyshev series with precomputed moments for
    weakly ordered ones (l >= n+1)."""
    if config.is_strict():
        return compile_psi(config, l, mu, prec=prec)
    n = config.n
    with working_precision(prec):
        a = mp.mpf(config.a)
        t = config.sine_nodes(prec=mp.prec)
        prod = mp.mpf(1)
        for j, tj in enumerate(t):
            if j != n:
                prod *= -tj
        alpha0 = 1 / prod
        pref = (-1) ** (l + 1) * 2 * (2 * a) ** (2 * l - 1) / (alpha0 * mp.pi ** (2 * l))
        # choose J so the j^(-2l) decay pushes the tail below working accuracy
        J = max(40, int(2 * prec / (2 * l - 1)))
        moments = [(j, chebyshev_moment(config, j, prec=prec))
                   for j in range(2 * n, 2 * n + J + 1)]

    def kern(x):
        with working_precision(prec):
            xm = mp.mpf(x)
            phase = mp.pi * (mp.mpf(0.5) + xm / (2 * a))
            total = mp.fsum(s * mp.cos(j * phase) / mp.mpf(j) ** (2 * l)
                            for j, s in moments)
            return pref * total

    return kern


def piecewise_weight_integral(config: NodeConfig, mu: Sequence, probe: FunctionProbe,
                              prec: int = DEFAULT_PREC) -> mpf:
    """Exact piecewise evaluation of int f' * (top-derivative kernel) dx.

    The (2m-1)-th derivative of the kernel is piecewise constant, equal to
    -sum_{k<=j} mu_k on (x_j, x_{j+1}) and 0 outside the node hull, so the
    integral telescopes to sum mu_k f(x_k) without quadrature.
    """
    with working_precision(prec):
        mu_m = [mp.mpf(v) for v in mu]
        xs = [mp.mpf(x) for x in config.nodes]
        total = mp.mpf(0)
        for j in range(len(xs) - 1):
            level = -mp.fsum(mu_m[: j + 1])
            total += level * (mp.mpf(probe.value(xs[j + 1]))
                              - mp.mpf(probe.value(xs[j])))
        return total
