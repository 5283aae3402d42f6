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
over the same panels.  reconstruct_f0 takes its kernels from
kernel.psi_star_boundary and kernel.interior_kernel, which choose between
strict and weakly ordered configurations (the Chebyshev series for these).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from mpmath import mp, mpf

from .divided_diff import FunctionProbe
# coefficients and psi are unused here, but perfbench's tracer patches
# identity.coefficients and identity.psi
from .kernel import (CompiledPsi, NodeConfig, coefficients,  # noqa: F401
                     compile_psi, interior_kernel, kernel_knots, psi, psi_orders,
                     psi_star_boundary)
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
    passed: bool  # residual <= residual_budget


def _integrate(f: Callable, points: Sequence[mpf], prec: int) -> Tuple[mpf, mpf]:
    """Composite Gauss-Legendre over the panel points, with error estimate,
    at the ambient precision.  prec is unused; perfbench's tracer passes it
    positionally."""
    return mp.quad(f, points, method="gauss-legendre", error=True)


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
        integral, quad_err = _integral_term(
            config, probe, m, lambda: compile_psi(config, m, mu_m, prec=prec), prec)
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
    the interior kernel from kernel.interior_kernel; for a strict
    configuration both read the weights kernel.coefficients keeps for it.
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
        integral, quad_err = _integral_term(
            config, probe, m, lambda: interior_kernel(config, m, prec=prec), prec)
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
