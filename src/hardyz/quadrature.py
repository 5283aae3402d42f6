"""The one quadrature rule of the program: Gauss-Legendre of a degree chosen
by a proved bound.

A caller integrates an analytic g over a panel [c - r, c + r] and gives, for
each Bernstein ellipse of ELLIPSES about the panel, the float log of a bound
on |g| over it.  least_degree returns the least mpmath degree whose
truncation bound (Trefethen's, see there) is at most mp.eps, with that bound;
nodes fetches the rule's nodes and weights on [-1, 1] at the ambient
precision.  identity's integral term, extremal's log-sine integral and
divided_diff's Hermite-Genocchi oracle all integrate by it, and add their
own rounding allowance, if any, and BOUND_SLACK to the log it returns.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from mpmath import mp, mpf

# mpmath's Gauss-Legendre nodes at precision P stop Newton's iteration once a
# step is below 2^-(P+8); assumed: every node within 2^-(P+NODE_BITS) of the
# true one and every weight within 2^-(P+NODE_BITS-2)
NODE_BITS = 8
RHO_STEPS = 40  # the Bernstein ellipses tried: rho = 2^(j/4), j = 1..40
# added to a caller's float log bound: it covers the float rounding of the
# bound, its logs and the float inputs a caller's majorant reads, each far
# below it (see identity._panel_rule)
BOUND_SLACK = 2.0 ** -20

# (log rho, A, B) for each ellipse E_rho, A = (rho + 1/rho)/2 and
# B = (rho - 1/rho)/2: about a panel of half-width r, E_rho has foci at its
# ends and semi-axes r A and r B
ELLIPSES: List[Tuple[float, float, float]] = [
    (math.log(rho), (rho + 1 / rho) / 2, (rho - 1 / rho) / 2)
    for rho in (2.0 ** (j / 4) for j in range(1, RHO_STEPS + 1))]


def least_degree(r: float, log_majorants: Sequence[float]) -> Tuple[int, float]:
    """(degree, log bound) of the Gauss-Legendre rule for a panel of
    half-width r whose integrand is at most exp(log_majorants[j]) on the
    j-th ellipse of ELLIPSES (math.inf where it has no bound there).  The
    degree is mpmath's, N = 3 2^(degree-1) nodes: the least one whose bound
    is at most mp.eps, or mpmath's top degree for mp.prec if none is.

    An N-point Gauss rule is Trefethen's (n+1)-point one with n = N - 1
    (Approximation Theory and Approximation Practice, SIAM 2013, Thm 19.3),
    so its error is at most T = r (64/15) M(rho) rho^(-2N)/(1 - rho^-2);
    the least T over the RHO_STEPS ellipses is the bound.
    """
    log_scale = math.log(r * 64 / 15)
    log_eps = (1 - mp.prec) * math.log(2)
    top = mp._gauss_legendre.guess_degree(mp.prec)
    for degree in range(1, top + 1):
        N = 3 << (degree - 1)
        log_trunc = min(log_m + log_scale - 2 * N * log_rho
                        - math.log(1 - math.exp(-2 * log_rho))
                        for log_m, (log_rho, _, _) in zip(log_majorants, ELLIPSES))
        if log_trunc <= log_eps:
            break
    return degree, log_trunc


def exact_degree(d: int) -> int:
    """The least mpmath degree whose rule integrates every polynomial of
    degree d exactly: 2N - 1 >= d, or mpmath's top degree for mp.prec."""
    top = mp._gauss_legendre.guess_degree(mp.prec)
    return next((degree for degree in range(1, top) if 6 << (degree - 1) > d), top)


def nodes(degree: int) -> List[Tuple[mpf, mpf]]:
    """(node, weight) pairs of mpmath's Gauss-Legendre rule of this degree
    on [-1, 1], at the ambient precision (cached by mpmath)."""
    return mp._gauss_legendre.get_nodes(-1, 1, degree, mp.prec)
