"""The one quadrature rule of the program: Gauss-Legendre of a node count
chosen by a proved bound, with nodes computed and checked here.

A caller integrates an analytic g over a panel [c - r, c + r] and gives, for
each Bernstein ellipse of ELLIPSES about the panel, the float log of a bound
on |g| over it.  least_count returns the least node count N whose truncation
bound (Trefethen's, see there) is at most mp.eps, with that bound; nodes(N)
returns the rule's nodes and weights on [-1, 1] at the ambient precision P,
each node within 2^-(P+NODE_BITS) of a root of P_N and each weight within
2^-(P+NODE_BITS-2) of the root's, both checked when the rule is built (see
_rule).  Rules are built on first use and cached per (N, P).
identity's integral term, extremal's log-sine integral and divided_diff's
Hermite-Genocchi oracle all integrate by it, and add their own rounding
allowance, if any, and BOUND_SLACK to the log least_count returns.
"""

from __future__ import annotations

import functools
import math
from math import comb
from typing import List, Sequence, Tuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

# every node of nodes(N) is checked within 2^-(P+NODE_BITS) of a root of P_N,
# and every weight within 2^-(P+NODE_BITS-2) of the root's (_rule)
NODE_BITS = 8
RULE_FRACTION_BITS = 20  # _rule's fixed point carries P + 20 fraction bits
RULE_CACHE_SIZE = 64  # (N, P) pairs nodes keeps
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


def least_count(r: float, log_majorants: Sequence[float]) -> Tuple[int, float]:
    """(N, log bound) of the Gauss-Legendre rule for a panel of half-width r
    whose integrand is at most exp(log_majorants[j]) on the j-th ellipse of
    ELLIPSES (math.inf where it has no bound there): the least node count N
    whose bound is at most mp.eps, or 4 mp.prec if none is.  Every rho is at
    least 2^(1/4), so a bound that 4 mp.prec nodes miss has M(rho) above
    2^mp.prec on every ellipse.

    An N-point Gauss rule is Trefethen's (n+1)-point one with n = N - 1
    (Approximation Theory and Approximation Practice, SIAM 2013, Thm 19.3),
    so its error is at most T = r (64/15) M(rho) rho^(-2N)/(1 - rho^-2);
    the least T over the RHO_STEPS ellipses is the bound.  It falls with N
    on every ellipse, so the least N is the least over the ellipses of the
    N each needs, which is read from its linear fall and then stepped to
    the least N the float bound itself accepts.
    """
    log_eps = (1 - mp.prec) * math.log(2)
    cap = 4 * mp.prec
    # (T's log at N = 0, log rho) for each ellipse with a bound
    lines = [(log_m + math.log(r * 64 / 15) - math.log(1 - math.exp(-2 * log_rho)),
              log_rho)
             for log_m, (log_rho, _, _) in zip(log_majorants, ELLIPSES)
             if log_m < math.inf]

    def log_bound(N):
        return min((at0 - 2 * N * log_rho for at0, log_rho in lines), default=math.inf)

    N = max(1, min([math.ceil(max(at0 - log_eps, 0) / (2 * log_rho))
                    for at0, log_rho in lines] + [cap]))
    while N > 1 and log_bound(N - 1) <= log_eps:
        N -= 1
    while N < cap and log_bound(N) > log_eps:
        N += 1
    return N, log_bound(N)


def exact_count(d: int) -> int:
    """The least node count N whose rule integrates every polynomial of
    degree d exactly: 2N - 1 >= d."""
    return max(1, d // 2 + 1)


def nodes(N: int) -> Tuple[Tuple[mpf, mpf], ...]:
    """(node, weight) pairs of the N-point Gauss-Legendre rule on [-1, 1],
    in increasing order of the nodes, at the ambient precision P = mp.prec:
    every node within 2^-(P+NODE_BITS) of its root of P_N and every weight
    within 2^-(P+NODE_BITS-2) of that root's, both checked (_rule).  The
    values are exact binary fractions of P + RULE_FRACTION_BITS bits."""
    if N < 1:
        raise ValueError("a Gauss-Legendre rule has at least one node")
    return _rule(N, mp.prec)


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _rule(N: int, P: int) -> Tuple[Tuple[mpf, mpf], ...]:
    """nodes(N) at precision P, in fixed point with F = P +
    RULE_FRACTION_BITS fraction bits.

    The nodes.  The roots of P_N are x and -x for each root x > 0, and 0
    for odd N.  The i-th largest starts at Tricomi's
    cos(pi (4i - 1)/(4N + 2)) (1 - (N - 1)/(8 N^3)), and Newton's iteration
    on P_N runs from it, with P_N and P_(N-1) from the three-term
    recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1) and
    P_N' = N (x P_N - P_(N-1))/(x^2 - 1), until a step s is one whose
    square leaves an error below d/16, d = 2^-(P+NODE_BITS): Newton's error
    after it is about |P_N''/2P_N'| s^2 = x s^2/(1 - x^2) <= N^2 s^2.
    Nothing rests on that recurrence's rounding: each node x is checked.
    P_N must take opposite signs at x - d and x + d (_signed_sum; as
    P_N(-y) = (-1)^N P_N(y), the check of x covers -x), and the N intervals
    [x - d, x + d], mirrored ones and 0's included, must be disjoint (the
    least x > 0 above 2d, the others more than 2d apart).  Each then holds
    a root, and as P_N has N roots, each holds exactly one: every node is
    within d of its root and none is missed.  A node whose check fails
    raises ArithmeticError.

    The weights.  w(x) = 2/((1 - x^2) P_N'(x)^2) at the root, read at the
    checked node from P_N' (_signed_sum, within N/2 + 1 units of 2^-F of
    2^N P_N') and rounded down to F bits.  At the root w < 2, so
    |P_N'| >= 1 and, within d of it, above 1/2 (|P_N''| <= N^4): the read
    is within 5 units of 2^-F of w at the node.  At a root w' = -2 x w/
    (1 - x^2) (P_N'' = 2 x P_N'/(1 - x^2) there), and over [x - d, x + d]
    w' moves from it by terms of order N^4 d <= 2^-12 (N is refused above
    2^(P/4 - 1)), so the weight is within d (2 x w/(1 - x^2) + 2^-8) +
    5 2^-F of the root's.  That is checked to be at most
    4 d = 2^-(P+NODE_BITS-2); the factor
    2 x w/(1 - x^2) is at most about 2.6 (to leading order it is
    2 pi x/(N (1 - x^2)^1/2), largest at the largest root).
    """
    F = P + RULE_FRACTION_BITS
    one = 1 << F
    d = 1 << (F - P - NODE_BITS)
    if N > 2 ** (P // 4 - 1):  # the weights' bound needs N^4 d <= 2^-12
        raise ValueError("node count too large for the precision")
    half = _newton_roots(N, F, d)
    if N // 2 and half[-1] <= 2 * d or any(a - b <= 2 * d for a, b in zip(half, half[1:])):
        raise ArithmeticError(f"the {N}-point Gauss-Legendre nodes are not separated")
    units = N // 2 + 1  # a sum's rounding, in units of 2^-F (_signed_sum)
    factor_cap = 4 - 2.0 ** -8 - 5 * 2.0 ** (NODE_BITS - RULE_FRACTION_BITS)
    value, derivative = _power_coefficients(N, 0), _power_coefficients(N, 1)
    weights = []
    # P_N(-y) = (-1)^N P_N(y): the check of x covers -x
    for x in half + [0] * (N % 2):
        below = _signed_sum(value, N % 2, x - d, F)
        above = _signed_sum(value, N % 2, x + d, F)
        if not (abs(below) > units and abs(above) > units and (below < 0) != (above < 0)):
            raise ArithmeticError(f"P_{N} has no checked sign change about node {x} 2^-{F}")
        slope = _signed_sum(derivative, (N - 1) % 2, x, F)  # 2^N P_N'(x)
        weight = (1 << (2 * N + 1 + 5 * F)) // ((one * one - x * x) * slope * slope)
        if 2 * x * weight / (one * one - x * x) > factor_cap:
            raise ArithmeticError(f"the weight at node {x} 2^-{F} misses its bound")
        weights.append(weight)
    positive = list(zip(half, weights))
    pairs = [(-x, w) for x, w in positive] + [(0, weights[-1])] * (N % 2) + positive[::-1]
    return tuple((mp.make_mpf(from_man_exp(x, -F)), mp.make_mpf(from_man_exp(w, -F)))
                 for x, w in pairs)


def _newton_roots(N: int, F: int, d: int) -> List[int]:
    """The roots x > 0 of P_N in F-bit fixed point, decreasing, by Newton's
    iteration from Tricomi's starts until a step's square leaves an error
    below d/16 (units of 2^-F); _rule checks them."""
    one = 1 << F
    half = []
    for i in range(1, N // 2 + 1):
        start = math.cos(math.pi * (4 * i - 1) / (4 * N + 2)) * (1 - (N - 1) / (8 * N ** 3))
        x = math.floor(math.ldexp(start, 53)) << (F - 53)
        for _ in range(64):
            p, p_prev = _recurrence(N, x, F)
            step = (p * ((x * x >> F) - one)) // (N * ((x * p >> F) - p_prev))
            x -= step
            # a step s leaves about (x/(1 - x^2)) s^2 <= N^2 s^2
            if N * N * step * step <= d << (F - 4):
                break
        half.append(x)
    return half


def _recurrence(N: int, x: int, F: int) -> Tuple[int, int]:
    """(P_N(x), P_(N-1)(x)) by the three-term recurrence in F-bit fixed
    point, x given in it too: Newton's values, whose rounding nothing
    bounds."""
    p_prev, p = 1 << F, x
    for k in range(1, N):
        p_prev, p = p, ((2 * k + 1) * (x * p >> F) - k * p_prev) // (k + 1)
    return p, p_prev


def _power_coefficients(N: int, order: int) -> Tuple[int, ...]:
    """The integer coefficients of 2^N P_N^(order)(y), order 0 or 1, as a
    polynomial in u = y^2 (times y where N - order is odd), highest power
    first: 2^N P_N(y) = sum_j (-1)^j binom(N, j) binom(2N - 2j, N)
    y^(N-2j)."""
    return tuple((-1) ** j * comb(N, j) * comb(2 * N - 2 * j, N) * (N - 2 * j) ** order
                 for j in range((N - order) // 2 + 1))


def _signed_sum(coefficients: Sequence[int], odd: int, y: int, F: int) -> int:
    """2^N P_N^(order)(y) in F-bit fixed point from _power_coefficients(N,
    order), odd = (N - order) % 2, with y given in it too and |y| <= 1:
    within N/2 + 1 units of 2^-F of the exact value.

    Horner's pass over the exact coefficients in u = y^2 (exact, 2F
    fraction bits) floors once a step, and |u| <= 1 does not grow the error
    it inherits: at most floor(N/2) units; the product by y where odd
    floors once more.  So a sum above N/2 + 1 units in size has the sign of
    the exact value."""
    u = y * y
    s = 0
    for c in coefficients:
        s = (s * u >> 2 * F) + (c << F)
    return s * y >> F if odd else s
