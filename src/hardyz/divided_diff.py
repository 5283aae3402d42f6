"""Divided differences over node multisets, including confluent nodes.

The confluent case is handled by the standard recursive triangle with
derivative substitution on equal-node cells.  Node equality is exact input
equality, never tolerance-based: callers wanting near-confluent behavior
must pass exactly equal nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Callable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .precision import DEFAULT_PREC, held, working_precision
from .quadrature import BOUND_SLACK, ELLIPSES, exact_count, least_count
from .quadrature import nodes as gl_nodes


@dataclass
class FunctionProbe:
    """f together with its derivatives of every order.

    ``deriv(x, k)`` must return f^(k)(x) for every k >= 0; the built-in
    probes compute it analytically.  ``majorant(k, height)``, set by
    probes.ExpQuadraticProbe and None otherwise, is the log of a bound on
    |f^(k)(z)| for every complex z with |Im z| <= height, computed in
    floats.  Its two readers, identity's integral term and
    divided_difference_simplex, choose their Gauss-Legendre rule's node
    count and bound its error from it, and refuse a probe without one
    unless it is a polynomial (degree is not None).
    """

    deriv: Callable[[object, int], object]
    majorant: Optional[Callable[[int, float], float]] = field(default=None, init=False)

    @property
    def degree(self) -> Optional[int]:
        """f's degree where f is a polynomial (probes.PolynomialProbe), else None."""
        return None

    def value(self, x):
        return self.deriv(x, 0)


@dataclass
class NodeMultiset:
    """Sorted node list with repetitions expressing multiplicity.  The nodes
    are held as mpf (precision.held) and sorted exactly, never re-rounded."""

    nodes: List[object]

    def __post_init__(self):
        self.nodes = sorted(map(held, self.nodes))

    def __len__(self):
        return len(self.nodes)

    def grouped(self) -> List[Tuple[object, int]]:
        """Distinct nodes with multiplicities, in increasing order."""
        out: List[Tuple[object, int]] = []
        for x in self.nodes:
            if out and out[-1][0] == x:
                out[-1] = (x, out[-1][1] + 1)
            else:
                out.append((x, 1))
        return out


def node_product(y: Sequence, k: int) -> mpf:
    """prod_{j != k} (y_k - y_j) at the ambient precision: the reciprocal of
    y_k's weight in the divided difference over the distinct nodes y."""
    prod = mp.mpf(1)
    for j, yj in enumerate(y):
        if j != k:
            prod *= y[k] - yj
    return prod


def _dd_triangle(z: List, data: Callable[[object, int], object]):
    """Newton triangle on the (sorted, possibly repeated) node vector z.

    ``data(y, i)`` returns f^(i)(y) and is called once per distinct (y, i).
    Returns the top-order divided difference.
    """
    data = lru_cache(maxsize=None)(data)
    N = len(z)
    col = [None] * N
    # column j of the triangle holds dd over windows of length j+1
    for i in range(N):
        col[i] = mp.mpf(data(z[i], 0))
    for j in range(1, N):
        new = [None] * (N - j)
        for i in range(N - j):
            lo, hi = z[i], z[i + j]
            if lo == hi:
                new[i] = mp.mpf(data(lo, j)) / factorial(j)
            else:
                new[i] = (col[i + 1] - col[i]) / (hi - lo)
        col = new
    return col[0]


def divided_difference(probe: FunctionProbe, nodes: NodeMultiset,
                       prec: int = DEFAULT_PREC) -> mpf:
    """Divided difference of the probe over the node multiset.

    Equals the classical sum over distinct nodes; for confluent nodes it is
    the Hermite-type limit, with f^(i) substituted on equal-node cells.
    """
    return divided_difference_data(nodes, probe.deriv, prec=prec)


def divided_difference_data(nodes: NodeMultiset, data: Callable[[object, int], object],
                            prec: int = DEFAULT_PREC) -> mpf:
    """Divided difference from derivative data, data(y, i) = f^(i)(y)."""
    with working_precision(prec):
        return _dd_triangle(list(nodes.nodes), data)


def hermite_weights(nodes: NodeMultiset, prec: int = DEFAULT_PREC
                    ) -> List[Tuple[object, int, mpf]]:
    """Weights w_{k,i} with dd(f) = sum w_{k,i} f^(i)(y_k) for smooth f.

    Extracted by running the triangle on indicator data, which amounts to
    divided differences of the cardinal (Hermite basis) polynomials.
    """
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    slots = []
    for y, r in nodes.grouped():
        for i in range(r):
            slots.append((y, i))
    out = []
    for target in slots:
        w = divided_difference_data(
            nodes, lambda y, i: 1 if (y, i) == target else 0, prec=prec)
        out.append((target[0], target[1], w))
    return out


def divided_difference_simplex(probe: FunctionProbe, nodes: NodeMultiset,
                               prec: int = DEFAULT_PREC) -> mpf:
    """The triangle's cross-check, sharing no code with it: the
    Hermite-Genocchi integral of f^(d)(z_0 + sum_i t_i (z_i - z_(i-1))) over
    1 >= t_1 >= .. >= t_d >= 0, in collapsed coordinates t_1 = s_1,
    t_(i+1) = t_i s_(i+1) on the unit cube (Jacobian t_1 .. t_(d-1)), by
    the tensor product of one Gauss-Legendre rule on [0, 1], of the node
    count _simplex_rule chooses.  The gaps are taken from the held nodes at
    the working precision, so the result does not depend on the caller's.
    Orders 1 and 2 only: a tensor rule of order 3 takes seconds.
    """
    order = len(nodes) - 1
    if not 1 <= order <= 2:
        raise ValueError("divided_difference_simplex takes two or three nodes")
    with working_precision(prec):
        z = nodes.nodes
        gaps = [z[i + 1] - z[i] for i in range(order)]
        N, _ = _simplex_rule(probe, float(z[-1] - z[0]), order)
        points = [((1 + t) / 2, w / 2) for t, w in gl_nodes(N)]

        def integrand(*s):
            t, x, jacobian = 1, z[0], 1
            for si, gap in zip(s, gaps):
                jacobian *= t
                t *= si
                x += t * gap
            return jacobian * probe.deriv(x, order)

        return mp.fdot((mp.fprod(w for _, w in point),
                        integrand(*(s for s, _ in point)))
                       for point in itertools.product(points, repeat=order))


def _simplex_rule(probe: FunctionProbe, span: float, order: int) -> Tuple[int, float]:
    """(N, log bound) of divided_difference_simplex's tensor rule of
    N-point factors, for nodes spanning z_d - z_0 = span, in floats at the
    ambient precision.

    A polynomial probe of degree p makes the integrand a polynomial of
    degree at most p - 1 in each s_i, and gets the fewest nodes that
    integrate it exactly (bound 0).  Any other probe needs a majorant.  The
    rule's error is at most the sum of the d one-dimensional errors, in
    each s_i with the others real in [0, 1], because each rule's weights
    are positive and sum to 1.  With s_i on the ellipse E_rho about [0, 1]
    (semi-axes A/2 and B/2 of quadrature.ELLIPSES) and the others in
    [0, 1], the point moves off the real line by at most B span/2, and the
    Jacobian s_1 is at most (1 + A)/2: each one-dimensional integrand is at
    most M(rho) = ((1 + A)/2)^(d-1) exp(majorant(d, B span/2)), so the
    bound is quadrature.least_count's for d M(rho), at r = 1/2.  span is
    rounded up, and the bound's floats are covered by BOUND_SLACK as in
    identity._panel_rule.
    """
    if probe.degree is not None:
        return exact_count(probe.degree - 1), -math.inf
    if probe.majorant is None:
        raise ValueError("the probe has no majorant of |f^(d)| off the real line: "
                         "the Gauss-Legendre rule chooses its node count and bounds "
                         "its error from one")
    height = span * (1 + 2.0 ** -52) / 2
    log_ms = [math.log(order) + (order - 1) * math.log((1 + A) / 2)
              + probe.majorant(order, B * height) for _, A, B in ELLIPSES]
    N, log_trunc = least_count(0.5, log_ms)
    return N, log_trunc + BOUND_SLACK
