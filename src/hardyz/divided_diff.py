"""Divided differences over node multisets, including confluent nodes.

The confluent case is handled by the standard recursive triangle with
derivative substitution on equal-node cells.  Node equality is exact input
equality, never tolerance-based: callers wanting near-confluent behavior
must pass exactly equal nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, List, Sequence, Tuple

from mpmath import mp, mpf

from .precision import DEFAULT_PREC, working_precision


class ProbeOrderError(ValueError):
    """The probe does not supply a high enough derivative order."""


@dataclass
class FunctionProbe:
    """f together with its derivatives up to a declared order.

    ``deriv(x, k)`` must return f^(k)(x); ``max_order`` is the highest k the
    probe guarantees.
    """

    deriv: Callable[[object, int], object]
    max_order: int

    def value(self, x):
        return self.deriv(x, 0)

    @staticmethod
    def from_function(f: Callable, derivatives: Sequence[Callable]) -> "FunctionProbe":
        funcs = [f] + list(derivatives)

        def d(x, k):
            return funcs[k](x)

        return FunctionProbe(deriv=d, max_order=len(derivatives))


@dataclass
class NodeMultiset:
    """Sorted node list with repetitions expressing multiplicity."""

    nodes: List[object] = field(default_factory=list)

    def __post_init__(self):
        self.nodes = sorted(self.nodes, key=mp.mpf)

    def __len__(self):
        return len(self.nodes)

    def max_multiplicity(self) -> int:
        best = 1
        run = 1
        for a, b in zip(self.nodes, self.nodes[1:]):
            run = run + 1 if a == b else 1
            best = max(best, run)
        return best

    def grouped(self) -> List[Tuple[object, int]]:
        """Distinct nodes with multiplicities, in increasing order."""
        out: List[Tuple[object, int]] = []
        for x in self.nodes:
            if out and out[-1][0] == x:
                out[-1] = (x, out[-1][1] + 1)
            else:
                out.append((x, 1))
        return out


def _dd_triangle(z: List, data: Callable[[object, int], object], prec: int):
    """Newton triangle on the (sorted, possibly repeated) node vector z.

    ``data(y, i)`` returns f^(i)(y).  Returns the top-order divided
    difference.
    """
    with working_precision(prec):
        N = len(z)
        col = [None] * N
        # column j of the triangle holds dd over windows of length j+1
        run_start = 0
        for i in range(N):
            col[i] = mp.mpf(data(z[i], 0))
        for j in range(1, N):
            new = [None] * (N - j)
            for i in range(N - j):
                lo, hi = z[i], z[i + j]
                if lo == hi:
                    new[i] = mp.mpf(data(lo, j)) / factorial(j)
                else:
                    new[i] = (col[i + 1] - col[i]) / (mp.mpf(hi) - mp.mpf(lo))
            col = new
        return col[0]


def divided_difference(probe: FunctionProbe, nodes: NodeMultiset,
                       prec: int = DEFAULT_PREC) -> mpf:
    """Divided difference of the probe over the node multiset.

    Equals the classical sum over distinct nodes; for confluent nodes it is
    the Hermite-type limit, with f^(i) substituted on equal-node cells.
    """
    need = nodes.max_multiplicity() - 1
    if probe.max_order < need:
        raise ProbeOrderError(
            f"probe supplies order {probe.max_order}, need {need} for this multiset")
    return _dd_triangle(list(nodes.nodes), probe.deriv, prec)


def divided_difference_data(nodes: NodeMultiset, data: Callable[[object, int], object],
                            prec: int = DEFAULT_PREC) -> mpf:
    """Divided difference from derivative data, data(y, i) = f^(i)(y)."""
    return _dd_triangle(list(nodes.nodes), data, prec)


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


def mean_value_witness(probe: FunctionProbe, nodes: NodeMultiset,
                       prec: int = DEFAULT_PREC) -> mpf:
    """(N-1)! times the divided difference over N nodes.

    By the mean value property this equals f^(N-1)(eta) for some eta in the
    node hull, so it must lie between the extremes of f^(N-1) there.
    """
    dd = divided_difference(probe, nodes, prec=prec)
    with working_precision(prec):
        return mp.factorial(len(nodes) - 1) * dd


def divided_difference_mc(probe: FunctionProbe, nodes: NodeMultiset,
                          samples: int = 20000, seed: int = 0,
                          prec: int = DEFAULT_PREC) -> mpf:
    """Monte Carlo estimate via the iterated-integral (simplex) representation.

    dd = integral over the ordered simplex of f^(N-1) at the barycentric
    point; low-accuracy cross-check oracle only.
    """
    N = len(nodes)
    order = N - 1
    if probe.max_order < order:
        raise ProbeOrderError("probe order too low for simplex representation")
    rng = random.Random(seed)
    z = [mp.mpf(v) for v in nodes.nodes]
    diffs = [z[i + 1] - z[i] for i in range(order)]
    with working_precision(prec):
        total = mp.mpf(0)
        for _ in range(samples):
            taus = sorted((rng.random() for _ in range(order)), reverse=True)
            x = z[0]
            for t, d in zip(taus, diffs):
                x += t * d
            total += mp.mpf(probe.deriv(x, order))
        return total / samples / mp.factorial(order)
