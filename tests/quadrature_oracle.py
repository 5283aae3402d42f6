"""The tests' references for the identity's integral term, read by
tests/test_identity.py against identity._integral_term's one Gauss-Legendre
rule per panel: where mpmath's Gauss-Legendre ladder (mp.quad) stops on
each panel, and Gauss-Legendre at one fixed degree per panel."""

from typing import Callable, List, Sequence, Tuple

from mpmath import mp, mpf


def ladder(f: Callable, knots: Sequence[mpf]) -> Tuple[List[int], int]:
    """Where mp.quad's Gauss-Legendre stops on each panel between knots, at
    the ambient precision: (final degree of each panel, integrand calls).
    On each panel mp.quad runs degree 1, 2, ... (3 2^(d-1) nodes at degree
    d) until its extrapolated error guess is below its epsilon or its top
    degree is reached, so a panel that stops at degree d costs
    3 (2^d - 1) calls."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    degrees = []
    for lo, hi in zip(knots, knots[1:]):
        before = calls
        mp.quad(counted, [lo, hi], method="gauss-legendre")
        degrees.append(((calls - before) // 3 + 1).bit_length() - 1)
    return degrees, calls


def fixed_degree(f: Callable, knots: Sequence[mpf], degree: int) -> mpf:
    """Gauss-Legendre of mpmath's degree (3 2^(degree-1) nodes) on every panel
    between knots, at the ambient precision: exact, up to rounding, for a
    polynomial of degree below 3 2^degree on each panel."""
    total = []
    for lo, hi in zip(knots, knots[1:]):
        nodes = mp._gauss_legendre.get_nodes(lo, hi, degree, mp.prec)
        total.append(mp.fdot((w, f(x)) for x, w in nodes))
    return mp.fsum(total)
