"""Tests for hardyz.theta: every value of a theta jet's polynomial lies
within the jet's stated bound of mpmath's loggamma at twice the
precision."""

import math

import pytest
from mpmath import mp

from hardyz.hardy import CONTOUR_RADIUS, _TaylorPatches
from hardyz.precision import working_precision
from hardyz.theta import ThetaJet

from derivative_oracle import theta_complex

# explore's lowest height, the benchmark's range, and up to three patches
EXPLORE_HEIGHTS = ["30.5", "55", "60", "65", "100", "1000", "10000"]
# z_derivatives_batch's circles, which shrink to radius t/2 + 1/4 near 0
BATCH_HEIGHTS = ["0", "0.5", "1", "3", "20", "100"]
POINTS = 32  # read at these points of each circle, and at its centre
BUDGET_BITS = 30  # the jets' budget, 2^-(prec + 30), about a sample's


def _worst_read(centre, radius: float, prec: int) -> float:
    """The largest |jet - theta| over one circle and its centre as a
    fraction of the jet's bound, the jet's polynomial read by Horner's rule
    and the reference taken at 2 prec."""
    cover = radius * (1 + 2.0 ** -16)
    jet = ThetaJet(centre, cover, 2.0 ** -(prec + BUDGET_BITS))
    assert jet.error <= 2.0 ** -(prec + BUDGET_BITS)
    worst = 0.0
    with mp.workprec(2 * prec):
        coefficients = [mp.ldexp(t, -jet.bits) for t in jet.coefficients]
        points = [radius * mp.expjpi(mp.mpf(2 * j) / POINTS) for j in range(POINTS)] + [0]
        for h in points:
            y, value = h * mp.ldexp(1, -jet.scale), 0
            for t in reversed(coefficients):
                value = value * y + t
            gap = abs(value - theta_complex(centre + h))
            worst = max(worst, float(gap) / jet.error)
    return worst


@pytest.mark.parametrize("prec", [64, 128])
@pytest.mark.parametrize("T", EXPLORE_HEIGHTS)
def test_jet_reads_on_explore_circles_are_within_the_bound(T, prec):
    with working_precision(prec):
        T = mp.mpf(T)
        lo, hi = T - 2 * mp.pi, T + 2 * mp.pi
        count = _TaylorPatches._first_count(lo, hi)
        width = (hi - lo) / count
        centres = [lo + (i + mp.mpf(0.5)) * width for i in range(count)]
    for c in centres:
        assert _worst_read(c, float(width), prec) <= 1, (T, c)


@pytest.mark.parametrize("t", BATCH_HEIGHTS)
def test_jet_reads_on_batch_circles_are_within_the_bound(t):
    with working_precision(128):
        t = mp.mpf(t)
        radius = min(mp.mpf(CONTOUR_RADIUS), abs(t) / 2 + mp.mpf(0.25))
    assert _worst_read(t, float(radius), 128) <= 1


def test_a_jet_refuses_a_disc_through_a_singularity():
    for centre, radius in ((0, 0.5), (60, 61), (3, 0)):
        with pytest.raises(ValueError):
            ThetaJet(mp.mpf(centre), radius, 2.0 ** -64)


def test_the_shift_rule_runs_where_stirling_alone_falls_short():
    # at explore's lowest height |z| falls to about 9 on the circle, where
    # Stirling's smallest term is about 2^-82; at T = 10^4 no shift is needed
    low = ThetaJet(mp.mpf("30.5"), 4 * math.pi, 2.0 ** -110)
    high = ThetaJet(mp.mpf(10000), 4 * math.pi / 3, 2.0 ** -110)
    assert low.shifts > 0 and high.shifts == 0
