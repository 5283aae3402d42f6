"""Tests for hardyz.theta: every value of a theta jet's polynomial, and
theta and theta' at a point, lies within its stated bound of mpmath's
loggamma or digamma at twice the precision, and the libmp calls of the
Stirling sum are within their assumed errors."""

import math

import pytest
from mpmath import mp

from hardyz.hardy import CONTOUR_RADIUS, _TaylorPatches
from hardyz.precision import working_precision
from hardyz.theta import ThetaJet, theta_point

from derivative_oracle import theta_complex
from test_hardy import NEWTON_HEIGHTS
from test_libmp import measured_errors, over_assumed, theta_read

# explore's lowest height, the benchmark's range, and up to three patches
EXPLORE_HEIGHTS = ["30.5", "55", "60", "65", "100", "1000", "10000"]
# z_derivatives_batch's circles, which shrink to radius t/2 + 1/4 near 0
BATCH_HEIGHTS = ["0", "0.5", "1", "3", "20", "100"]
POINTS = 32  # read at these points of each circle, and at its centre
BUDGET_BITS = 30  # the jets' budget, 2^-(prec + 30), about a sample's


def _explore_circles(T, prec: int):
    """(centre, radius) of each of explore's patches about T at prec."""
    with working_precision(prec):
        T = mp.mpf(T)
        lo, hi = T - 2 * mp.pi, T + 2 * mp.pi
        count = _TaylorPatches._first_count(lo, hi)
        width = (hi - lo) / count
        return [(lo + (i + mp.mpf(0.5)) * width, float(width)) for i in range(count)]


def _batch_circle(t, prec: int):
    """(centre, radius) of z_derivatives_batch's circle about t at prec."""
    with working_precision(prec):
        t = mp.mpf(t)
        return t, float(min(mp.mpf(CONTOUR_RADIUS), abs(t) / 2 + mp.mpf(0.25)))


def _jet(centre, radius: float, prec: int) -> ThetaJet:
    """The jet covering the circle, for a budget of 2^-(prec + BUDGET_BITS)."""
    return ThetaJet(centre, radius * (1 + 2.0 ** -16), 2.0 ** -(prec + BUDGET_BITS))


def _worst_read(centre, radius: float, prec: int) -> float:
    """The largest |jet - theta| over one circle and its centre as a
    fraction of the jet's bound, the jet's polynomial read by Horner's rule
    and the reference taken at 2 prec."""
    jet = _jet(centre, radius, prec)
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
    for c, radius in _explore_circles(T, prec):
        assert _worst_read(c, radius, prec) <= 1, (T, c)


@pytest.mark.parametrize("t", BATCH_HEIGHTS)
def test_jet_reads_on_batch_circles_are_within_the_bound(t):
    assert _worst_read(*_batch_circle(t, 128), 128) <= 1


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


POINT_HEIGHTS = ["0", "0.5", "14.1", "20.5", "30.5", "100.3", "500.3", "10000.3", "100000.3",
                 "1000000.3"]


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_theta_point_is_within_its_bound(prec):
    # theta from loggamma as derivative_oracle.theta_complex takes it, and
    # theta' = Re psi(1/4 + it/2)/2 - log(pi)/2 from digamma, at 2 prec
    for t in POINT_HEIGHTS:
        with working_precision(prec):
            tm = mp.mpf(t)
        value, slope, bound = theta_point(tm, prec)
        assert bound < 2.0 ** -prec, t
        with mp.workprec(2 * prec):
            exact = theta_complex(tm).real
            exact_slope = mp.digamma(mp.mpf(0.25) + 0.5j * tm).real / 2 - mp.log(mp.pi) / 2
            assert abs(mp.ldexp(value, -prec) - exact) <= bound, t
            assert abs(mp.ldexp(slope, -prec) - exact_slope) <= bound, t


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_stirling_libmp_calls_are_within_the_assumed_ulps(monkeypatch, prec):
    # the jets of explore's patches and of z_derivatives_batch's circles,
    # as the jet tests above build them, here at prec, and theta and
    # e^(i theta) of find_zeros' Newton reads (J = 2) at NEWTON_HEIGHTS
    def workload(recorder):
        circles = [c for T in EXPLORE_HEIGHTS for c in _explore_circles(T, prec)]
        for centre, radius in circles + [_batch_circle(t, prec) for t in BATCH_HEIGHTS]:
            _jet(centre, radius, prec)
        with working_precision(prec):
            for t in NEWTON_HEIGHTS:
                theta_read(recorder, mp.mpf(t), prec, 2)

    worst = measured_errors(monkeypatch, workload)
    assert set(worst) == {"mpf_log", "mpf_cos_sin", "mpf_atan2", "mpf_pi"}, worst
    assert not over_assumed(worst)
