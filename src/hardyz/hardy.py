"""Hardy Z function engine: evaluation, derivatives, zeros, counting.

Z(t) = e^{i theta(t)} zeta(1/2 + it) is real for real t.  Every zeta the
program reads comes from zeta._zeta_em, one Euler-Maclaurin sum in fixed
point with an explicit bound on its truncation and its rounding: z_eval's
on the critical line and the contour samples' off it.
find_zeros states how the zero finder reads Z and what it proves.
Derivatives come from the Taylor coefficients of the analytic continuation
of Z on a Cauchy circle: the half with Im w <= 0, where zeta sits at
sigma >= 1/2, is sampled with _zeta_em and with theta from one Taylor jet
a circle (theta.ThetaJet), and Schwarz reflection fills the other.  Each
sample's proved error is checked against the allowance the circle was
sized for.  mpmath's loggamma serves theta(t) alone, for z_eval and the
smooth zero count.
_TaylorPatches is the one place that builds such circles and keeps their
series: z_derivatives_batch reads one patch at its centre, and
theorem1_explore reads every point of its window from the fewest patches
its error bound allows (one up to T = 104).  The tests
cross-check the contour route against mpmath's Z^(k) and its finite
differences (tests/derivative_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import iv, libmp, mp, mpf

from .enclose import RS_MIN_T, log_add, z_log_majorant, z_rs
from .precision import (DEFAULT_PREC, GUARD_BITS, interval_precision,
                        refine_sign_change, working_precision)
from .theta import ThetaJet
from .zeta import COS_SIN_ULPS, EXP_ULPS, _zeta_em

MAX_DERIVATIVE_ORDER = 64
ZERO_HALF_WIDTH_BITS = 48
HALF_WIDTH_DIGITS = 6  # a zero's bracket half-width prints with 6 digits at any precision
MAX_RESCANS = 4
THETA_GUARD_BITS = 16  # theta ~ t log t, and its absolute error is Z's relative error
CONTOUR_RADIUS = 2  # z_derivatives_batch's circle, shrunk to |t|/2 + 1/4 near 0
SAMPLE_ULPS = 16  # a contour sample's allowance, checked against its proved error (see _TaylorPatches)
READ_GUARD_BITS = 8  # a Taylor patch's fixed-point series carry bits + 8 fraction bits
CENTRE_READ_BITS = 4  # a width-0 patch's first pass is sized for a read of 2^-4
MODEL_RADIUS = 1  # the circle about a bracket on which find_zeros bounds |Z''|
MODEL_READS = 6  # z_eval reads find_zeros' secant model takes before its fallback


class CapacityError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class UnconfirmedSignChangeError(ArithmeticError):
    """z_eval could not confirm a zero's sign change, even with the bracket
    widened 256 times."""


class RejectedPointError(ValueError):
    """Z(T) indistinguishable from zero; the report would be meaningless."""


# ---------------------------------------------------------------------------
# theta


def theta(t, prec: int = DEFAULT_PREC) -> mpf:
    """Riemann-Siegel theta via the log-Gamma branch.

    theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi; exact for all real t.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        return mp.loggamma(mp.mpf(0.25) + 0.5j * tm).imag - tm / 2 * mp.log(mp.pi)


def theta_prime(t, prec: int = DEFAULT_PREC) -> mpf:
    """theta'(t) = Re psi(1/4 + it/2)/2 - log(pi)/2."""
    with working_precision(prec):
        tm = mp.mpf(t)
        return mp.digamma(mp.mpf(0.25) + 0.5j * tm).real / 2 - mp.log(mp.pi) / 2


# ---------------------------------------------------------------------------
# Z evaluation


def z_eval(t, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """(value, error estimate) for Z(t) = e^{i theta(t)} zeta(1/2 + it) by
    Euler-Maclaurin, the (value, bound) shape of enclose.z_rs.

    The error estimate is _zeta_em's bound at sigma = 1/2, its truncation
    plus the proved rounding of its fixed-point sums, plus the imaginary
    residue of the complex product; the contour samples (_z_sample) read
    the same sum off the line.  Its one reader is find_zeros (theorem1_explore
    reads Z(T) from its own Taylor patches).  The tests check the value
    against z_rs's enclosure from t = 200 on and against mp.siegelz at
    every height.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 0:
            raise ValueError("t must be >= 0")
        zeta_val, zeta_err = _zeta_em(mp.mpf(0.5), tm, prec)
        phase = mp.e ** (1j * theta(tm, prec=prec + THETA_GUARD_BITS))
        zc = phase * zeta_val
        return zc.real, +(zeta_err + abs(zc.imag))


def _z_sample(centre, jet: ThetaJet, point: Tuple[int, int],
              bits: int) -> Tuple[int, int, float]:
    """A contour sample: Z(w) = e^(i theta(w)) zeta(1/2 + iw) at
    w = centre + (x + iv) 2^-jet.point_bits, Im w <= 0, as (re, im) floored
    to `bits` fraction bits, and a proved bound on its error before that
    floor.  zeta comes from _zeta_em at sigma = 1/2 - Im w and t = Re w,
    both exact, with `bits` as its requested bits; _zeta_em refuses
    Im w > 0, where sigma < 1/2 and _dirichlet_table's bound does not
    hold, and the contours fill that half by reflection.  The pole of zeta
    sits at w = -i/2.  theta comes from the jet about centre, read at the
    same point, and e^(i theta) from libmp's exp and cos_sin at the jet's
    F fraction bits; the product is one exact integer product of
    fixed-point factors.

    With E~ the fixed-point e^(i theta~), theta~ the jet's read (within
    eps_theta of theta(w)), zeta~ _zeta_em's value (within eps_zeta of
    zeta(w)) and its fixed point within sqrt 2 units of 2^-F, the sample
    errs by at most
        |E~| (sqrt 2 2^-F + eps_zeta)
        + (|zeta~| + eps_zeta) (eps_E + |e^(i theta~)| (e^eps_theta - 1)),
    eps_E the error of E~: exp is taken within zeta.EXP_ULPS ulps, cos and
    sin within zeta.COS_SIN_ULPS units of 2^-F, and each is floored to F
    fraction bits.  The last term is |Z| times the jet's theta bound, up
    to second order.
    """
    x, v = point
    P, F = jet.point_bits, jet.bits
    t = mp.make_mpf(libmp.mpf_add(centre._mpf_, libmp.from_man_exp(x, -P)))
    sigma = mp.make_mpf(libmp.from_man_exp((1 << (P - 1)) - v, -P))
    with mp.workprec(bits):
        zeta_val, zeta_err = _zeta_em(sigma, t, mp.prec)
    alpha, beta = jet.read(x, v)
    cos, sin = (libmp.to_fixed(y, F) for y in libmp.mpf_cos_sin(libmp.from_man_exp(alpha, -F), F))
    modulus = libmp.to_fixed(libmp.mpf_exp(libmp.from_man_exp(-beta, -F), F), F)
    zr, zi = (libmp.to_fixed(y._mpf_, F) for y in (zeta_val.real, zeta_val.imag))
    shift = 3 * F - bits
    re = modulus * (cos * zr - sin * zi) >> shift
    im = modulus * (cos * zi + sin * zr) >> shift
    unit = 2.0 ** -F
    phase_err = math.sqrt(2) * (COS_SIN_ULPS + 1) * unit
    phase = (modulus + 1) * unit / (1 - 2 * EXP_ULPS * unit)  # >= |e^(i theta~)|
    modulus_err = 2 * EXP_ULPS * unit * phase + unit
    e_size = modulus * unit * math.hypot(cos, sin) * unit
    e_err = modulus_err * (1 + phase_err) + phase * phase_err
    zeta_err = float(zeta_err)
    size = abs(zeta_val) + zeta_err
    error = (e_size * (math.sqrt(2) * unit + zeta_err)
             + float(size) * (e_err + phase * math.expm1(jet.error)))
    return re, im, error


# ---------------------------------------------------------------------------
# derivatives


def _z_taylor(centre, radius, M: int, count: int, bits: int,
              jet: ThetaJet) -> Tuple[List[int], float]:
    """([s_0, .., s_(count-1)], delta), count <= M: the trapezoid sums of Z
    about the real point centre on one circle of M points, radius r an mpf
    of at most `bits` bits, as exact Python ints: s_n = 2^(2 bits) M r^n
    a~_n, a~_n the sum's estimate of the Taylor coefficient a_n; and delta,
    the largest proved sample error (_z_sample).

    Only the M/2 + 1 points with Im w <= 0 are sampled, where zeta sits at
    sigma >= 1/2, each with theta from jet, a ThetaJet about centre that
    covers the circle.  The Schwarz reflection Z(conj w) = conj Z(w) fills
    the other half: Z is real on the real axis, and so are theta's Taylor
    coefficients.  a~_n r^n is then the trapezoid sum
    (Re f_0 + (-1)^n Re f_{M/2} + 2 sum_{0<j<M/2} Re(f_j u^(nj)))/M over one
    table of M-th roots of unity u^j, with f_j = Z(centre + r u^-j).
    For every n < M that sum is a_n plus the aliases a_(n+jM) r^(jM), j >= 1.
    The sums run in fixed point with `bits` fraction bits: each input is
    truncated once and the integer products are exact.  The sample points
    are r u^-j floored to the jet's point_bits, from roots mpmath computes
    8 bits finer, so each is within 2^-point_bits (2 + r/16) of its exact
    place (taking mpmath's roots within an ulp); _TaylorPatches bounds what
    that moves Z.
    """
    half = M // 2
    P = jet.point_bits
    with mp.workprec(P + 8):
        roots = mp.unitroots(M)
        points = [radius * mp.conj(roots[j]) for j in range(half + 1)]
        points = [(libmp.to_fixed(h.real._mpf_, P), libmp.to_fixed(h.imag._mpf_, P))
                  for h in points]
        u_re = [int(mp.ldexp(u.real, bits)) for u in roots]
        u_im = [int(mp.ldexp(u.imag, bits)) for u in roots]
    samples = [_z_sample(centre, jet, point, bits) for point in points]
    f_re = [f[0] for f in samples]
    f_im = [f[1] for f in samples]
    sums = []
    for n in range(count):
        acc = 2 * sum(f_re[j] * u_re[n * j % M] - f_im[j] * u_im[n * j % M]
                      for j in range(1, half))
        sums.append(acc + ((f_re[0] + (-1) ** n * f_re[half]) << bits))
    return sums, max(f[2] for f in samples)


def z_derivatives_batch(t, orders: Sequence[int],
                        prec: int = DEFAULT_PREC) -> Dict[int, mpf]:
    """All requested derivative orders from a single contour about t: the
    centre read of one Taylor patch (_TaylorPatches over the width-0 window
    [t, t]) of radius min(CONTOUR_RADIUS, |t|/2 + 1/4), which keeps the
    circle inside the disc where Z is analytic: its nearest singularities
    are at w = +-i/2.  _TaylorPatches sizes M and the sample bits from its
    proved error bound, so near t = 0, where that disc is small, the circle
    gets more points, not fewer bits.
    """
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        return {}
    if orders[0] < 0:
        raise ValueError("orders must be >= 0")
    with working_precision(prec):
        tm = mp.mpf(t)
        radius = min(mp.mpf(CONTOUR_RADIUS), abs(tm) / 2 + mp.mpf(0.25))
        patch = _TaylorPatches(tm, tm, orders, prec, radius)
        return {k: patch.derivative(tm, k) for k in orders}


# ---------------------------------------------------------------------------
# zeros


@dataclass
class Zero:
    t: mpf
    half_width: mpf = field(metadata={"digits": HALF_WIDTH_DIGITS})


@dataclass
class ZeroList:
    t_lo: mpf
    t_hi: mpf
    zeros: List[Zero]
    rescans: int
    suspected_missing: bool
    count: int = field(init=False)

    def __post_init__(self):
        self.count = len(self.zeros)

    def __len__(self) -> int:
        return len(self.zeros)


def _scan_step(t) -> mpf:
    """pi/(4 theta'(x)), x = max(t, 20), as the exact mpf of a float: theta'
    is small or negative below ~18, and rises from theta'(20) = 0.579.  The
    step is a heuristic, so theta' is read in floats from its Stirling
    series 1/2 log(x/2pi) - 1/(48 x^2) - 7/(1920 x^4), whose first omitted
    term, 31/(16128 x^6), is at most 3.1e-11 from x = 20 on."""
    x = max(float(t), 20.0)
    slope = 0.5 * math.log(x / (2 * math.pi)) - 1 / (48 * x * x) - 7 / (1920 * x ** 4)
    return mp.mpf(math.pi / (4 * slope))


def expected_zero_count(t_lo, t_hi, prec: int = DEFAULT_PREC) -> mpf:
    """(theta(t_hi) - theta(t_lo))/pi, the smooth count of zeros in the
    interval (off by the bounded fluctuation term)."""
    with working_precision(prec):
        lo = max(mp.mpf(t_lo), mp.mpf(0))
        return (theta(t_hi, prec=prec) - theta(lo, prec=prec)) / mp.pi


def _certified_sign_change(t, w, prec: int) -> bool:
    """Euler-Maclaurin Z has opposite signs at t - w and t + w, and each
    value exceeds its own error estimate.  find_zeros' fallback, for a
    bracket whose own ends do not prove the sign change."""
    za, ea = z_eval(t - w, prec=prec)
    zb, eb = z_eval(t + w, prec=prec)
    return (za > 0) != (zb > 0) and abs(za) > ea and abs(zb) > eb


def _second_derivative_bound(lo, hi) -> mpf:
    """M2 with |Z''| <= M2 on [lo, hi]: Cauchy's integral formula
    on the circle of radius MODEL_RADIUS about c, the float nearest the
    midpoint (see find_zeros), in mpmath.iv at the ambient precision.  M2
    is inf where [lo, hi] reaches the circle."""
    with interval_precision():
        c = float((lo + hi) / 2)
        centre, rho = iv.mpf(c), iv.mpf(MODEL_RADIUS)
        d = max((iv.mpf(hi) - centre).b, (centre - iv.mpf(lo)).b)
        if not d < rho:
            return mp.inf
        m2 = 2 * iv.exp(z_log_majorant(c, MODEL_RADIUS)) * rho / (rho - d) ** 3
        return mp.mpf(m2.b)


def _line_proves(read_i, read_j, root, w, box) -> bool:
    """Z has opposite signs at root - w and root + w, by the line through
    two reads of Z (see find_zeros).  read_i and read_j are (t, value,
    error); box is (lo, hi, M2), M2 from _second_derivative_bound(lo, hi),
    and both points must lie in [lo, hi].  It runs in mpmath.iv at the ambient precision,
    where a comparison is True only when it holds for every point of the
    intervals, so it needs no rounding allowance."""
    with interval_precision():
        (ti, vi, ei), (tj, vj, ej) = [[iv.mpf(v) for v in read] for read in (read_i, read_j)]
        lo, hi, m2 = (iv.mpf(v) for v in box)
        span = tj - ti
        slope = (vj - vi) / span
        signs = []
        root, w = iv.mpf(root), iv.mpf(w)
        for x in (root - w, root + w):
            line = vi + slope * (x - ti)
            remainder = (m2 / 2 * abs(x - ti) * abs(x - tj)
                         + (ei * abs(x - tj) + ej * abs(x - ti)) / abs(span))
            if not (lo <= x and x <= hi and abs(line) > remainder):
                return False
            signs.append(line > 0)
        return signs[0] != signs[1]


def find_zeros(t_lo, t_hi, prec: int = DEFAULT_PREC) -> ZeroList:
    """All sign-change zeros of Z in (t_lo, t_hi], each proved to lie within
    its reported half-width of its reported t: at most 2^-48, or 2^-46 or
    2^-38 where the fallback's sign check proves it.

    Scans a finite window at step pi/(4 theta'), theta' read in floats
    (_scan_step); the count is cross-checked against the smooth theta-based
    estimate and the scan is repeated at half step (up to MAX_RESCANS times)
    when a missed close pair is suspected.
    Z is read by one rule at every height (z_sign): from t = 200 on,
    enclose.z_rs's value wherever it exceeds z_rs's bound; everywhere else
    z_eval's value.  Each read records (t, value, error), and it proves Z's
    sign when |value| > error: z_rs's always does, and a z_eval value does
    when it is larger than its error estimate.  The scan's values seed the
    refinement of each bracket, in three stages.

    1. Illinois regula falsi (precision.refine_sign_change) on z_rs, for as
       long as z_rs proves the signs; it stops at its first z_eval read.
       Below t = 200 that is its first step.
    2. The secant model.  From that read on, each step reads z_eval at the
       root of the line through the two latest reads, held inside the
       bracket of proved reads; the first z_eval read pairs with the
       bracket's end on the other side of the zero.  After every read of
       stage 2 the line L through (t_i, v_i) and (t_j, v_j), with root t*,
       is tried as a proof (not the first, whose bracket end's z_rs bound or
       distance from the zero is too large): Z(x) has the sign of L(x) at
       x = t* - w and x = t* + w, w = 2^-ZERO_HALF_WIDTH_BITS, when at both

           |L(x)| > (M2/2) |x - t_i| |x - t_j|
                    + (e_i |x - t_j| + e_j |x - t_i|)/|t_i - t_j|.

       The first term bounds Z(x) - P(x), P the line through the exact
       values of Z at t_i and t_j (Z(x) - P(x) = Z''(xi)/2 (x - t_i)(x - t_j)
       for some xi between the three points); the second bounds P(x) - L(x),
       since Z(t_i) is within e_i of v_i.  M2 bounds |Z''| on the bracket
       [lo, hi] stage 2 starts from, which holds every point: with c the
       float nearest its midpoint, d = max(hi - c, c - lo),
       rho = MODEL_RADIUS and A = exp(enclose.z_log_majorant(c, rho)) a
       bound on |Z| over |w - c| = rho, Cauchy's integral formula gives
       |Z''(x)| <= 2 A rho/(rho - d)^3 for |x - c| <= d.  Z is analytic
       there, since rho < sqrt(c^2 + 1/4) for c > 0.87 and Z changes sign
       nowhere below t = 14, and d < rho, since no bracket is wider than
       the largest scan step, pi/(4 theta'(20)) < 1.36.  The check runs in mpmath.iv
       (_line_proves), so it needs no rounding allowance.  A zero it proves
       is reported as t* with half-width exactly w.  The model costs one
       majorant call a zero.
    3. The fallback, when MODEL_READS z_eval reads have proved nothing (a
       line with no root, a root that repeats a read, or reads too far from
       the zero or too imprecise): Illinois on z_sign from the bracket of
       proved reads down to a half-width of 2^-48, and the zero is the
       bracket's midpoint.  What is proved: Z changes sign across the
       bracket itself, by the two reads at its ends, when both prove their
       signs.  Otherwise, and at an exact zero (a bracket of width 0),
       _certified_sign_change must find z_eval's signs opposite at
       t - 2^-46 and t + 2^-46 (or, after one retry, at t +- 2^-38), each
       value larger than its error estimate, and that w is the reported
       half-width; if it cannot, UnconfirmedSignChangeError.
    """
    with working_precision(prec):
        lo = mp.mpf(t_lo)
        hi = mp.mpf(t_hi)
        if not (hi > lo >= 0 and mp.isfinite(hi)):
            raise ValueError("need finite t_hi > t_lo >= 0")

        reads = {}  # t -> (value, error) of every read z_sign made
        em_reads = []  # the t of every z_eval read, in order

        def z_sign(t):
            """Z(t) by find_zeros' rule, recorded in `reads`."""
            if t >= RS_MIN_T:
                value, bound = z_rs(t)
                if abs(value) > bound:
                    reads[t] = (mp.mpf(value), bound)
                    return reads[t][0]
            reads[t] = z_eval(t, prec=prec)
            em_reads.append(t)
            return reads[t][0]

        def rs_sign(t):
            """z_sign(t), or None, which ends stage 1, once it read z_eval."""
            count = len(em_reads)
            value = z_sign(t)
            return value if len(em_reads) == count else None

        def proved(t):
            value, error = reads[t]
            return abs(value) > error

        def secant_zero(zlo, zhi):
            """(t*, zlo, zhi): t* the zero stage 2 proves, or None; (zlo,
            zhi) the bracket of its proved reads."""
            box = (zlo, zhi, _second_derivative_bound(zlo, zhi))
            j = em_reads[-1]
            i = zhi if (reads[j][0] > 0) == (reads[zlo][0] > 0) else zlo
            for count in range(1, MODEL_READS + 1):
                if proved(j):
                    if (reads[j][0] > 0) == (reads[zlo][0] > 0):
                        zlo = j
                    else:
                        zhi = j
                (vi, ei), (vj, ej) = reads[i], reads[j]
                if vi == vj:
                    break
                root = i - vi * (j - i) / (vj - vi)
                # not the first line: its bracket end is too imprecise or too far
                if count > 1 and _line_proves((i, vi, ei), (j, vj, ej), root,
                                              half_width, box):
                    return root, zlo, zhi
                x = min(max(root, zlo + half_width), zhi - half_width)
                if count == MODEL_READS or x in reads:
                    break
                z_sign(x)
                i, j = j, x
            return None, zlo, zhi

        expected = expected_zero_count(lo, hi, prec=prec)
        rescans = 0
        step_scale = mp.mpf(1)
        while True:
            brackets = []
            u = lo
            fu = z_sign(u) if u > 0 else None
            while u < hi:
                v = min(u + _scan_step(u) * step_scale, hi)
                fv = z_sign(v)
                if fu is not None and fu != 0 and (fu > 0) != (fv > 0):
                    brackets.append((u, v, fu, fv))
                u, fu = v, fv
            # the smooth estimate can be off by the fluctuation term, so only
            # a deficit of 2 or more triggers a rescan
            if expected - len(brackets) < 2 or rescans >= MAX_RESCANS:
                break
            rescans += 1
            step_scale /= 2
        zeros = []
        half_width = mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
        w = 4 * half_width
        for (a, b, fa, fb) in brackets:
            em_before = len(em_reads)
            zlo, zhi = refine_sign_change(rs_sign, a, b, fa, fb, half_width)
            if len(em_reads) > em_before:
                t, zlo, zhi = secant_zero(zlo, zhi)
                if t is not None:
                    zeros.append(Zero(t=t, half_width=half_width))
                    continue
                zlo, zhi = refine_sign_change(z_sign, zlo, zhi, reads[zlo][0],
                                              reads[zhi][0], half_width)
            t = (zlo + zhi) / 2
            # the bracket's own ends, else the fallback at t +- w, widened
            # once; a second failure means the sign change is not proved
            proof = (zhi - zlo) / 2 if zlo != zhi and proved(zlo) and proved(zhi) \
                else next((v for v in (w, w * 256)
                           if _certified_sign_change(t, v, prec)), None)
            if proof is None:
                raise UnconfirmedSignChangeError(
                    f"could not certify sign change at t = {mp.nstr(t, 20)}")
            zeros.append(Zero(t=t, half_width=proof))
        return ZeroList(t_lo=lo, t_hi=hi, zeros=zeros, rescans=rescans,
                        suspected_missing=bool(expected - len(zeros) >= 2))


# ---------------------------------------------------------------------------
# counting statistics


@dataclass
class CountStats:
    t: mpf
    n_counted: int
    n_main: mpf
    s_estimate: mpf


def n_main(t, prec: int = DEFAULT_PREC) -> mpf:
    """Smooth zero-count main term t/2pi log(t/2pi e), without the constant
    7/8 (which is folded into the fluctuation estimate)."""
    with working_precision(prec):
        tm = mp.mpf(t)
        return tm / (2 * mp.pi) * mp.log(tm / (2 * mp.pi * mp.e))


def count_stats(t, zero_list: ZeroList, prec: int = DEFAULT_PREC) -> CountStats:
    """Counted-minus-main realization of the fluctuation term at height t,
    counting the zeros of zero_list (a scan of (0, t]).

    The fluctuation estimate is N_counted - N_main - 7/8.  Since
    N(t) = N_main + 7/8 + S(t) + O(1/t), it is S(t) + O(1/t) only when
    zero_list holds every zero of zeta with ordinate in (0, t], with its
    multiplicity.  find_zeros lists the sign changes of Z it found and does
    not prove that none is missing, and nothing here checks the count.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 10:
            raise ValueError("count_stats requires t >= 10")
        main = n_main(tm, prec=prec)
        return CountStats(t=tm, n_counted=len(zero_list), n_main=main,
                          s_estimate=len(zero_list) - main - mp.mpf(7) / 8)


# ---------------------------------------------------------------------------
# derivative-maximum exploration


@dataclass
class ExploreRow:
    k: int
    max_abs_deriv: mpf
    t_at_max: mpf
    bound: mpf
    margin: mpf
    witness: bool


@dataclass
class ExploreReport:
    T: mpf
    C: mpf
    m_theorem: int
    m_used: int
    z_at_T: mpf
    grid_points: int
    witness_k: Optional[int]
    rows: List[ExploreRow]
    contours: int
    series_error: mpf
    exploratory_note: str = field(
        default="desk-scale T cannot validate an asymptotic statement; "
        "margins are raw data", init=False)


def _floor_shifted(num: int, den: int, shift: int) -> int:
    """floor(num 2^shift/den), den > 0, exactly."""
    return (num << shift) // den if shift >= 0 else num // (den << -shift)


class _TaylorPatches:
    """Z^(k) on [lo, hi] from truncated Taylor series of Z, one contour
    each; the only code that builds a contour.

    count patches of width (hi - lo)/count tile the interval, and a point
    is read from the series about its nearest centre, at most d = width/2
    away.  Every circle has radius r = width (on a width-0 window, which is
    read only at its centre, the radius given), the same number M of points
    and the same sample bits, and each series keeps a_n for n < N = M - 1,
    or for n <= kmax on a width-0 window.

    The count is the fewest the error bound below allows, found by trial
    from an estimate.  Rounding the read costs 2^-mp.prec S, and S grows
    like e^(omega d), omega = log(hi/2pi)/2 the largest local frequency of
    Z on the window.  Against the budget below that asks for
    omega d <= (GUARD_BITS - 3) log 2, and the first count tried is the
    fewest with such a d: 1, 1, 2 and 3 for the 4pi window about
    T = 57.5, 100, 1000 and 10^4.  Nothing rests on that estimate: if
    series_error misses the budget the window is tiled and sampled again
    at the next count, up to twice the first count or the tiling of radius
    CONTOUR_RADIUS, whichever is more.

    Each patch keeps its order-k series in fixed point, as Python ints
    with F = bits + READ_GUARD_BITS fraction bits (read_bits): b_n =
    a_(n+k) (n+k)!/n! d^n for n < N' = N - k (N' = 1 at width 0), so that
    Z^(k)(u) = sum_n b_n x^n with x = (u - centre)/d and |x| <= 1.  With
    d = r/2 both the scaling and r^k are exact, so each b_n is one floor of
    an exact quotient of _z_taylor's integer sums.  A read is one integer
    Horner pass in x, rounded once to the working precision.

    The error of a read is bounded from A, an upper bound on |Z| over the
    circles of a larger radius R about the centres (enclose.z_log_majorant;
    R < sqrt(c^2 + 1/4), the distance to the singularities +-i/2), through
    Cauchy's estimate |a_n| <= A R^-n.  The M-point sum returns a_n plus
    sum_{j>=1} a_(n+jM) r^(jM) (Trefethen and Weideman, SIAM Review 56,
    2014), so for Z^(k) at distance <= d from a centre, with q = r/R:
    - aliasing is at most A q^M/(1 - q^M) k! R/(R - d)^(k+1);
    - truncation is at most A R^-k sum_{n>=N} n!/(n-k)! (d/R)^(n-k),
      bounded by its first term over 1 - rho, rho the ratio of its first
      two terms (the ratios fall with n); it is 0 at width 0;
    - rounding: each sample is allowed an error of
      SAMPLE_ULPS (1 + W log(2 + W)) 2^-bits m from Z at its exact point, W
      the largest |w| sampled and m = z_log_majorant's bound on the
      r-circles, and _sample checks that it keeps to it, or raises
      ArithmeticError.  A sample's proved error (_z_sample) is zeta's
      proved bound times |e^(i theta)|, plus |Z| times the bound of the
      ThetaJet it reads theta from, sized to an eighth of the allowance
      over m (W log W is the size of theta(w), whose error becomes Z's
      relative error), plus the rounding of the product; and its place,
      within shift = 2^-P (2 + r/16) of the exact one (P the jet's
      point_bits), moves Z by at most shift max|Z'|.  Hadamard's
      three-circle theorem bounds |Z| on |w - c| = r + x, 0 <= x <= R - r,
      by m e^(slope x), slope = log(A/m)/(r log(R/r)), so Cauchy on a
      circle of radius eps about any point between the two places gives
      |Z'| <= m e^(slope (shift + eps))/eps, with eps = min(1/slope,
      R - r - shift).  The check compares twice the sum, in floats, with
      the allowance; it holds by a wide margin on every circle the tests
      run.  The fixed-point sums add
      2 (m + 2) 2^-bits a sample, and a sample error delta moves Z^(k) by
      at most delta k! r/(r - d)^(k+1).  The read then adds, in units of
      2^-F: under 1 for each b_n's floor, N' in all since |x| <= 1; under
      S1 = sum_n n |b_n| for the floor of x, by the mean value theorem; and
      under 1 for each of the N' - 1 floors of the Horner steps, which
      |x| <= 1 keeps from growing.  That is 2^-F (2N' + S1), and rounding
      the read to the working precision adds 2^-mp.prec S, with
      S = sum_n |b_n|, both the largest over the patches.  The bound counts
      the fixed-point read as (3N + 6) 2^-bits S, or as 2^-F (2N' + S1)
      where that is larger: S1 <= (N' - 1) S, so the first is the larger
      wherever S >= 2^-7, as on explore's windows, and there series_error
      does not depend on F.  The centres and width are rounded at the
      working precision, so |x| may exceed 1 by some 4 |u|/d units of
      2^-mp.prec, which scales x^n, n < N, by under 1 + 2^-50 for explore
      up to T = 10^4 at 64 bits.
    series_error is the largest sum of the three over the orders, doubled,
    which covers the second-order rounding terms and the floats the bound is
    computed in.

    M, N and the bits come from one budget: 2^-prec times the largest
    |Z^(k)| read at the centres over the orders, taken as 1 until the
    circles are first sampled, or as 2^-CENTRE_READ_BITS on a width-0
    window, whose one read can be small.  M is the smallest even M whose
    aliasing and truncation take at most a quarter of it at every order
    (_points), with R the radius among R_j = r (R_max/r)^(j/16),
    j = 1..15, about the centre farthest from 0 that allows the smallest M
    (_radius), R_max the reach above; the bits are the fewest whose
    rounding, with S <= (m + 1) k! r/(r - d)^(k+1), takes at most an
    eighth.  If series_error then exceeds the budget the reads set (where
    the largest read is below 1; it counts as at least 2^-prec), the
    circles are sized for that budget and sampled once more before the
    next count.
    """

    def __init__(self, lo, hi, orders: Sequence[int], prec: int, radius=None):
        kmax = max(orders)
        if kmax > MAX_DERIVATIVE_ORDER:
            raise CapacityError(f"order {kmax} exceeds {MAX_DERIVATIVE_ORDER}")
        self.lo = lo
        self._orders = sorted(orders)
        self._log_majorants: Dict[Tuple[float, float], float] = {}
        unit = prec * math.log(2)
        # 2^-prec times a largest |Z^(k)| of 1 (2^-CENTRE_READ_BITS at width 0),
        # until one is read
        log_budget = -unit if hi > lo else -unit - CENTRE_READ_BITS * math.log(2)
        count = last = 1
        if hi > lo:
            count = self._first_count(lo, hi)
            last = max(2 * count, math.ceil((hi - lo) / CONTOUR_RADIUS))
        while True:
            self._tile(lo, hi, count, radius)
            for _ in range(2):
                M, bits, R = self._size(log_budget)
                if M > self.M or bits > self.bits:
                    self.M, self.bits = max(M, self.M), max(bits, self.bits)
                    self._sample(R)
                log_error = self._log_error(R)
                read = max(abs(patch[k][0]) for patch in self.series for k in orders)
                read = mp.ldexp(read, -self.read_bits)
                log_budget = max(float(mp.log(read)) if read else -unit, -unit) - unit
                if log_error <= log_budget:
                    break
            if log_error <= log_budget or count >= last:
                break
            count += 1
        self.series_error = mp.exp(log_error)

    @staticmethod
    def _first_count(lo, hi) -> int:
        """The fewest patches of [lo, hi] with omega d <= (GUARD_BITS - 3) log 2."""
        omega = math.log(float(hi) / (2 * math.pi)) / 2
        d = (GUARD_BITS - 3) * math.log(2) / omega if omega > 0 else math.inf
        return max(1, math.ceil(float(hi - lo) / (2 * d)))

    def _tile(self, lo, hi, count: int, radius) -> None:
        """Place count patches on [lo, hi], not yet sampled."""
        self.count = count
        self.width = (hi - lo) / count
        self.radius = self.width or mp.mpf(radius)
        self.centres = [lo + (i + mp.mpf(0.5)) * self.width for i in range(count)]
        self.series: List[Dict[int, List[int]]] = []  # per patch and order
        self.M = self.bits = 0
        self._jets: Dict[int, List[ThetaJet]] = {}  # per sample bits, one a centre
        self._r, self._d = float(self.radius), float(self.width) / 2
        self._centres = [float(c) for c in self.centres]
        self._far = max(abs(c) for c in self._centres)
        self._reach = min(math.hypot(c, 0.5) for c in self._centres)
        self._m = math.exp(self._majorant(self._r))
        w = self._far + self._r
        self._ulps = SAMPLE_ULPS * (1 + w * math.log(2 + w))

    def _sample(self, R: float) -> None:
        """Sample every circle at the current M and bits, check each sample
        against its allowance, and keep each order's series in fixed point
        (b_n above).  R is the majorant radius the bits were sized at."""
        N = self._terms(self.M)
        self.read_bits = F = self.bits + READ_GUARD_BITS
        with mp.workprec(self.bits):
            r = +self.radius  # the radius sampled, exact as man 2^exp
        self._radius_bits = man, exp = r.man, r.exp
        allowance = self._ulps * self._m * 2.0 ** -self.bits
        if self.bits not in self._jets:
            # theta's error becomes Z's times |Z|: an eighth of the allowance;
            # every sample lies within r + shift < cover of its centre
            budget = self._ulps * 2.0 ** -self.bits / 8
            cover = self._r * (1 + 2.0 ** -16)
            self._jets[self.bits] = [ThetaJet(c, cover, budget) for c in self.centres]
        log_m = self._majorant(self._r)
        slope = max(self._majorant(R) - log_m, 0) / (self._r * math.log(R / self._r))
        self.series = []
        for c, jet in zip(self.centres, self._jets[self.bits]):
            sums, delta = _z_taylor(c, r, self.M, N, self.bits, jet)
            # a sample's place moves Z by at most shift max|Z'|, |Z'| by Cauchy
            # on a circle of radius eps inside |w - c| <= r + shift + eps
            shift = 2.0 ** -jet.point_bits * (2 + self._r / 16)
            eps = min(1 / slope if slope else math.inf, R - self._r - shift)
            delta += shift * math.exp(log_m + slope * (shift + eps)) / eps
            if not 2 * delta <= allowance:
                raise ArithmeticError(
                    f"a contour sample about {mp.nstr(c, 8)} errs by up to {2 * delta:.3g},"
                    f" over its allowance {allowance:.3g}")
            # b_n 2^F = s_(n+k) (n+k)!/n! 2^(F - 2 bits - n)/(M r^k), as d^n = r^n 2^-n
            self.series.append({k: [_floor_shifted(sums[n + k] * math.perm(n + k, k),
                                                   self.M * man ** k,
                                                   F - 2 * self.bits - n - k * exp)
                                    for n in range(N - k if self.width else 1)]
                                for k in self._orders})

    def _terms(self, M: int) -> int:
        return M - 1 if self.width else self._orders[-1] + 1

    def _log_majorant(self, c: float, R: float) -> float:
        """z_log_majorant(c, R), computed once for each |c| and R."""
        key = (abs(c), R)
        if key not in self._log_majorants:
            self._log_majorants[key] = z_log_majorant(c, R)
        return self._log_majorants[key]

    def _majorant(self, R: float) -> float:
        """log A: z_log_majorant's bound at radius R, the largest over the
        centres."""
        return max(self._log_majorant(c, R) for c in self._centres)

    def _log_series(self, k: int, M: int, R: float, log_a: float) -> float:
        """log of the aliasing plus truncation bound on Z^(k)."""
        q, N = self._r / R, self._terms(M)
        alias = (log_a + M * math.log(q) - math.log1p(-q ** M) + math.lgamma(k + 1)
                 + math.log(R) - (k + 1) * math.log(R - self._d))
        trunc = -math.inf
        if self._d:
            x = self._d / R
            rho = x * (N + 1) / (N + 1 - k)
            trunc = math.inf if rho >= 1 else (
                log_a - k * math.log(R) + math.lgamma(N + 1) - math.lgamma(N + 1 - k)
                + (N - k) * math.log(x) - math.log1p(-rho))
        return log_add(alias, trunc)

    def _log_gain(self, k: int) -> float:
        """log of k! r/(r - d)^(k+1), which turns a sample error into one of
        Z^(k)."""
        return math.lgamma(k + 1) + math.log(self._r) - (k + 1) * math.log(self._r - self._d)

    def _size(self, log_budget: float) -> Tuple[int, int, float]:
        """(M, bits, R) for the error budget e^log_budget on every Z^(k)."""
        R = self._radius(log_budget)
        M = self._points(log_budget, R, self._majorant(R))
        N = self._terms(M)
        log_unit = math.log((self._ulps + 3 * N + 8) * (self._m + 2))
        bits = max(math.ceil((self._log_gain(k) + log_unit + 3 * math.log(2)
                              - log_budget) / math.log(2)) for k in self._orders)
        return M, bits, R

    def _radius(self, log_budget: float) -> float:
        """The R_j = r (R_max/r)^(j/16), j = 1..15, that allows the least M
        about the centre farthest from 0, at its smallest j.

        A z_log_majorant call costs more the larger R (more arcs, each
        summing more terms): at T = 10^4 about 10 ms at j = 1 and 5 s at
        j = 15.  So the search starts at _first_radius, a model's guess, and
        moves only towards a smaller (M, j): up while M falls, else down
        while it does not rise, and stops at the first step that fails.
        M(j) falls and then rises with j (q^M falls and A grows with R), so
        that is the least M at its smallest j.  Nothing rests on the model
        or on that shape: any R_j gives a proved bound, only a larger M.
        """
        radii = [self._r * (self._reach / self._r) ** (j / 16) for j in range(1, 16)]
        points: Dict[int, int] = {}

        def key(i: int) -> Tuple[int, int]:
            if i not in points:
                R = radii[i]
                points[i] = self._points(log_budget, R, self._log_majorant(self._far, R))
            return points[i], i

        i, last = self._first_radius(log_budget, radii), len(radii) - 1
        step = 1 if i < last and key(i + 1) < key(i) else -1
        while 0 <= i + step <= last and key(i + step) < key(i):
            i += step
        return radii[i]

    def _first_radius(self, log_budget: float, radii: List[float]) -> int:
        """The index of the first radius whose M is least under the model
        log A(R) ~ log A(r) + theta' (R - r), theta' = log(c/2pi)/2 at the
        far centre c (at least 0): below the real line |e^(i theta(w))|
        grows like e^(theta' |Im w|), and zeta tends to 1."""
        log_a = self._log_majorant(self._far, self._r)
        slope = math.log(max(self._far, 2 * math.pi) / (2 * math.pi)) / 2
        model = [self._points(log_budget, R, log_a + slope * (R - self._r)) for R in radii]
        return model.index(min(model))

    def _points(self, log_budget: float, R: float, log_a: float) -> int:
        """The smallest even M > kmax + 1 whose aliasing and truncation take a
        quarter of the budget: doubled from the first candidate until one
        fits, then bisected over the even M between.  While the truncation
        ratio rho is at least 1 _log_series counts the truncation as
        infinite and no M fits; once rho < 1 both terms fall as M grows
        (q^M/(1 - q^M), and the truncation's first term by rho a step with
        rho itself falling), so the M that fit are all those from one on."""
        kmax = self._orders[-1]
        target = log_budget - 2 * math.log(2)

        def fits(M: int) -> bool:
            return all(self._log_series(k, M, R, log_a) <= target for k in self._orders)

        low = kmax + kmax % 2  # even, below every candidate
        high = low + 2
        while not fits(high):
            low, high = high, 2 * high
        while high - low > 2:
            mid = (low + high) // 4 * 2
            low, high = (low, mid) if fits(mid) else (mid, high)
        return high

    def _log_error(self, R: float) -> float:
        """log of series_error for the circles as sampled."""
        N = self._terms(self.M)
        log_a = self._majorant(R)
        m = self._m
        log_delta = math.log(self._ulps * m + 2 * (m + 2)) - self.bits * math.log(2)
        log_allowance = math.log(3 * N + 6) - self.bits * math.log(2)
        log_output = -mp.prec * math.log(2)
        F = self.read_bits
        worst = -math.inf
        for k in self._orders:
            size = max(sum(abs(b) for b in patch[k]) for patch in self.series)
            log_size = float(mp.log(mp.ldexp(size, -F))) if size else -math.inf
            # 2^-F (2N' + S1) = 2^-2F (2N' 2^F + sum n |B_n|)
            log_read = max(math.log((2 * len(patch[k]) << F)
                                    + sum(n * abs(b) for n, b in enumerate(patch[k])))
                           for patch in self.series) - 2 * F * math.log(2)
            worst = max(worst, log_add(self._log_series(k, self.M, R, log_a),
                                        log_delta + self._log_gain(k),
                                        max(log_allowance + log_size, log_read),
                                        log_output + log_size))
        return worst + math.log(2)

    def derivative(self, u, k: int) -> mpf:
        """Z^(k)(u) from the nearest patch by the fixed-point Horner pass,
        rounded once to the ambient precision."""
        i = min(int((u - self.lo) / self.width), self.count - 1) if self.width else 0
        x = self._fixed_x(u, self.centres[i]) if self.width else 0
        F, acc = self.read_bits, 0
        for b in reversed(self.series[i][k]):
            acc = (acc * x >> F) + b
        return mp.ldexp(acc, -F)

    def _fixed_x(self, u, centre) -> int:
        """floor(2^F (u - centre)/d), d = r/2 for the radius sampled, from
        the exact difference."""
        sign, h, h_exp, _ = mp.fsub(u, centre, exact=True)._mpf_
        h = -h if sign else h
        man, exp = self._radius_bits
        return _floor_shifted(h, man, h_exp + self.read_bits + 1 - exp)


def theorem1_explore(T, C, m_cap: int = 16, prec: int = DEFAULT_PREC) -> ExploreReport:
    """Grid maxima of |Z^(k)| over [T-2pi, T+2pi] against the shrinking-factor
    bound, for k in {1, 3, ..., 2m-1, 2m}.

    m = min(floor(C log T loglog T), m_cap); the grid step is
    pi/(8 theta'(T)) with local refinement around each running maximum.  A
    witness is any k whose grid maximum meets its bound.  Every value is
    read from Taylor patches: contours is the fewest patches whose rounding
    fits the budget (see _TaylorPatches), 1, 1, 2 and 3 at T = 57.5, 100,
    1000 and 10^4, each a circle of radius 4 pi/contours and M/2 + 1 zeta
    samples (one circle of at most 41 at 64 bits for T in [55, 65]),
    instead of one full circle per point; a value is one integer Horner
    pass over its patch's fixed-point series.  The patches keep order 0
    too, and z_at_T is their order-0 value at T.  series_error is the
    patches' proved bound on the error of every value read, z_at_T
    included, from truncation, aliasing and rounding (see _TaylorPatches).
    T is rejected (RejectedPointError) when |z_at_T| <= 4 series_error.
    Explicitly exploratory output.
    """
    with working_precision(prec):
        Tm = mp.mpf(T)
        Cm = mp.mpf(C)
        for name, value in (("T", Tm), ("C", Cm)):
            if not mp.isfinite(value):
                raise ValueError(f"explore requires a finite {name}, got {value}")
        if Tm < 30:
            raise ValueError("explore requires T >= 30 (loglog scale)")
        if m_cap < 1:
            raise ValueError("m_cap must be >= 1")
        m_theorem = int(mp.floor(Cm * mp.log(Tm) * mp.log(mp.log(Tm))))
        m_used = max(1, min(m_theorem, m_cap))
        orders = list(range(1, 2 * m_used, 2)) + [2 * m_used]
        patches = _TaylorPatches(Tm - 2 * mp.pi, Tm + 2 * mp.pi, [0] + orders, prec)
        z_T = patches.derivative(Tm, 0)
        if abs(z_T) <= 4 * patches.series_error:
            raise RejectedPointError("Z(T) indistinguishable from zero")
        step = mp.pi / (8 * theta_prime(Tm, prec=prec))  # theta'(30) = 0.78
        grid = []
        u = Tm - 2 * mp.pi
        while u <= Tm + 2 * mp.pi:
            grid.append(u)
            u += step
        maxima: Dict[int, Tuple[mpf, mpf]] = {k: (mp.mpf(-1), Tm) for k in orders}
        for u in grid:
            for k in orders:
                v = abs(patches.derivative(u, k))
                if v > maxima[k][0]:
                    maxima[k] = (v, u)
        # one refinement pass: re-sample at half step around each maximum
        for k in orders:
            _, t0 = maxima[k]
            for du in (-step / 2, step / 2):
                u = t0 + du
                if Tm - 2 * mp.pi <= u <= Tm + 2 * mp.pi:
                    v = abs(patches.derivative(u, k))
                    if v > maxima[k][0]:
                        maxima[k] = (v, u)
        # T >= 30, so log log T > 1 and the factor lies in (0, 1)
        shrink = 1 - mp.log(mp.log(mp.log(Tm))) / mp.log(mp.log(Tm))
        log_scale = mp.log(mp.sqrt(Tm / (2 * mp.pi)))
        rows = []
        witness_k = None
        for k in orders:
            mx, t_at = maxima[k]
            bound = (shrink * log_scale) ** k * abs(z_T)
            witness = bool(mx >= bound)
            if witness and witness_k is None:
                witness_k = k
            rows.append(ExploreRow(k=k, max_abs_deriv=mx, t_at_max=t_at,
                                   bound=bound, margin=mx - bound,
                                   witness=witness))
        return ExploreReport(T=Tm, C=Cm, m_theorem=m_theorem, m_used=m_used,
                             z_at_T=z_T, grid_points=len(grid),
                             witness_k=witness_k, rows=rows,
                             contours=patches.count,
                             series_error=patches.series_error)
