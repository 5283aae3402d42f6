"""Hardy Z function engine: evaluation, derivatives, zeros, counting.

Z(t) = e^{i theta(t)} zeta(1/2 + it) is real for real t.  Every zeta the
program reads is zeta._zeta_series, one Euler-Maclaurin sum, and every
theta module theta's Stirling series, each with a proved bound.  The point
reads (_point_read, for z_eval and find_zeros' Newton reads of Z and Z')
take zeta's orders 0 and 1 at a point of the critical line, and theta and
theta' there from theta.theta_point, as theta and theta_prime do.
find_zeros states how it reads Z and what it proves: Kantorovich's rule
for Newton's method proves a zero from one read of Z and Z'.
_TaylorPatches builds and keeps Z's Taylor series about real centres
(_z_series: zeta's series from one Dirichlet table, theta's from a
theta.ThetaJet, one exp recurrence and one product): z_derivatives_batch
reads one at its centre, and theorem1_explore its window from the fewest
its bound allows.  The tests' references are in tests/derivative_oracle.py."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import libmp, mp, mpf

from .enclose import RS_MIN_T, log_add, z_log_majorant, z_rs
from .precision import (DEFAULT_PREC, GUARD_BITS, LIBMP_ULPS, floor_shifted, refine_sign_change,
                        working_precision)
from .theta import JET_GUARD_BITS, ThetaJet, _fewest, theta_point
from .zeta import PHASE_GUARD_BITS, _em_size, _product_bound, _zeta_series, _zeta_series_bound

MAX_DERIVATIVE_ORDER = 64
ZERO_HALF_WIDTH_BITS = 48
HALF_WIDTH_DIGITS = 6  # a zero's bracket half-width prints with 6 digits at any precision
MAX_RESCANS = 4
CONTOUR_RADIUS = 2  # z_derivatives_batch's circle, shrunk to |t|/2 + 1/4 near 0
READ_GUARD_BITS = 8  # a Taylor patch's fixed-point series carry bits + 8 fraction bits
SHAPE_BITS = 24  # the jets that size a patch's bits need theta's shape only
MODEL_RADIUS = 1  # the circle about a bracket on which find_zeros bounds |Z''|
NEWTON_READS = 6  # (Z, Z') reads find_zeros' Newton steps take before its fallback
# |e^(i theta~) - f| in units of 2^-bits, f libmp's cos_sin at bits + PHASE_GUARD_BITS floored
PHASE_UNITS = math.sqrt(2) * (1 + LIBMP_ULPS["mpf_cos_sin"] * 2.0 ** -PHASE_GUARD_BITS)


class CapacityError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class UnconfirmedSignChangeError(ArithmeticError):
    """find_zeros proved no zero in a sign-change bracket: no Newton read
    proved one, and the fallback's bracket ends did not prove their signs."""


class RejectedPointError(ValueError):
    """Z(T) indistinguishable from zero; the report would be meaningless."""


# ---------------------------------------------------------------------------
# theta


def theta(t, prec: int = DEFAULT_PREC) -> mpf:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, theta.theta_point's
    within 2^-(prec + GUARD_BITS), rounded to the working precision."""
    with working_precision(prec):
        return mp.ldexp(theta_point(mp.mpf(t), prec + GUARD_BITS)[0], -prec - GUARD_BITS)


def theta_prime(t, prec: int = DEFAULT_PREC) -> mpf:
    """theta'(t) = Re psi(1/4 + it/2)/2 - log(pi)/2, as theta takes theta."""
    with working_precision(prec):
        return mp.ldexp(theta_point(mp.mpf(t), prec + GUARD_BITS)[1], -prec - GUARD_BITS)


# ---------------------------------------------------------------------------
# Z evaluation


def z_eval(t, prec: int = DEFAULT_PREC) -> Tuple[mpf, mpf]:
    """(value, error bound) for Z(t) = e^{i theta(t)} zeta(1/2 + it), the
    shape of enclose.z_rs: _point_read's order 0, the public point reader of
    Z, read by find_zeros' z_read and patched by name by perfbench's tracer.
    The tests check it against z_rs's enclosure from t = 200 on and against
    mp.siegelz at every height."""
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 0:
            raise ValueError("t must be >= 0")
        return _point_read(tm, prec, 1)


def _line_size(t, prec: int, J: int) -> Tuple[int, int, int, float, List[float], float]:
    """(N, K, bits, log E, units, r) for a point read of zeta(1/2 + it)
    and, at J = 2, its t-derivative, each to 2^-prec.  The remainder is
    sized on the circle of radius r about t, 0 at J = 1 (the point alone)
    and 1/4 at J = 2, which keeps sigma near 1/2: zeta._em_size's N and K
    give E <= 2^-prec r^(J-1) on it, and the fewest bits, or more where t
    needs them to be exact, keep order j's rounding, _zeta_series_bound's
    units of 2^-bits in y = (w - t)/r taken at prec bits, under 2^-prec r^j."""
    tf, r = float(t), 0.25 if J > 1 else 0.0
    log_target = -prec * math.log(2) + (math.log(r) if r else 0.0)
    N, K, log_remainder = _em_size(tf, r, 0.0, log_target)
    units = _zeta_series_bound(tf, r, J, N, K, prec)[1]
    worst = max(u * r ** -j for j, u in enumerate(units))
    bits = max(prec + math.ceil(math.log2(worst)), -t._mpf_[2])
    return N, K, bits, log_remainder, units, r


def _point_read(t, prec: int, J: int) -> Tuple[mpf, ...]:
    """(v, e) at J = 1 and (v, e, v', e') at J = 2, |Z(t) - v| <= e and
    |Z'(t) - v'| <= e', t real: z_eval's and find_zeros' Newton reads.
    zeta~ and zeta~' are the coefficients of zeta._zeta_series about t with
    d = r, sized by _line_size, times r^-j, with bits fraction bits, within
    b_j: E r^-j (Cauchy on the circle, where E bounds the remainder) and
    the rounding.  theta~ and theta'~ are theta.theta_point's at F = bits
    + JET_GUARD_BITS, within d, and f = e^(i theta~) libmp's cos_sin at
    bits + PHASE_GUARD_BITS floored, within e_f = PHASE_UNITS units of
    2^-bits.  As |e^(i theta) - e^(i theta~)| <= d, v = Re(f zeta~) floored
    has |Z - v| <= b_0 + d (|zeta~| + b_0) + (e_f |zeta~| + 1) 2^-bits.
    Z' = Re(e^(i theta) W), W = zeta' + i theta' zeta, and W~ = zeta~'
    + i theta'~ zeta~ (two floors) is within b_1 + |theta'~| b_0 + d (|zeta~|
    + b_0) + sqrt 2 2^-bits of W, so e' is e with W~ and that bound.  The
    values are exact mpfs; the bounds, summed in floats, are raised by
    2^-40 for their own rounding."""
    N, K, bits, log_remainder, units, r = _line_size(t, prec, J)
    re, im = _zeta_series(t, mp.mpf(r), J, N, K, bits)
    F, unit = bits + JET_GUARD_BITS, 2.0 ** -bits
    bounds = [(math.exp(log_remainder) + u * unit) * r ** -j for j, u in enumerate(units)]
    angle, slope, d = theta_point(t, F)
    cos, sin = libmp.mpf_cos_sin(libmp.from_man_exp(angle, -F), bits + PHASE_GUARD_BITS)
    fr, fi = libmp.to_fixed(cos, bits), libmp.to_fixed(sin, bits)
    e_f = PHASE_UNITS * unit
    size = math.hypot(re[0], im[0]) * unit
    factors = [(re[0], im[0], size, bounds[0])]
    if J > 1:  # zeta~' = r^-1 times the order-1 coefficient, r = 1/4
        wr, wi = round(1 / r) * re[1] - (slope * im[0] >> F), round(1 / r) * im[1] + (slope * re[0] >> F)
        factors.append((wr, wi, math.hypot(wr, wi) * unit, bounds[1] + abs(slope) * 2.0 ** -F
                        * bounds[0] + d * (size + bounds[0]) + math.sqrt(2) * unit))
    return tuple(x for xr, xi, x_size, x_bound in factors for x in (
        mp.make_mpf(libmp.from_man_exp(fr * xr - fi * xi >> bits, -bits)),
        mp.mpf((x_bound + d * (x_size + x_bound) + e_f * x_size + unit) * (1 + 2.0 ** -40))))


def _z_series(centre, half, jet: ThetaJet, J: int, N: int, K: int,
              bits: int) -> Tuple[List[int], int]:
    """(a, B): Z's Taylor coefficients a_j, j < J, about the real centre c
    in y = (w - c)/half, with B >= bits fraction bits that make c and half
    exact: the real parts of e^(i theta~) zeta~, zeta~ from
    zeta._zeta_series and theta~ the jet's polynomial rescaled to y and
    floored.  f = e^(i theta~) has f_0 from libmp's cos_sin at
    B + PHASE_GUARD_BITS and f_n = (i/n) sum_(k<=n) k theta~_k f_(n-k),
    each floored.  Z's coefficients are real, so dropping a computed one's
    imaginary part moves it no further from Z's; _series_plan bounds the
    error.
    """
    B = max(bits, -half._mpf_[2], -centre._mpf_[2])
    F, man, exp = jet.bits, half.man, half.exp
    weights = [k * floor_shifted(t * man ** k, 1, k * (exp - jet.scale) + B - F)
               for k, t in enumerate(jet.coefficients)]
    z_re, z_im = _zeta_series(centre, half, J, N, K, B)
    cos, sin = libmp.mpf_cos_sin(libmp.from_man_exp(jet.coefficients[0], -F),
                                 B + PHASE_GUARD_BITS)
    f_re, f_im = [libmp.to_fixed(cos, B)], [libmp.to_fixed(sin, B)]
    for n in range(1, J):
        w = weights[min(n, len(weights) - 1):0:-1]  # k theta~_k, k from min(n, deg) down to 1
        ar = sum(map(operator.mul, w, f_re[n - len(w):n]))
        ai = sum(map(operator.mul, w, f_im[n - len(w):n]))
        f_re.append((-ai >> B) // n)
        f_im.append((ar >> B) // n)
    return [sum(map(operator.mul, f_re[:j + 1], z_re[j::-1]))
            - sum(map(operator.mul, f_im[:j + 1], z_im[j::-1])) >> B for j in range(J)], B


def _series_plan(centre: float, r: float, jet: ThetaJet, eps: float, J: int,
                 bits: int, log_m: float) -> Tuple[int, int, float, List[float]]:
    """(N, K, log E, errors) for _z_series about centre at bits, half =
    r/2: the Euler-Maclaurin sizes, a bound E on |Z - e^(i theta~) zeta~|
    on the circle |h| = r, and each coefficient's rounding in units of
    2^-bits; eps bounds the jet's error, and e^log_m |Z| on the circle.

    With theta~ = sum_j theta_j h^j and h = u + iv, |e^(i theta)| <=
    e^(-theta_1 v + S + eps), S = sum_(j>=2) |theta_j| r^j, and
    zeta._em_size makes e^(-theta_1 v) |R_K| <= m 2^-bits e^-(S + eps).
    The difference is D = e^(i theta) R_K + Z~ (e^(i(theta - theta~)) - 1),
    Z~ = e^(i theta~) zeta~, |Z~| <= m + |D|, so |D| <= (|e^(i theta) R_K|
    + m (e^eps - 1))/(2 - e^eps) = E, and D's coefficients in y are at
    most E 2^-j (Cauchy).  The rounding: zeta~'s from
    zeta._zeta_series_bound; with phi_k = |theta_k| half^k and theta~_k
    within a unit, |f_0| = 1, |f_n| <= (1/n) sum_k k phi_k |f_(n-k)|, and
    f_n errs by (1/n) sum_k k ((phi_k + 2^-bits) e_(n-k) + |f_(n-k)|)
    + sqrt 2, e_0 = PHASE_UNITS; the product's from zeta._product_bound.
    """
    # theta_k h^k = t_k y^k, y = h/rho: the jet's floats t_k times powers of r/rho and
    # half/rho, where theta_k = t_k/rho^k and r^k can leave the float range
    rho = math.ldexp(1, jet.scale)
    ts = [math.ldexp(t, -jet.bits) for t in jet.coefficients]
    spread = sum(abs(t) * (r / rho) ** k for k, t in enumerate(ts) if k >= 2)
    N, K, log_em = _em_size(centre, r, -ts[1] / rho, log_m - bits * math.log(2) - spread - eps)
    growth = math.expm1(eps)
    log_circle = log_add(log_em + spread + eps, log_m + math.log(growth)) - math.log1p(-growth)
    half, unit = r / 2, 2.0 ** -bits
    z_sizes, z_errors = _zeta_series_bound(centre, half, J, N, K, bits)
    phi = [abs(t) * (half / rho) ** k for k, t in enumerate(ts)]
    f_sizes, f_errors = [1.0], [PHASE_UNITS]
    for n in range(1, J):
        ks = range(1, min(n, len(phi) - 1) + 1)
        f_sizes.append(sum(k * phi[k] * f_sizes[n - k] for k in ks) / n)
        f_errors.append(sum(k * ((phi[k] + unit) * f_errors[n - k] + f_sizes[n - k])
                            for k in ks) / n + math.sqrt(2))
    return N, K, log_circle, _product_bound(f_sizes, f_errors, z_sizes, z_errors, bits)[1]


def z_derivatives_batch(t, orders: Sequence[int],
                        prec: int = DEFAULT_PREC) -> Dict[int, mpf]:
    """All requested derivative orders from one Taylor series about t:
    the centre read of one Taylor patch (_TaylorPatches over the width-0
    window [t, t]) with its bound on the circle of radius
    min(CONTOUR_RADIUS, |t|/2 + 1/4), inside the disc where Z is analytic
    (its nearest singularities are at w = +-i/2).  The series stops at the
    largest order, so it has no truncation error.
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


def _theta_slope(x: float) -> float:
    """The scan step's theta'(x) in floats for x >= 10, from theta's Stirling
    series 1/2 log(x/2pi) - 1/(48 x^2) - 7/(1920 x^4): within 6.1e-11 from
    x = 20 on."""
    return 0.5 * math.log(x / (2 * math.pi)) - 1 / (48 * x * x) - 7 / (1920 * x ** 4)


def _scan_step(t) -> mpf:
    """pi/(4 theta'(x)), x = max(t, 20), as the exact mpf of a float: theta'
    is small or negative below ~18, and rises from theta'(20) = 0.579.  The
    step is a heuristic, so theta' is _theta_slope's float."""
    return mp.mpf(math.pi / (4 * _theta_slope(max(float(t), 20.0))))


def expected_zero_count(t_lo, t_hi, prec: int = DEFAULT_PREC) -> mpf:
    """(theta(t_hi) - theta(t_lo))/pi, the smooth count of zeros in the
    interval (off by the bounded fluctuation term)."""
    with working_precision(prec):
        lo = max(mp.mpf(t_lo), mp.mpf(0))
        return (theta(t_hi, prec=prec) - theta(lo, prec=prec)) / mp.pi


def _log_gain(k: int, r: float, d: float) -> float:
    """log of k! r/(r - d)^(k+1), Cauchy's estimate: it turns a bound on a
    function on a circle of radius r into one on its k-th derivative at
    distance d < r from the centre."""
    return math.lgamma(k + 1) + math.log(r) - (k + 1) * math.log(r - d)


def _second_derivative_bound(lo, hi) -> mpf:
    """M2 with |Z''| <= M2 on [lo, hi]: Cauchy's estimate 2 A rho/(rho -
    d)^3 (_log_gain at k = 2) on the circle of radius rho = MODEL_RADIUS
    about c, the float nearest the midpoint, with A = exp(
    enclose.z_log_majorant(c, rho)) and d = max(hi - c, c - lo) rounded up
    to a float.  It is summed in floats as logs, each within a few ulps,
    so raising the sum by 2^-40 (|log A| + |log gain| + 1) covers their
    rounding, and its 2^-40 alone covers mp.exp's, 2^-mp.prec relative.
    M2 is inf where [lo, hi] reaches the circle."""
    c = float((lo + hi) / 2)
    d = math.nextafter(float(max(mp.fsub(hi, c, exact=True), mp.fsub(c, lo, exact=True))),
                       math.inf)
    if not d < MODEL_RADIUS:
        return mp.inf
    log_a, log_gain = z_log_majorant(c, MODEL_RADIUS), _log_gain(2, MODEL_RADIUS, d)
    allowance = 2.0 ** -40 * (abs(log_a) + abs(log_gain) + 1)
    return mp.exp(log_a + log_gain + allowance)


def _newton_proves(x, t, read, w, box) -> bool:
    """Z has opposite signs at t - w and t + w, by Kantorovich's rule on
    one Newton read (v, e, v', e') at x (see find_zeros); both points must
    lie in box = [lo, hi].  x - t and v - v'(x - t) are exact, and every
    other term is a sum of products of bounds, so a relative slack of
    2^(4-mp.prec) on each side covers its rounding.  M2 is sized on the
    interval the Taylor remainder spans, and only for a read whose other
    terms fit."""
    v, e, dv, de = read
    lo, hi = box
    if not (mp.fsub(t, lo, exact=True) >= w and mp.fsub(hi, t, exact=True) >= w):
        return False
    step = mp.fsub(x, t, exact=True)
    reach = abs(step) + w
    residual = abs(mp.fsub(v, mp.fmul(dv, step, exact=True), exact=True))
    slack = mp.ldexp(1, 4 - mp.prec)
    have, rest = abs(dv) * w * (1 - slack), e + de * reach + residual
    if not have > rest * (1 + slack):
        return False
    m2 = _second_derivative_bound(min(x, mp.fsub(t, w, exact=True)),
                                  max(x, mp.fadd(t, w, exact=True)))
    return have > (rest + m2 / 2 * reach ** 2) * (1 + slack)


def find_zeros(t_lo, t_hi, prec: int = DEFAULT_PREC) -> ZeroList:
    """All sign-change zeros of Z in (t_lo, t_hi], each proved to lie within
    its reported half-width, at most 2^-48, of its reported t.

    Scans a finite window at step pi/(4 theta'), theta' read in floats
    (_scan_step); the count is cross-checked against the smooth theta-based
    estimate and the scan is repeated at half step (up to MAX_RESCANS times)
    when a missed close pair is suspected.
    The scan reads Z by one rule at every height (z_sign): from t = 200 on,
    enclose.z_rs's value wherever it exceeds z_rs's bound; everywhere else
    z_eval's value.  Each read records (t, value, error), and it proves Z's
    sign when |value| > error: z_rs's always does, and a z_eval value does
    when it is larger than its error bound.  The scan's values seed the
    refinement of each bracket [lo, hi].

    1. Illinois regula falsi (precision.refine_sign_change) on z_rs, for as
       long as z_rs proves the signs; it ends at the first point x where
       z_rs does not (proved_sign).  Below t = 200 that is its first, the
       secant root of the scan bracket.
    2. Newton's method from x, each step one read of Z and Z' at x
       (_point_read: v, v' with bounds e, e'), proved by Kantorovich's
       rule in one variable (Kantorovich 1948; Ortega & Rheinboldt,
       Iterative Solution of Nonlinear Equations, 1970, 12.6).  With
       t = x - v/v', delta = x - t and w = 2^-ZERO_HALF_WIDTH_BITS, Z has
       opposite signs at t - w and t + w, so a zero within w of t, when
       both points lie in [lo, hi] (the bracket stage 1 ends with) and

           |v'| w > (M2/2)(|delta| + w)^2 + e + e'(|delta| + w)
                    + |v - v' delta|.

       For y = t -+ w, Taylor's theorem gives Z(y) = Z(x) + Z'(x)(y - x)
       + Z''(xi)(y - x)^2/2 with xi between x and y, and
       Z(x) + Z'(x)(y - x) = (v - v' delta) -+ v' w within
       e + e'(|delta| + w).  M2 bounds |Z''| on I = [x, y] hull, of
       half-width at most |delta| + w: with c the float nearest its
       midpoint, d the largest distance from c to I, rho = MODEL_RADIUS
       and A = exp(enclose.z_log_majorant(c, rho)) a bound on |Z| over
       |u - c| = rho, Cauchy's integral formula gives |Z''| <=
       2 A rho/(rho - d)^3 on I (_second_derivative_bound).  Z is analytic
       there, since rho < sqrt(c^2 + 1/4) for c > 0.87 and Z changes sign
       nowhere below t = 14.  The check runs in mpf with outward slack
       (_newton_proves), and takes M2, one majorant call, only for a read
       whose other terms fit; a zero it proves is reported as t with
       half-width exactly w.  Otherwise the next read is at t, held at
       least w inside the bracket of proved reads, or at the bracket's
       midpoint where t leaves it (or v' = 0).
    3. The fallback, after NEWTON_READS reads have proved nothing: stage 1
       again from the bracket of proved reads, on z_rs and z_eval
       (proved_sign), down to a half-width of 2^-48.  Where it meets a read
       that proves no sign, Z is within that read's error of 0 there, and
       stage 2 runs once more from it.  Otherwise the zero is the final bracket's
       midpoint, and Z changes sign across the bracket by the two reads at
       its ends, each proved.  A zero neither proves (after the second
       stage 2, or where a scan read at a bracket end proves no sign)
       raises UnconfirmedSignChangeError.
    """
    with working_precision(prec):
        lo = mp.mpf(t_lo)
        hi = mp.mpf(t_hi)
        if not (hi > lo >= 0 and mp.isfinite(hi)):
            raise ValueError("need finite t_hi > t_lo >= 0")

        reads = {}  # t -> (value, error) of every read of Z
        stops = []  # the t of every read that ended a refinement, in order

        def z_read(t, em=True):
            """(value, error) of Z at t: z_rs's from t = 200 on where it
            proves Z's sign, else z_eval's, or None when em is False."""
            if t >= RS_MIN_T:
                value, bound = z_rs(t)
                if abs(value) > bound:
                    return mp.mpf(value), bound
            return z_eval(t, prec=prec) if em else None

        def z_sign(t):
            """Z(t) by find_zeros' rule, recorded in `reads`: the scan's
            reader."""
            reads[t] = z_read(t)
            return reads[t][0]

        def proved_sign(t, em):
            """z_read(t, em)'s value where it proves Z's sign, recorded in
            `reads`; else None, which ends the refinement at t (`stops`):
            stage 1's reader with em False, the fallback's with em True."""
            read = z_read(t, em)
            if read is None or abs(read[0]) <= read[1]:
                stops.append(t)
                return None
            reads[t] = read
            return read[0]

        def proved(t):
            value, error = reads[t]
            return abs(value) > error

        def newton_zero(x, zlo, zhi):
            """(t, zlo, zhi): t the zero stage 2 proves from x, or None;
            (zlo, zhi) the bracket of its proved reads."""
            box = (zlo, zhi)
            for _ in range(NEWTON_READS):
                read = _point_read(x, prec, 2)
                reads[x] = read[:2]
                if proved(x):
                    if (read[0] > 0) == (reads[zlo][0] > 0):
                        zlo = x
                    else:
                        zhi = x
                if read[2]:
                    t = x - read[0] / read[2]
                    if _newton_proves(x, t, read, half_width, box):
                        return t, zlo, zhi
                if read[2] and zlo < t < zhi:
                    x = min(max(t, zlo + half_width), zhi - half_width)
                else:
                    x = (zlo + zhi) / 2
                if x in reads:
                    break
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
                    brackets.append((u, v))
                u, fu = v, fv
            # the smooth estimate can be off by the fluctuation term, so only
            # a deficit of 2 or more triggers a rescan
            if expected - len(brackets) < 2 or rescans >= MAX_RESCANS:
                break
            rescans += 1
            step_scale /= 2
        zeros = []
        half_width = mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
        for zlo, zhi in brackets:
            t = None
            for em in (False, True):
                count = len(stops)
                zlo, zhi = refine_sign_change(functools.partial(proved_sign, em=em), zlo, zhi,
                                              reads[zlo][0], reads[zhi][0], half_width)
                if len(stops) == count:
                    break
                t, zlo, zhi = newton_zero(stops[-1], zlo, zhi)
                if t is not None:
                    break
            if t is not None:
                zeros.append(Zero(t=t, half_width=half_width))
                continue
            t = (zlo + zhi) / 2
            if len(stops) > count or not (proved(zlo) and proved(zhi)):
                raise UnconfirmedSignChangeError(
                    f"could not certify sign change at t = {mp.nstr(t, 20)}")
            zeros.append(Zero(t=t, half_width=(zhi - zlo) / 2))
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


class _TaylorPatches:
    """Z^(k) on [lo, hi] from truncated Taylor series of Z, one a patch;
    the only code that builds Z's series.

    count patches of width (hi - lo)/count tile the interval, and a point
    is read from the series about its nearest centre, at most d = width/2
    away.  Each patch has a circle of radius r = width (on a width-0
    window, read only at its centre, the radius given), and its series
    (_z_series) keeps a_n for n < J, J and the bits the same for every
    patch (J = kmax + 1 at width 0).  The count is the fewest the bound
    allows, tried from _first_count up to twice that or the tiling of
    radius CONTOUR_RADIUS, whichever is more.  Each order's series is kept
    as Python ints with F = bits + READ_GUARD_BITS fraction bits
    (read_bits), b_n = a_(n+k) (n+k)!/n! d^n for n < J - k (1 term at
    width 0), so Z^(k)(u) = sum_n b_n x^n, x = (u - centre)/d, |x| <= 1, is
    one integer Horner pass rounded once.  The series is built in
    y = h/d', d' = r/2 (d but for width 0), r rounded to bits bits, so d'^k
    is exact and each b_n one floor of an exact quotient.

    series_error is the largest over the orders, doubled to cover
    second-order terms and the floats it is computed in, of the sum of
    these bounds on Z^(k) at distance <= d, each the largest over patches:
    - truncation after J terms: with A >= |Z| on the circles of a larger
      radius R < sqrt(c^2 + 1/4), the distance to Z's singularities +-i/2
      (enclose.z_log_majorant), Cauchy's |a_n| <= A R^-n bounds it by
      A R^-k sum_{n>=J} n!/(n-k)! (d/R)^(n-k), at most its first term over
      1 - rho, rho its first ratio (the ratios fall); 0 at width 0;
    - the series' own error E on the r-circle (_series_plan), which Cauchy
      turns into E k! r/(r - d)^(k+1) (_log_gain), truncated series too;
    - the coefficients' rounding: e_j units of 2^-B on a_j d'^j add
      2^-B sum_(j>=k) e_j j!/(j-k)!/d'^k (e_k k!/d'^k at width 0);
    - the read: 2^-F (2N' + S1) for N' = J - k floors of b_n, N' - 1 of
      Horner steps (|x| <= 1 keeps them from growing) and the floor of x
      (S1 = sum n |b_n|), counted as (3J + 6) 2^-bits S where larger (where
      S = sum |b_n| >= 2^-7), and 2^-mp.prec S for the final rounding; the
      rounded centres let |x| pass 1 by some 4 |u|/d units of 2^-mp.prec,
      under 1 + 2^-50 on x^n for explore up to T = 10^4 at 64 bits.

    J, R and the bits come from one budget, 2^-prec times the largest
    |Z^(k)| read at the centres (1 until one is read).  J is the least
    J > kmax whose truncation takes at most a quarter of it (_terms), at the
    R_j = r (R_max/r)^(j/16), j = 1..15, R_max the reach above, that allows
    the least J (_radius).  The jets are sized for 2^-bits and N and K for
    E <= about 1.5 m 2^-bits, m = z_log_majorant's bound on the r-circles;
    the bits are the fewest for which E and the rounding, with
    S <= (m + 1) k! r/(r - d)^(k+1), take at most an eighth (_bits).  If
    series_error misses the budget the reads set (at least 2^-2prec), the
    series are sized for it and built once more before the next count.
    """

    def __init__(self, lo, hi, orders: Sequence[int], prec: int, radius=None):
        if mp.prec < prec + GUARD_BITS:
            raise ValueError(f"patches for {prec} bits need working_precision({prec}), "
                             f"not mp.prec = {mp.prec}")
        kmax = max(orders)
        if kmax > MAX_DERIVATIVE_ORDER:
            raise CapacityError(f"order {kmax} exceeds {MAX_DERIVATIVE_ORDER}")
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        self.lo = lo
        self._orders = sorted(orders)
        self._log_majorants: Dict[Tuple[float, float], float] = {}
        unit = prec * math.log(2)
        log_budget = -unit  # 2^-prec times a largest |Z^(k)| of 1, until one is read
        count = last = 1
        if hi > lo:
            count = self._first_count(lo, hi)
            last = max(2 * count, math.ceil((hi - lo) / CONTOUR_RADIUS))
        while True:
            self._tile(lo, hi, count, radius)
            for _ in range(2):
                J, bits, R = self._size(log_budget)
                if J > self.J or bits > self.bits:
                    self.J, self.bits = max(J, self.J), max(bits, self.bits)
                    self._build()
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
        """The fewest patches with omega d <= (GUARD_BITS - 3) log 2, omega =
        log(hi/2pi)/2: rounding a read costs 2^-mp.prec S, S ~ e^(omega d).
        1, 1, 2 and 3 about T = 57.5, 100, 1000 and 10^4; nothing rests on it."""
        omega = math.log(float(hi) / (2 * math.pi)) / 2
        d = (GUARD_BITS - 3) * math.log(2) / omega if omega > 0 else math.inf
        return max(1, math.ceil(float(hi - lo) / (2 * d)))

    def _tile(self, lo, hi, count: int, radius) -> None:
        """Place count patches on [lo, hi], not yet built."""
        self.count = count
        self.width = (hi - lo) / count
        self.radius = self.width or mp.mpf(radius)
        self.centres = [lo + (i + mp.mpf(0.5)) * self.width for i in range(count)]
        self.series: List[Dict[int, List[int]]] = []  # per patch and order
        self.J = self.bits = 0
        self._r, self._d = float(self.radius), float(self.width) / 2
        self._centres = [float(c) for c in self.centres]
        self._far = max(abs(c) for c in self._centres)
        self._reach = min(math.hypot(c, 0.5) for c in self._centres)
        self._log_m = self._majorant(self._r)
        self._cover = self._r * (1 + 2.0 ** -16)  # the jets' radius, past the circle
        # theta's shape for sizing, from a jet good to 2^-SHAPE_BITS
        self._shapes = [ThetaJet(c, self._cover, 2.0 ** -SHAPE_BITS) for c in self.centres]

    def _build(self) -> None:
        """Build every patch's series at J and bits, each order's b_n, and
        the logs of E and of each order's coefficient rounding."""
        self.read_bits = F = self.bits + READ_GUARD_BITS
        with mp.workprec(self.bits):
            r = +self.radius  # the radius built on, exact as man 2^exp
        self._radius_bits = man, exp = r.man, r.exp
        half = mp.make_mpf(libmp.from_man_exp(man, exp - 1))
        self.series, self._log_circle = [], -math.inf
        self._log_rounding = {k: -math.inf for k in self._orders}
        for c in self.centres:
            jet = ThetaJet(c, self._cover, 2.0 ** -self.bits)
            N, K, log_circle, errors = _series_plan(float(c), float(r), jet, jet.error,
                                                    self.J, self.bits, self._log_m)
            a, B = _z_series(c, half, jet, self.J, N, K, self.bits)
            self._log_circle = max(self._log_circle, log_circle)
            for k, units in self._read_units(errors, float(half)).items():
                self._log_rounding[k] = max(self._log_rounding[k], units - B * math.log(2))
            # b_n 2^F = a_(n+k) (n+k)!/n! 2^(F - B)/d'^k, d'^k = man^k 2^(k (exp - 1))
            self.series.append({k: [floor_shifted(a[n + k] * math.perm(n + k, k), man ** k,
                                                  F - B - k * (exp - 1))
                                    for n in range(self.J - k if self.width else 1)]
                                for k in self._orders})

    def _read_units(self, errors: List[float], half: float) -> Dict[int, float]:
        """log of each order's coefficient rounding from the bounds e_j:
        sum_(j>=k) e_j j!/(j-k)!/half^k, or e_k k!/half^k at width 0."""
        return {k: math.log(sum(e * math.perm(j, k) for j, e in enumerate(errors) if j >= k)
                            if self.width else errors[k] * math.factorial(k))
                - k * math.log(half) for k in self._orders}

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

    def _log_truncation(self, k: int, J: int, R: float, log_a: float) -> float:
        """log of the truncation bound on Z^(k) after J terms."""
        if not self._d:
            return -math.inf
        x = self._d / R
        rho = x * (J + 1) / (J + 1 - k)
        return math.inf if rho >= 1 else (
            log_a - k * math.log(R) + math.lgamma(J + 1) - math.lgamma(J + 1 - k)
            + (J - k) * math.log(x) - math.log1p(-rho))

    def _size(self, log_budget: float) -> Tuple[int, int, float]:
        """(J, bits, R) for the error budget e^log_budget on every Z^(k)."""
        if self.width:
            R = self._radius(log_budget)
            J = self._terms(log_budget, R, self._majorant(R))
        else:
            R, J = None, self._orders[-1] + 1
        return J, self._bits(log_budget, J), R

    def _bits(self, log_budget: float, J: int) -> int:
        """The fewest bits whose share takes an eighth of the budget, the
        rounding sized from theta's shape and a jet error of 2^-bits; it grows
        with the bits through N, so they are raised until they cover it."""
        m = math.exp(self._log_m)
        log_unit = math.log(1.5 * m + (3 * J + 8) * (m + 2))
        units = {k: -math.inf for k in self._orders}
        bits = 0
        while True:
            need = max(math.ceil((log_add(_log_gain(k, self._r, self._d) + log_unit, units[k])
                                  + 3 * math.log(2) - log_budget) / math.log(2))
                       for k in self._orders)
            if need <= bits:
                return bits
            bits = need
            for c, jet in zip(self._centres, self._shapes):
                errors = _series_plan(c, self._r, jet, 2.0 ** -bits, J, bits, self._log_m)[3]
                for k, v in self._read_units(errors, self._r / 2).items():
                    units[k] = max(units[k], v)

    def _radius(self, log_budget: float) -> float:
        """The R_j = r (R_max/r)^(j/16), j = 1..15, with the least J about the
        farthest centre, at its smallest j.  A majorant costs more the larger
        R (at T = 10^4, 10 ms at j = 1, 5 s at j = 15), so the search starts
        at _first_radius' guess and steps towards a smaller (J, j) while it
        can; J(j) falls and then rises, and any R_j gives a proved bound."""
        radii = [self._r * (self._reach / self._r) ** (j / 16) for j in range(1, 16)]
        terms: Dict[int, int] = {}

        def key(i: int) -> Tuple[int, int]:
            if i not in terms:
                R = radii[i]
                terms[i] = self._terms(log_budget, R, self._log_majorant(self._far, R))
            return terms[i], i

        i, last = self._first_radius(log_budget, radii), len(radii) - 1
        step = 1 if i < last and key(i + 1) < key(i) else -1
        while 0 <= i + step <= last and key(i + step) < key(i):
            i += step
        return radii[i]

    def _first_radius(self, log_budget: float, radii: List[float]) -> int:
        """The index of the first radius whose J is least under the model
        log A(R) ~ log A(r) + theta' (R - r), theta' = log(c/2pi)/2 at the
        far centre c (at least 0): below the real line |e^(i theta(w))|
        grows like e^(theta' |Im w|), and zeta tends to 1."""
        log_a = self._log_majorant(self._far, self._r)
        slope = math.log(max(self._far, 2 * math.pi) / (2 * math.pi)) / 2
        model = [self._terms(log_budget, R, log_a + slope * (R - self._r)) for R in radii]
        return model.index(min(model))

    def _terms(self, log_budget: float, R: float, log_a: float) -> int:
        """The least J > kmax whose truncation takes a quarter of the
        budget (theta._fewest): the truncation is infinite while its ratio
        rho >= 1 and then falls with J, so the J that fit are all those from
        one on."""
        target, kmax = log_budget - 2 * math.log(2), self._orders[-1]
        return _fewest(lambda J: all(self._log_truncation(k, J, R, log_a) <= target
                                    for k in self._orders), kmax, kmax + 1)

    def _log_error(self, R: Optional[float]) -> float:
        """log of series_error for the series as built."""
        log_a = self._majorant(R) if self.width else 0.0
        log_allowance = math.log(3 * self.J + 6) - self.bits * math.log(2)
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
            worst = max(worst, log_add(self._log_truncation(k, self.J, R, log_a),
                                        self._log_circle + _log_gain(k, self._r, self._d),
                                        self._log_rounding[k],
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
        """floor(2^F (u - centre)/d), d = r/2 for the radius built on, from
        the exact difference."""
        sign, h, h_exp, _ = mp.fsub(u, centre, exact=True)._mpf_
        h = -h if sign else h
        man, exp = self._radius_bits
        return floor_shifted(h, man, h_exp + self.read_bits + 1 - exp)


def theorem1_explore(T, C, m_cap: int = 16, prec: int = DEFAULT_PREC) -> ExploreReport:
    """Grid maxima of |Z^(k)| over [T-2pi, T+2pi] against the shrinking-factor
    bound, for k in {1, 3, ..., 2m-1, 2m}.

    m = min(floor(C log T loglog T), m_cap); the grid step is
    pi/(8 theta'(T)) with local refinement around each running maximum.  A
    witness is any k whose grid maximum meets its bound.  Every value,
    z_at_T (order 0 at T) included, is one integer Horner pass over the
    fixed-point series of a Taylor patch, each built from one Dirichlet
    table: contours is the fewest patches whose bound fits the budget (see
    _TaylorPatches), 1, 1, 2 and 3 at T = 57.5, 100, 1000 and 10^4.
    series_error is the patches' proved bound on the error of every value
    read, from truncation, the Euler-Maclaurin and theta remainders and
    rounding.
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
