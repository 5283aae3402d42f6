"""Hardy Z function engine: evaluation, derivatives, zeros, counting.

Z(t) = e^{i theta(t)} zeta(1/2 + it) is real for real t.  Two routes
evaluate it: z_eval applies Euler-Maclaurin summation to zeta with an
explicit truncation bound, and the library's Riemann-Siegel mp.siegelz backs
interval scans.  Each sign change the scan brackets is refined by Illinois
regula falsi (precision.refine_sign_change) to a 2^-48 bracket, which z_eval
then certifies.  Derivatives come from the Taylor coefficients of the
analytic continuation of Z on a Cauchy circle: the half with Im w <= 0 is
sampled with the library zeta and Schwarz reflection fills the other.
_TaylorPatches is the one place that builds such circles and keeps their
series: z_derivatives_batch reads one patch at its centre, and
theorem1_explore reads every point of its window from seven.  Richardson
finite differences cross-check the contour route.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from mpmath import mp, mpf

from .polynomials import bernoulli_numbers, horner
from .precision import DEFAULT_PREC, digits_for, refine_sign_change, working_precision

MAX_DERIVATIVE_ORDER = 64
ZERO_HALF_WIDTH_BITS = 48
MAX_RESCANS = 4
THETA_GUARD_BITS = 16  # theta ~ t log t, and its absolute error is Z's relative error
EM_GUARD_BITS = 8  # the Euler-Maclaurin sum rounds about |t|/2 terms
CONTOUR_BITS_PER_ORDER = 8  # the Cauchy sum for Z^(k) divides by r^k and cancels
CONTOUR_GUARD_BITS = 32  # contour samples: zeta and loggamma off the line, at any order
CONTOUR_SUM_GUARD_BITS = 16  # the sample points and the Cauchy sums, above the samples
CONTOUR_RADIUS = 2  # Cauchy circles; z_derivatives_batch shrinks it to t/2 + 1/4 near 0
FD_BITS_PER_ORDER = 12  # z_derivative_fd: a k-th difference loses bits with k
FD_GUARD_BITS = 24  # z_derivative_fd: bits on top of the per-order ones


class CapacityError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class PrecisionEscalationError(ArithmeticError):
    """z_eval could not confirm a zero's sign change, even with the bracket
    widened 256 times.  Nothing escalates precision; the name is kept for
    callers that catch it (the CLI's exit code 3)."""


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


def _theta_complex(w):
    """Analytic continuation of theta, real on the real axis."""
    wm = mp.mpc(w)
    lg = (mp.loggamma(mp.mpf(0.25) + 0.5j * wm)
          - mp.loggamma(mp.mpf(0.25) - 0.5j * wm)) / 2j
    return lg - wm / 2 * mp.log(mp.pi)


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


def _zeta_em(s, prec: int) -> Tuple[object, mpf]:
    """(zeta(s), truncation bound) by Euler-Maclaurin, s != 1, complex s.

    Runs EM_GUARD_BITS above the ambient precision; prec is the caller's
    requested bits, which set the term counts.  N = max(|Im s|/2, prec/4, 10)
    so the correction terms decay by several bits each; the recorded bound
    is the standard |s+2K+1|/(sigma+2K+1) multiple of the first omitted term.
    """
    with mp.extraprec(EM_GUARD_BITS):
        sm = mp.mpc(s)
        if sm == 1:
            raise ValueError("zeta pole at s = 1")
        t_abs = abs(sm.imag)
        N = int(max(mp.ceil(t_abs / 2), prec // 4, 10))
        total = mp.mpc(0)
        for k in range(1, N):
            total += mp.power(k, -sm)
        Nm = mp.mpf(N)
        total += mp.power(Nm, -sm) / 2
        total += mp.power(Nm, 1 - sm) / (sm - 1)
        # correction terms B_2k/(2k)! * N^(1-s-2k) * prod_{j<2k-1}(s+j)
        K_cap = max(prec // 2, 20)
        bern = bernoulli_numbers(2 * K_cap + 2)
        rising = sm          # prod_{j=0}^{2k-2}(s+j), starts at k=1 with s
        npow = mp.power(Nm, 1 - sm) / Nm ** 2
        fact = mp.factorial(2)
        tol = mp.mpf(2) ** (-(prec + 10))
        prev_mag = mp.inf
        k = 1
        term_mag = mp.inf
        while k <= K_cap:
            b = bern[2 * k]
            term = mp.mpf(b.numerator) / b.denominator / fact * npow * rising
            term_mag = abs(term)
            if term_mag > prev_mag:
                break
            total += term
            if term_mag < tol:
                k += 1
                break
            prev_mag = term_mag
            rising *= (sm + 2 * k - 1) * (sm + 2 * k)
            npow /= Nm ** 2
            fact *= (2 * k + 1) * (2 * k + 2)
            k += 1
        sigma = sm.real
        bound = abs(sm + 2 * k + 1) / abs(sigma + 2 * k + 1) * term_mag
        if not mp.isfinite(bound):
            bound = term_mag
        return +total, +bound


# ---------------------------------------------------------------------------
# Z evaluation


@dataclass
class ZSample:
    t: mpf
    z: mpf
    error_estimate: mpf


def z_eval(t, prec: int = DEFAULT_PREC) -> ZSample:
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) by Euler-Maclaurin, real output.

    The error estimate is the Euler-Maclaurin truncation bound plus the
    imaginary residue of the complex product.  The Riemann-Siegel route is
    the library's mp.siegelz, which the scan uses and the tests compare
    against this one.
    """
    with working_precision(prec):
        tm = mp.mpf(t)
        if tm < 0:
            raise ValueError("t must be >= 0")
        zeta_val, zeta_err = _zeta_em(mp.mpf(0.5) + 1j * tm, prec)
        phase = mp.e ** (1j * theta(tm, prec=prec + THETA_GUARD_BITS))
        zc = phase * zeta_val
        err = zeta_err + abs(zc.imag)
        return ZSample(t=tm, z=zc.real, error_estimate=+err)


def _z_complex(w):
    """Analytic continuation Z(w) from the library zeta; the pole of zeta
    sits at w = -i/2 only."""
    wm = mp.mpc(w)
    zeta_val = mp.zeta(mp.mpf(0.5) + 1j * wm)
    return mp.e ** (1j * _theta_complex(wm)) * zeta_val


# ---------------------------------------------------------------------------
# derivatives


def _contour_size(bits: int, kmax: int) -> int:
    """M, the number of points on a contour that serves orders up to kmax
    with samples at the given bits: the power of two at or above
    bits/2 + 8 kmax + 16, and at least 64."""
    return 2 ** max(6, (bits // 2 + 8 * kmax + 15).bit_length())


def _z_taylor(centre, radius, M: int,
              indices: Iterable[int]) -> Tuple[Dict[int, mpf], mpf]:
    """({n: a_n}, max |Z| sampled): Taylor coefficients of Z about the real
    point centre, for each n in indices, from one circle of M points.

    Only the M/2 + 1 points with Im w <= 0 are sampled, where zeta sits at
    sigma >= 1/2.  The Schwarz reflection Z(conj w) = conj Z(w) fills the
    other half: Z is real on the real axis, and theta's principal loggamma
    commutes with conjugation away from its cut.  a_n r^n is then the
    trapezoid sum (Re f_0 + (-1)^n Re f_{M/2} + 2 sum_{0<j<M/2} Re(f_j u^(nj)))/M
    over one table of M-th roots of unity u^j, with f_j = Z(centre + r u^-j).
    The samples are taken at the ambient precision; the points and the sums
    carry CONTOUR_SUM_GUARD_BITS more.  The sums run in fixed point, with
    as many fraction bits as the points carry: the integer products are
    exact, so each input and each sum is rounded once.
    """
    half = M // 2
    with mp.extraprec(CONTOUR_SUM_GUARD_BITS):
        r = mp.mpf(radius)
        roots = mp.unitroots(M)
        points = [mp.mpf(centre) + r * mp.conj(roots[j]) for j in range(half + 1)]
    samples = [_z_complex(w) for w in points]
    with mp.extraprec(CONTOUR_SUM_GUARD_BITS):
        bits = mp.prec

        def fixed(xs):
            return [int(mp.ldexp(x, bits)) for x in xs]

        f_re, f_im = fixed(f.real for f in samples), fixed(f.imag for f in samples)
        u_re, u_im = fixed(u.real for u in roots), fixed(u.imag for u in roots)
        coeffs = {}
        for n in indices:
            acc = 2 * sum(f_re[j] * u_re[n * j % M] - f_im[j] * u_im[n * j % M]
                          for j in range(1, half))
            acc += (f_re[0] + (-1) ** n * f_re[half]) << bits
            coeffs[n] = mp.ldexp(acc, -2 * bits) / (M * r ** n)
        return coeffs, max(abs(f) for f in samples)


def z_derivative_fd(t, k: int, prec: int = DEFAULT_PREC) -> mpf:
    """Cross-check path: Richardson-extrapolated finite differences of the
    Riemann-Siegel evaluation at elevated precision."""
    if k < 0:
        raise ValueError("k must be >= 0")
    with working_precision(prec):
        with mp.extraprec(FD_BITS_PER_ORDER * k + FD_GUARD_BITS):
            d = mp.diff(mp.siegelz, mp.mpf(t), k)
        return +d


def z_derivatives_batch(t, orders: Sequence[int],
                        prec: int = DEFAULT_PREC) -> Dict[int, mpf]:
    """All requested derivative orders from a single contour about t: the
    centre read of one Taylor patch (_TaylorPatches over the width-0 window
    [t, t]) of radius min(CONTOUR_RADIUS, t/2 + 1/4), which keeps the circle
    inside the disc where Z is analytic: its nearest singularities are at
    w = +-i/2.
    """
    orders = sorted(set(int(k) for k in orders))
    if not orders:
        return {}
    if orders[0] < 0:
        raise ValueError("orders must be >= 0")
    with working_precision(prec):
        tm = mp.mpf(t)
        radius = min(mp.mpf(CONTOUR_RADIUS), tm / 2 + mp.mpf(0.25))
        patch = _TaylorPatches(tm, tm, radius, orders, prec)
        return {k: patch.derivative(tm, k) for k in orders}


# ---------------------------------------------------------------------------
# zeros


@dataclass
class Zero:
    gamma: mpf
    half_width: mpf


@dataclass
class ZeroList:
    t_lo: mpf
    t_hi: mpf
    zeros: List[Zero]
    rescans: int
    suspected_missing: bool

    def __len__(self) -> int:
        return len(self.zeros)

    def serialize(self, prec: int = DEFAULT_PREC) -> Dict:
        """The zeros shape of both the JSON and the CSV output: each zero
        is its t to digits_for(prec) digits and a 6-digit half-width."""
        d = digits_for(prec)
        return {
            "t_lo": mp.nstr(self.t_lo, d),
            "t_hi": mp.nstr(self.t_hi, d),
            "count": len(self.zeros),
            "rescans": self.rescans,
            "suspected_missing": self.suspected_missing,
            "zeros": [{"t": mp.nstr(z.gamma, d),
                       "half_width": mp.nstr(z.half_width, 6)}
                      for z in self.zeros],
        }

    def to_csv(self, prec: int = DEFAULT_PREC) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["index", "t", "bracket_half_width"])
        for i, z in enumerate(self.serialize(prec)["zeros"], start=1):
            w.writerow([i, z["t"], z["half_width"]])
        return buf.getvalue()


def _scan_step(t, prec: int) -> mpf:
    """pi/(4 theta'(t)) clamped: theta' is small or negative below ~18."""
    tp = theta_prime(max(mp.mpf(t), mp.mpf(20)), prec=prec)
    tp = max(tp, mp.mpf(0.5))
    return mp.pi / (4 * tp)


def expected_zero_count(t_lo, t_hi, prec: int = DEFAULT_PREC) -> mpf:
    """(theta(t_hi) - theta(t_lo))/pi, the smooth count of zeros in the
    interval (off by the bounded fluctuation term)."""
    with working_precision(prec):
        lo = max(mp.mpf(t_lo), mp.mpf(0))
        return (theta(t_hi, prec=prec) - theta(lo, prec=prec)) / mp.pi


def _certified_sign_change(t, w, prec: int) -> bool:
    """Euler-Maclaurin Z has opposite signs at t - w and t + w, and each
    value exceeds its own error estimate."""
    za = z_eval(t - w, prec=prec)
    zb = z_eval(t + w, prec=prec)
    return ((za.z > 0) != (zb.z > 0) and abs(za.z) > za.error_estimate
            and abs(zb.z) > zb.error_estimate)


def find_zeros(t_lo, t_hi, prec: int = DEFAULT_PREC) -> ZeroList:
    """All sign-change zeros of Z in (t_lo, t_hi], each the midpoint of a
    sign-change bracket of half-width <= 2^-48 refined by Illinois regula
    falsi.

    Scans a finite window with mp.siegelz at step pi/(4 theta'); the count
    is cross-checked against the smooth theta-based estimate and the scan is
    repeated at half step (up to MAX_RESCANS times) when a missed close pair
    is suspected.  Each final bracket is certified by an Euler-Maclaurin
    sign check whose values exceed their error estimates.
    """
    with working_precision(prec):
        lo = mp.mpf(t_lo)
        hi = mp.mpf(t_hi)
        if not (hi > lo >= 0 and mp.isfinite(hi)):
            raise ValueError("need finite t_hi > t_lo >= 0")
        # siegelz is called from a frame of this module, also inside
        # refine_sign_change, because perfbench's tracer counts only those
        f = lambda t: mp.siegelz(t)
        expected = expected_zero_count(lo, hi, prec=prec)
        rescans = 0
        step_scale = mp.mpf(1)
        while True:
            brackets = []
            u = lo
            fu = f(u) if u > 0 else None
            while u < hi:
                v = min(u + _scan_step(u, prec) * step_scale, hi)
                fv = f(v)
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
        for (a, b, fa, fb) in brackets:
            zlo, zhi = refine_sign_change(f, a, b, fa, fb,
                                          mp.mpf(2) ** (-ZERO_HALF_WIDTH_BITS))
            zeros.append(Zero(gamma=(zlo + zhi) / 2, half_width=(zhi - zlo) / 2))
        for z in zeros:
            w = max(z.half_width * 4, mp.mpf(2) ** (-ZERO_HALF_WIDTH_BITS + 2))
            # widen once; a second failure means the bracket is not certified
            if not (_certified_sign_change(z.gamma, w, prec)
                    or _certified_sign_change(z.gamma, w * 256, prec)):
                raise PrecisionEscalationError(
                    f"could not certify sign change at t = {mp.nstr(z.gamma, 20)}")
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

    The fluctuation estimate is N_counted - N_main - 7/8; equal to S(t) up
    to the integer consistency the count check enforces.
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
    """Z^(k) on [lo, hi] from truncated Taylor series of Z, one contour
    each; the only code that builds a contour.

    count = ceil((hi - lo)/r) patches (at least one) of width
    (hi - lo)/count <= r tile the interval, and a point is read by Horner
    from the series about its nearest centre, at most q r <= r/2 away.
    Every circle has the given radius r and M = _contour_size(bits, kmax)
    points.  Its samples are elevated with the largest order kmax (the r^-k
    factor amplifies sample noise): CONTOUR_BITS_PER_ORDER bits per order on
    top of CONTOUR_GUARD_BITS.  Each series keeps a_n for n < N = M/2, or
    for n <= kmax on a width-0 window, which is read only at its centre.

    series_error is the largest Cauchy-estimate bound on the truncation over
    patches and orders: |a_n| <= M_r r^-n gives
    M_r r^-k sum_{n>=N} n!/(n-k)! q^(n-k), with M_r the largest |Z| sampled
    on a circle.  The sum is bounded by its first term over 1 - rho, rho the
    ratio of its first two terms (the ratios fall with n), and it is 0 at
    width 0.  The aliasing of a_(n+M) r^M into a_n by the M-point sum is not
    bounded.
    """

    def __init__(self, lo, hi, radius, orders: Sequence[int], prec: int):
        kmax = max(orders)
        if kmax > MAX_DERIVATIVE_ORDER:
            raise CapacityError(f"order {kmax} exceeds {MAX_DERIVATIVE_ORDER}")
        self.extra = CONTOUR_BITS_PER_ORDER * kmax + CONTOUR_GUARD_BITS
        self.lo = lo
        r = mp.mpf(radius)
        self.count = max(1, int(mp.ceil((hi - lo) / r)))
        self.width = (hi - lo) / self.count
        self.centres: List[mpf] = []
        self.series: List[Dict[int, List[mpf]]] = []  # per patch and order
        max_abs = mp.mpf(0)
        with mp.extraprec(self.extra):
            M = _contour_size(prec + self.extra, kmax)
            N = M // 2 if self.width else kmax + 1
            for i in range(self.count):
                c = lo + (i + mp.mpf(0.5)) * self.width
                a, m_r = _z_taylor(c, r, M, range(N))
                max_abs = max(max_abs, m_r)
                self.centres.append(c)
                with mp.extraprec(CONTOUR_SUM_GUARD_BITS):
                    self.series.append({k: [a[n] * mp.ff(n, k) for n in range(k, N)]
                                        for k in orders})
            q = self.width / (2 * r)
            self.series_error = max_abs * max(
                mp.ff(N, k) * q ** (N - k) / (1 - q * (N + 1) / (N + 1 - k)) / r ** k
                for k in orders)

    def derivative(self, u, k: int) -> mpf:
        """Z^(k)(u) from the nearest patch, rounded to the ambient precision."""
        i = min(int((u - self.lo) / self.width), self.count - 1) if self.width else 0
        with mp.extraprec(self.extra + CONTOUR_SUM_GUARD_BITS):
            v = horner(self.series[i][k], u - self.centres[i])
        return +v


def theorem1_explore(T, C, m_cap: int = 16, prec: int = DEFAULT_PREC) -> ExploreReport:
    """Grid maxima of |Z^(k)| over [T-2pi, T+2pi] against the shrinking-factor
    bound, for k in {1, 3, ..., 2m-1, 2m}.

    m = min(floor(C log T loglog T), m_cap); the grid step is
    pi/(8 theta'(T)) with local refinement around each running maximum.  A
    witness is any k whose grid maximum meets its bound.  Every value is
    read from Taylor patches: contours = ceil(4 pi/CONTOUR_RADIUS) = 7
    circles of M/2 + 1 zeta samples, M as _TaylorPatches picks it for the
    largest order, instead of one full circle per point.  series_error is
    the patches' Cauchy-estimate truncation bound (aliasing is not
    bounded).  Explicitly exploratory output.
    """
    with working_precision(prec):
        Tm = mp.mpf(T)
        Cm = mp.mpf(C)
        if Tm < 30:
            raise ValueError("explore requires T >= 30 (loglog scale)")
        if m_cap < 1:
            raise ValueError("m_cap must be >= 1")
        zT = z_eval(Tm, prec=prec)
        if abs(zT.z) <= 4 * zT.error_estimate:
            raise RejectedPointError("Z(T) indistinguishable from zero")
        m_theorem = int(mp.floor(Cm * mp.log(Tm) * mp.log(mp.log(Tm))))
        m_used = max(1, min(m_theorem, m_cap))
        orders = list(range(1, 2 * m_used, 2)) + [2 * m_used]
        step = mp.pi / (8 * max(theta_prime(Tm, prec=prec), mp.mpf(0.25)))
        grid = []
        u = Tm - 2 * mp.pi
        while u <= Tm + 2 * mp.pi:
            grid.append(u)
            u += step
        patches = _TaylorPatches(Tm - 2 * mp.pi, Tm + 2 * mp.pi, CONTOUR_RADIUS,
                                 orders, prec)
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
        shrink = 1 - mp.log(mp.log(mp.log(Tm))) / mp.log(mp.log(Tm)) \
            if mp.log(mp.log(Tm)) > 1 and mp.log(Tm) > mp.e else mp.mpf(1)
        log_scale = mp.log(mp.sqrt(Tm / (2 * mp.pi)))
        rows = []
        witness_k = None
        for k in orders:
            mx, t_at = maxima[k]
            bound = (shrink * log_scale) ** k * abs(zT.z)
            witness = bool(mx >= bound)
            if witness and witness_k is None:
                witness_k = k
            rows.append(ExploreRow(k=k, max_abs_deriv=mx, t_at_max=t_at,
                                   bound=bound, margin=mx - bound,
                                   witness=witness))
        return ExploreReport(T=Tm, C=Cm, m_theorem=m_theorem, m_used=m_used,
                             z_at_T=zT.z, grid_points=len(grid),
                             witness_k=witness_k, rows=rows,
                             contours=patches.count,
                             series_error=patches.series_error)
