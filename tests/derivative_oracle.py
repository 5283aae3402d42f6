"""The tests' references for Z^(k), read by tests/test_hardy.py and by
criterion 11 against the Taylor patches of hardyz.hardy; for theta and Z
off the real line, from mpmath's loggamma and zeta, read against
hardyz.theta's jets; and for Z's Taylor coefficients, the trapezoid sums of
Z on a full circle, read against the patches' series."""

from mpmath import mp, mpf

from hardyz.precision import DEFAULT_PREC, working_precision

SIEGELZ_MAX_DERIVATIVE = 4  # mp.siegelz(t, derivative=k) takes k <= 4
FD_BITS_PER_ORDER = 12  # z_derivative_fd: a difference of order j loses bits with j
FD_GUARD_BITS = 24  # z_derivative_fd: bits above the working precision, on top of those


def theta_complex(w):
    """Analytic continuation of theta, real on the real axis, from mpmath's
    loggamma at the ambient precision."""
    wm = mp.mpc(w)
    lg = (mp.loggamma(mp.mpf(0.25) + 0.5j * wm)
          - mp.loggamma(mp.mpf(0.25) - 0.5j * wm)) / 2j
    return lg - wm / 2 * mp.log(mp.pi)


def z_complex(w):
    """Z(w) = e^(i theta(w)) zeta(1/2 + iw) off the real line, from
    mpmath's loggamma and zeta at the ambient precision."""
    wm = mp.mpc(w)
    return mp.e ** (1j * theta_complex(wm)) * mp.zeta(0.5 + 1j * wm)


def z_trapezoid(centre, radius, M: int):
    """[s_0, .., s_(M-1)], s_n = (1/M) sum_m Z(w_m) u^(-mn) over the M
    points w_m = centre + radius u^m of the full circle, u = e^(2 pi i/M),
    Z from z_complex at the ambient precision.  s_n is a_n radius^n plus
    the aliases a_(n+lM) radius^(n+lM), l >= 1, a_n Z's Taylor
    coefficients about centre (Trefethen and Weideman, SIAM Review 56,
    2014)."""
    roots = [mp.expjpi(mp.mpf(2 * m) / M) for m in range(M)]
    values = [z_complex(centre + radius * u) for u in roots]
    return [mp.fsum(v * roots[-m * n % M] for m, v in enumerate(values)) / M for n in range(M)]


def z_derivative_fd(t, k: int, prec: int = DEFAULT_PREC) -> mpf:
    """Cross-check path for the contour derivatives, sharing no code with
    them: mpmath's own Z^(k) for k <= 4 (mp.siegelz(t, derivative=k), which
    combines zeta's derivatives with theta's), and above that finite
    differences of order k - 4 of mpmath's Z^(4), at elevated precision."""
    if k < 0:
        raise ValueError("k must be >= 0")
    with working_precision(prec):
        top = min(k, SIEGELZ_MAX_DERIVATIVE)
        with mp.extraprec(FD_BITS_PER_ORDER * (k - top) + FD_GUARD_BITS):
            d = mp.diff(lambda u: mp.siegelz(u, derivative=top), mp.mpf(t), k - top)
        return +d
