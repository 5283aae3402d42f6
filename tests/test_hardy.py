"""Unit tests for the Hardy function engine.

Kept at 128 bits so the whole file stays inside a desk-scale budget.
"""

import sys

import pytest
from mpmath import mp

from hardyz import cli, hardy, zeta
from hardyz.enclose import z_log_majorant, z_rs
from hardyz.hardy import (MAX_RESCANS, ZERO_HALF_WIDTH_BITS, CapacityError,
                          UnconfirmedSignChangeError, count_stats,
                          expected_zero_count, find_zeros, n_main,
                          theorem1_explore, theta, theta_prime,
                          z_derivatives_batch, z_eval)
from hardyz.precision import GUARD_BITS, working_precision
from hardyz.theta import ThetaJet

from derivative_oracle import z_derivative_fd, z_trapezoid
from patch_size_oracle import walk_size

PREC = 128

GAMMA_1 = "14.134725141734693790457251983562470270784257115699"

THETA_ASYMPTOTIC_MIN_T = 10
THETA_ASYMPTOTIC_TERMS = 5


def _theta_asymptotic(t):
    """Asymptotic branch t/2 log(t/2pi) - t/2 - pi/8 + sum a_j t^(1-2j),
    j = 1..THETA_ASYMPTOTIC_TERMS, at the ambient precision.

    a_j = (1 - 2^(1-2j)) |B_2j| / (4j(2j-1)); valid for t >= 10 where the
    series terms fall well below the leading scale.
    """
    tm = mp.mpf(t)
    assert tm >= THETA_ASYMPTOTIC_MIN_T
    val = tm / 2 * mp.log(tm / (2 * mp.pi)) - tm / 2 - mp.pi / 8
    for j in range(1, THETA_ASYMPTOTIC_TERMS + 1):
        a_j = (1 - mp.mpf(2) ** (1 - 2 * j)) * abs(mp.bernoulli(2 * j)) \
            / (4 * j * (2 * j - 1))
        val += a_j / tm ** (2 * j - 1)
    return val


def test_theta_branches_agree():
    with working_precision(PREC):
        # truncation error of the 5-term series scales like t^-11
        for t, tol in ((15, -12), (50, -18), (200, -24)):
            exact = theta(t, prec=PREC)
            asym = _theta_asymptotic(t)
            assert abs(exact - asym) < mp.mpf(10) ** tol


def test_theta_prime_is_derivative():
    with working_precision(PREC):
        t = mp.mpf(40)
        h = mp.mpf(2) ** -30
        fd = (theta(t + h, prec=PREC) - theta(t - h, prec=PREC)) / (2 * h)
        assert abs(fd - theta_prime(t, prec=PREC)) < mp.mpf(2) ** -50


def test_z_eval_methods_agree():
    with working_precision(PREC):
        # at these heights and PREC, siegelz is Borwein's algorithm (mpmath
        # uses it up to |t| of about mp.prec + 21, 165 here)
        for t in (25, 80, 150):
            em, estimate = z_eval(t, prec=PREC)
            rs = mp.siegelz(t)
            assert abs(em - rs) < mp.mpf(10) ** -25
            assert estimate < mp.mpf(10) ** -25
        # from t = 200 the Riemann-Siegel formula encloses Z
        for t in (250, 600, 1500):
            em, estimate = z_eval(t, prec=PREC)
            value, bound = z_rs(t)
            assert abs(em - value) <= bound
            assert estimate < mp.mpf(10) ** -25


# 20 heights spread geometrically over [30, 2000], and one with N = 5000 terms
ORACLE_HEIGHTS = [f"{30 * (200 / 3) ** (i / 19):.3f}" for i in range(20)] + ["10000.3"]


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_z_eval_within_its_estimate_of_siegelz(prec):
    with working_precision(prec):  # each height as z_eval rounds it
        heights = [mp.mpf(t) for t in ORACLE_HEIGHTS]
    samples = [(t, *z_eval(t, prec=prec)) for t in heights]
    with mp.workprec(2 * prec + 30):
        for t, value, estimate in samples:
            assert abs(value - mp.siegelz(t)) <= estimate, t


# 108 heights spread geometrically over [14, 2000], a third at each precision
NEWTON_HEIGHTS = [f"{14 * (2000 / 14) ** (i / 107):.4f}" for i in range(108)]


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_newton_read_is_within_its_estimates_of_siegelz(prec):
    # a Newton read, Z and Z' from one point read at J = 2, against
    # mpmath's Z and Z' at 2 prec
    with working_precision(prec):
        heights = [mp.mpf(t) for t in NEWTON_HEIGHTS[[64, 128, 192].index(prec)::3]]
        samples = [(t, hardy._point_read(t, prec, 2)) for t in heights]
    with mp.workprec(2 * prec):
        for t, (value, error, slope, slope_error) in samples:
            assert abs(value - mp.siegelz(t)) <= error, t
            assert abs(slope - mp.siegelz(t, derivative=1)) <= slope_error, t
            # both bounds are near the precision asked for
            assert error <= mp.ldexp(max(1, abs(value)), 4 - prec), t
            assert slope_error <= mp.ldexp(max(1, abs(slope)), 4 - prec), t


@pytest.mark.parametrize("lo, hi", [("14.0", "14.9"), ("99.5", "100.8"), ("480.1", "480.4")])
def test_second_derivative_bound_covers_the_bracket(lo, hi):
    with working_precision(PREC):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        m2 = hardy._second_derivative_bound(lo, hi)
        points = [lo + (hi - lo) * j / 4 for j in range(5)]
    with mp.workprec(2 * PREC):
        assert max(abs(mp.siegelz(u, derivative=2)) for u in points) <= m2
    # a bracket that reaches the circle has no bound
    with working_precision(PREC):
        assert hardy._second_derivative_bound(mp.mpf(100), mp.mpf(102)) == mp.inf


def test_patches_refuse_a_precision_below_their_own():
    # outside working_precision(128) the output rounding at mpmath's 53
    # bits could never fit a 2^-128 budget; inside it, 7 patches fit
    with pytest.raises(ValueError):
        hardy._TaylorPatches(14, 100, [0, 1], 128)
    with working_precision(128):
        patches = hardy._TaylorPatches(14, 100, [0, 1], 128)
    assert patches.count == 7
    assert patches.series_error <= mp.mpf(2) ** -128


def _explore_patches(T, orders, prec):
    """The patches theorem1_explore reads the window about T from."""
    return hardy._TaylorPatches(T - 2 * mp.pi, T + 2 * mp.pi, orders, prec)


def test_z_matches_zeta_modulus():
    with working_precision(PREC):
        t = mp.mpf(30)
        z, _ = z_eval(t, prec=PREC)
        zeta = mp.zeta(mp.mpf(0.5) + 1j * t)
        assert abs(z ** 2 - abs(zeta) ** 2) < mp.mpf(10) ** -30


def test_derivative_dual_path():
    # below t = 3.5 the circle shrinks to radius t/2 + 1/4
    for t, k in ((100, 3), (50, 5), (20, 2), (3, 3), (1, 2), (0.5, 1)):
        a = z_derivatives_batch(t, [k], prec=PREC)[k]
        b = z_derivative_fd(t, k, prec=PREC)
        assert abs(a - b) < mp.mpf(10) ** -20 * max(1, abs(a))
    # the last case keeps its bits, though Z's singularities are only 2^-1/2
    # from 0.5 and its circle has radius 1/2
    with mp.workprec(300):
        assert abs(a - mp.siegelz(mp.mpf(0.5), derivative=1)) < mp.mpf(2) ** -100


# at T = 30.5 the jet shifts its Stirling sum 15 times and sigma on the
# circle reaches -12.1
@pytest.mark.parametrize("T, prec", [(30.5, 64), (55, 64), (60, 64), (65, 64), (60, PREC)])
def test_series_error_bounds_every_read(T, prec):
    # order 0 too, and Z(T) itself, which explore reports and rejects T by
    orders = (0, 1, 2, 3, 4)
    with working_precision(prec):
        T = mp.mpf(T)
        patches = _explore_patches(T, orders, prec)
        read = _explore_reads(patches, T, orders, prec)
        read[T, 0] = patches.derivative(T, 0)
        bound = patches.series_error
    with mp.workprec(2 * prec):
        # the same bits as mp.diff(mp.siegelz, u, k) here, at under half its cost
        worst = max(abs(v - mp.siegelz(u, derivative=k)) for (u, k), v in read.items())
    assert worst <= bound
    assert bound <= mp.mpf(2) ** -prec * max(abs(v) for v in read.values())


@pytest.mark.parametrize("t", ["0", "0.5", "3", "20", "100"])
def test_width_zero_reads_are_within_series_error(t):
    # z_derivatives_batch's patch: one centre, J = kmax + 1 and no truncation
    with working_precision(PREC):
        tm = mp.mpf(t)
        radius = min(mp.mpf(hardy.CONTOUR_RADIUS), abs(tm) / 2 + mp.mpf(0.25))
        patches = hardy._TaylorPatches(tm, tm, range(5), PREC, radius)
        read = {k: patches.derivative(tm, k) for k in range(5)}
    with mp.workprec(2 * PREC):
        for k, value in read.items():
            assert abs(value - mp.siegelz(tm, derivative=k)) <= patches.series_error, (t, k)


@pytest.mark.parametrize("lo, hi, orders", [(14, 100, (0, 1)), (14, 50, (0,))])
def test_wide_low_windows_are_read_within_series_error(lo, hi, orders):
    # a jet about 20.14 with r = 12.29 has 274 coefficients and scale 5, so
    # theta_k = t_k/32^k and r^k leave the float range; the sizes take the
    # powers of r/32 instead.  Every patch is read at its ends and centre
    with working_precision(PREC):
        patches = hardy._TaylorPatches(lo, hi, list(orders), PREC)
        step = (patches.centres[0] - patches.lo) / 2
        points = [patches.lo + j * step for j in range(4 * patches.count + 1)]
        read = {(u, k): patches.derivative(u, k) for u in points for k in orders}
    with mp.workprec(2 * PREC):
        worst = max(abs(v - mp.siegelz(u, derivative=k)) for (u, k), v in read.items())
    assert worst <= patches.series_error
    assert patches.series_error <= mp.mpf(2) ** -PREC * max(abs(v) for v in read.values())


@pytest.mark.parametrize("T", [60, 1000])
def test_series_coefficients_match_the_trapezoid_oracle(T):
    # each patch's coefficients a_j d'^j, d' = r/2, rebuilt as the patches
    # built them, against M-point trapezoid sums of mpmath's Z on the full
    # r-circle at 2 prec: within the series' bound, E 2^-j from the circle
    # and its rounding, plus the oracle's aliasing, at most A q^M/(1 - q^M)
    # with A = exp(z_log_majorant) on the circle of radius R = 3r, q = r/R
    prec, M = 64, 96
    with working_precision(prec):
        T = mp.mpf(T)
        patches = _explore_patches(T, [0] + _explore_orders(T), prec)
    man, exp = patches._radius_bits
    half = mp.make_mpf((0, man, exp - 1, man.bit_length()))
    r = 2 * float(half)
    for c in patches.centres:
        jet = ThetaJet(c, patches._cover, 2.0 ** -patches.bits)
        N, K, log_circle, errors = hardy._series_plan(float(c), r, jet, jet.error, patches.J,
                                                      patches.bits, patches._log_m)
        a, B = hardy._z_series(c, half, jet, patches.J, N, K, patches.bits)
        alias = mp.exp(z_log_majorant(float(c), 3 * r)) * 3.0 ** -M / (1 - 3.0 ** -M)
        with mp.workprec(2 * prec):
            sums = z_trapezoid(c, 2 * half, M)
            for j, (value, error) in enumerate(zip(a, errors)):
                bound = mp.exp(log_circle) / 2 ** j + mp.ldexp(error, -B) + alias
                assert abs(mp.ldexp(value, -B) - sums[j] / 2 ** j) <= bound, (c, j)
            # the bound is not vacuous
            assert alias < mp.ldexp(1, -prec - 10)


def _explore_grid(T, prec):
    """The grid of explore T, at the ambient precision."""
    step = mp.pi / (8 * theta_prime(T, prec=prec))
    grid, u = [], T - 2 * mp.pi
    while u <= T + 2 * mp.pi:
        grid.append(u)
        u += step
    return grid


def _explore_reads(patches, T, orders, prec):
    """{(u, k): Z^(k)(u)} from the patches over the grid of explore T."""
    return {(u, k): patches.derivative(u, k) for u in _explore_grid(T, prec) for k in orders}


def test_series_error_meets_its_budget_on_several_patches():
    # at T = 1000 one patch rounds its reads to 3e-14 against a budget of
    # 7e-17, so the window takes more; no siegelz reference, for time
    orders, prec = (1, 3, 5, 7, 8), 64
    with working_precision(prec):
        T = mp.mpf(1000)
        patches = _explore_patches(T, orders, prec)
        read = _explore_reads(patches, T, orders, prec)
    assert patches.count > 1
    assert patches.series_error <= mp.mpf(2) ** -prec * max(abs(v) for v in read.values())


def test_a_count_that_misses_the_budget_is_followed_by_the_next(monkeypatch):
    # the count estimate forced to one patch at T = 1000: its bound misses
    # the budget, and the window is built again at two
    tiled, orders, prec = [], (1, 2), 64
    tile = hardy._TaylorPatches._tile

    def recorded(self, lo, hi, count, radius):
        tiled.append(count)
        tile(self, lo, hi, count, radius)

    monkeypatch.setattr(hardy._TaylorPatches, "_first_count",
                        staticmethod(lambda lo, hi: 1))
    monkeypatch.setattr(hardy._TaylorPatches, "_tile", recorded)
    with working_precision(prec):
        T = mp.mpf(1000)
        patches = _explore_patches(T, orders, prec)
        read = _explore_reads(patches, T, orders, prec)
    assert tiled == [1, 2] and patches.count == 2
    assert patches.series_error <= mp.mpf(2) ** -prec * max(abs(v) for v in read.values())


class _SizedBothWays(hardy._TaylorPatches):
    """_TaylorPatches that also sizes every pass by the walk of
    tests/patch_size_oracle.py: sizes holds (search, walk) for each _size
    call, and walk_majorants the z_log_majorant keys the walk would have
    computed, on top of each tiling's radius-r bounds."""

    def __init__(self, *args):
        self.sizes, self.walk_majorants = [], set()
        super().__init__(*args)

    def _size(self, log_budget):
        self.walk_majorants.update((abs(c), self._r) for c in self._centres)

        def log_majorant(c, R):
            self.walk_majorants.add((abs(c), R))
            known = self._log_majorants.get((abs(c), R))
            return z_log_majorant(c, R) if known is None else known

        size = super()._size(log_budget)
        self.sizes.append((size, walk_size(self, log_budget, log_majorant)))
        return size


def _explore_orders(T):
    """The orders theorem1_explore(T, 0.3, 2) reads."""
    m = int(mp.floor(mp.mpf("0.3") * mp.log(T) * mp.log(mp.log(T))))
    m = max(1, min(m, 2))
    return list(range(1, 2 * m, 2)) + [2 * m]


@pytest.fixture(scope="module")
def sized_patches():
    """(T, prec) -> the _SizedBothWays patches of explore T at prec, each
    built once."""
    built = {}

    def build(T, prec):
        if (T, prec) not in built:
            with working_precision(prec):
                Tm = mp.mpf(T)
                built[T, prec] = _SizedBothWays(Tm - 2 * mp.pi, Tm + 2 * mp.pi,
                                                _explore_orders(Tm), prec)
        return built[T, prec]

    return build


@pytest.mark.parametrize("T, prec, most_majorants", [
    (55, 64, None), (57.5, 64, None), (60, 64, 10), (62.5, 64, None), (65, 64, None),
    (100, 64, None), (300, 64, "walk"), (1000, 64, "walk"), (3000, 64, "walk"),
    (10000, 64, "walk"), (57.5, 128, None)])
def test_size_search_finds_the_walks_points_and_bits(sized_patches, T, prec, most_majorants):
    # the walk computed 16 majorants at T = 60: 15 radii and the r-circle.
    # The same R too, the first of any radii that tie on M, keeps
    # series_error as the walk had it
    patches = sized_patches(T, prec)
    assert patches.sizes
    for size, walk in patches.sizes:
        assert size == walk
    calls = len(patches._log_majorants)
    if most_majorants == "walk":
        assert calls <= len(patches.walk_majorants)
    elif most_majorants is not None:
        assert calls <= most_majorants


@pytest.mark.parametrize("T, start", [(60, 0), (1000, 14)])
def test_size_search_finds_the_walks_points_from_either_end(monkeypatch, T, start):
    # the model starts explore 60 at j = 15 and explore 1000 at j = 5, by
    # their least M; from the far end the search must step the whole way
    monkeypatch.setattr(_SizedBothWays, "_first_radius", lambda self, budget, radii: start)
    with working_precision(64):
        T = mp.mpf(T)
        patches = _SizedBothWays(T - 2 * mp.pi, T + 2 * mp.pi, _explore_orders(T), 64)
    assert patches.sizes
    for size, walk in patches.sizes:
        assert size == walk


@pytest.mark.parametrize("T", [60, 1000])
def test_fixed_point_read_is_within_its_rounding_term(sized_patches, T):
    # every grid read of explore T and the window's two ends (|x| = 1),
    # read exactly (the ambient precision holds every fixed-point bit),
    # against mpf Horner at 2 x bits over the same stored series
    prec = 64
    patches = sized_patches(T, prec)
    F, (man, exp) = patches.read_bits, patches._radius_bits
    with working_precision(prec):
        T = mp.mpf(T)
        points = _explore_grid(T, prec) + [T - 2 * mp.pi, T + 2 * mp.pi]
    with mp.workprec(2 * patches.bits):
        d = mp.ldexp(man, exp - 1)
        for u in points:
            i = min(int((u - patches.lo) / patches.width), patches.count - 1)
            x = (u - patches.centres[i]) / d
            assert abs(x) <= 1 + mp.mpf(2) ** -60
            for k in patches._orders:
                b = [mp.ldexp(c, -F) for c in patches.series[i][k]]
                exact = mp.mpf(0)
                for c in reversed(b):
                    exact = exact * x + c
                term = mp.ldexp(2 * len(b) + sum(n * abs(c) for n, c in enumerate(b)), -F)
                assert abs(patches.derivative(u, k) - exact) <= term, (u, k)


def test_batch_matches_single():
    vals = z_derivatives_batch(60, [1, 4], prec=PREC)
    for k in (1, 4):
        single = z_derivatives_batch(60, [k], prec=PREC)[k]
        assert abs(vals[k] - single) < mp.mpf(10) ** -25 * max(1, abs(single))


def test_patches_match_the_per_point_contour():
    prec = 64
    with working_precision(prec):
        T = mp.mpf(60)
        patches = _explore_patches(T, [1, 2], prec)
        step = mp.pi / (8 * theta_prime(T, prec=prec))
        # grid points of explore 60; the window's ends sit farthest from a centre
        grid = [T - 2 * mp.pi + j * step for j in (0, 12, 24, 36)]
        read = [{k: patches.derivative(u, k) for k in (1, 2)} for u in grid]
    for u, vals in zip(grid, read):
        ref = z_derivatives_batch(u, [1, 2], prec=prec)
        for k in (1, 2):
            assert abs(vals[k] - ref[k]) <= mp.mpf(10) ** -20 * abs(ref[k])


@pytest.mark.parametrize("run, patches, builds", [
    # one patch of radius 4 pi, built once: J = 54 at 130 bits, N = 37
    (lambda: theorem1_explore("60", "0.3", 2, prec=64), 1, 1),
    (lambda: z_derivatives_batch(60, [1, 2], prec=64), 1, 1),
    # |Z'(60)| = 0.27: the build sized for a read of 1 already meets the
    # budget of the read
    (lambda: z_derivatives_batch(60, [1], prec=64), 1, 1),
    # |Z^(3)(3)| = 0.039: the build sized for a read of 1 misses the
    # budget of the read, and the patch is built once more
    (lambda: z_derivatives_batch(3, [3], prec=128), 1, 2),
], ids=["explore", "batch", "batch-small-read", "batch-resized"])
def test_contour_zeta_budget(monkeypatch, run, patches, builds):
    # each build reads one Dirichlet table a patch, and nothing on the
    # patches' path calls the library zeta
    tables, built, library = [], [], []
    dirichlet_table = zeta._dirichlet_table
    patches_class = hardy._TaylorPatches

    def counted_table(*args, **kwargs):
        tables.append(args)
        return dirichlet_table(*args, **kwargs)

    class Recorded(patches_class):
        def __init__(self, *args, **kwargs):
            self.builds = 0
            super().__init__(*args, **kwargs)
            built.append(self)

        def _build(self):
            self.builds += 1
            super()._build()

    monkeypatch.setattr(zeta, "_dirichlet_table", counted_table)
    monkeypatch.setattr(mp, "zeta", lambda *args, **kwargs: library.append(args))
    monkeypatch.setattr(hardy, "_TaylorPatches", Recorded)
    run()
    assert [(p.count, p.builds) for p in built] == [(patches, builds)]
    assert len(tables) == patches * builds
    assert library == []


def test_the_contours_call_no_loggamma(monkeypatch, capsys):
    # explore and z_derivatives_batch read theta from hardyz.theta's jets,
    # and nothing in src calls loggamma
    def refuse(*args, **kwargs):
        raise AssertionError("mp.loggamma on the contour path")

    monkeypatch.setattr(mp, "loggamma", refuse)
    assert cli.main(["--precision-bits", "64", "explore", "60", "0.3", "2"]) == 0
    assert '"contours": 1' in capsys.readouterr().out
    assert z_derivatives_batch(3, [3], prec=128)[3] != 0


def test_derivative_capacity_guard():
    with pytest.raises(CapacityError):
        z_derivatives_batch(50, [65], prec=PREC)
    with pytest.raises(CapacityError):
        theorem1_explore(60, 100, m_cap=33, prec=PREC)


@pytest.fixture(scope="module")
def zeros_to_100():
    """find_zeros(0, 100] at PREC, and the reads it made (_recorded_reads)."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _recorded_reads(patch)
        zl = find_zeros(0, 100, prec=PREC)
    return zl, calls


def test_first_zero_and_count_to_100(zeros_to_100):
    zl, _ = zeros_to_100
    assert len(zl) == 29
    with working_precision(PREC):
        assert abs(zl.zeros[0].t - mp.mpf(GAMMA_1)) < mp.mpf(10) ** -6
    exp = expected_zero_count(0, 100, prec=PREC)
    assert abs(exp - 29) < 2


def test_zeros_to_100_match_zetazero_inside_sign_change_brackets(zeros_to_100):
    zl, _ = zeros_to_100
    assert len(zl) == 29
    with working_precision(PREC):
        for k, z in enumerate(zl.zeros, start=1):
            assert 0 < z.half_width <= mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
            assert abs(z.t - mp.zetazero(k).imag) < mp.mpf(10) ** -12
            assert (mp.siegelz(z.t - z.half_width) > 0) \
                != (mp.siegelz(z.t + z.half_width) > 0)


def test_zeros_to_100_siegelz_budget(zeros_to_100):
    zl, calls = zeros_to_100
    assert len(zl) == 29
    assert not calls["siegelz"]
    # the scan and the refinement: 221 point reads, 125 of them the scan's
    # (267 z_eval reads with the secant model, 356 when each bracket was
    # refined to 2^-48, 1521 when it was bisected); a Newton read proves
    # every zero, so the fallback reads nothing
    assert not _fallback_reads(calls)
    assert len(_point_reads(calls)) <= 290


def test_zeros_to_100_at_64_bits_are_proved_by_their_bracket_ends(monkeypatch):
    # the error estimates are widest at 64 bits; a Newton read still proves
    # every zero, and no zero takes the fallback
    calls = _recorded_reads(monkeypatch)
    zl = find_zeros(0, 100, prec=64)
    monkeypatch.undo()
    assert len(zl) == 29
    assert all(0 < z.half_width <= mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
               for z in zl.zeros)
    assert not _fallback_reads(calls)


@pytest.fixture(scope="module")
def zeros_480_to_500():
    """find_zeros(480, 500] at PREC, and the reads it made (_recorded_reads)."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _recorded_reads(patch)
        zl = find_zeros(480, 500, prec=PREC)
    return zl, calls


def _assert_zetazeros_in_siegelz_brackets(zl, lo, hi):
    with working_precision(PREC):
        first = int(mp.nzeros(lo)) + 1
        assert len(zl) == int(mp.nzeros(hi)) - first + 1
        for k, z in enumerate(zl.zeros, start=first):
            assert 0 < z.half_width <= mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
            assert (mp.siegelz(z.t - z.half_width) > 0) \
                != (mp.siegelz(z.t + z.half_width) > 0)
            with mp.workdps(20):
                assert abs(z.t - mp.zetazero(k).imag) < mp.mpf(10) ** -12


def test_zeros_480_to_500_match_zetazero_inside_sign_change_brackets(
        zeros_480_to_500):
    zl, _ = zeros_480_to_500
    assert len(zl) == 13
    _assert_zetazeros_in_siegelz_brackets(zl, 480, 500)


def test_zeros_480_to_500_siegelz_budget(zeros_480_to_500):
    zl, calls = zeros_480_to_500
    # above t = 200 the scan and stage 1 read z_rs where it proves the
    # sign, and a zero takes two Newton reads: 26 point reads, 2.0 a zero
    # (38 z_eval reads with the secant model, 70 before it), and no
    # fallback read
    assert not calls["siegelz"]
    assert not _fallback_reads(calls)
    assert len(_point_reads(calls)) <= 2.5 * len(zl)


def test_zeros_the_model_cannot_prove_come_from_the_fallback(monkeypatch,
                                                              zeros_480_to_500):
    # a majorant of e^1000 makes M2 so large that no Newton read proves a
    # zero: the fallback refines each bracket to 2^-48 instead, proves it by
    # its ends, and its zeros are Newton's within the sum of the two
    # half-widths
    model_zeros, _ = zeros_480_to_500
    newton_proves = hardy._newton_proves
    proofs = []

    def recorded_newton_proves(*args):
        proofs.append(newton_proves(*args))
        return proofs[-1]

    refine = hardy.refine_sign_change
    readers = []

    def recorded_refine(f, *args):
        readers.append(f.keywords["em"])
        return refine(f, *args)

    monkeypatch.setattr(hardy, "z_log_majorant", lambda centre, radius: 1000.0)
    monkeypatch.setattr(hardy, "_newton_proves", recorded_newton_proves)
    monkeypatch.setattr(hardy, "refine_sign_change", recorded_refine)
    zl = find_zeros(480, 500, prec=PREC)
    monkeypatch.undo()
    assert proofs and not any(proofs)
    # the fallback, Illinois on z_rs and z_eval (em), refined every bracket
    assert readers.count(True) == 13
    assert len(zl) == len(model_zeros) == 13
    with working_precision(PREC):
        for z, m in zip(zl.zeros, model_zeros.zeros):
            assert 0 < z.half_width <= mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
            assert abs(z.t - m.t) <= z.half_width + m.half_width


# one Gram interval holding one zero in each of the 11 height strata,
# [200 + 800 i/11, 200 + 800 (i+1)/11], of the benchmark's zeros workload
STRATA_WINDOWS = [("235.1203", "236.8532"), ("308.5633", "310.1757"),
                  ("380.7682", "382.2984"), ("454.1589", "455.6262"),
                  ("529.115", "530.5319"), ("598.9806", "600.359"),
                  ("672.4787", "673.823"), ("744.2914", "745.6071"),
                  ("817.2601", "818.5505"), ("890.1802", "891.4484"),
                  ("964.409", "965.6571")]


@pytest.fixture(scope="module")
def strata_counts():
    """mp.nzeros(hi) - mp.nzeros(lo) for each of STRATA_WINDOWS."""
    with mp.workdps(25):
        return [int(mp.nzeros(mp.mpf(hi))) - int(mp.nzeros(mp.mpf(lo)))
                for lo, hi in STRATA_WINDOWS]


@pytest.mark.parametrize("prec", [64, 128, 192])
def test_each_stratum_zero_is_proved_by_the_model_in_three_reads(monkeypatch, prec,
                                                                 strata_counts):
    # two Newton reads a zero, the first where z_rs stops proving signs
    calls = _recorded_reads(monkeypatch)
    found = []
    for lo, hi in STRATA_WINDOWS:
        before = len(_point_reads(calls))
        zl = find_zeros(lo, hi, prec=prec)
        found.append((zl, len(_point_reads(calls)) - before))
    monkeypatch.undo()
    for (zl, reads), count in zip(found, strata_counts):
        assert len(zl) == count
        assert reads <= 2 * count
        with mp.workprec(2 * prec):
            for z in zl.zeros:
                assert z.half_width == mp.mpf(2) ** -ZERO_HALF_WIDTH_BITS
                assert (mp.siegelz(z.t - z.half_width) > 0) \
                    != (mp.siegelz(z.t + z.half_width) > 0)


def _recorded_reads(monkeypatch):
    """Lists of (t, stage) that mp.siegelz, hardy.z_eval and the Newton
    reads, hardy._point_read at J = 2, fill; the stage is the reader that
    asked for the read: z_sign for the scan's z_eval reads, proved_sign for
    the fallback's, newton_zero for a Newton read."""
    calls = {"siegelz": [], "z_eval": [], "newton": []}
    siegelz, z_eval_exact, point_read = mp.siegelz, hardy.z_eval, hardy._point_read

    def recorded_siegelz(t, *args, **kwargs):
        calls["siegelz"].append((t, sys._getframe(1).f_code.co_name))
        return siegelz(t, *args, **kwargs)

    def recorded_z_eval(t, *args, **kwargs):
        calls["z_eval"].append((t, sys._getframe(2).f_code.co_name))
        return z_eval_exact(t, *args, **kwargs)

    def recorded_point_read(t, prec, J):
        if J == 2:
            calls["newton"].append((t, sys._getframe(1).f_code.co_name))
        return point_read(t, prec, J)

    monkeypatch.setattr(mp, "siegelz", recorded_siegelz)
    monkeypatch.setattr(hardy, "z_eval", recorded_z_eval)
    monkeypatch.setattr(hardy, "_point_read", recorded_point_read)
    return calls


def _point_reads(calls):
    """The t of every point read of Z, z_eval's and the Newton reads."""
    return [t for t, _ in calls["z_eval"] + calls["newton"]]


def _fallback_reads(calls):
    """The t of every z_eval read the fallback's Illinois steps made."""
    return [t for t, stage in calls["z_eval"] if stage == "proved_sign"]


def test_zeros_to_200_take_at_most_three_and_a_half_reads_a_zero(monkeypatch):
    # below t = 200 z_rs proves nothing, so Newton starts from the secant
    # root of the scan bracket, up to 1.36 wide: 266 Newton reads for 79
    # zeros, 3.37 a zero and at most 5 (4-6 with the secant model)
    calls = _recorded_reads(monkeypatch)
    zl = find_zeros(14, 200, prec=PREC)
    monkeypatch.undo()
    assert len(zl) == 79
    refinement = [t for t, stage in calls["z_eval"] + calls["newton"] if stage != "z_sign"]
    assert len(refinement) <= 3.5 * len(zl)


def test_zeros_straddling_200_match_zetazero(monkeypatch):
    # the scan and the refinement read z_eval below t = 200 and z_rs or
    # z_eval from 200 on: no siegelz call
    calls = _recorded_reads(monkeypatch)
    zl = find_zeros(196, 203, prec=PREC)
    monkeypatch.undo()
    assert len(zl) == 4
    assert not calls["siegelz"]
    assert any(t < 200 for t, _ in calls["z_eval"])
    _assert_zetazeros_in_siegelz_brackets(zl, 196, 203)


def test_zeros_straddling_200_at_192_bits_read_siegelz_below_200_only(monkeypatch):
    # the same window at 192 bits, where mpmath's siegelz would still run
    # Borwein's algorithm below 200: no siegelz call either
    calls = _recorded_reads(monkeypatch)
    zl = find_zeros(196, 203, prec=192)
    monkeypatch.undo()
    assert len(zl) == 4
    assert not calls["siegelz"]
    assert any(t < 200 for t, _ in calls["z_eval"])
    _assert_zetazeros_in_siegelz_brackets(zl, 196, 203)


def test_zeros_straddling_the_borwein_limit_match_zetazero(monkeypatch):
    # mpmath 1.3.0's siegelz runs Borwein's algorithm up to t = mp.prec + 21,
    # 165 at PREC; find_zeros reads z_eval on both sides of it
    limit = PREC + GUARD_BITS + 21
    calls = _recorded_reads(monkeypatch)
    zl = find_zeros(160, 170, prec=PREC)
    monkeypatch.undo()
    assert not calls["siegelz"]
    assert any(t <= limit for t, _ in calls["z_eval"])
    assert any(t > limit for t, _ in calls["z_eval"])
    _assert_zetazeros_in_siegelz_brackets(zl, 160, 170)


def test_sign_change_within_error_estimate_is_not_certified(monkeypatch):
    # every point read's bound is twice its value, z_eval's and that of Z'
    # too, so no Newton read proves a zero and no bracket end proves its sign
    point_read = hardy._point_read

    def unsure(t, prec, J):
        return tuple(x for value in point_read(t, prec, J)[::2] for x in (value, 2 * abs(value)))

    monkeypatch.setattr(hardy, "_point_read", unsure)
    with pytest.raises(UnconfirmedSignChangeError):
        find_zeros(14, 15, prec=PREC)


@pytest.mark.parametrize("scale, rescans, count", [(8, 1, 29), (200, MAX_RESCANS, 6)])
def test_a_short_count_rescans_at_half_step(monkeypatch, scale, rescans, count):
    # a scan step too long for the zeros' spacing misses close pairs, and
    # the smooth count sends the scan back at half step
    scan_step = hardy._scan_step
    monkeypatch.setattr(hardy, "_scan_step", lambda t: scale * scan_step(t))
    zl = find_zeros(0, 100, prec=64)
    assert zl.rescans == rescans
    assert len(zl) == count
    assert zl.suspected_missing is (rescans == MAX_RESCANS)


@pytest.mark.parametrize("t", [0, 14, 20, 100, 500, 10 ** 4, 10 ** 6])
def test_scan_step_matches_theta_prime(t):
    with working_precision(PREC):
        exact = mp.pi / (4 * theta_prime(max(t, 20), prec=PREC))
        assert abs(hardy._scan_step(t) / exact - 1) < mp.mpf(10) ** -8


def test_count_stats_main_term(zeros_to_100):
    with working_precision(PREC):
        assert abs(n_main(100, prec=PREC) - mp.mpf("28.127")) < 0.01
    zl, _ = zeros_to_100
    cs = count_stats(100, zl, prec=PREC)
    assert cs.n_counted == 29
    with working_precision(PREC):
        assert abs(cs.s_estimate) < 2


def test_guards():
    with pytest.raises(ValueError):
        find_zeros(50, 40, prec=PREC)
    with pytest.raises(ValueError):
        find_zeros(0, mp.inf, prec=PREC)
    with pytest.raises(ValueError):
        count_stats(5, find_zeros(0, 5, prec=PREC), prec=PREC)
    with pytest.raises(ValueError):
        theorem1_explore(10, 0.3, prec=PREC)

