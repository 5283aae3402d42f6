"""Unit tests for the Bernoulli/Chebyshev substrate."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from hardyz import polynomials as P
from hardyz.precision import working_precision

PREC = 192
TOL = mp.mpf(2) ** (-(PREC - 32))


def test_bernoulli_odd_at_half_is_zero():
    with working_precision(PREC):
        assert P.bernoulli_poly_exact(3, Fraction(1, 2)) == 0
        assert P.bernoulli_poly_exact(5, Fraction(1, 2)) == 0
        assert abs(P.bernoulli_poly(3, mp.mpf(0.5), prec=PREC)) < TOL


def test_bernoulli_b2_at_zero():
    assert P.bernoulli_poly_exact(2, Fraction(0)) == Fraction(1, 6)


def test_bernoulli_odd_reflection_about_half():
    with working_precision(PREC):
        y = mp.mpf("0.3")
        lhs = P.bernoulli_poly(5, mp.mpf(0.5) + y, prec=PREC)
        rhs = -P.bernoulli_poly(5, mp.mpf(0.5) - y, prec=PREC)
        assert abs(lhs - rhs) < TOL


def test_bernoulli_derivative_relation_exact():
    # B_n'(x) = n B_{n-1}(x) on the coefficient level
    for n in range(1, 65):
        cs = P.bernoulli_poly_coeffs(n)
        dcs = [i * c for i, c in enumerate(cs)][1:]
        target = [Fraction(n) * c for c in P.bernoulli_poly_coeffs(n - 1)]
        assert dcs == target


def test_even_shift_symmetry_coefficient_level():
    # x -> B_2m(1/2 + x) has no odd-power coefficients
    for m in range(1, 9):
        cs = P.bernoulli_poly_coeffs(2 * m)
        shifted = [Fraction(0)] * (2 * m + 1)
        for k, c in enumerate(cs):
            # expand c * (1/2 + x)^k
            for i in range(k + 1):
                from math import comb
                shifted[i] += c * comb(k, i) * Fraction(1, 2 ** (k - i))
        assert all(shifted[i] == 0 for i in range(1, 2 * m + 1, 2))


def test_chebyshev_values():
    def chebyshev(j, x, prec):
        """T_j(x), chebyshev_rows' row j at one point."""
        return P.chebyshev_rows([x], j, prec=prec)[j][0]

    with working_precision(PREC):
        assert abs(chebyshev(2, mp.mpf(0.5), prec=PREC) + mp.mpf(0.5)) < TOL
        assert chebyshev(0, mp.mpf("0.77"), prec=PREC) == 1
        y = mp.mpf("0.23")
        lhs = mp.cos(7 * mp.pi * (mp.mpf(0.5) + y))
        rhs = (-1) ** 7 * chebyshev(7, mp.sin(mp.pi * y), prec=PREC)
        assert abs(lhs - rhs) < TOL


def test_chebyshev_deriv_at_one_small_cases():
    assert P.chebyshev_deriv_at_one(2, 1) == 4
    assert P.chebyshev_deriv_at_one(3, 1) == 24
    assert P.chebyshev_deriv_at_one(4, 1) == 80
    with pytest.raises(ValueError):
        P.chebyshev_deriv_at_one(1, 1)


def test_fourier_partial_sum_within_tail():
    with working_precision(PREC):
        for l in (1, 2, 3):
            x = mp.mpf("0.37")
            val, tail = P.bernoulli_fourier_partial(l, x, 10 ** 4, prec=PREC)
            direct = P.bernoulli_poly(2 * l, x, prec=PREC)
            assert abs(val - direct) <= tail
            sym, _ = P.bernoulli_fourier_partial(l, 1 - x, 10 ** 4, prec=PREC)
            assert abs(val - sym) < TOL


def test_degree_overflow():
    with pytest.raises(P.DegreeOverflowError):
        P.bernoulli_poly(300, mp.mpf(0.5), prec=PREC)


def _akiyama_tanigawa(n):
    """B_0..B_n by the Akiyama-Tanigawa triangle, flipped to B_1 = -1/2."""
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    out[1] = Fraction(-1, 2)
    return out


def test_bernoulli_numbers_match_the_akiyama_tanigawa_recurrence():
    assert list(P.bernoulli_numbers(256)) == _akiyama_tanigawa(256)


def test_bernoulli_numbers_match_bernfrac_to_the_maximum_degree():
    assert list(P.bernoulli_numbers(P.MAX_DEGREE)) == \
        [Fraction(*mp.bernfrac(k)) for k in range(P.MAX_DEGREE + 1)]


def test_bernoulli_numbers_of_every_small_n_read_one_table():
    # ascending and descending n both give B_0..B_n of the full table
    full = P._tangent_bernoulli(40)
    for n in list(range(41)) + list(range(40, -1, -1)):
        assert P.bernoulli_numbers(n) == full[:n + 1]


def test_bernoulli_numbers_are_computed_once():
    assert P.bernoulli_numbers(40) is P.bernoulli_numbers(40)


def test_cached_mpf_coefficients_are_bit_identical():
    for prec in (128, 192):
        with working_precision(prec):
            fresh = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                     for c in P.bernoulli_poly_coeffs(14)]
            assert list(P.bernoulli_poly_mpf(14)) == fresh
            assert P.bernoulli_poly_mpf(14) is P.bernoulli_poly_mpf(14)
    with working_precision(128):
        low = P.bernoulli_poly_mpf(14)
    with working_precision(192):
        assert P.bernoulli_poly_mpf(14) != low


CENTERED_XS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(-2, 7),
               Fraction(9, 4), Fraction(12345, 67891)]


def test_centered_coefficients_expand_b2l_about_one_half():
    # sum_j beta_{2l,2j} (x - 1/2)^(2j) = B_2l(x), exactly
    for l in range(41):
        beta = P.bernoulli_centered_coeffs(2 * l)
        assert len(beta) == l + 1
        for x in CENTERED_XS:
            w = (x - Fraction(1, 2)) ** 2
            assert P.horner(beta, w) == P.bernoulli_poly_exact(2 * l, x)


def test_centered_coefficients_expand_odd_degrees_about_one_half():
    # sum_j beta_{n,2j+1} (x - 1/2)^(2j+1) = B_n(x) for odd n, exactly
    for n in range(1, 82, 2):
        beta = P.bernoulli_centered_coeffs(n)
        assert len(beta) == (n + 1) // 2
        for x in CENTERED_XS:
            y = x - Fraction(1, 2)
            assert y * P.horner(beta, y * y) == P.bernoulli_poly_exact(n, x)


def test_centered_coefficients_refuse_what_the_polynomials_refuse():
    with pytest.raises(ValueError):
        P.bernoulli_centered_coeffs(-1)
    with pytest.raises(P.DegreeOverflowError):
        P.bernoulli_centered_coeffs(P.MAX_DEGREE + 1)


def _zero_start_horner(coeffs, x, zero):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_horner_keeps_fractions_exact():
    cs = [Fraction(1, 3), Fraction(-2, 5), 0, Fraction(7, 11)]
    x = Fraction(3, 7)
    value = P.horner(cs, x)
    assert isinstance(value, Fraction)
    assert value == sum(c * x ** k for k, c in enumerate(cs))


def test_horner_rounds_like_an_mpf_zero_start():
    # coefficients carrying more bits than the ambient precision are rounded
    # in the first step exactly as an mp.mpf(0) start rounds them
    with working_precision(400):
        cs = [mp.mpf(k + 1) / 3 ** (k + 2) * (-1) ** k for k in range(9)]
        x = mp.mpf(5) / 7
    with working_precision(128):
        xm = +x
        for coeffs in (cs, cs[:1]):
            assert P.horner(coeffs, xm)._mpf_ == \
                _zero_start_horner(coeffs, xm, mp.mpf(0))._mpf_


def test_horner_complex_coefficients():
    with working_precision(PREC):
        cs = [mp.mpc(k + 1, -k) / 7 ** k for k in range(6)]
        x = mp.mpf("0.37")
        assert P.horner(cs, x) == _zero_start_horner(cs, x, mp.mpc(0))


@pytest.mark.parametrize("prec", [64, 128, 192, 224])
def test_horner_mpf_path_equals_the_generic_loop(prec):
    # seeded coefficients of degree 0..60, some zero and some carrying more
    # bits than the working precision, at x = 0, x < 0 and |x| > 1
    rng = random.Random(prec)
    with working_precision(prec):
        xs = [mp.mpf(0), mp.mpf(-rng.random()), mp.mpf(rng.random()),
              mp.mpf(rng.uniform(1, 3)), mp.mpf(-rng.uniform(1, 3))]
    for degree in range(61):
        with working_precision(prec + 40):
            coeffs = [mp.mpf(0) if rng.random() < 0.1 else
                      mp.mpf(rng.uniform(-1, 1)) * 2 ** rng.randint(-30, 30) / 3
                      for _ in range(degree + 1)]
        with working_precision(prec):
            for x in xs:
                value = P.horner(coeffs, x)
                assert type(value) is mpf
                assert value._mpf_ == _zero_start_horner(coeffs, x, 0)._mpf_


def test_horner_takes_the_generic_loop_unless_everything_is_mpf(monkeypatch):
    def libmp_step(*args):
        raise AssertionError("the libmp loop ran")

    monkeypatch.setattr(P, "mpf_mul", libmp_step)
    with working_precision(128):
        x = mp.mpf("0.3")
        cases = [([Fraction(1, 3), Fraction(-2, 7)], Fraction(1, 5), Fraction),
                 ([1, -2, 3], 4, int),
                 ([0.5, 1.5], 0.25, float),
                 ([mp.mpc(1, 2), mp.mpf(1)], x, mp.mpc),
                 ([mp.mpf(1), mp.mpf(2)], mp.mpc(0.5, 1), mp.mpc),
                 ([mp.mpf(1), 2], x, mpf),
                 ([mp.mpf(1), mp.mpf(2)], 0.5, mpf)]
        for coeffs, xv, kind in cases:
            value = P.horner(coeffs, xv)
            assert type(value) is kind
            assert value == _zero_start_horner(coeffs, xv, 0)
        assert type(P.horner([], x)) is int and P.horner([], x) == 0
        with pytest.raises(AssertionError, match="libmp"):
            P.horner([x, x], x)


SRC = Path(__file__).resolve().parent.parent / "src" / "hardyz"


def _horner_loops(src: Path):
    """Every `for ... in reversed(...)` loop whose body holds a step
    `a = a * x + c`, as "module:line", outside polynomials.horner."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set()
        if path.stem == "polynomials":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "horner":
                    exempt = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (not isinstance(node, ast.For) or id(node) in exempt
                    or not isinstance(node.iter, ast.Call)
                    or getattr(node.iter.func, "id", None) != "reversed"):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.BinOp)
                        and isinstance(stmt.value.op, ast.Add)
                        and isinstance(stmt.value.left, ast.BinOp)
                        and isinstance(stmt.value.left.op, ast.Mult)
                        and isinstance(stmt.value.left.left, ast.Name)
                        and stmt.value.left.left.id == stmt.targets[0].id):
                    found.append(f"{path.stem}:{node.lineno}")
    return found


def test_horner_is_the_only_horner_loop():
    assert _horner_loops(SRC) == []
