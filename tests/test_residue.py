"""Residue-field arithmetic, Gauss sums, and the test-side matrix counting
reference."""

from fractions import Fraction

import pytest

from nonarch.errors import DyadicField, TooLarge
from nonarch.residue import gauss_sum, gauss_sum_phase, legendre
from residue_reference import counting, enumerate_gl


def test_legendre_examples():
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1
    assert legendre(4, 5) == 1
    assert legendre(0, 7) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_half_the_units_are_squares(p):
    squares = sum(1 for a in range(1, p) if legendre(a, p) == 1)
    assert squares == (p - 1) // 2


def test_gauss_sum_small_cases():
    g = gauss_sum(1, 3)
    assert g.complex_value == pytest.approx(1j * 3**0.5)
    assert g.symbolic == (1, "i")
    assert gauss_sum(2, 3).complex_value == pytest.approx(-1j * 3**0.5)
    g5 = gauss_sum(1, 5)
    assert abs(g5.complex_value) ** 2 == pytest.approx(5, abs=1e-9)
    assert g5.rho == "1"
    with pytest.raises(DyadicField):
        gauss_sum(1, 2)
    with pytest.raises(ValueError):
        gauss_sum(0, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_sum_magnitude_twist_and_line(p):
    base = gauss_sum(1, p)
    rho_c, _ = gauss_sum_phase(p)
    for a in range(1, p):
        g = gauss_sum(a, p)
        assert abs(abs(g.complex_value) ** 2 - p) <= 1e-9
        assert g.symbolic == (legendre(a, p) * base.sign, base.rho)
        # the sum lies on the line rho_q * R
        assert abs((g.complex_value / rho_c).imag) <= 1e-9


def test_counting_examples():
    assert counting(2, 1, 2) == (6, 3, Fraction(3, 8))
    assert counting(1, 1, 3) == (2, 2, Fraction(2, 3))
    gl, s, _ = counting(2, 2, 3)
    assert gl == 48 and s == 48
    with pytest.raises(ValueError):
        counting(2, 3, 3)


def test_enumerate_gl_counts():
    assert sorted(m[0][0] for m in enumerate_gl(1, 3)) == [1, 2]
    assert sum(1 for _ in enumerate_gl(2, 2)) == counting(2, 1, 2)[0]
    assert sum(1 for _ in enumerate_gl(2, 3)) == 48
    with pytest.raises(TooLarge):
        next(enumerate_gl(5, 7))


def test_enumerate_gl_yields_each_once():
    seen = set(enumerate_gl(2, 3))
    assert len(seen) == 48
