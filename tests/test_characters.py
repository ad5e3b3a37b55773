"""The additive character, CharValue algebra, kernel closed forms vs the
brute-force oracle."""

import cmath
from fractions import Fraction

import pytest

from nonarch.characters import (
    KIND_BILINEAR,
    KIND_SQUARE,
    CharValue,
    charvalue_product,
    chi,
    square_kernel_sign,
    theta_closed,
)
from nonarch.errors import DyadicField, InsufficientPrecision, TooLarge
from nonarch.field import FieldParams
from nonarch.orbital import theta_bruteforce
from nonarch.sampling import RandomStream, uniform_integer


# -- chi -----------------------------------------------------------------------


def test_chi_trivial_on_integers(q3):
    rng = RandomStream(1)
    for i in range(50):
        assert chi(uniform_integer(q3, rng.child(i))) == 1
    assert chi(q3.zero()) == 1


def test_chi_values(q3):
    assert chi(q3.uniformizer_pow(-1)) == pytest.approx(cmath.exp(2j * cmath.pi / 3))
    # 2*pi^-1 + 5: the integer part drops
    x = q3.from_int(2).shift(-1) + q3.from_int(5)
    assert chi(x) == pytest.approx(cmath.exp(4j * cmath.pi / 3))


def test_chi_laurent_uses_coefficient_of_inverse_uniformizer(l3):
    x = l3.element(-2, [1, 2, 1])  # 1*t^-2 + 2*t^-1 + 1
    assert chi(x) == pytest.approx(cmath.exp(2j * cmath.pi * 2 / 3))


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_chi_additivity(family):
    field = FieldParams(family, 5, 12)
    rng = RandomStream(9)
    for i in range(200):
        a = uniform_integer(field, rng.child("a", i)).shift(-int(rng.child("ka", i).integers(4)))
        b = uniform_integer(field, rng.child("b", i)).shift(-int(rng.child("kb", i).integers(4)))
        try:
            s = a + b
        except Exception:
            continue
        assert chi(s) == pytest.approx(chi(a) * chi(b), abs=1e-12)


def test_chi_insufficient_precision(q3):
    x = q3.one().shift(-(q3.precision + 1))
    with pytest.raises(InsufficientPrecision):
        chi(x)


# -- CharValue algebra -----------------------------------------------------------


def test_charvalue_products():
    q2 = CharValue("+1", 2)
    q4 = CharValue("+1", 4)
    assert q2.mul(q4) == CharValue("+1", 6)
    half_i = CharValue("+i", 1)
    assert half_i.mul(half_i) == CharValue("-1", 2)
    assert CharValue.zero().mul(q2) == CharValue.zero()
    assert charvalue_product([q2, half_i, CharValue.one()]) == CharValue("+i", 3)


def test_charvalue_complex_roundtrip():
    v = CharValue("-i", 3)
    z = v.to_complex(3)
    assert abs(z) ** 2 == pytest.approx(27 ** -1)
    assert v.abs_sq(3) == Fraction(1, 27)
    assert CharValue.from_json(v.to_json()) == v


# -- kernels ------------------------------------------------------------------


def test_bilinear_kernel_closed_values(q3):
    assert theta_closed(q3.uniformizer_pow(-2), KIND_BILINEAR) == CharValue("+1", 4)
    assert theta_closed(q3.from_int(7), KIND_BILINEAR) == CharValue.one()
    assert theta_closed(q3.zero(), KIND_BILINEAR) == CharValue.one()


def test_square_kernel_closed_values(q3):
    assert theta_closed(q3.from_int(5), KIND_SQUARE) == CharValue.one()
    assert theta_closed(q3.uniformizer_pow(-2), KIND_SQUARE) == CharValue("+1", 2)
    # odd level: s_chi * rho_3 * legendre(u) with s_chi = +1, rho_3 = i
    assert square_kernel_sign(q3) == 1
    assert theta_closed(q3.uniformizer_pow(-1), KIND_SQUARE) == CharValue("+i", 1)
    eps = q3.eps()
    assert theta_closed(eps.shift(-1), KIND_SQUARE) == CharValue("-i", 1)


def test_square_kernel_dyadic_guard():
    dyadic = FieldParams("padic", 2, 8)
    with pytest.raises(DyadicField):
        theta_closed(dyadic.uniformizer_pow(-1), KIND_SQUARE)


def test_bruteforce_worked_examples(q3):
    assert theta_bruteforce(q3.from_int(2), KIND_SQUARE) == pytest.approx(1.0)
    # 9-term double sum: (1/9) sum chi(z1 z2 / 3) = 1/3
    assert theta_bruteforce(q3.uniformizer_pow(-1), KIND_BILINEAR) == pytest.approx(1 / 3)
    # 3-term sum: (1/3)(1 + 2 e^{2 pi i/3}) = i/sqrt(3); fixes the sign +1
    assert theta_bruteforce(q3.uniformizer_pow(-1), KIND_SQUARE) == pytest.approx(1j / 3**0.5)


@pytest.mark.parametrize("family", ["padic", "laurent"])
@pytest.mark.parametrize("p, level", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_bruteforce_is_the_mean_of_chi(family, p, level):
    # the lift-table average against chi itself, in FieldElement arithmetic
    # over the representatives z = k (digits of k) mod pi^level
    field = FieldParams(family, p, 8)
    zs = [field.from_base_p(k) for k in range(p**level)]
    for u in (field.one(), field.eps(), field.element(0, [1, 2, 1])):
        x = u.shift(-level)
        square = sum(chi(z * z * x) for z in zs) / len(zs)
        bilinear = sum(chi(z1 * z2 * x) for z1 in zs for z2 in zs) / len(zs) ** 2
        assert abs(theta_bruteforce(x, KIND_SQUARE) - square) <= 1e-12
        assert abs(theta_bruteforce(x, KIND_BILINEAR) - bilinear) <= 1e-12


def test_bruteforce_guard_and_digit_window(q3):
    # 3^16 lift pairs exceed the one enumeration guard (8 * 10^6)
    with pytest.raises(TooLarge, match="exceeds the guard"):
        theta_bruteforce(q3.uniformizer_pow(-8), KIND_BILINEAR)
    # two stored digits cannot resolve chi at level 3
    with pytest.raises(InsufficientPrecision):
        theta_bruteforce(FieldParams("padic", 3, 2).uniformizer_pow(-3), KIND_SQUARE)


def test_kernel_oracle_agreement_laurent(l3):
    eps = l3.eps()
    for ell in range(-3, 4):
        for u in (l3.one(), eps, l3.element(0, [1, 2, 1])):
            x = u.shift(ell)
            for kind in (KIND_BILINEAR, KIND_SQUARE):
                assert abs(theta_closed(x, kind).to_complex(3) - theta_bruteforce(x, kind)) <= 1e-9


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_square_kernel_eps_twist_identity(family):
    field = FieldParams(family, 7, 10)
    eps = field.eps()
    for ell in range(-3, 4):
        for u in (field.one(), eps):
            x = u.shift(ell)
            a = theta_closed(x, KIND_SQUARE)
            b = theta_closed(x * eps, KIND_SQUARE)
            assert a.mul(a) == b.mul(b)
            assert not a.mul(a).is_zero()


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_ball_fourier_identity(family):
    # the average of chi(x y) over a ball pi^l O_F is the indicator of
    # y in pi^-l O_F, for l in [-2, 2] and a grid of y
    from nonarch.verification import verify_ball_fourier

    suite = verify_ball_fourier(FieldParams(family, 3, 12))
    assert suite.passed


def test_square_kernel_sign_is_computed(q5, l3):
    # s depends only on the character normalization; for the standard choice
    # it is +1 in both families, but the value is derived, not assumed
    rho_c = 1.0  # 5 = 1 mod 4
    assert square_kernel_sign(q5) == 1
    assert theta_bruteforce(q5.uniformizer_pow(-1), KIND_SQUARE) == pytest.approx(rho_c * 5**-0.5)
    assert square_kernel_sign(l3) in (-1, 1)
    closed = theta_closed(l3.uniformizer_pow(-1), KIND_SQUARE).to_complex(3)
    assert closed == pytest.approx(theta_bruteforce(l3.uniformizer_pow(-1), KIND_SQUARE))
