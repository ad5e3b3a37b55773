"""The fixed additive character of the field, the two character-integral
kernels, and exact CharValue arithmetic.

The character chi is trivial on O_F and nontrivial on pi^-1 O_F:

* padic family:   chi(x) = exp(2*pi*i * frac(x)) with frac(x) the rational
  built from the negative-power digits;
* laurent family: chi(x) = exp(2*pi*i * c_{-1}(x) / p) where c_{-1} is the
  coefficient of t^-1.

Two kernels are evaluated in closed form (their independent brute force,
:func:`nonarch.orbital.theta_bruteforce`, averages the exact oracle's tables):

* ``bilinear``: the average of chi(z1*z2*x) over integral pairs (z1, z2),
  equal to q^(-l) for |x| = q^l >= q and 1 otherwise;
* ``square``:   the average of chi(z^2*x) over integral z, whose odd-level
  values involve the Gauss-sum phase, the quadratic character of the unit
  part and a sign depending on the character normalization.

Every finite product of kernel values lies in {0, +-1, +-i} * q^(-m/2);
CharValue stores that set exactly (unit tag plus half-exponent numerator m).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import InsufficientPrecision
from .field import FieldElement, FieldParams
from .residue import gauss_sum, gauss_sum_phase, legendre

KIND_BILINEAR = "bilinear"
KIND_SQUARE = "square"

# unit tags form the cyclic group of order 4 plus an absorbing zero
_UNIT_TO_K = {"+1": 0, "+i": 1, "-1": 2, "-i": 3}
_K_TO_UNIT = {v: k for k, v in _UNIT_TO_K.items()}
_UNIT_TO_COMPLEX = {"0": 0j, "+1": 1 + 0j, "-1": -1 + 0j, "+i": 1j, "-i": -1j}


@dataclass(frozen=True)
class CharValue:
    """Exact value unit * q^(-half_exp/2), unit in {0, +1, -1, +i, -i}."""

    unit: str
    half_exp: int

    def __post_init__(self):
        if self.unit not in _UNIT_TO_COMPLEX:
            raise ValueError(f"bad unit tag {self.unit!r}")
        if self.half_exp < 0:
            raise ValueError("half_exp must be >= 0")
        if self.unit == "0" and self.half_exp != 0:
            object.__setattr__(self, "half_exp", 0)

    @classmethod
    def zero(cls) -> "CharValue":
        return cls("0", 0)

    @classmethod
    def one(cls) -> "CharValue":
        return cls("+1", 0)

    def is_zero(self) -> bool:
        return self.unit == "0"

    def mul(self, other: "CharValue") -> "CharValue":
        if self.is_zero() or other.is_zero():
            return CharValue.zero()
        k = (_UNIT_TO_K[self.unit] + _UNIT_TO_K[other.unit]) % 4
        return CharValue(_K_TO_UNIT[k], self.half_exp + other.half_exp)

    def to_complex(self, q: int) -> complex:
        return _UNIT_TO_COMPLEX[self.unit] * q ** (-self.half_exp / 2)

    def abs_sq(self, q: int) -> Fraction:
        """|value|^2 = q^(-half_exp) exactly (0 for the zero value)."""
        return Fraction(0) if self.is_zero() else Fraction(1, q**self.half_exp)

    def to_json(self) -> dict:
        return {"unit": self.unit, "half_exp": self.half_exp}

    @classmethod
    def from_json(cls, obj: dict) -> "CharValue":
        return cls(obj["unit"], int(obj["half_exp"]))


def charvalue_product(values: Iterable[CharValue]) -> CharValue:
    out = CharValue.one()
    for v in values:
        out = out.mul(v)
        if out.is_zero():
            return out
    return out


# ---------------------------------------------------------------------------
# the additive character
# ---------------------------------------------------------------------------


def chi(x: FieldElement) -> complex:
    """chi(x); requires every negative-power digit of x to be stored."""
    if x.is_zero() or x.ord >= 0:
        return 1 + 0j
    ell = -x.ord
    if x.is_vanishing() or x.rel < ell:
        raise InsufficientPrecision(
            f"element with ord {x.ord} stores only {x.rel} digits; "
            f"the {ell} negative-power digits are needed"
        )
    p, pows = x.params.p, x.params._ring[0]
    if x.params.family == "padic":
        return cmath.exp(2j * cmath.pi * ((x.unit % pows[ell]) / pows[ell]))
    return cmath.exp(2j * cmath.pi * (x.unit // pows[ell - 1] % pows[1]) / p)  # the coefficient of t^-1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def square_kernel_sign(params: FieldParams) -> int:
    """The sign s in {-1, +1} with avg_z chi(z^2 pi^-1) = s * rho_q * q^(-1/2).
    In both families chi(z^2 pi^-1) = exp(2 pi i z_0^2 / p), z_0 = z mod pi,
    so the average is exactly G(1) / p and s is the sign that
    :func:`gauss_sum` computes by direct summation (it raises ArithmeticError
    unless G(1) = +-rho_q sqrt(p)).  Computed, never assumed."""
    params.require_nondyadic("the square kernel")
    return gauss_sum(1, params.p).sign


def theta_closed(x: FieldElement, kind: str = KIND_SQUARE) -> CharValue:
    """Exact closed-form kernel value at x.

    bilinear: q^(-l) for |x| = q^l >= q, else 1   (always a real power of q);
    square:   1 for |x| <= 1; q^(-l/2) for even l >= 2; for odd l the unit is
    s * rho_q * legendre(unit part), with s = square_kernel_sign.
    """
    if x.is_vanishing():
        if x.ord >= 0:
            return CharValue.one()
        raise InsufficientPrecision("kernel argument not resolved")
    ell = None if x.is_zero() else -x.ord
    if kind == KIND_BILINEAR:
        if ell is None or ell <= 0:
            return CharValue.one()
        return CharValue("+1", 2 * ell)
    if kind != KIND_SQUARE:
        raise ValueError(f"unknown kernel kind {kind!r}")
    params = x.params
    params.require_nondyadic("the square kernel")
    if ell is None or ell <= 0:
        return CharValue.one()
    if ell % 2 == 0:
        return CharValue("+1", ell)
    s = square_kernel_sign(params) * legendre(x.leading_digit(), params.p)
    _, rho_tag = gauss_sum_phase(params.q)
    if rho_tag == "1":
        unit = "+1" if s == 1 else "-1"
    else:
        unit = "+i" if s == 1 else "-i"
    return CharValue(unit, ell)
