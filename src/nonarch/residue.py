"""The prime residue field F_p, its elements plain ints in [0, p): Legendre
symbols, quadratic Gauss sums, and the determinant mod p behind
:meth:`MatF.is_gl` (the full-rank fraction of the orbital error bounds is
:func:`nonarch.orbital.full_rank_fraction`).

Gauss sums are returned both as floating complex numbers (direct summation)
and symbolically as sign * rho_q * sqrt(q), where rho_q is 1 for q = 1 mod 4
and i for q = 3 mod 4.  The symbolic form is exact and feeds CharValue
arithmetic without floating drift.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DyadicField


def legendre(a: int, p: int) -> int:
    """Quadratic character of F_p extended by 0 at 0: +1 on nonzero squares,
    -1 on nonsquares (Euler's criterion)."""
    value = a % p
    if value == 0:
        return 0
    e = pow(value, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def gauss_sum_phase(q: int) -> tuple[complex, str]:
    """The fourth-root-of-unity constant of the quadratic Gauss sum:
    (1, '1') for q = 1 mod 4 and (i, 'i') for q = 3 mod 4."""
    if q % 2 == 0:
        raise DyadicField("gauss_sum_phase needs odd q")
    return (1 + 0j, "1") if q % 4 == 1 else (1j, "i")


@dataclass(frozen=True)
class GaussSumResult:
    """sum_{x in F_p} exp(2*pi*i*a*x^2/p), numerically and as sign*rho*sqrt(p)."""

    complex_value: complex
    sign: int  # +1 or -1
    rho: str  # '1' or 'i'
    p: int

    @property
    def symbolic(self) -> tuple[int, str]:
        return (self.sign, self.rho)


def gauss_sum(a: int, p: int) -> GaussSumResult:
    """Direct-summation quadratic Gauss sum for the standard character
    tau(x) = exp(2*pi*i*x/p), twisted by a != 0."""
    value = a % p
    if p % 2 == 0:
        raise DyadicField("Gauss sums are computed for odd p only")
    if value == 0:
        raise ValueError("gauss_sum requires a != 0")
    total = sum(cmath.exp(2j * cmath.pi * ((value * x * x) % p) / p) for x in range(p))
    rho_c, rho_s = gauss_sum_phase(p)
    ratio = total / (rho_c * p**0.5)
    sign = 1 if ratio.real > 0 else -1
    if abs(ratio - sign) > 1e-9:
        raise ArithmeticError(f"Gauss sum for p={p}, a={value} is not sign*rho*sqrt(p): {total}")
    return GaussSumResult(total, sign, rho_s, p)


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination on a small copy."""
    n = len(rows)
    a = [[v % p for v in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = (det * a[k][k]) % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            if a[i][k]:
                f = (a[i][k] * inv) % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p

