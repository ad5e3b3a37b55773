"""Oracles computed apart from nonarch.

* Singular exponents from sympy's invariant factors: over ``ZZ`` for an
  integer matrix read in Q_p, over ``GF(p)[t]`` for a polynomial matrix read
  in F_p((t)).
* Determinants over the same rings, for the square-class check of the
  symmetric decomposition.
* A brute-force orbital integral for n <= 2 that enumerates GL(n, O/pi^L)
  with Python integers and shares no code with ``nonarch.orbital``.

Nothing here imports nonarch.  sympy is imported on first use: the
benchmark computes its oracles in a child process, and the process it
measures never loads sympy.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter

NEG_INF = -math.inf
TWO_SIDED = "two_sided"
CONGRUENCE = "congruence"


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _poly_ring(p: int):
    from sympy import GF, Symbol

    return GF(p)[Symbol("t")]


def _poly(ring, coeffs):
    """Element sum_i coeffs[i] t^i of GF(p)[t]."""
    terms = {(i,): int(c) for i, c in enumerate(coeffs) if int(c) % ring.domain.mod}
    return ring.ring.from_dict(terms) if terms else ring.zero


def _poly_ord(f) -> int:
    return min(m[0] for m, _ in f.terms())


def _poly_unit_constant(f, p: int) -> int:
    """Constant term of f / t^ord(f)."""
    v = _poly_ord(f)
    return int(dict(f.terms())[(v,)]) % p


def _exponents(factors, n: int, valuation, scale: int) -> tuple:
    exps = sorted((scale - valuation(d) for d in factors if d), reverse=True)
    return tuple(exps) + (NEG_INF,) * (n - len(exps))


def _domain_matrix(rows, p: int, family: str):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    if family == "padic":
        return DomainMatrix([[ZZ(int(v)) for v in r] for r in rows], (n, n), ZZ)
    ring = _poly_ring(p)
    return DomainMatrix([[_poly(ring, v) for v in r] for r in rows], (n, n), ring)


def singular_exponents(rows, p: int, family: str, scale: int = 0) -> tuple:
    """Singular exponents (non-increasing, -inf for a zero invariant factor)
    of pi^-scale * rows.  ``rows`` holds integers (padic) or coefficient lists
    of polynomials in t over F_p (laurent)."""
    from sympy.polys.matrices.normalforms import invariant_factors

    n = len(rows)
    if n == 0:
        return ()
    factors = invariant_factors(_domain_matrix(rows, p, family))
    if family == "padic":
        return _exponents(factors, n, lambda d: _vp(int(d), p), scale)
    return _exponents(factors, n, _poly_ord, scale)


def determinant_ord_and_unit(rows, p: int, family: str):
    """(ord, residue of the unit part) of det(rows), or None when det = 0."""
    det = _domain_matrix(rows, p, family).det()
    if not det:
        return None
    if family == "padic":
        d = int(det)
        v = _vp(d, p)
        return v, (d // p**v) % p
    return _poly_ord(det), _poly_unit_constant(det, p)


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# brute-force orbital integral
# ---------------------------------------------------------------------------


def _laurent_mul(a: int, b: int, p: int, level: int) -> int:
    """Product in F_p[t]/t^level, elements packed base p (digit i = coefficient of t^i)."""
    da = [(a // p**i) % p for i in range(level)]
    db = [(b // p**i) % p for i in range(level)]
    out = 0
    for k in range(level):
        c = sum(da[i] * db[k - i] for i in range(k + 1)) % p
        out += c * p**k
    return out


def _unit_det(g, p: int) -> bool:
    if len(g) == 1:
        return g[0][0] % p != 0
    return (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p != 0


def _gl_level(n: int, p: int, level: int):
    """Every element of GL(n, O/pi^level), entries packed as integers in
    [0, p^level); invertibility only reads the residues mod p, which for
    both families are the entries mod p."""
    reps = range(p**level)
    for flat in itertools.product(reps, repeat=n * n):
        g = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _unit_det(g, p):
            yield g


def _phase(terms, p: int, family: str, level: int) -> complex:
    """chi(sum over terms of pi^-m * v) for terms (m, v) with v in O/pi^level."""
    if family == "padic":
        M = p**level
        s = sum(v * p ** (level - m) for m, v in terms) % M
        return cmath.exp(2j * cmath.pi * s / M)
    c = sum((v // p ** (m - 1)) % p for m, v in terms) % p
    return cmath.exp(2j * cmath.pi * c / p)


def brute_orbital_integral(family: str, p: int, kind: str, D, A, level: int) -> complex:
    """Average of chi(tr(g1 D g2 A)) (two-sided) or chi(tr(g D g^t A))
    (congruence) over GL(n, O/pi^level), with D = diag(pi^-d_j) and
    A = diag(pi^-a_i).  Exact once level >= max(a_i + d_j).  The sum over
    pairs is grouped by the entries the integrand reads, with multiplicities."""
    n, r = len(D), len(A)
    if not 1 <= r <= n <= 2:
        raise ValueError("the brute-force oracle covers 1 <= r <= n <= 2")
    mul = (lambda a, b: a * b % p**level) if family == "padic" else (lambda a, b: _laurent_mul(a, b, p, level))
    cells = [(i, j, A[i] + D[j]) for i in range(r) for j in range(n) if A[i] + D[j] >= 1]
    if not cells:
        return 1 + 0j
    if max(m for _, _, m in cells) > level:
        raise ValueError("level below the stability level")
    mats = list(_gl_level(n, p, level))
    if kind == CONGRUENCE:
        total = sum(_phase([(m, mul(g[i][j], g[i][j])) for i, j, m in cells], p, family, level) for g in mats)
        return total / len(mats)
    left = Counter(tuple(g[i][j] for i, j, _ in cells) for g in mats)
    right = Counter(tuple(g[j][i] for i, j, _ in cells) for g in mats)
    total = 0j
    for u, cu in left.items():
        for v, cv in right.items():
            terms = [(m, mul(x, y)) for (_, _, m), x, y in zip(cells, u, v)]
            total += cu * cv * _phase(terms, p, family, level)
    return total / (len(mats) ** 2)
