"""Reference counts over F_q that the tests check the Haar sampler and the
exact oracle's residue enumeration against: closed-form cardinalities and a
streaming enumeration of GL(n, F_q).  The library's error bounds use
:func:`nonarch.orbital.full_rank_fraction` instead."""

import itertools
from fractions import Fraction

from nonarch.errors import TooLarge
from nonarch.residue import _det_mod

ENUM_GUARD = 10**8


def counting(n: int, r: int, q: int) -> tuple[int, int, Fraction]:
    """Reference cardinalities:

    * #GL(n, F_q) = prod_{j<n} (q^n - q^j),
    * #S(r x n)   = prod_{w<r} (q^n - q^w)  (full-rank r x n digit matrices),
    * vol(GL(n, O_F)) = prod_{j=1..n} (1 - q^-j) as an exact rational.
    """
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    gl_count = 1
    for j in range(n):
        gl_count *= q**n - q**j
    s_count = 1
    for w in range(r):
        s_count *= q**n - q**w
    volume = Fraction(gl_count, q ** (n * n))
    return gl_count, s_count, volume


def enumerate_gl(n: int, q: int):
    """Yield every invertible n x n matrix over F_q exactly once, as a tuple
    of row tuples.  Streaming; total count matches counting(n, n, q)."""
    if q ** (n * n) > ENUM_GUARD:
        raise TooLarge(f"q^(n^2) = {q**(n*n)} exceeds the enumeration guard {ENUM_GUARD}")
    for flat in itertools.product(range(q), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if _det_mod(rows, q) != 0:
            yield tuple(tuple(row) for row in rows)
