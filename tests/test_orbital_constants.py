"""The orbital constants that depend only on small integers, each built once
per key and cached: the phase tables of roots of unity, the full-rank
fractions, the subspace counts and shares, and the depth-1 residue grids.
Their arrays are read-only, every cache is bounded, and the exact oracle
built on them returns the values the uncached oracle returned."""

from fractions import Fraction

import pytest

from nonarch.field import FieldParams
from nonarch.orbital import (
    _residue_grid,
    _roots_of_unity,
    _subspace_count,
    _subspace_lattice,
    _subspace_shares,
    exact_orbital_integral,
    full_rank_fraction,
)

CACHES = (_roots_of_unity, full_rank_fraction, _subspace_count, _subspace_lattice, _subspace_shares, _residue_grid)


def test_every_cache_is_bounded():
    for cache in CACHES:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__


@pytest.mark.parametrize(
    "array",
    [
        lambda: _roots_of_unity(9),
        lambda: _subspace_shares(3, 2),
        lambda: _residue_grid(5, 1),
        lambda: _residue_grid(3, 2),
    ],
)
def test_cached_arrays_are_read_only(array):
    a = array()
    with pytest.raises(ValueError):
        a[0] = 0
    with pytest.raises(ValueError):
        a += a


def product_form(n, r, q):
    """The full-rank fraction as the running product it was first written as."""
    x = Fraction(1)
    for w in range(r):
        x *= 1 - Fraction(1, q ** (n - w))
    return x


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 17])
def test_full_rank_fraction_is_the_product_form(q):
    for n in range(13):
        for r in range(n + 1):
            assert full_rank_fraction(n, r, q) == product_form(n, r, q)


# exact_orbital_integral(FieldParams(family, p, 12), kind, D, A, level) at the
# stability level, as (real, imag), recorded from the oracle before its
# constants were cached (numpy 2.4.6 on x86-64 with FMA: numpy's complex
# multiply rounds differently without it).  D and A list exponents k for
# pi^-k, None for 0; the shapes run n = 1..6 and r = 1..3, with repeated
# entries and a zero in either argument.
EXACT_PINS = {
    ("padic", 2, "two_sided", (0,), (1,)): (-1.0, 1.2246467991473532e-16),
    ("padic", 2, "two_sided", (1, 0), (0, 1)): (0.1111111111111111, -2.7214373314385625e-17),
    ("padic", 2, "two_sided", (0, 1, 1, 0), (1, 1)): (0.00027210884353741496, -6.664744485155664e-20),
    ("padic", 2, "two_sided", (2, None, 1), (0, 1, None)): (-0.0011337868480725624, 6.942442172037151e-20),
    ("padic", 2, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.00023752238013176522, 1.7274686184979727e-19),
    ("padic", 2, "congruence", (0,), (1,)): (-1.0, 1.2246467991473532e-16),
    ("padic", 2, "congruence", (1, 0), (0, 1)): (0.3333333333333333, -8.164311994315689e-17),
    ("padic", 2, "congruence", (0, 1, 1, 0), (1, 1)): (0.009523809523809525, 2.8566853003082995e-34),
    ("padic", 2, "congruence", (2, None, 1), (0, 1, None)): (-3.3003444882388755e-17, -0.13468700594029476),
    ("padic", 2, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.0005120327700972862, -1.3377264916441476e-19),
    ("padic", 3, "two_sided", (0,), (1,)): (-0.5, 1.6653345369377348e-16),
    ("padic", 3, "two_sided", (1, 0), (0, 1)): (0.015624999999999998, -1.0408340855860841e-17),
    ("padic", 3, "two_sided", (0, 1, 1, 0), (1, 1)): (3.698224852071005e-06, -3.010959879407476e-21),
    ("padic", 3, "two_sided", (2, None, 1), (0, 1, None)): (-6.16370808678501e-05, 6.843090635016986e-21),
    ("padic", 3, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (9.834916793273511e-06, 1.71673213530744e-20),
    ("padic", 3, "congruence", (0,), (1,)): (-0.4999999999999997, 0.8660254037844386),
    ("padic", 3, "congruence", (1, 0), (0, 1)): (-0.12500000000000003, -0.2165063509461096),
    ("padic", 3, "congruence", (0, 1, 1, 0), (1, 1)): (0.0038461538461538455, -2.5136949555825932e-18),
    ("padic", 3, "congruence", (2, None, 1), (0, 1, None)): (-0.009615384615384616, -0.005551444896054088),
    ("padic", 3, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (-0.004561347743165926, 6.251966844077476e-18),
    ("padic", 5, "two_sided", (0,), (1,)): (-0.24999999999999997, 3.469446951953614e-17),
    ("padic", 5, "two_sided", (1, 0), (0, 1)): (0.0017361111111111106, -4.818676322157799e-19),
    ("padic", 5, "two_sided", (0, 1, 1, 0), (1, 1)): (1.6034620413072348e-08, -4.569181225254149e-24),
    ("padic", 5, "two_sided", (2, None, 1), (0, 1, None)): (-1.4452537865649219e-06, -2.4068310454066216e-23),
    ("padic", 5, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (8.561281826199867e-08, -3.687393926191283e-23),
    ("padic", 5, "congruence", (0,), (1,)): (0.30901699437494734, -5.551115123125783e-17),
    ("padic", 5, "congruence", (1, 0), (0, 1)): (0.015915250468754378, -4.683573805405787e-18),
    ("padic", 5, "congruence", (0, 1, 1, 0), (1, 1)): (-0.00010339123242349054, 4.923061294624392e-20),
    ("padic", 5, "congruence", (2, None, 1), (0, 1, None)): (0.0007429924791667227, -2.0724974633706384e-19),
    ("padic", 5, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.0003109501348937961, -2.077133593877245e-19),
    ("laurent", 2, "two_sided", (0,), (1,)): (-1.0, 1.2246467991473532e-16),
    ("laurent", 2, "two_sided", (1, 0), (0, 1)): (0.1111111111111111, -2.7214373314385625e-17),
    ("laurent", 2, "two_sided", (0, 1, 1, 0), (1, 1)): (0.00027210884353741496, -6.664744485155664e-20),
    ("laurent", 2, "two_sided", (2, None, 1), (0, 1, None)): (-0.0011337868480725624, 6.942442172037151e-20),
    ("laurent", 2, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.00023752238013176522, 1.7274686184979727e-19),
    ("laurent", 2, "congruence", (0,), (1,)): (-1.0, 1.2246467991473532e-16),
    ("laurent", 2, "congruence", (1, 0), (0, 1)): (0.3333333333333333, -8.164311994315688e-17),
    ("laurent", 2, "congruence", (0, 1, 1, 0), (1, 1)): (-0.06666666666666668, 1.866128455843586e-17),
    ("laurent", 2, "congruence", (2, None, 1), (0, 1, None)): (-4.28502795046245e-33, -8.747477136766807e-18),
    ("laurent", 2, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.0005120327700972862, -1.3377264916441476e-19),
    ("laurent", 3, "two_sided", (0,), (1,)): (-0.5, 1.6653345369377348e-16),
    ("laurent", 3, "two_sided", (1, 0), (0, 1)): (0.015624999999999998, -1.0408340855860841e-17),
    ("laurent", 3, "two_sided", (0, 1, 1, 0), (1, 1)): (3.698224852071005e-06, -3.010959879407476e-21),
    ("laurent", 3, "two_sided", (2, None, 1), (0, 1, None)): (-6.16370808678501e-05, 6.843090635016986e-21),
    ("laurent", 3, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (9.834916793273511e-06, 1.71673213530744e-20),
    ("laurent", 3, "congruence", (0,), (1,)): (-0.4999999999999997, 0.8660254037844386),
    ("laurent", 3, "congruence", (1, 0), (0, 1)): (-0.12500000000000003, -0.2165063509461096),
    ("laurent", 3, "congruence", (0, 1, 1, 0), (1, 1)): (0.0038461538461538455, -2.5136949555825932e-18),
    ("laurent", 3, "congruence", (2, None, 1), (0, 1, None)): (-0.009615384615384616, -0.005551444896054088),
    ("laurent", 3, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (-0.004561347743165926, 6.251966844077476e-18),
    ("laurent", 5, "two_sided", (0,), (1,)): (-0.24999999999999997, 3.469446951953614e-17),
    ("laurent", 5, "two_sided", (1, 0), (0, 1)): (0.0017361111111111106, -4.818676322157799e-19),
    ("laurent", 5, "two_sided", (0, 1, 1, 0), (1, 1)): (1.6034620413072348e-08, -4.569181225254149e-24),
    ("laurent", 5, "two_sided", (2, None, 1), (0, 1, None)): (-1.4452537865649219e-06, -2.4068310454066216e-23),
    ("laurent", 5, "two_sided", (1, 0, -1, 0, None, 1), (1, 0, 0)): (8.561281826199867e-08, -3.687393926191283e-23),
    ("laurent", 5, "congruence", (0,), (1,)): (0.30901699437494734, -5.551115123125783e-17),
    ("laurent", 5, "congruence", (1, 0), (0, 1)): (0.015915250468754378, -4.683573805405787e-18),
    ("laurent", 5, "congruence", (0, 1, 1, 0), (1, 1)): (-0.00010339123242349054, 4.923061294624392e-20),
    ("laurent", 5, "congruence", (2, None, 1), (0, 1, None)): (0.0007429924791667227, -2.0724974633706384e-19),
    ("laurent", 5, "congruence", (1, 0, -1, 0, None, 1), (1, 0, 0)): (0.0003109501348937961, -2.077133593877245e-19),
}


@pytest.mark.parametrize("case", list(EXACT_PINS))
def test_exact_values_are_pinned(case):
    family, p, kind, D, A = case
    level = max(a + d for a in A if a is not None for d in D if d is not None)
    value = exact_orbital_integral(FieldParams(family, p, 12), kind, list(D), list(A), level)
    assert value == complex(*EXACT_PINS[case])
