"""The residue prime: the Miller-Rabin test, Tonelli-Shanks square roots and
the range of p, checked against sympy (which only the tests import)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime
from sympy.ntheory.residue_ntheory import sqrt_mod

from nonarch.errors import InvalidParam
from nonarch.field import (
    FieldParams,
    _canonical_residue_sqrt,
    _is_prime,
    _sqrt_mod_prime,
)

SETTINGS = settings(max_examples=300)
SMALL_ODD_PRIMES = [p for p in range(3, 2000) if isprime(p)]
# p - 1 = 2^13 * 5, 2^16, 2^18 * 3: many Tonelli-Shanks rounds
TWO_ADIC_PRIMES = [40961, 65537, 786433]


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(-5, 200_000) if _is_prime(n) != isprime(n)] == []


def test_is_prime_matches_sympy_on_pseudoprimes_and_near_2_61_and_2_64():
    pseudoprimes = [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the prime bases up to 31
        318665857834031151167461,  # strong pseudoprime to the prime bases up to 37
    ]
    near = [*range(2**61 - 100, 2**61 + 100), *range(2**64 - 100, 2**64 + 100)]
    assert sum(map(isprime, near)) >= 4  # 2^61 - 1, 2^64 - 59, 2^64 + 13, ...
    assert [n for n in pseudoprimes + near if _is_prime(n) != isprime(n)] == []
    assert not _is_prime(318665857834031151167461)  # why base 41 is in the set


def test_residue_prime_range():
    FieldParams("padic", 2**61 - 1, 4)
    # a prime above the proven range of the test, and the least composite
    # that passes every base up to 41: both refused, naming the bound
    for p in (2**89 - 1, 3317044064679887385961981):
        with pytest.raises(InvalidParam, match="3317044064679887385961981"):
            FieldParams("padic", p, 4)
    with pytest.raises(InvalidParam):
        FieldParams("padic", 3.0, 4)


def test_sqrt_mod_prime_on_every_square_below_2000():
    for p in SMALL_ODD_PRIMES:
        for a in {x * x % p for x in range(1, p)}:
            assert _sqrt_mod_prime(a, p) ** 2 % p == a


@SETTINGS
@given(st.sampled_from(TWO_ADIC_PRIMES), st.data())
def test_sqrt_mod_prime_with_a_large_two_adic_part(p, data):
    a = data.draw(st.integers(1, p - 1)) ** 2 % p
    assert _sqrt_mod_prime(a, p) ** 2 % p == a


@SETTINGS
@given(st.sampled_from(SMALL_ODD_PRIMES + TWO_ADIC_PRIMES), st.data())
def test_canonical_root_matches_sympy(p, data):
    a = data.draw(st.integers(1, p - 1)) ** 2 % p
    r = sqrt_mod(a, p)
    assert _canonical_residue_sqrt(FieldParams("padic", p, 2), a) == min(r, p - r)


def _after_import(expr: str) -> str:
    """What a fresh interpreter that has imported the library prints for expr."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, nonarch, nonarch.cli, nonarch.verification; print({expr})"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return out.stdout.strip()


def test_library_imports_without_sympy():
    assert _after_import("sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')") == "[]"


def test_library_imports_without_openssl():
    # the stream keys take blake2b from _blake2: hashlib would load libcrypto through _hashlib
    assert _after_import("'_hashlib' in sys.modules") == "False"
