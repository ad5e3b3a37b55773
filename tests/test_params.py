"""Parameter spaces, characteristic functions, semigroup, uniqueness."""

import numpy as np
import pytest

from nonarch.characters import CharValue
from nonarch.errors import EqualParams, InvalidParam
from nonarch.params import (
    DeltaParam,
    OmegaParam,
    canonicalize_omega,
    convolve,
    distinguishing_argument,
    param_from_json,
    probe_grid,
    separate_omega,
    validate,
)
from nonarch.sampling import RandomStream
from nonarch.verification import _random_delta, _random_omega


# -- validation -----------------------------------------------------------------


def test_validate_examples():
    ok, _ = validate(DeltaParam((3, 1, 1), None))
    assert ok
    ok, msg = validate(DeltaParam((1, 3), None))
    assert not ok and "non-increasing" in msg
    ok, msg = validate(OmegaParam(0, (2, 2), (2, 2)))
    assert not ok and "strictly decreasing" in msg
    ok, _ = validate(OmegaParam(None, (2, 2), (2, 1)))
    assert ok


def test_head_absorbs_constant_tail_entries():
    p = DeltaParam((3, 0, 0), 0)
    assert p.head == (3,)
    assert p.entry(1) == 3 and p.entry(2) == 0 and p.entry(100) == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: DeltaParam((1.5, 0.9), None),
        lambda: DeltaParam((True, 0)),
        lambda: DeltaParam((3,), 0.5),
        lambda: DeltaParam((3,), False),
        lambda: OmegaParam(0.5, (1,), ()),
        lambda: OmegaParam(None, (2.0,), ()),
        lambda: OmegaParam(None, (), (np.bool_(True),)),
    ],
    ids=["float-head", "bool-head", "float-tail", "bool-tail", "float-k", "float-kk", "numpy-bool-kkp"],
)
def test_non_integer_parameter_entries_are_invalid(build):
    """A float or bool entry, tail or k would be rounded or read as 0/1 and
    describe another measure; the constructor refuses it."""
    with pytest.raises(InvalidParam):
        build()


def test_numpy_integer_entries_become_ints():
    d = DeltaParam((np.int64(3), np.int32(2)), np.int64(0))
    o = OmegaParam(np.int64(-1), (np.int16(2),), (np.uint8(1),))
    assert d == DeltaParam((3, 2), 0) and o == OmegaParam(-1, (2,), (1,))
    assert all(type(v) is int for v in (*d.head, d.tail, o.k, *o.kk, *o.kkp))
    assert param_from_json(d.to_json()) == d


def test_param_json_roundtrip():
    d = DeltaParam((2, 1), -1)
    o = OmegaParam(0, (2,), (3, 1))
    assert param_from_json(d.to_json()) == d
    assert param_from_json(o.to_json()) == o
    assert param_from_json({"head": [1], "tail": "neginf"}) == DeltaParam((1,), None)


@pytest.mark.parametrize(
    "payload",
    [
        {"head": [1], "tail": None},
        {"head": [1], "tail": {"const": "0"}},
        {"head": [1], "tail": 0},
        {"head": [1.5]},
        {"head": [True]},
        {"head": 3},
        {"k": "x", "kk": [0]},
        {"k": 0.5},
        {"kk": [0, "a"]},
        {"kkp": None},
        [1, 2],
        {"head": [1], "tail": {"const": None}},
        {"k": None},
    ],
)
def test_malformed_param_payloads_are_invalid(payload):
    with pytest.raises(InvalidParam):
        param_from_json(payload)


# -- characteristic function of the two-sided family ------------------------------


def test_char_mu_worked_values():
    p = DeltaParam((2,), None)
    assert p.char_single(0) == CharValue("+1", 4)  # q^-2
    assert p.char_single(-2) == CharValue.one()
    haar = DeltaParam((), 0)
    assert haar.char_single(1) == CharValue.zero()
    assert haar.char_single(0) == CharValue.one()


def test_char_mu_validates(q3):
    bad = DeltaParam((1, 3), None)
    with pytest.raises(InvalidParam):
        bad.char([0])


def test_char_mu_finite_head_sum():
    p = DeltaParam((3, 1), -2)
    # ell = 0: contributions (3, 1), tail negative -> q^-4
    assert p.char_single(0) == CharValue("+1", 8)
    # ell = 3: tail makes it vanish (k + ell = 1 >= 1)
    assert p.char_single(3) == CharValue.zero()


# -- characteristic function of the congruence family -----------------------------


def test_char_nu_single_factor(q3):
    om = OmegaParam(None, (0,), ())
    x = q3.uniformizer_pow(-1)
    assert om.char_single(x) == CharValue("+i", 1)  # s * rho * q^-1/2 with s=+1


def test_char_nu_haar_indicator(q3):
    om = OmegaParam(0, (), ())
    assert om.char_single(q3.from_int(7)) == CharValue.one()
    assert om.char_single(q3.uniformizer_pow(-1)) == CharValue.zero()


def test_char_nu_squared_factor(q3):
    om = OmegaParam(None, (1, 1), ())
    x = q3.one()
    # theta(pi^-1)^2 = (i q^-1/2)^2 = -q^-1
    assert om.char_single(x) == CharValue("-1", 2)


def test_char_nu_multi_argument_product(q3):
    om = OmegaParam(-1, (1,), (0,))
    xs = [q3.one(), q3.uniformizer_pow(-1), q3.eps()]
    values = om.char(xs)
    assert values == [om.char_single(x) for x in xs]
    assert len(values) == 3
    assert all(isinstance(v, CharValue) for v in values)
    d = DeltaParam((1,), None)
    assert d.char([0, 1]) == [d.char_single(0), d.char_single(1)]


# -- semigroup ---------------------------------------------------------------------


def test_oplus_worked_example():
    a = DeltaParam((6, 2, 2), -3)
    b = DeltaParam((4, 3, 0, -1), None)
    assert convolve(a, b) == DeltaParam((6, 4, 3, 2, 2, 0, -1), -3)


def test_oplus_identity_and_homomorphism():
    ident = DeltaParam((), None)
    rng = RandomStream(17)
    for i in range(60):
        a = _random_delta(rng.child("a", i))
        b = _random_delta(rng.child("b", i))
        assert convolve(a, ident) == a
        ab = convolve(a, b)
        for ell in range(-4, 5):
            assert ab.char_single(ell) == a.char_single(ell).mul(b.char_single(ell))


def test_oplus_omega_canonical(q3):
    a = OmegaParam(None, (), (1,))
    b = OmegaParam(None, (), (1,))
    merged = convolve(a, b)
    assert merged == OmegaParam(None, (1, 1), ())
    for x in probe_grid(q3):
        assert merged.char_single(x) == a.char_single(x).mul(b.char_single(x))


def test_oplus_omega_tail_absorption(q3):
    a = OmegaParam(0, (2,), ())
    b = OmegaParam(-2, (1, 0), (3,))
    merged = convolve(a, b)
    ok, _ = validate(merged)
    assert ok and merged.k == 0
    assert all(v > 0 for v in merged.kk + merged.kkp)
    for x in probe_grid(q3):
        assert merged.char_single(x) == a.char_single(x).mul(b.char_single(x))


# -- canonicalization ---------------------------------------------------------------


def test_canonicalize_moves_eps_pairs():
    assert canonicalize_omega(None, (), (1, 1)) == OmegaParam(None, (1, 1), ())


def test_canonicalize_drops_absorbed_levels():
    assert canonicalize_omega(0, (2, 0, -1), ()) == OmegaParam(0, (2,), ())


def test_canonicalize_idempotent(q3):
    rng = RandomStream(23)
    for i in range(100):
        om = _random_omega(rng.child(i))
        again = canonicalize_omega(om.k, om.kk, om.kkp)
        assert again == om


def test_canonicalize_preserves_char(q3):
    raw_k, raw_kk, raw_kkp = -1, (3, 1, 1), (2, 2, 0)
    canon = canonicalize_omega(raw_k, raw_kk, raw_kkp)
    ok, _ = validate(canon)
    assert ok
    for x in probe_grid(q3):
        assert OmegaParam(raw_k, raw_kk, raw_kkp).char_single(x) == canon.char_single(x)


# -- uniqueness ----------------------------------------------------------------------


def test_distinguishing_worked_examples():
    a, b = DeltaParam((1,), None), DeltaParam((0,), None)
    ell = distinguishing_argument(a, b)
    assert ell == 0
    assert (a.char_single(ell), b.char_single(ell)) == (CharValue("+1", 2), CharValue.one())

    a, b = DeltaParam((2, 2), None), DeltaParam((2,), None)
    ell = distinguishing_argument(a, b)
    assert ell == -1
    # paper formula: q^-2 vs q^-1 at ell = -1 (both head entries contribute 1
    # on the left, one on the right)
    assert (a.char_single(ell), b.char_single(ell)) == (CharValue("+1", 4), CharValue("+1", 2))

    a, b = DeltaParam((), 0), DeltaParam((), None)
    ell = distinguishing_argument(a, b)
    assert ell == 1
    assert a.char_single(ell).is_zero() and b.char_single(ell) == CharValue.one()


def test_distinguishing_equal_raises():
    with pytest.raises(EqualParams):
        distinguishing_argument(DeltaParam((1,), None), DeltaParam((1,), None))


def test_distinguishing_separates_random_pairs():
    rng = RandomStream(29)
    done = 0
    i = 0
    while done < 150:
        a, b = _random_delta(rng.child("a", i)), _random_delta(rng.child("b", i))
        i += 1
        if a == b:
            continue
        ell = distinguishing_argument(a, b)
        assert a.char_single(ell) != b.char_single(ell)
        done += 1


def test_omega_probe_grid_separates(q3):
    rng = RandomStream(37)
    done = 0
    i = 0
    while done < 60:
        a, b = _random_omega(rng.child("a", i)), _random_omega(rng.child("b", i))
        i += 1
        if a == b:
            continue
        assert separate_omega(a, b, q3) is not None
        done += 1


def test_separate_omega_is_none_past_the_probe_grid(q3):
    # with no kernel factors each characteristic function is the indicator
    # of pi^k O_F; the two differ only at ord x = 10, and the grid's
    # arguments have ord -6..4, where both vanish
    a, b = OmegaParam(10, (), ()), OmegaParam(11, (), ())
    assert all(a.char_single(x).is_zero() and b.char_single(x).is_zero() for x in probe_grid(q3))
    assert separate_omega(a, b, q3) is None
