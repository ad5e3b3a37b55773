"""Field arithmetic: exactness, ultrametric laws, square roots and classes."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonarch.errors import (
    DivisionByZero,
    DyadicField,
    InvalidParam,
    NotIntegral,
    PrecisionExhausted,
)
from nonarch.field import (
    FieldElement,
    FieldParams,
    hensel_sqrt,
    parse_field_spec,
    square_class,
    square_class_label,
)
from nonarch.matrices import MatF
from nonarch.residue import legendre
from nonarch.sampling import RandomStream, uniform_integer


def unit_stream(field, seed, tag="units"):
    rng = RandomStream(seed)
    i = 0
    while True:
        x = uniform_integer(field, rng.child(tag, i))
        i += 1
        if not x.is_zero() and x.ord == 0:
            yield x


# -- construction and the basic examples -------------------------------------


def test_one_plus_two_carries(q3):
    s = q3.one() + q3.from_int(2)
    assert s.ord == 1 and s.digits[0] == 1
    assert s.agrees(q3.from_int(3))


def test_valuations_add_under_mul(q3):
    a = q3.uniformizer_pow(-2)
    b = q3.uniformizer_pow(3)
    assert (a * b) == q3.uniformizer_pow(1)


def test_inverse_of_two_digit_expansion(q3):
    inv = q3.from_int(2).inverse()
    assert inv.ord == 0
    assert inv.digits[:4] == (2, 1, 1, 1)
    assert (q3.from_int(2) * inv).agrees(q3.one())


def test_ord_abs_examples(q3, q5):
    cases = (
        (q3.zero(), math.inf, Fraction(0)),
        (q3.uniformizer_pow(-2), -2, Fraction(9)),
        (q5.from_int(5), 1, Fraction(1, 5)),
    )
    for x, ord_, abs_ in cases:
        assert (x.ord, x.abs_q()) == (ord_, abs_)


def test_reduce_and_lift_roundtrip(q5, l3):
    assert q5.uniformizer_pow(1).residue() == 0
    x = q5.one() + q5.uniformizer_pow(1) * q5.from_int(3)
    assert x.residue() == 1
    lifted = q5.from_int(2)
    assert lifted.residue() == 2
    with pytest.raises(NotIntegral):
        q5.uniformizer_pow(-1).residue()
    assert q5.zero().residue() == 0
    assert FieldElement(q5, 1, None, 0).residue() == 0  # O(pi^1)
    with pytest.raises(PrecisionExhausted):
        FieldElement(q5, 0, None, 0).residue()  # O(pi^0)
    assert l3.element(0, [2, 1, 1]).residue() == 2


def test_division_by_zero(q3):
    with pytest.raises(DivisionByZero):
        q3.zero().inverse()


def test_precision_exhausted_carries_certificate(q3):
    x = q3.from_int(7)
    v = x - x
    assert v.is_vanishing() and v.ord == q3.precision


def test_field_spec_roundtrip():
    f = parse_field_spec("laurent:p=5,prec=9")
    assert (f.family, f.p, f.precision) == ("laurent", 5, 9)
    assert parse_field_spec(f.spec_string()) == f
    with pytest.raises(InvalidParam):
        parse_field_spec("padic:p=4,prec=3")
    with pytest.raises(InvalidParam):
        parse_field_spec("nonsense")


def test_element_json_roundtrip(q3, l3):
    for f in (q3, l3):
        for x in (f.zero(), f.from_int(7), f.uniformizer_pow(-2), f.element(-1, [2, 1, 0, 1])):
            assert FieldElement.from_json(f, x.to_json()) == x


# -- ultrametric properties ---------------------------------------------------


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_ultrametric_laws(family):
    field = FieldParams(family, 3, 12)
    rng = RandomStream(101)
    for i in range(1000):
        a = uniform_integer(field, rng.child("a", i)).shift(int(rng.child("ka", i).integers(7)) - 3)
        b = uniform_integer(field, rng.child("b", i)).shift(int(rng.child("kb", i).integers(7)) - 3)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).ord == a.ord + b.ord
        s = a + b
        assert s.ord >= min(a.ord, b.ord)
        if a.ord != b.ord:
            assert s.ord == min(a.ord, b.ord)


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_inverse_roundtrip_thousand_units(family):
    field = FieldParams(family, 3, 12)
    gen = unit_stream(field, 55)
    one = field.one()
    for _ in range(1000):
        u = next(gen)
        prod = u * u.inverse()
        assert prod == one  # full window (1, 0, ..., 0)


# -- square roots and square classes -----------------------------------------


def test_hensel_examples(q3):
    assert hensel_sqrt(q3.one()) == q3.one()
    r = hensel_sqrt(q3.from_int(4))
    assert (r * r).agrees(q3.from_int(4))
    assert r.leading_digit() <= 1  # canonical branch
    seven = q3.from_int(7)
    b = hensel_sqrt(seven)
    assert b is not None and (b * b).agrees(seven)
    assert hensel_sqrt(q3.zero()).is_zero()


def test_hensel_requires_odd_p():
    dyadic = FieldParams("padic", 2, 8)
    with pytest.raises(DyadicField):
        hensel_sqrt(dyadic.one())


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_hensel_roundtrip_and_residue_criterion(family):
    field = FieldParams(family, 3, 12)
    gen = unit_stream(field, 77)
    for _ in range(1000):
        beta = next(gen)
        r = hensel_sqrt(beta * beta)
        assert r is not None
        assert r.agrees(beta) or r.agrees(-beta)
        # squareness of a unit depends only on its residue
        expect = legendre(beta.leading_digit(), 3) == 1
        assert (hensel_sqrt(beta) is not None) == expect
    # odd valuation is never a square
    assert hensel_sqrt(next(gen).shift(1)) is None


@settings(max_examples=400)
@given(st.sampled_from(("padic", "laurent")), st.sampled_from((3, 5, 7, 257)), st.data())
def test_hensel_sqrt_lifts_every_digit_of_the_window(family, p, data):
    """The one digit-by-digit lift over both families, at windows up to 40
    digits: half the inputs are squares y * y, so most examples lift."""
    field = FieldParams(family, p, data.draw(st.integers(1, 40), label="precision"))
    rel = data.draw(st.integers(1, field.precision), label="rel")
    lead = data.draw(st.integers(1, p - 1), label="leading digit")
    rest = data.draw(st.lists(st.integers(0, p - 1), min_size=rel - 1, max_size=rel - 1), label="digits")
    k = data.draw(st.integers(-20, 20), label="ord")
    x = field.element(k, [lead, *rest])._truncate_abs(k + rel)
    if data.draw(st.booleans(), label="square"):
        x = x * x
    root = hensel_sqrt(x)
    assert (root is None) == (x.ord % 2 == 1 or legendre(x.leading_digit(), p) == -1)
    if root is not None:
        assert (root.ord, root.rel) == (x.ord // 2, x.rel)
        assert root.leading_digit() <= (p - 1) // 2
        assert root * root == x  # every digit of the window, not only the overlap


def test_nonsquare_unit_choices():
    assert FieldParams("padic", 3, 8).eps() == FieldParams("padic", 3, 8).from_int(2)
    assert FieldParams("padic", 5, 8).eps().leading_digit() == 2
    assert FieldParams("padic", 7, 8).eps().leading_digit() == 3
    assert legendre(FieldParams("padic", 11, 8).eps().leading_digit(), 11) == -1


def test_square_class_examples(q3):
    rep, wit = square_class(q3.zero())
    assert rep.is_zero() and wit == q3.one()

    a = q3.from_int(4).shift(-2)  # 4 * pi^-2, square unit part
    rep, wit = square_class(a)
    assert rep == q3.uniformizer_pow(-2)
    assert (wit * wit * rep).agrees(a)

    b = q3.from_int(2).shift(1)  # 2 * pi = eps * pi
    rep, wit = square_class(b)
    assert square_class_label(rep) == (1, True)
    assert (wit * wit * rep).agrees(b)


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_square_class_properties(family):
    field = FieldParams(family, 5, 12)
    rng = RandomStream(91)
    for i in range(300):
        x = uniform_integer(field, rng.child("x", i)).shift(int(rng.child("k", i).integers(7)) - 3)
        if x.is_zero():
            continue
        rep, wit = square_class(x)
        assert (wit * wit * rep).agrees(x)
        rep2, wit2 = square_class(rep)
        assert rep2 == rep and wit2 == field.one()


# -- vanishing values ----------------------------------------------------------


def test_vanishing_algebra(q3):
    x = q3.from_int(7)
    v = x + (-x)
    assert v.is_vanishing() and v.ord == q3.precision
    assert (v * q3.uniformizer_pow(-2)).ord == q3.precision - 2
    assert v.agrees(q3.zero())
    assert v.agrees(q3.uniformizer_pow(q3.precision))
    assert not v.agrees(q3.one())
    y = v + q3.from_int(5)
    assert y.digits == q3.from_int(5).digits[: y.rel]


# -- shared params, immutability and cached constants ----------------------------


def test_operands_over_equal_params_combine():
    f, g = parse_field_spec("laurent:p=5,prec=9"), parse_field_spec("laurent:p=5,prec=9")
    assert f is not g and f == g
    x, y = f.from_base_p(1234), g.from_base_p(98, ord=-1)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        assert op(x, y) == op(x, f.from_base_p(98, ord=-1))
    assert x.agrees(g.from_base_p(1234))
    from nonarch.matrices import MatF

    assert MatF.from_rows(f, [[x, y]]).entries == (x, y)


def test_operands_over_different_params_raise():
    x = FieldParams("padic", 3, 12).one()
    for other in (FieldParams("padic", 3, 11).one(), FieldParams("laurent", 3, 12).one(), 1):
        for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b, lambda a, b: a.agrees(b)):
            with pytest.raises(TypeError):
                op(x, other)


def test_elements_are_immutable(q3):
    x = q3.from_int(7)
    for attr, value in (("ord", 1), ("unit", 2), ("rel", 3), ("params", q3), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
    assert (x.ord, x.unit, x.rel) == (0, 7, 12)


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"])
def test_values_survive_pickle_and_deepcopy(copy_of):
    # immutable values rebuild through their constructors; a FieldParams
    # rebuilds from its three fields and computes its cached zero, one and
    # ring afresh, so a copy carries none of them
    values = []
    for spec in ("padic:p=3,prec=12", "laurent:p=3,prec=12", "laurent:p=4294967311,prec=12"):
        f = parse_field_spec(spec)
        x = f.element(-2, [1, 2, 0, f.p - 1])
        elements = [f.zero(), FieldElement(f, 5, None, 0), x, f.one(), x * x]
        values += [*elements, f, MatF.from_rows(f, [elements[:2], elements[2:4]])]
    assert len(pickle.dumps(x * x + x)) < 300  # F_4294967311((t)), its ring built by the arithmetic
    for v in values:
        w = copy_of(v)
        assert w == v
        if not isinstance(v, MatF):
            assert hash(w) == hash(v)
        if isinstance(v, FieldParams):  # the copied caches still compute
            y, z = v.element(-1, [2, 1, 1]), w.element(-1, [2, 1, 1])
            assert (z * z, z + z, -z, z.inverse()) == (y * y, y + y, -y, y.inverse())


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_cached_constants_equal_fresh_values(family):
    f = FieldParams(family, 5, 7)
    assert f.zero() is f.zero() and f.one() is f.one()
    fresh_zero = FieldElement(f, math.inf, None, 0)
    fresh_one = f.element(0, [1])
    assert f.zero() == fresh_zero and hash(f.zero()) == hash(fresh_zero)
    assert f.one() == fresh_one and hash(f.one()) == hash(fresh_one)
    assert f.one() == f.uniformizer_pow(0) == f.from_int(1)


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_from_base_p_is_the_complete_digit_expansion(family):
    f = FieldParams(family, 3, 4)
    for n in range(3**6):
        digits = [n // 3**i % 3 for i in range(6)]
        assert f.from_base_p(n, ord=-2) == f.element(-2, digits)
    assert f.from_base_p(-1) == f.element(0, [2] * 4)


@pytest.mark.parametrize("p, prec", [(3, 60), (5, 9), (7, 20), (3037000493, 1)])
def test_laurent_reduction_of_largest_products(p, prec):
    """x = -(1 + t + ... + t^(prec-1)) makes every slot of x^2 reach
    prec (p-1)^2 before it is reduced mod p; at F_3((t)) precision 60 that
    bound, 240, would fill a one-byte slot up to its top bit.  p = 3037000493
    is the largest prime whose 64-bit slots keep a free top bit above it."""
    f = FieldParams("laurent", p, prec)
    x = f.element(0, [p - 1] * prec)
    assert (x * x).digits == tuple((k + 1) % p for k in range(prec))
    assert (x + x).digits == (p - 2,) * prec and (-x).digits == (1,) * prec
    assert x * x.inverse() == f.one()


def test_laurent_product_slots_hold_every_coefficient_sum():
    f = FieldParams("laurent", 4294967291, 1)  # 2 (p-1)^2 >= 2^64: 9-byte slots
    x = f.element(0, [f.p - 1])
    assert (x * x).digits == (1,)
    # 12 (p-1)^2 >= 2^64: 9-byte slots; x = -(1 + t + ... + t^11) makes every
    # coefficient sum of x^2 reach its bound, and x^2 = sum (k+1) t^k
    f = FieldParams("laurent", 4294967311, 12)
    assert f._slot == (None, 9)
    x = f.element(0, [f.p - 1] * 12)
    assert (x * x).digits == tuple(range(1, 13))
    assert x * x.inverse() == f.one()
