"""Differential tests of FieldElement arithmetic against reference models
written here: exact integers with explicit valuations for Q_p, schoolbook
convolution and long division mod p for F_p((t)), and sympy's residue
square roots.

An element is modelled as ("zero",), ("vanish", g) for the certified
vanishing value O(pi^g), or ("val", ord, unit, rel) with the unit an int below
p^rel (Q_p) or a tuple of rel digits (F_p((t))).  A sum that cancels its whole
window is ("vanish", top) for the top of the window; an operation that raises
is ("exhausted", guaranteed_ord) or ("div0",).  Elements enter and leave the
model through their digits, whatever integer the library stores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.residue_ntheory import sqrt_mod

from nonarch.errors import DivisionByZero, PrecisionExhausted
from nonarch.field import ORD_INF, FieldElement, FieldParams, hensel_sqrt

FIELDS = [
    FieldParams(family, p, prec)
    for family in ("padic", "laurent")
    # 3 (p-1)^2 >= 2^64 at p = 4294967311: F_p((t)) products past 64-bit slots
    for p, prec in ((2, 1), (3, 12), (5, 9), (7, 16), (257, 3), (4294967311, 3))
]
IDS = [f.spec_string() for f in FIELDS]
ODD_FIELDS = [f for f in FIELDS if not f.is_dyadic]
SETTINGS = settings(max_examples=60)


# -- conversions ----------------------------------------------------------------


def unit_of(field, digits):
    if field.family == "padic":
        return sum(d * field.p**i for i, d in enumerate(digits))
    return tuple(digits)


def digits_of(field, unit, rel):
    if field.family == "padic":
        return tuple(unit // field.p**i % field.p for i in range(rel))
    return unit


def model(x: FieldElement):
    if x.is_zero():
        return ("zero",)
    if x.is_vanishing():
        return ("vanish", x.ord)
    return ("val", x.ord, unit_of(x.params, x.digits), x.rel)


def build(field, m) -> FieldElement:
    if m[0] == "zero":
        return FieldElement(field, ORD_INF, None, 0)
    if m[0] == "vanish":
        return FieldElement(field, m[1], None, 0)
    _, o, unit, rel = m
    x = field.element(o, digits_of(field, unit, rel))._truncate_abs(o + rel)
    assert model(x) == m
    return x


def outcome(fn, *args):
    """model of fn(*args), or ("exhausted", g) / ("div0",) when it raises."""
    try:
        return model(fn(*args))
    except PrecisionExhausted as exc:
        return ("exhausted", exc.guaranteed_ord)
    except DivisionByZero:
        return ("div0",)


# -- reference arithmetic ----------------------------------------------------------


def ref_truncate(field, m, new_abs):
    _, o, unit, rel = m
    if new_abs >= o + rel:
        return m
    digits = digits_of(field, unit, rel)[: new_abs - o]
    return ("val", o, unit_of(field, digits), new_abs - o)


def ref_add(field, a, b):
    if a[0] == "zero":
        return b
    if b[0] == "zero":
        return a
    if a[0] == "vanish" and b[0] == "vanish":
        return ("vanish", min(a[1], b[1]))
    if a[0] == "vanish" or b[0] == "vanish":
        hidden, visible = (a, b) if a[0] == "vanish" else (b, a)
        if visible[1] >= hidden[1]:
            return hidden
        return ref_truncate(field, visible, hidden[1])
    p = field.p
    v = min(a[1], b[1])
    top = min(a[1] + a[3], b[1] + b[3])  # the sum is known mod pi^top
    w = top - v
    if field.family == "padic":
        total = (a[2] * p ** (a[1] - v) + b[2] * p ** (b[1] - v)) % p**w
        coeffs = [total // p**i % p for i in range(w)]
    else:
        coeffs = [0] * w
        for o, unit in ((a[1], a[2]), (b[1], b[2])):
            for i, d in enumerate(unit):
                if o - v + i < w:
                    coeffs[o - v + i] += d
        coeffs = [c % p for c in coeffs]
    nonzero = [i for i, c in enumerate(coeffs) if c]
    if not nonzero:
        return ("vanish", top)
    lead = nonzero[0]
    return ("val", v + lead, unit_of(field, coeffs[lead:]), w - lead)


def ref_neg(field, a):
    if a[0] != "val":
        return a
    _, o, unit, rel = a
    if field.family == "padic":
        return ("val", o, (-unit) % field.p**rel, rel)
    return ("val", o, tuple((-d) % field.p for d in unit), rel)


def ref_mul(field, a, b):
    if a[0] == "zero" or b[0] == "zero":
        return ("zero",)
    if a[0] == "vanish" or b[0] == "vanish":
        return ("vanish", a[1] + b[1])
    p, rel = field.p, min(a[3], b[3])
    if field.family == "padic":
        return ("val", a[1] + b[1], a[2] * b[2] % p**rel, rel)
    out = [0] * rel
    for i in range(rel):
        for j in range(rel - i):
            out[i + j] += a[2][i] * b[2][j]
    return ("val", a[1] + b[1], tuple(c % p for c in out), rel)


def ref_inverse(field, a):
    if a[0] == "zero":
        return ("div0",)
    if a[0] == "vanish":
        return ("exhausted", a[1])
    _, o, unit, rel = a
    p = field.p
    if field.family == "padic":
        return ("val", -o, pow(unit, -1, p**rel), rel)
    # long division of 1 by the unit, one quotient digit at a time
    inv0 = pow(unit[0], -1, p)
    remainder = [1] + [0] * (rel - 1)
    quotient = []
    for k in range(rel):
        q = remainder[k] * inv0 % p
        quotient.append(q)
        for i in range(rel - k):
            remainder[k + i] = (remainder[k + i] - q * unit[i]) % p
    return ("val", -o, tuple(quotient), rel)


def ref_agrees(field, a, b):
    """Whether the digits that both operands know coincide: a value is known
    below its abs_prec (ORD_INF for zero, g for O(pi^g), ord + rel for a
    visible value), with digit d_i at position ord + i and 0 elsewhere."""

    def window(m):
        if m[0] == "zero":
            return ORD_INF, {}
        if m[0] == "vanish":
            return m[1], {}
        _, o, unit, rel = m
        return o + rel, {o + i: d for i, d in enumerate(digits_of(field, unit, rel)) if d}

    (top_a, da), (top_b, db) = window(a), window(b)
    top = min(top_a, top_b)
    return {k: d for k, d in da.items() if k < top} == {k: d for k, d in db.items() if k < top}


def ref_sqrt(field, a):
    """Square root of a visible value, or None for a nonsquare: from sympy's
    residue root r_0 <= (p-1)/2, the root r is lifted one digit at a time.
    (r + d pi^k)^2 = r^2 + 2 r_0 d pi^k mod pi^(k+1), so digit k is the d
    with 2 r_0 d = u_k - (digit k of r^2) mod p."""
    _, o, unit, rel = a
    p, u = field.p, digits_of(field, unit, rel)
    roots = sqrt_mod(u[0], p, all_roots=True)
    if o % 2 or not roots:
        return None
    root = [min(roots)]
    for k in range(1, rel):
        m = ("val", 0, unit_of(field, root + [0]), k + 1)
        square = digits_of(field, ref_mul(field, m, m)[2], k + 1)
        root.append((u[k] - square[k]) * pow(2 * root[0], -1, p) % p)
    return ("val", o // 2, unit_of(field, root), rel)


# -- strategies ---------------------------------------------------------------------


@st.composite
def visible(draw, field, ord_=None, digits_prefix=()):
    p = field.p
    o = draw(st.integers(-4, 4)) if ord_ is None else ord_
    rel = draw(st.integers(max(1, len(digits_prefix)), field.precision))
    lead = digits_prefix[:1] or (draw(st.integers(1, p - 1)),)
    rest = list(digits_prefix[1:rel])
    rest += draw(st.lists(st.integers(0, p - 1), min_size=rel - 1 - len(rest), max_size=rel - 1 - len(rest)))
    return ("val", o, unit_of(field, list(lead) + rest), rel)


@st.composite
def operand(draw, field):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ("zero",)
    if kind == 1:
        return ("vanish", draw(st.integers(-4, 8)))
    return draw(visible(field))


@st.composite
def operand_pair(draw, field):
    """Independent operands, or b agreeing with -a on its leading digits so
    that a + b cancels them (all of them, sometimes)."""
    a = draw(operand(field))
    if a[0] != "val" or draw(st.booleans()):
        return a, draw(operand(field))
    neg = ref_neg(field, a)
    digits = digits_of(field, neg[2], neg[3])
    k = draw(st.integers(1, len(digits)))
    return a, draw(visible(field, ord_=a[1], digits_prefix=digits[:k]))


KINDS = ("zero", "vanish", "val")


def of_kind(field, kind):
    if kind == "zero":
        return st.just(("zero",))
    if kind == "vanish":
        return st.integers(-4, 8).map(lambda g: ("vanish", g))
    return visible(field)


@st.composite
def agree_pair(draw, field):
    """Operands of every pair of kinds; a visible b sometimes copies the
    leading digits of a visible a, so that their windows agree."""
    ka, kb = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    a = draw(of_kind(field, ka))
    if ka == kb == "val" and draw(st.booleans()):
        digits = digits_of(field, a[2], a[3])
        k = draw(st.integers(1, len(digits)))
        return a, draw(visible(field, ord_=a[1], digits_prefix=digits[:k]))
    return a, draw(of_kind(field, kb))


# -- tests ----------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_ring_operations_match_reference(field):
    @SETTINGS
    @given(operand_pair(field))
    def check(pair):
        a, b = pair
        x, y = build(field, a), build(field, b)
        assert outcome(lambda: x + y) == ref_add(field, a, b)
        assert outcome(lambda: x - y) == ref_add(field, a, ref_neg(field, b))
        assert outcome(lambda: x * y) == ref_mul(field, a, b)
        assert outcome(lambda: -x) == ref_neg(field, a)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_inverse_matches_reference(field):
    @SETTINGS
    @given(operand(field))
    def check(a):
        assert outcome(build(field, a).inverse) == ref_inverse(field, a)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_full_cancellation_certifies_the_window(field):
    @SETTINGS
    @given(visible(field))
    def check(a):
        x = build(field, a)
        assert model(x + (-x)) == ("vanish", a[1] + a[3]) == ref_add(field, a, ref_neg(field, a))

    check()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_agrees_matches_reference(field):
    @SETTINGS
    @given(agree_pair(field))
    def check(pair):
        a, b = pair
        x, y = build(field, a), build(field, b)
        assert x.agrees(y) == y.agrees(x) == ref_agrees(field, a, b)

    check()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_products_of_largest_digits(field):
    """All digits p-1: every coefficient sum of a Laurent product reaches its
    bound rel * (p-1)^2, which pins the Kronecker slot width."""
    top = ("val", 0, unit_of(field, [field.p - 1] * field.precision), field.precision)
    x = build(field, top)
    assert outcome(lambda: x * x) == ref_mul(field, top, top)


@pytest.mark.parametrize("field", ODD_FIELDS, ids=[f.spec_string() for f in ODD_FIELDS])
def test_hensel_sqrt_matches_reference(field):
    @SETTINGS
    @given(st.one_of(visible(field), visible(field).map(lambda b: ref_mul(field, b, b))))
    def check(a):
        root = hensel_sqrt(build(field, a))
        assert (None if root is None else model(root)) == ref_sqrt(field, a)

    check()
