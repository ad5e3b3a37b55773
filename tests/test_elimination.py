"""The one elimination rule of the decompositions, checked against sympy's
Smith form (invariant factors over ZZ and GF(p)[t]) and on the inputs that
once exhausted the precision or got wrong digits."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from nonarch.cli import main
from nonarch.field import FieldParams
from nonarch.matrices import AtMost, MatF, singular_numbers, smith_normal_form, sym_diagonalize
from nonarch.sampling import KIND_TWO_SIDED, RandomStream, orbital_push
from nonarch.verification import _random_matrix, _random_symmetric, verify_decompositions

NEG_INF = -math.inf
REPRODUCER = [[1, 6, -2, 16], [79, 15, 4, 49], [0, 0, 27, 0], [236, 39, 14, 131]]


# -- the oracle -------------------------------------------------------------------


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_exponents(rows, field: FieldParams, scale: int = 0) -> tuple:
    """Singular exponents of pi^-scale * rows from sympy's invariant factors:
    ``rows`` holds integers (Q_p) or coefficient lists in t (F_p((t)))."""
    n, p = len(rows), field.p
    if field.family == "padic":
        M = DomainMatrix([[ZZ(v) for v in r] for r in rows], (n, n), ZZ)
        valuation = lambda d: _vp(int(d), p)  # noqa: E731
    else:
        ring = GF(p)[Symbol("t")]
        polys = [[ring.ring.from_dict({(i,): c for i, c in enumerate(v) if c % p}) for v in r] for r in rows]
        M = DomainMatrix(polys, (n, n), ring)
        valuation = lambda d: min(m[0] for m, _ in d.terms())  # noqa: E731
    exps = sorted((scale - valuation(d) for d in invariant_factors(M) if d), reverse=True)
    return tuple(exps) + (NEG_INF,) * (n - len(exps))


def lift(field: FieldParams, rows) -> MatF:
    if field.family == "padic":
        return MatF.from_rows(field, [[field.from_int(v) for v in r] for r in rows])
    return MatF.from_rows(field, [[field.element(0, v) for v in r] for r in rows])


def stored_rows(M: MatF, shift: int):
    """pi^shift * M with the stored digits taken as exact (entries ord >= -shift)."""
    field = M.params
    out = []
    for i in range(M.rows):
        row = []
        for x in M.row(i):
            k = x.ord + shift
            if field.family == "padic":
                row.append(0 if x.is_zero() else sum(d * field.p ** (k + t) for t, d in enumerate(x.digits)))
            else:
                row.append([] if x.is_zero() else [0] * k + list(x.digits))
        out.append(row)
    return out


def assert_exponents(reported, expected):
    assert len(reported) == len(expected)
    for got, want in zip(reported, expected):
        if isinstance(got, AtMost):
            assert want in got, (reported, expected)
        else:
            assert got == want, (reported, expected)


# -- differential test ---------------------------------------------------------------


@st.composite
def snf_inputs(draw):
    family = draw(st.sampled_from(["padic", "laurent"]))
    field = FieldParams(family, draw(st.sampled_from([3, 5])), draw(st.sampled_from([4, 6, 12])))
    p, n = field.p, draw(st.integers(1, 5))
    if family == "padic":
        entry = st.integers(-99, 99)
        combine = lambda cs, es: sum(c * e for c, e in zip(cs, es))  # noqa: E731
        scale = lambda e: e * p * p  # noqa: E731
    else:
        entry = st.lists(st.integers(0, p - 1), max_size=5)
        combine = lambda cs, es: [  # noqa: E731
            sum(c * (e[i] if i < len(e) else 0) for c, e in zip(cs, es)) % p for i in range(max(map(len, es), default=0))
        ]
        scale = lambda e: [0, 0] + list(e)  # noqa: E731
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a dependent last row
        cs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [combine(cs, [r[j] for r in rows[:-1]]) for j in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):  # pi^2-scaled rows
        rows[i] = [scale(e) for e in rows[i]]
    return field, rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(snf_inputs())
def test_snf_matches_sympy_smith_form(case):
    field, rows = case
    A = lift(field, rows)
    expected = oracle_exponents(rows, field)
    res = smith_normal_form(A)
    assert_exponents(res.sing, expected)
    assert res.recompose().agrees(A)
    assert res.a.is_gl() and res.b.is_gl()
    # det is the product of the same pivots: an exact ord, or a bound below it
    det, true_ord = A.det(), -sum(expected)
    if det.is_vanishing():
        assert det.ord <= true_ord
    else:
        assert det.ord == true_ord


# -- regressions -------------------------------------------------------------------------


def test_reproducer_reports_a_bound_and_a_vanishing_det():
    field = FieldParams("padic", 3, 6)
    A = lift(field, REPRODUCER)
    res = smith_normal_form(A)
    assert res.sing[:3] == (0, -3, -3)
    assert isinstance(res.sing[3], AtMost) and NEG_INF in res.sing[3]
    assert res.recompose().agrees(A)
    assert A.det().is_vanishing()


@pytest.mark.parametrize("push", [147, 923])
def test_suite_pushes_keep_the_base_exponents(push):
    # these pushes of the seed-1 suite base once exhausted the precision
    field = FieldParams("padic", 3, 12)
    rng = RandomStream(1).child("decompositions").child("dec", field.spec_string())
    base = _random_matrix(field, rng.child("base"), 4)
    assert singular_numbers(base) == (3, 3, -3, -3)
    assert singular_numbers(orbital_push(base, KIND_TWO_SIDED, rng.child("push", push))) == (3, 3, -3, -3)


@pytest.mark.parametrize("seed,spec,index", [(8, ("padic", 5, 12), 83), (5, ("laurent", 3, 12), 297)])
def test_suite_symmetric_inputs_resolve(seed, spec, index):
    # these symmetric inputs of the suite once raised in mid-elimination
    field = FieldParams(*spec)
    sub = RandomStream(seed).child("decompositions").child("dec", field.spec_string()).child("sym", index)
    A = _random_symmetric(field, sub.child("mat"), int(sub.generator.integers(1, 6)))
    res = sym_diagonalize(A)
    assert res.recompose().agrees(A)
    assert res.g.is_gl()
    ords = sorted((NEG_INF if x.is_zero() else -x.ord for x in res.diag_entries), reverse=True)
    assert tuple(ords) == oracle_exponents(stored_rows(A, 3), field, 3)


def test_unresolved_symmetric_input_is_a_failing_row():
    # symmetric input 436 at seed 2 over Q_5 is singular and certified only
    # to ord 10: a failing row, not an escaped PrecisionExhausted
    field = FieldParams("padic", 5, 12)
    rng = RandomStream(2).child("decompositions").child("dec", field.spec_string())
    suite = verify_decompositions(field, rng, count=437, push_count=10)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert failed == ["symmetric input 436: precision exhausted at certified ord 10"]


def test_snf_cli_prints_a_bound(capsys):
    field = FieldParams("padic", 3, 6)
    A = lift(field, REPRODUCER)
    code = main(["snf", "--field", field.spec_string(), "--matrix", json.dumps(A.to_json())])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["sing"] == [0, -3, -3, {"at_most": -6}]
    assert payload["recomposes"]

