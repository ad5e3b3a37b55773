"""The one elimination rule of the decompositions, checked against sympy's
Smith form (invariant factors over ZZ and GF(p)[t]) and on the inputs that
once exhausted the precision or got wrong digits."""

import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from nonarch import matrices
from nonarch.cli import main
from nonarch.errors import PrecisionExhausted
from nonarch.field import FieldElement, FieldParams
from nonarch.matrices import AtMost, MatF, singular_numbers, smith_normal_form, sym_diagonalize
from nonarch.sampling import KIND_TWO_SIDED, RandomStream, orbital_push
from nonarch.verification import _random_matrix, verify_decompositions

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


@settings(max_examples=150)
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


# suite inputs that once failed, as literals: (ord, digits d_0 d_1 ..) per
# entry, None for zero

# seed 1, Q_3: the base of the two-sided pushes
Q3_BASE = [
    [None, (3, "200112111221"), (3, "211201111001"), (-1, "220110112000")],
    [(-1, "101112100110"), None, (3, "212200202110"), (0, "110202011020")],
    [(-3, "100111220000"), (2, "101202020210"), (2, "220110022100"), (-3, "222122020122")],
    [(-3, "122101210020"), (3, "112112022212"), (2, "100122220121"), (-3, "101220022210")],
]

# symmetric inputs by (seed, input index): 83 over Q_5, 297 over F_3((t)),
# 436 over Q_5
SYMMETRIC_INPUTS = {
    (8, 83): [
        [None, None, (-3, "114034143101"), (0, "214414224011"), None],
        [None, (0, "423111222240"), (-1, "303330130024"), None, (3, "414000043000")],
        [(-3, "114034143101"), (-1, "303330130024"), (0, "142440432000"), (0, "411022203034"), (-3, "301410023421")],
        [(0, "214414224011"), None, (0, "411022203034"), (-2, "344101303132"), (-3, "424232432300")],
        [None, (3, "414000043000"), (-3, "301410023421"), (-3, "424232432300"), None],
    ],
    (5, 297): [
        [None, (2, "102102220201"), None, (3, "102201020201"), (-3, "211220000122")],
        [(2, "102102220201"), (0, "211022221020"), (3, "100011221200"), (-2, "222122202101"), (3, "200000202200")],
        [None, (3, "100011221200"), None, (0, "102010010100"), (-3, "212120112012")],
        [(3, "102201020201"), (-2, "222122202101"), (0, "102010010100"), (0, "221220111011"), (3, "220022102221")],
        [(-3, "211220000122"), (3, "200000202200"), (-3, "212120112012"), (3, "220022102221"), (0, "120220211120")],
    ],
    (2, 436): [
        [(3, "434130314320"), (-2, "414110433020"), (-2, "341312200330")],
        [(-2, "414110433020"), None, None],
        [(-2, "341312200330"), None, None],
    ],
}


def literal(field: FieldParams, rows) -> MatF:
    entries = [{"ord": e and e[0], "digits": [int(d) for d in e[1]] if e else []} for r in rows for e in r]
    return MatF.from_json(field, {"rows": len(rows), "cols": len(rows), "entries": entries})


@pytest.mark.parametrize("push", [147, 923])
def test_suite_pushes_keep_the_base_exponents(push):
    # these pushes of the seed-1 suite base once exhausted the precision
    field = FieldParams("padic", 3, 12)
    rng = RandomStream(1).child("decompositions").child("dec", field.spec_string())
    base = literal(field, Q3_BASE)
    assert singular_numbers(base) == (3, 3, -3, -3)
    assert singular_numbers(orbital_push(base, KIND_TWO_SIDED, rng.child("push", push))) == (3, 3, -3, -3)


@pytest.mark.parametrize("seed,spec,index", [(8, ("padic", 5, 12), 83), (5, ("laurent", 3, 12), 297)])
def test_suite_symmetric_inputs_resolve(seed, spec, index):
    # these symmetric inputs of the suite once raised in mid-elimination
    field = FieldParams(*spec)
    A = literal(field, SYMMETRIC_INPUTS[seed, index])
    res = sym_diagonalize(A)
    assert res.recompose().agrees(A)
    assert res.g.is_gl()
    ords = sorted((NEG_INF if x.is_zero() else -x.ord for x in res.diag_entries), reverse=True)
    assert tuple(ords) == oracle_exponents(stored_rows(A, 3), field, 3)


def test_singular_symmetric_input_exhausts_the_precision():
    # defect (a): the input is singular, and the end rule of sym_diagonalize
    # certifies its last pivot only to ord 10
    with pytest.raises(PrecisionExhausted) as exc:
        sym_diagonalize(literal(FieldParams("padic", 5, 12), SYMMETRIC_INPUTS[2, 436]))
    assert exc.value.guaranteed_ord == 10


def test_unresolved_symmetric_input_is_a_failing_row():
    # symmetric input 436 at seed 2 over Q_5 is singular and certified only
    # to ord 10: a failing row, not an escaped PrecisionExhausted
    field = FieldParams("padic", 5, 12)
    rng = RandomStream(2).child("decompositions").child("dec", field.spec_string())
    suite = verify_decompositions(field, rng, count=437, push_count=10)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert failed == ["symmetric input 436: precision exhausted at certified ord 10"]


def test_a_vanishing_multiplier_bounds_the_block_and_leaves_the_witness():
    # the entry under the first pivot is O(3^3), so its multiplier is
    # vanishing: it still spreads the bound into the block (det = 5 - 2 O(3^3)
    # is known mod 3^3 only), but stands for 0 in the witness a, whose first
    # column stays e_0 exactly
    field = FieldParams("padic", 3, 6)
    A = MatF.from_rows(field, [[field.one(), field.from_int(2)], [FieldElement(field, 3, None, 0), field.from_int(5)]])
    det = A.det()
    assert det.agrees(field.from_int(5)) and det.abs_prec == 3
    res = smith_normal_form(A)
    assert res.sing == (0, 0)
    assert res.a[0, 0] == field.one() and res.a[1, 0].is_zero()
    assert res.recompose().agrees(A)


# -- precision 3: vanishing multipliers and unresolved tails ---------------------------


def near_dependent_inputs(rnd: random.Random, family: str, p: int, count: int):
    """Exact n x n inputs (integers over Q_p, coefficient lists in t over
    F_p((t))) with rows that equal a combination of the others up to pi^e,
    e in 2..4: at precision 3 their elimination cancels whole windows."""
    out = []
    for _ in range(count):
        n = rnd.randint(2, 5)
        if family == "padic":
            rows = [[rnd.randint(-p * p, p * p) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[[rnd.randrange(p) for _ in range(rnd.randint(0, 3))] for _ in range(n)] for _ in range(n)]
        for t in rnd.sample(range(n), rnd.randint(1, n - 1)):
            cs, e = [rnd.randint(-2, 2) for _ in range(n)], rnd.randint(2, 4)
            for j in range(n):
                entries = [(c, r[j]) for c, r in zip(cs, rows) if r is not rows[t]]
                if family == "padic":
                    rows[t][j] = sum(c * v for c, v in entries) + p**e * rnd.randint(-2, 2)
                else:
                    coeffs = [0] * (e + 1)
                    for c, v in entries:
                        coeffs += [0] * (len(v) - len(coeffs))
                        for i, d in enumerate(v):
                            coeffs[i] += c * d
                    coeffs[e] += rnd.randint(-2, 2)
                    rows[t][j] = [c % p for c in coeffs]
        out.append(rows)
    return out


def exponent_implied(low, high) -> bool:
    """Whether an exponent certified at low precision holds for the exponent
    found at high precision: equal, or inside the low bound."""
    if isinstance(low, AtMost):
        return (high.k if isinstance(high, AtMost) else high) in low
    return not isinstance(high, AtMost) and high == low


@pytest.mark.parametrize("family,p", [("padic", 3), ("laurent", 3), ("padic", 5)])
def test_precision_3_certifies_what_precision_24_finds(family, p, monkeypatch):
    # at precision 3 whole windows cancel: blocks under a pivot turn O(pi^g),
    # so _clear_column meets vanishing multipliers and SNF reports AtMost
    # tails; every exponent, det digit and witness must still hold for the
    # same exact input at precision 24
    low, high = FieldParams(family, p, 3), FieldParams(family, p, 24)
    clear_column, seen = matrices._clear_column, Counter()

    def counting_clear_column(w, wit, k, n):
        seen["vanishing multiplier"] += sum(w[i][k].is_vanishing() for i in range(k + 1, n))
        return clear_column(w, wit, k, n)

    monkeypatch.setattr(matrices, "_clear_column", counting_clear_column)
    for rows in near_dependent_inputs(random.Random(46), family, p, 400):
        A, exact = lift(low, rows), lift(high, rows)
        res, ref = smith_normal_form(A), smith_normal_form(exact)
        seen["tail"] += any(isinstance(k, AtMost) for k in res.sing)
        assert all(map(exponent_implied, res.sing, ref.sing)), (rows, res.sing, ref.sing)
        assert res.a.is_gl() and res.b.is_gl()
        assert res.recompose().agrees(A)
        assert A.det().agrees(FieldElement.from_json(low, exact.det().to_json())), rows
    assert seen["vanishing multiplier"] > 0 and seen["tail"] > 0, seen


def test_snf_cli_prints_a_bound(capsys):
    field = FieldParams("padic", 3, 6)
    A = lift(field, REPRODUCER)
    code = main(["snf", "--field", field.spec_string(), "--matrix", json.dumps(A.to_json())])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["sing"] == [0, -3, -3, {"at_most": -6}]
    assert payload["recomposes"]



# -- the witnesses, pinned byte for byte ------------------------------------------

# Both families at p = 3 and 5, and two fields of precision 3, where tail
# bounds, PrecisionExhausted and vanishing multipliers occur.
PIN_FIELDS = [
    ("padic", 3, 12), ("padic", 5, 12), ("laurent", 3, 12), ("laurent", 5, 12), ("padic", 3, 3), ("laurent", 3, 3),
]
PIN_SHA256 = "4a391dcf1c4d2bd5fbb27a411ac387f012be8381443fd7de830ba6bcdd52acb8"


def test_decomposition_witnesses_are_pinned():
    # 80 inputs per field, n = 1..5: the SNF exponents, witnesses and det,
    # and the congruence witness and diagonal or the certified ord of the
    # PrecisionExhausted, hashed as JSON
    def exponent(k):
        return {"at_most": k.k} if isinstance(k, AtMost) else None if k == NEG_INF else k

    records, seen = [], set()
    for spec in PIN_FIELDS:
        field = FieldParams(*spec)
        for i in range(80):
            rng = RandomStream(5).child("pin", field.spec_string(), i)
            A = _random_matrix(field, rng.child("mat"), 1 + i % 5)
            S = _random_matrix(field, rng.child("sym"), 1 + i % 5, symmetric=True)
            res = smith_normal_form(A)
            rec = {"sing": [exponent(k) for k in res.sing], "a": res.a.to_json(), "b": res.b.to_json()}
            rec["det"] = A.det().to_json()
            if any(isinstance(k, AtMost) for k in res.sing):
                seen.add("bound")
            try:
                sym = sym_diagonalize(S)
                rec["g"], rec["diag"] = sym.g.to_json(), [x.to_json() for x in sym.diag_entries]
            except PrecisionExhausted as exc:
                rec["exhausted"] = exc.guaranteed_ord
                seen.add("exhausted")
            records.append(rec)
    assert seen == {"bound", "exhausted"}
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == PIN_SHA256
