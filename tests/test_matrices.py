"""Matrix algebra, Smith normal form, symmetric congruence diagonalization."""

import math

import pytest

from nonarch.errors import DimensionMismatch, DyadicField, NotSymmetric
from nonarch.field import FieldParams
from nonarch.matrices import (
    AtMost,
    MatF,
    _eps_sum_of_squares,
    singular_numbers,
    smith_normal_form,
    sym_diagonalize,
)
from nonarch.sampling import KIND_CONGRUENCE, RandomStream, haar_gl, orbital_push
from nonarch.verification import _random_matrix

NEG_INF = -math.inf


def mat(field, rows):
    return MatF.from_rows(field, [[field.from_int(v) if isinstance(v, int) else v for v in r] for r in rows])


# -- basic operations ----------------------------------------------------------


def test_trace_and_elementary_matrix(q3):
    x = q3.from_int(7)
    e11 = MatF.diagonal(q3, [q3.one(), q3.zero()])
    A = e11.scale(x)
    assert A.trace() == x


def test_is_gl_examples(q3):
    assert MatF.identity(q3, 3).is_gl()
    d = MatF.diagonal(q3, [q3.uniformizer_pow(1), q3.one()])
    assert not d.is_gl()
    bad = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.one()])
    assert not bad.is_gl()


def test_det_and_transpose(q3):
    A = mat(q3, [[1, 2], [4, 5]])
    assert A.det().agrees(q3.from_int(-3))
    assert A.transpose()[0, 1] == q3.from_int(4)
    with pytest.raises(DimensionMismatch):
        mat(q3, [[1, 2]]).det()


def test_matmul_shapes(q3):
    A = mat(q3, [[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        A @ mat(q3, [[1, 2]])


def test_matrix_json_roundtrip(q3):
    A = mat(q3, [[1, 2], [3, 0]])
    assert MatF.from_json(q3, A.to_json()) == A


# -- Smith normal form --------------------------------------------------------


def test_snf_diagonal_example(q3):
    A = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.one()])
    res = smith_normal_form(A)
    assert res.sing == (1, 0)
    assert res.recompose().agrees(A)


def test_snf_zero_matrix(q3):
    res = smith_normal_form(MatF.zeros(q3, 3))
    assert res.sing == (NEG_INF,) * 3


def test_snf_antidiagonal_example(q3):
    A = mat(q3, [[q3.zero(), q3.uniformizer_pow(1)], [q3.uniformizer_pow(-1), q3.zero()]])
    res = smith_normal_form(A)
    assert res.sing == (1, -1)
    assert res.recompose().agrees(A)
    assert res.a.is_gl() and res.b.is_gl()


def test_singular_numbers_examples(q3):
    assert singular_numbers(MatF.identity(q3, 3)) == (0, 0, 0)
    D = MatF.diagonal(q3, [q3.uniformizer_pow(-2), q3.uniformizer_pow(1), q3.zero()])
    assert singular_numbers(D) == (2, -1, NEG_INF)


def test_singular_numbers_invariant_under_gl(q3):
    # the zero singular value of the deficient example cancels to the end of
    # the window, so it is a certified bound that contains -inf
    rng = RandomStream(5)
    D = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.one(), q3.zero()])
    for i in range(20):
        g = haar_gl(rng.child("g", i), q3, 3)
        h = haar_gl(rng.child("h", i), q3, 3)
        sing = singular_numbers(g @ D @ h)
        assert sing[:2] == (1, 0)
        assert isinstance(sing[2], AtMost) and NEG_INF in sing[2]
        assert sing[2].k < -(q3.precision - 2)
    full = MatF.diagonal(q3, [q3.uniformizer_pow(-2), q3.uniformizer_pow(1), q3.from_int(2)])
    for i in range(20):
        g = haar_gl(rng.child("fg", i), q3, 3)
        h = haar_gl(rng.child("fh", i), q3, 3)
        assert singular_numbers(g @ full @ h) == (2, 0, -1)


def _sing_2x2_oracle(A):
    """Independent oracle for 2x2 singular numbers: the largest entry gives
    k1 = -min ord; the determinant gives k1 + k2 = -ord(det)."""
    ords = [e.ord for e in A.entries]
    k1 = -min(ords)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det.is_zero() or det.is_vanishing():
        return (k1, NEG_INF) if k1 != -math.inf else (NEG_INF, NEG_INF)
    return (k1, -det.ord - k1)


def test_snf_against_2x2_oracle(q3):
    rng = RandomStream(13)
    for i in range(200):
        A = _random_matrix(q3, rng.child(i), 2)
        try:
            expected = _sing_2x2_oracle(A)
        except Exception:
            continue
        assert singular_numbers(A) == expected


@pytest.mark.parametrize("family,p", [("padic", 3), ("padic", 5), ("laurent", 3)])
def test_snf_recomposition_random(family, p):
    field = FieldParams(family, p, 12)
    rng = RandomStream(31)
    for i in range(120):
        n = int(rng.child("n", i).integers(1, 6))
        A = _random_matrix(field, rng.child("m", i), n)
        res = smith_normal_form(A)
        assert res.recompose().agrees(A)
        assert res.a.is_gl() and res.b.is_gl()
        assert all(a >= b for a, b in zip(res.sing, res.sing[1:]))


# -- symmetric diagonalization ---------------------------------------------------


def test_symdiag_square_classes_example(q3):
    A = MatF.diagonal(q3, [q3.from_int(4), q3.one()])
    res = sym_diagonalize(A)
    assert res.class_labels() == ((0, False), (0, False))
    assert res.recompose().agrees(A)


def test_symdiag_hyperbolic_plane(q3):
    A = mat(q3, [[q3.zero(), q3.one()], [q3.one(), q3.zero()]])
    res = sym_diagonalize(A)
    assert sorted(res.class_labels()) == [(0, False), (0, True)]
    assert res.recompose().agrees(A)
    assert res.g.is_gl()


def test_symdiag_zero_matrix(q3):
    res = sym_diagonalize(MatF.zeros(q3, 3))
    assert res.class_labels() == (("zero",),) * 3
    assert res.g == MatF.identity(q3, 3)


def test_symdiag_rejects_asymmetric_and_dyadic(q3):
    with pytest.raises(NotSymmetric):
        sym_diagonalize(mat(q3, [[1, 2], [3, 4]]))
    dyadic = FieldParams("padic", 2, 8)
    with pytest.raises(DyadicField):
        sym_diagonalize(MatF.identity(dyadic, 2))


def test_symdiag_canonical_form_eps_pairs(q3):
    eps = q3.eps()
    A = MatF.diagonal(q3, [eps, eps])
    res = sym_diagonalize(A)
    # two eps-twisted entries at one level are congruent to two plain ones
    assert res.class_labels() == ((0, False), (0, False))
    assert res.recompose().agrees(A)
    a, b = _eps_sum_of_squares(q3)
    assert (a * a + b * b).agrees(eps)


@pytest.mark.parametrize("family,p", [("padic", 3), ("padic", 5), ("laurent", 3)])
def test_symdiag_recomposition_random(family, p):
    field = FieldParams(family, p, 12)
    rng = RandomStream(41)
    for i in range(120):
        n = int(rng.child("n", i).integers(1, 6))
        A = _random_matrix(field, rng.child("m", i), n, symmetric=True)
        res = sym_diagonalize(A)
        assert res.recompose().agrees(A)
        assert res.g.is_gl()


def test_symdiag_class_multiset_congruence_invariant(q3):
    rng = RandomStream(47)
    A = _random_matrix(q3, rng.child("base"), 4, symmetric=True)
    labels = sorted(sym_diagonalize(A).class_labels())
    for i in range(20):
        pushed = orbital_push(A, KIND_CONGRUENCE, rng.child("p", i))
        assert sorted(sym_diagonalize(pushed).class_labels()) == labels
