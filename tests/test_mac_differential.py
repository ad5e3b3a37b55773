"""The multiply-accumulate kernel of the matrix product and the elimination
updates against the scalar left fold of ``tests/fold_reference.py``: every
entry must carry the same (ord, unit, rel), over both families, word and
wide Kronecker slots, and operands that are exact zeros, certified vanishing
values O(pi^g), visible values of mixed rel, and sums that cancel all their
digits."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fold_reference import add_column, clear_column, left_fold, matmul
from nonarch.field import FieldElement, FieldParams, _mac
from nonarch.matrices import MatF, _add_column, _clear_column

# p = 4294967311: every F_p((t)) slot is wider than 64 bits, the (None, bytes) layout
FIELDS = [
    FieldParams(family, p, prec)
    for family in ("padic", "laurent")
    for p in (2, 3, 5, 101, 4294967311)
    for prec in (1, 3, 6, 12, 20)
]
SETTINGS = settings(max_examples=60)


def state(x: FieldElement):
    return x.ord, x.unit, x.rel


def states(rows):
    return [[state(x) for x in row] for row in rows]


@st.composite
def elements(draw, field):
    """An exact zero, O(pi^g), or a visible value of any rel."""
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return field.zero()
    if kind == 1:
        return FieldElement(field, draw(st.integers(-3, 8)), None, 0)
    o, rel, p = draw(st.integers(-3, 4)), draw(st.integers(1, field.precision)), field.p
    digits = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, p ** (rel - 1) - 1))  # d_0 != 0
    return field.from_base_p(digits, o)._truncate_abs(o + rel)


def matrix(draw, field, rows, cols):
    return [[draw(elements(field)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def products(draw):
    """(A, B) whose product has a few entries that cancel completely: the
    last term of such an entry is -(the sum of the others) times one."""
    field = draw(st.sampled_from(FIELDS))
    n, m, l = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    A, B = matrix(draw, field, n, m), matrix(draw, field, m, l)
    for i, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, l - 1)), max_size=2)):
        B[m - 1][j] = field.one()
        A[i][m - 1] = -left_fold(field.zero(), A[i][: m - 1], [B[k][j] for k in range(m - 1)])
    return field, A, B


@settings(SETTINGS)
@given(products())
def test_matmul_is_the_left_fold(case):
    field, A, B = case
    got = MatF.from_rows(field, A) @ MatF.from_rows(field, B)
    assert states(got.to_lists()) == states(matmul(A, B))


@settings(SETTINGS)
@given(st.sampled_from(FIELDS), st.data())
def test_kernel_is_the_left_fold_from_any_start(field, data):
    start = data.draw(elements(field))
    xs = data.draw(st.lists(elements(field), max_size=5))
    ys = [data.draw(elements(field)) for _ in xs]
    if xs and data.draw(st.booleans()):  # the sum cancels completely
        xs[-1], ys[-1] = -left_fold(start, xs[:-1], ys[:-1]), field.one()
    assert state(_mac(start, xs, ys)) == state(left_fold(start, xs, ys))


@st.composite
def eliminations(draw):
    """(w, wit, k): a visible pivot w[k][k], rows under it that are sometimes
    a multiple of row k (their update cancels), and a witness."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 5))
    k = draw(st.integers(0, n - 2))
    w, wit = matrix(draw, field, n, n), matrix(draw, field, n, n)
    w[k][k] = draw(elements(field).filter(lambda x: x.unit is not None))
    for i in draw(st.sets(st.integers(k + 1, n - 1))):
        c = draw(elements(field))
        w[i] = [c * x for x in w[k]]
    return w, wit, k


@settings(SETTINGS)
@given(eliminations())
def test_elimination_step_is_the_left_fold(case):
    w, wit, k = case
    ref_w, ref_wit = [row[:] for row in w], [row[:] for row in wit]
    clear_column(ref_w, ref_wit, k)
    _clear_column(w, wit, k, len(w))
    assert states(w) == states(ref_w)
    assert states(wit) == states(ref_wit)


@settings(SETTINGS)
@given(st.sampled_from(FIELDS), st.data())
def test_column_update_is_the_left_fold(field, data):
    n = data.draw(st.integers(1, 5))
    m = matrix(data.draw, field, n, n)
    dst, src = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    f = data.draw(elements(field))
    ref = [row[:] for row in m]
    add_column(ref, dst, src, f)
    _add_column(m, dst, src, f, n)
    assert states(m) == states(ref)
