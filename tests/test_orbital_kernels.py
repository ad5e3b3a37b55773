"""Differential tests of the orbital Monte Carlo kernels against reference
copies written here: the Haar row sampler that re-runs ``invertible_mask``
on rows 0..k for every candidate, and the per-pair trace form U, V whose
phases are sum_f U_f V_f mod M (the sums taken over Python integers).
The rows are stored in the narrowest integer type that holds a cell
product, so both are also checked on either side of each type step.  The
phases themselves are gathered from a table of roots of unity, checked bit
for bit against the expression they replace.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonarch.errors import TooLarge
from nonarch.field import FieldParams, _is_prime
from nonarch.matrices import MatF
from nonarch.orbital import (
    _PHASE_TABLE,
    _cell_weights,
    _check_window,
    _entry_shape,
    _gather,
    _haar_rows,
    _pair_data,
    _paired_phases,
    _phases,
    as_element,
    invertible_mask,
)
from nonarch.sampling import RandomStream, _residues, haar_gl

SETTINGS = settings(max_examples=80)
BIG_P = 1048573  # the largest prime below 2^20


# -- reference copies ------------------------------------------------------------


def ref_haar_rows(stream, field, n, r, K, count):
    """Row k redrawn until invertible_mask accepts rows 0..k."""
    base, tail = _entry_shape(field, K)
    rows = np.empty((count, r, n) + tail, dtype=np.int64)
    for k in range(r):
        sub = stream.child(k)
        todo = np.arange(count)
        while todo.size:
            rows[todo, k] = sub.integers(base, size=(todo.size, n) + tail)
            res = rows[todo, : k + 1] if field.family == "padic" else rows[todo, : k + 1, :, 0]
            todo = todo[~invertible_mask(res, field.p)]
    return rows


def ref_trace_form(field, pairs, K, g1, g2):
    """Columns U from g1 and V from g2, one per pair (and digit over F_p((t)))."""
    p = field.p
    U, V = [], []
    if field.family == "padic":
        M = p**K
        for i, j, m, unit in pairs:
            U.append((unit * p ** (K - m)) % M * g1[:, i, j] % M)
            V.append(g2[:, i, j])
        return np.stack(U, axis=1), np.stack(V, axis=1), M
    for i, j, m, unit in pairs:
        for beta in range(m):
            U.append(g1[:, i, j, beta])
            V.append(g2[:, i, j, : m - beta] @ np.array(unit[m - beta - 1 :: -1]) % p)
    return np.stack(U, axis=1), np.stack(V, axis=1), p


def ref_pair_data(field, D, A):
    """One product a_i x_j per cell, in row-major order."""
    pairs = []
    for i, a in enumerate(A):
        for j, x in enumerate(D):
            prod = a * x
            if not prod.is_zero() and prod.ord < 0:
                m = -prod.ord
                pairs.append((i, j, m, prod.unit % field.p**m if field.family == "padic" else prod.digits[:m]))
    return pairs


def ref_phase_ints(field, pairs, K, g1, g2):
    U, V, M = ref_trace_form(field, pairs, K, g1, g2)
    return (U.astype(object) * V.astype(object) % M).sum(axis=1) % M


# -- the echelon rank check -------------------------------------------------------


class ScriptedStream:
    """``child(k).integers`` serves a scripted first batch for row k, then
    draws from a generator keyed by (seed, k)."""

    def __init__(self, first, seed):
        self.first, self.seed = first, seed

    def child(self, k):
        return _ScriptedRow(self.first[k], np.random.default_rng([self.seed, k]))


class _ScriptedRow:
    def __init__(self, first, gen):
        self.first, self.gen = first, gen

    def integers(self, base, size):
        if self.first is not None:
            out, self.first = self.first.copy(), None
            assert out.shape == size
            return out
        return self.gen.integers(base, size=size)


@st.composite
def row_scripts(draw):
    """First batches whose residues are uniform, except that a share of the
    samples get row k as a linear combination of their rows 0..k-1 (the zero
    row when k = 0)."""
    field = FieldParams(draw(st.sampled_from(["padic", "laurent"])), draw(st.sampled_from([2, 3, 5, 7])), 20)
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    K = draw(st.integers(1, 3))
    count = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    rng = np.random.default_rng(seed)
    p = field.p
    res = rng.integers(p, size=(count, r, n))
    for k in range(r):
        dependent = rng.random(count) < share
        coeffs = rng.integers(p, size=(count, k))
        res[dependent, k] = np.einsum("st,stn->sn", coeffs, res[:, :k])[dependent] % p
    if field.family == "padic":
        lifted = res + p * rng.integers(p ** (K - 1), size=res.shape)
    else:
        lifted = np.concatenate([res[..., None], rng.integers(p, size=res.shape + (K - 1,))], axis=-1)
    return field, n, r, K, count, seed, [lifted[:, k] for k in range(r)]


@SETTINGS
@given(row_scripts())
def test_echelon_check_accepts_what_invertible_mask_accepts(script):
    field, n, r, K, count, seed, first = script
    rows = _haar_rows(ScriptedStream(first, seed), field, n, r, K, count)
    ref = ref_haar_rows(ScriptedStream(first, seed), field, n, r, K, count)
    # a different decision changes the size of a redraw and so the rows
    assert np.array_equal(rows, ref)
    res = rows if field.family == "padic" else rows[..., 0]
    assert invertible_mask(res, field.p).all()


def test_residue_elimination_refuses_products_past_int64():
    # (p-1)^2 >= 2^63: an int64 echelon wraps and takes row 1 = 2 row 0 for
    # an independent row
    field = FieldParams("padic", 4294967311, 1)
    row = np.array([[field.p - 1, field.p - 2]])
    pair = [row, 2 * row % field.p]
    with pytest.raises(TooLarge):
        _haar_rows(ScriptedStream(pair, 1), field, 2, 2, 1, 1)
    with pytest.raises(TooLarge):
        invertible_mask(np.stack(pair, axis=1), field.p)


def test_haar_rows_bound_the_products_a_row_subtracts():
    # (p-1)^2 < 2^63 <= 2 (p-1)^2: two rows reduce in int64, while row 2
    # subtracts two products before reducing, which wraps for some draws
    field = FieldParams("padic", 2900000017, 1)
    with pytest.raises(TooLarge):
        _haar_rows(ScriptedStream([None] * 3, 1), field, 3, 3, 1, 1)
    row = np.random.default_rng(3).integers(field.p, size=(50, 3))
    first = [row, 2 * row % field.p]
    rows = _haar_rows(ScriptedStream(first, 5), field, 3, 2, 1, 50)
    assert np.array_equal(rows, ref_haar_rows(ScriptedStream(first, 5), field, 3, 2, 1, 50))


# -- the argument products ----------------------------------------------------------


@SETTINGS
@given(
    st.sampled_from(["padic", "laurent"]),
    st.lists(st.one_of(st.none(), st.integers(-1, 3), st.tuples(st.integers(-3, 0), st.integers(1, 8))), min_size=1, max_size=6),
    st.lists(st.one_of(st.none(), st.integers(-1, 3)), min_size=1, max_size=3),
)
def test_pair_data_shares_products_of_equal_entries(family, D, A):
    # entries of equal value are separate objects; an (ord, n) entry is pi^ord (1 + n pi)
    field = FieldParams(family, 3, 12)

    def element(v):
        return field.from_base_p(1 + 3 * v[1], v[0]) if isinstance(v, tuple) else as_element(field, v)

    D, A = [element(v) for v in D], [element(v) for v in A]
    pairs, K = _pair_data(field, D, A)
    assert pairs == ref_pair_data(field, D, A)
    assert K == max([0] + [m for _, _, m, _ in pairs])


# -- the floor-division residues ----------------------------------------------------

# the largest primes that the _haar_rows guard (r-1)(p-1)^2 < 2^63 admits, by r
GUARD_P = {2: 3037000493, 3: 2147483647}


def test_guard_primes_are_the_largest_admitted():
    for r, p in GUARD_P.items():
        assert (r - 1) * (p - 1) ** 2 < 2**63
        _haar_rows(ScriptedStream([None] * r, 1), FieldParams("padic", p, 1), r, r, 1, 1)
        above = next(q for q in itertools.count(p + 1) if _is_prime(q))
        with pytest.raises(TooLarge):
            _haar_rows(ScriptedStream([None] * r, 1), FieldParams("padic", above, 1), r, r, 1, 1)


# the ends of int64 and of the values row r - 1 reaches before its reduction
EDGES = [-(2**63), -(2**63) + 1, 2**63 - 1, -1, 0] + [
    v for r, p in GUARD_P.items() for low in (-(r - 1) * (p - 1) ** 2,) for v in (low, low + 1, low - p)
]
MODULI = [2, 3, 53, 46337, BIG_P, 2147483659] + list(GUARD_P.values())


@SETTINGS
@given(
    st.sampled_from(MODULI) | st.integers(2, 2**62),
    st.lists(st.sampled_from(EDGES) | st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40),
)
def test_residues_equal_mod_on_int64(p, values):
    x = np.array(values, dtype=np.int64)
    got = _residues(x, p)
    assert got.dtype == np.int64
    assert got.tolist() == (x % p).tolist() == [v % p for v in values]


@SETTINGS
@given(
    st.sampled_from(MODULI) | st.integers(2, 2**80),
    st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=20),
)
def test_residues_equal_mod_on_python_integers(p, values):
    x = np.array(values, dtype=object)
    assert _residues(x, p).tolist() == (x % p).tolist() == [v % p for v in values]


# -- the fused phase kernel --------------------------------------------------------


# the deepest window whose entry products stay below 2^62, per prime
PADIC_K = {2: 30, 3: 19, 5: 13, 7: 11}


@st.composite
def kernel_cases(draw):
    """A field, a window K, pair lists over an r x n block and row draws;
    Q_p windows reach the per-cell branch, F_p((t)) units may be all p - 1."""
    family = draw(st.sampled_from(["padic", "laurent"]))
    if family == "padic":
        p = draw(st.sampled_from([2, 3, 5, 7]))
        K = draw(st.integers(1, PADIC_K[p]))
    else:
        p = draw(st.sampled_from([2, 3, 5, 7, BIG_P]))
        K = draw(st.integers(1, 6))
    field = FieldParams(family, p, 40)
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))
    extreme = draw(st.booleans())  # every unit digit and every entry at its maximum
    cells = [(i, j) for i in range(r) for j in range(n)]
    pair_lists = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
        pairs = []
        for i, j in chosen:
            m = draw(st.integers(1, K))
            if family == "padic":
                unit = p**m - 1 if extreme else draw(st.integers(1, p**m - 1).filter(lambda u: u % p))
            else:
                digits = st.integers(1, p - 1), st.integers(0, p - 1)
                unit = (p - 1,) * m if extreme else (draw(digits[0]),) + tuple(draw(digits[1]) for _ in range(m - 1))
            pairs.append((i, j, m, unit))
        pair_lists.append(pairs)
    count = draw(st.integers(1, 12))
    base, tail = _entry_shape(field, K)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (count, r, n) + tail
    g1, g2 = (np.full(shape, base - 1) if extreme else rng.integers(base, size=shape) for _ in range(2))
    return field, K, pair_lists, g1, g2


@SETTINGS
@given(kernel_cases())
def test_paired_phases_match_trace_form(case):
    field, K, pair_lists, g1, g2 = case
    I, J, W = _cell_weights(field, pair_lists, K)
    got = _paired_phases(field, K, W, _gather(g1, I, J), _gather(g2, I, J))
    for row, pairs in zip(got, pair_lists):
        assert row.tolist() == ref_phase_ints(field, pairs, K, g1, g2).tolist()


@pytest.mark.parametrize(
    "family, p, K",
    [
        ("padic", 3, 10),  # the widest window summed in float64
        ("padic", 3, 11),  # sums too wide for float64: per-cell sums
        ("padic", 3, 17),
        ("padic", 3, 19),  # per-cell: eight products would pass 2^63
        ("padic", 2, 30),
        ("laurent", BIG_P, 6),
    ],
)
def test_paired_phases_at_wide_windows(family, p, K):
    field = FieldParams(family, p, 40)
    base, tail = _entry_shape(field, K)
    rng = np.random.default_rng(K)
    if family == "padic":
        units = [u for u in range(base - 20, base) if u % p][-8:]
    else:
        units = [tuple(int(d) for d in rng.integers(1, p, size=K)) for _ in range(8)]
    pairs = [(i, j, K, units[4 * i + j]) for i in range(2) for j in range(4)]
    # g1 = -1 and g2 small make the cell products mod M nearly M
    g1, g2 = np.full((50, 2, 4) + tail, base - 1), rng.integers(1, base // 10, size=(50, 2, 4) + tail)
    I, J, W = _cell_weights(field, [pairs, pairs[:1]], K)
    got = _paired_phases(field, K, W, _gather(g1, I, J), _gather(g2, I, J))
    assert got[0].tolist() == ref_phase_ints(field, pairs, K, g1, g2).tolist()
    assert got[1].tolist() == ref_phase_ints(field, pairs[:1], K, g1, g2).tolist()


# -- narrow row types ---------------------------------------------------------------


@pytest.mark.parametrize(
    "p, K, dtype",
    [
        (53, 12, np.int16),  # 12 * 52^2 = 32448 < 2^15
        (53, 13, np.int32),
        (46337, 1, np.int32),  # 46336^2 < 2^31
        (46337, 2, np.int64),
    ],
)
def test_narrow_rows_and_phases_match_references(p, K, dtype):
    field = FieldParams("laurent", p, 40)
    n, r, count = 3, 2, 30
    draws = []
    for seed in (7, 8):
        # row 0 at its largest digits, so a digit convolution reaches K (p-1)^2
        first = [np.full((count, n, K), p - 1), None]
        rows = _haar_rows(ScriptedStream(first, seed), field, n, r, K, count)
        assert rows.dtype == dtype
        assert np.array_equal(rows, ref_haar_rows(ScriptedStream(first, seed), field, n, r, K, count))
        draws.append(rows)
    top = (p - 1,) * K
    pair_lists = [[(i, j, K, top) for i in range(r) for j in range(n)], [(1, 2, 1, (1,)), (0, 0, K, top)]]
    I, J, W = _cell_weights(field, pair_lists, K)
    g1, g2 = draws
    for a, b in ((g1, g2), (g1, g1)):
        got = _paired_phases(field, K, W, _gather(a, I, J), _gather(b, I, J))
        for row, pairs in zip(got, pair_lists):
            assert row.tolist() == ref_phase_ints(field, pairs, K, a, b).tolist()


def test_haar_gl_keeps_digits_past_int32():
    # the least prime above 2^31: a digit may not fit int32, so rows stay int64
    field = FieldParams("laurent", 2147483659, 3)
    stream = RandomStream(5).child("g")
    rows = _haar_rows(stream, field, 2, 2, 3, 1)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, ref_haar_rows(stream, field, 2, 2, 3, 1))
    entries = [field.element(0, list(v)) for v in rows[0].reshape(-1, 3)]
    assert haar_gl(stream, field, 2) == MatF(field, 2, 2, entries)
    # digits p - 1 > 2^31 come back unchanged
    first = [np.full((4, 2, 3), field.p - 1), None]
    rows = _haar_rows(ScriptedStream(first, 3), field, 2, 2, 3, 4)
    assert (rows[:, 0] == field.p - 1).all()
    assert np.array_equal(rows, ref_haar_rows(ScriptedStream(first, 3), field, 2, 2, 3, 4))


# -- the window guard ---------------------------------------------------------------


@pytest.mark.parametrize(
    "field, K_max",
    [
        # one product of two integers below p^K
        (FieldParams("padic", 3, 40), 19),
        (FieldParams("padic", 7, 40), 11),
        # one digit convolution: K products of two digits below p
        (FieldParams("laurent", BIG_P, 40), ((1 << 62) - 1) // BIG_P**2),
    ],
)
def test_window_guard_bound(field, K_max):
    base, tail = _entry_shape(field, K_max)
    assert math.prod(tail) * base**2 < 1 << 62
    _check_window(field, K_max)
    with pytest.raises(TooLarge):
        _check_window(field, K_max + 1)


# -- the phase table ------------------------------------------------------------------


@pytest.mark.parametrize("M", [2, 3, 81, 3**10, 5**6, 17**3, _PHASE_TABLE, _PHASE_TABLE + 1])
def test_phases_equal_the_expression_bit_for_bit(M):
    # every residue once (1-D), then a (lists, count) block of drawn residues
    # with both ends (2-D), as _mc_estimates reads them
    rng = np.random.default_rng(M)
    for k in (np.arange(M, dtype=np.int64), rng.integers(0, M, size=(3, 4099), dtype=np.int64)):
        if k.ndim == 2:
            k[0, :2] = 0, M - 1
        got, want = _phases(k, M), np.exp(2j * np.pi * k / M)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
