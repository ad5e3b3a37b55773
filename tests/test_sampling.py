"""Seeded sampling: determinism, Haar measure, measure-family corners,
orbital pushes."""

import hashlib
import math
import sys
import threading
import tracemalloc
from itertools import product

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonarch import orbital
from nonarch.errors import DimensionMismatch, DyadicField, InsufficientPrecision, InvalidParam, TooLarge
from nonarch.field import FieldParams, _slot_layout
from nonarch.characters import chi
from nonarch.matrices import MatF, singular_numbers, sym_diagonalize
from nonarch.orbital import (
    _corner_rows,
    convergence_experiment,
    empirical_charfun,
    generator_diagonal,
    invertible_mask,
    measure_charfun_batch,
)
from nonarch.params import DeltaParam, OmegaParam
from nonarch import sampling
from nonarch.sampling import (
    KIND_CONGRUENCE,
    KIND_TWO_SIDED,
    RandomStream,
    _corner_draws,
    _element,
    _haar_rows,
    _uniform_window,
    haar_gl,
    orbital_push,
    sample_corner,
    uniform_integer,
)
from residue_reference import counting


# -- determinism ----------------------------------------------------------------


def test_same_path_reproduces(q3):
    a = uniform_integer(q3, RandomStream(42).child("x", 3))
    b = uniform_integer(q3, RandomStream(42).child("x", 3))
    c = uniform_integer(q3, RandomStream(42).child("x", 4))
    assert a == b
    assert a != c


def test_matrix_sampling_reproducible(q3):
    m1 = haar_gl(RandomStream(7).child("g"), q3, 3)
    m2 = haar_gl(RandomStream(7).child("g"), q3, 3)
    assert m1 == m2
    p = DeltaParam((1,), None)
    s1 = sample_corner(q3, p, 3, RandomStream(7).child("m"))
    s2 = sample_corner(q3, p, 3, RandomStream(7).child("m"))
    assert s1 == s2


def test_distinct_seeds_differ(q3):
    assert haar_gl(RandomStream(1).child("g"), q3, 3) != haar_gl(RandomStream(2).child("g"), q3, 3)


def _shuffled(stream):
    pool = list(range(10))
    stream.shuffle(pool)
    return pool


# interleaved calls on two streams: bounds below and above 2^32, scalar and
# shaped sizes, and shuffles of a list
_STREAM_SCRIPT = (
    ("a", lambda s: s.integers(3)),
    ("b", lambda s: s.integers(2**40, size=(2, 3))),
    ("a", lambda s: s.integers(-5, 2**33, size=4)),
    ("a", lambda s: s.integers(7, size=(3, 2))),
    ("b", _shuffled),
    ("b", lambda s: s.integers(3)),
    ("a", lambda s: s.integers(2**63)),
    ("a", _shuffled),
    ("b", lambda s: s.integers(1, 6, size=5)),
    ("a", lambda s: s.integers(2, size=7)),
)


def _run_script(streams):
    """The script's draws on two RandomStreams, or on two numpy Generators."""
    return [np.asarray(draw(streams[name])).tolist() for name, draw in _STREAM_SCRIPT]


def _fresh_philox(seed, path):
    digest = hashlib.blake2b(repr((seed, path)).encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64)))


def test_stream_draws_match_a_freshly_keyed_philox():
    def streams(seed):
        return {"a": RandomStream(seed).child("a"), "b": RandomStream(seed).child("b", 1)}

    def reference(seed):
        return _run_script({"a": _fresh_philox(seed, ("a",)), "b": _fresh_philox(seed, ("b", 1))})

    assert _run_script(streams(11)) == reference(11)
    # four threads at once, each on its own streams, switching often
    results, expected = {}, {t: reference(100 + t) for t in range(4)}

    def work(t):
        results[t] = [_run_script(streams(100 + t)) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {t: [expected[t]] * 20 for t in range(4)}


def test_philox_is_constructed_at_most_once_per_thread(monkeypatch, q3, l3):
    # keying a stream loads its state into the thread's one generator
    made, real = [], np.random.Philox

    def counting(*args, **kwargs):
        made.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)

    def work(done):
        rng = RandomStream(3)
        for i in range(150):
            sample_corner(l3, DeltaParam((2, 1), -1), 3, rng.child("corner", i))
        orbital.mc_orbital_multi(q3, KIND_TWO_SIDED, [1, 0], [[1]], 512, rng.child("mc"))
        done.append(True)

    done = []
    worker = threading.Thread(target=work, args=(done,))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    work(done)
    assert done == [True, True]
    assert made.count(worker.ident) == 1
    assert len(made) == len(set(made)) <= 2


# -- uniform integers -----------------------------------------------------------


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_uniform_digit_marginal(family):
    field = FieldParams(family, 3, 12)
    rng = RandomStream(3)
    count = 20_000
    hits = sum(1 for i in range(count) if uniform_integer(field, rng.child(i)).ord >= 1)
    p_hat = hits / count
    sigma = math.sqrt((1 / 3) * (2 / 3) / count)
    assert abs(p_hat - 1 / 3) <= 3 * sigma


def test_uniform_chi_average_vanishes(q3):
    rng = RandomStream(5)
    count = 20_000
    acc = 0j
    shift = -1
    for i in range(count):
        acc += chi(uniform_integer(q3, rng.child(i)).shift(shift))
    assert abs(acc / count) <= 3 / math.sqrt(count)


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_draws_refuse_residues_past_int64(family):
    # p = 2^64 - 59 > 2^63: no int64 draw holds a digit
    field = FieldParams(family, 2**64 - 59, 2)
    with pytest.raises(TooLarge):
        uniform_integer(field, RandomStream(1))
    with pytest.raises(TooLarge):
        haar_gl(RandomStream(1), field, 2)


@pytest.mark.parametrize(
    "spec, K",
    [
        (("padic", 3, 12), 12),  # bound 3^12 below 2^32: 32-bit draws, half a 64-bit word buffered
        (("padic", 3, 30), 30),  # bound 3^30 above 2^32: 64-bit draws
        (("laurent", 3, 12), 11),  # digit windows on a trailing axis
        (("laurent", 7, 12), 12),
        (("padic", 5, 30), 30),  # 5^30 > 2^63: digits combined into Python integers
    ],
)
def test_split_draws_continue_one_draw(spec, K):
    # the corner blocks (and any later split of a stream) rest on this numpy
    # property: drawing sizes a then b from one stream draws the a + b
    # entries of one draw of size a + b.  NEP 19 promises no stable streams
    field = FieldParams(*spec)
    for a, b in ((1, 2), (3, 5), (7, 1), (2, 6)):  # odd entry counts leave a 32-bit half buffered
        split, whole = RandomStream(83).child(a, b), RandomStream(83).child(a, b)
        parts = [_uniform_window(field, split, K, (size, 3)) for size in (a, b)]
        assert np.array_equal(np.concatenate(parts), _uniform_window(field, whole, K, (a + b, 3)))
        assert np.array_equal(_uniform_window(field, split, K, (1,)), _uniform_window(field, whole, K, (1,)))


# -- Haar on GL -----------------------------------------------------------------


def test_haar_outputs_are_gl(q3):
    rng = RandomStream(11)
    for i in range(25):
        assert haar_gl(rng.child(i), q3, 4).is_gl()


def test_haar_deep_padic_precision():
    # p^(precision - 1) = 5^29 exceeds the int64 range of one draw
    assert haar_gl(RandomStream(4).child(0), FieldParams("padic", 5, 30), 3).is_gl()


def test_haar_unit_residue_uniform(q3):
    rng = RandomStream(13)
    count = 10_000
    freq = {1: 0, 2: 0}
    for i in range(count):
        g = haar_gl(rng.child(i), q3, 1)
        freq[g[0, 0].leading_digit()] += 1
    sigma = math.sqrt(0.25 / count)
    assert abs(freq[1] / count - 0.5) <= 3 * sigma


def _digits(x, k):
    """The first k base-pi digits of x in O_F."""
    d = [] if x.is_zero() else [0] * x.ord + list(x.digits)
    return (d + [0] * k)[:k]


def _rows_as_matrix(field, g):
    """One (n, n[, precision]) draw of _haar_rows as a MatF."""
    if field.family == "padic":
        entries = [field.from_base_p(int(v)) for v in g.reshape(-1)]
    else:
        entries = [field.element(0, list(v)) for v in g.reshape(-1, field.precision)]
    return MatF(field, g.shape[0], g.shape[1], entries)


@settings(max_examples=40)
@given(
    st.sampled_from(["padic", "laurent"]),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_haar_gl_is_the_view_of_haar_rows(family, p, precision, n, seed):
    field = FieldParams(family, p, precision)
    stream = RandomStream(seed).child("g")
    rows = _haar_rows(stream, field, n, n, precision, 1)[0]
    assert haar_gl(stream, field, n) == _rows_as_matrix(field, rows)


def test_haar_gl_draws_pinned():
    # recorded when haar_gl became the view of _haar_rows
    q = FieldParams("padic", 3, 4)
    expected = [[73, 72], [64, 46]]
    assert haar_gl(RandomStream(7).child("g"), q, 2) == MatF.from_rows(q, [[q.from_base_p(v) for v in r] for r in expected])
    big = FieldParams("padic", 5, 30)
    expected = [
        [879398063810220879373, 541650930372873067148],
        [26277742520181795531, 61247403731223554969],
    ]
    assert haar_gl(RandomStream(7).child("g"), big, 2) == MatF.from_rows(big, [[big.from_base_p(v) for v in r] for r in expected])
    l = FieldParams("laurent", 3, 3)
    expected = [[[2, 2, 2], [2, 0, 0]], [[2, 2, 0], []]]
    assert haar_gl(RandomStream(7).child("g"), l, 2) == MatF.from_rows(l, [[l.element(0, d) for d in r] for r in expected])


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_haar_second_digit_uniform_given_residue(family):
    # digit 1 of each entry is uniform whatever the residue matrix: chi-square
    # of the (digit 0, digit 1) table against uniform rows, 6 degrees of
    # freedom, 0.1 % critical value 22.46
    field = FieldParams(family, 3, 12)
    rng = RandomStream(19)
    table = [[0] * 3 for _ in range(3)]
    for i in range(2000):
        for x in haar_gl(rng.child(i), field, 2).entries:
            d0, d1 = _digits(x, 2)
            table[d0][d1] += 1
    stat = 0.0
    for row in table:
        expected = sum(row) / 3
        stat += sum((c - expected) ** 2 / expected for c in row)
    assert stat < 22.46


def test_rejection_acceptance_rate_matches_volume():
    field = FieldParams("padic", 2, 8)
    expected = float(counting(2, 1, 2)[2])  # 3/8
    attempts = 100_000
    # uniform residue matrices, tested as the exact oracle filters them
    mats = RandomStream(17).child("acc").integers(field.p, size=(attempts, 2, 2))
    ok = int(invertible_mask(mats, field.p).sum())
    sigma = math.sqrt(expected * (1 - expected) / attempts)
    assert abs(ok / attempts - expected) <= 3 * sigma


# -- measure corners -------------------------------------------------------------


def test_mu_corner_support_and_zero(q3):
    rng = RandomStream(19)
    zero = sample_corner(q3, DeltaParam((), None), 3, rng.child("z"))
    assert all(e.is_zero() for e in zero.entries)
    m = sample_corner(q3, DeltaParam((1,), None), 2, rng.child("m"))
    assert all(e.is_zero() or e.ord >= -1 for e in m.entries)


def test_corner_rejects_invalid_parameters(q3):
    # every entry point that reads the corner of a parameter refuses it alike
    rng = RandomStream(3)
    entry_points = (
        lambda field, param: sample_corner(field, param, 2, rng),
        lambda field, param: measure_charfun_batch(field, param, 2, 10, [[field.one()]], rng),
        lambda field, param: generator_diagonal(field, param, 3),
        lambda field, param: convergence_experiment(field, param, [4], 10, rng),
    )
    for corner in entry_points:
        with pytest.raises(InvalidParam, match="head is not non-increasing"):
            corner(q3, DeltaParam((1, 2), None))
        with pytest.raises(InvalidParam, match="kkp is not strictly decreasing"):
            corner(q3, OmegaParam(None, (), (1, 1)))
        with pytest.raises(InvalidParam, match="not a parameter object"):
            corner(q3, (1, 2))
        with pytest.raises(DyadicField, match="the symmetric family"):  # the field is checked before the parameter
            corner(FieldParams("padic", 2, 8), OmegaParam(None, (), (1, 1)))


def test_nu_corner_symmetric_and_rank_one(q3):
    rng = RandomStream(23)
    s = sample_corner(q3, OmegaParam(0, (2,), (1,)), 4, rng.child("s"))
    assert s.is_symmetric()
    r1 = sample_corner(q3, OmegaParam(None, (0,), ()), 2, rng.child("r"))
    minor = r1[0, 0] * r1[1, 1] - r1[0, 1] * r1[1, 0]
    assert minor.is_vanishing() or minor.is_zero() or minor.ord > q3.precision - 3


def test_haar_tail_corner_matches_indicator(q3):
    # Haar-type parameter: empirical chi average at a non-integral argument
    rng = RandomStream(29)
    count = 4000
    samples = [sample_corner(q3, DeltaParam((), 0), 2, rng.child(i)) for i in range(count)]
    A = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.zero()])
    est = empirical_charfun(samples, A)
    assert abs(est.mean) <= 3 / math.sqrt(count)


def test_empirical_charfun_of_zero_samples(q3):
    samples = [MatF.zeros(q3, 2) for _ in range(10)]
    est = empirical_charfun(samples, MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.zero()]))
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == 0.0


def test_empirical_charfun_of_a_cancelled_trace():
    # tr(A M) = x - x cancels to O(pi^g): chi is 1 when g >= 0, and the
    # negative-power digits are unknown when g < 0
    def cancelled(field):
        x = field.uniformizer_pow(-3)
        M = MatF.from_rows(field, [[x, field.zero()], [-x, field.zero()]])
        A = MatF.from_rows(field, [[field.one(), field.one()], [field.zero(), field.zero()]])
        return empirical_charfun([M], A)

    assert cancelled(FieldParams("padic", 3, 12)).mean == pytest.approx(1.0)
    with pytest.raises(InsufficientPrecision):
        cancelled(FieldParams("padic", 3, 2))


def test_nu_corner_single_factor_charfun(q3):
    rng = RandomStream(31)
    count = 4000
    om = OmegaParam(None, (0,), ())
    samples = [sample_corner(q3, om, 2, rng.child(i)) for i in range(count)]
    x = q3.uniformizer_pow(-1)
    A = MatF.diagonal(q3, [x, q3.zero()])
    est = empirical_charfun(samples, A)
    closed = om.char_single(x).to_complex(3)
    assert abs(est.mean - closed) <= 3 / math.sqrt(count)


def test_batch_sampler_negative_head_entries(q3, l3):
    # entries pi^-k with k < 0 live inside pi O_F; the batch window handles
    # the nonnegative scale correctly
    par = DeltaParam((-1,), None)
    for field in (q3, l3):
        probes = [[field.uniformizer_pow(-ell)] for ell in (0, 2)]
        est0, est2 = measure_charfun_batch(field, par, 2, 30_000, probes, RandomStream(53))
        assert abs(est0.mean - 1.0) <= 1e-12  # all mass in pi O_F
        closed = par.char_single(2).to_complex(3)
        assert abs(est2.mean - closed) <= 3 / math.sqrt(30_000)


def test_diagonal_entries_factorize(q3, l3):
    # joint empirical charfun of (M11, M22) splits into the marginals
    par = DeltaParam((0,), None)
    for field in (q3, l3):
        probes = [
            [field.uniformizer_pow(-1), field.uniformizer_pow(-1)],
            [field.uniformizer_pow(-1)],
            [field.zero(), field.uniformizer_pow(-1)],
        ]
        joint, m1, m2 = measure_charfun_batch(field, par, 2, 40_000, probes, RandomStream(37))
        assert abs(joint.mean - m1.mean * m2.mean) <= 3 * (joint.stderr + m1.stderr + m2.stderr)


def test_batch_refuses_a_probe_longer_than_the_corner(q3):
    x = q3.uniformizer_pow(-1)
    for n in (0, 1, 2):
        with pytest.raises(DimensionMismatch):
            measure_charfun_batch(q3, DeltaParam((1,), None), n, 10, [[x, x, x]], RandomStream(1))


def test_batch_reads_the_eps_coefficient(q3, l3):
    # a single eps-twisted term: chi(eps pi^-1 y^2) averages to
    # theta(eps pi^-1), about -0.577i over Q_3 and F_3((t)); the same term
    # drawn with coefficient 1 averages to theta(pi^-1), its conjugate
    om, count = OmegaParam(None, (), (0,)), 2000
    for field in (q3, l3):
        x = field.uniformizer_pow(-1)
        (est,) = measure_charfun_batch(field, om, 3, count, [[x]], RandomStream(5))
        closed = om.char_single(x).to_complex(3)
        assert abs((est.mean - closed).real) <= 4 / math.sqrt(count)
        assert abs((est.mean - closed).imag) <= 4 / math.sqrt(count)


def test_batch_sampler_padic_draws_pinned(monkeypatch, q3):
    # estimates of the x, y, z, h corner streams over Q_3, recorded at
    # RandomStream(61): a change to the padic draws fails here
    monkeypatch.setattr(orbital, "_CHUNK", 1024)
    eps = q3.eps()
    cases = (
        (
            DeltaParam((2, 1), -1),
            [[q3.uniformizer_pow(-1)], [q3.one(), q3.uniformizer_pow(-2)], [q3.zero(), q3.uniformizer_pow(1)]],
            [
                -0.0028267931967972107 - 0.004469980304058839j,
                -0.01988629369236954 - 0.010327806397890767j,
                0.326 + 0.0005773502691897043j,
            ],
        ),
        (
            OmegaParam(-1, (1,), (0,)),
            [[q3.uniformizer_pow(-1)], [eps, q3.uniformizer_pow(-2)], [q3.zero(), eps.shift(-1)]],
            [
                0.01070634073057866 - 0.18646357589543075j,
                -0.027898700405968882 - 0.0013912030037900086j,
                -0.028813751742529856 + 0.21163325507869027j,
            ],
        ),
    )
    for par, probes, pinned in cases:
        ests = measure_charfun_batch(q3, par, 3, 3000, probes, RandomStream(61))
        assert [e.n_samples for e in ests] == [3000] * 3
        for est, value in zip(ests, pinned):
            assert abs(est.mean - value) <= 1e-12


@pytest.mark.parametrize(
    "param",
    [DeltaParam((2, 1), -1), DeltaParam((1, 0), None), OmegaParam(-1, (1,), (0,)), OmegaParam(None, (1,), (0,))],
)
def test_corner_blocks_do_not_move_the_estimates(monkeypatch, q3, l3, param):
    # one sample per block, the default blocks and one block per chunk draw
    # the same samples, so every estimate is bit-identical; 1030 samples
    # cross the boundary of 1024-sample chunks
    monkeypatch.setattr(orbital, "_CHUNK", 1024)
    for field in (q3, l3):
        x = field.uniformizer_pow(-1)
        probes = [[x], [field.one(), field.uniformizer_pow(-2)], [field.zero(), x, field.eps().shift(-1)]]
        runs = []
        for block in (sampling._CORNER_BLOCK, 1, 1 << 40):
            monkeypatch.setattr(sampling, "_CORNER_BLOCK", block)
            runs.append(measure_charfun_batch(field, param, 3, 1030, probes, RandomStream(89).child(repr(param))))
        assert runs[0] == runs[1] == runs[2]
        assert [e.n_samples for e in runs[0]] == [1030] * 3


def test_corner_batch_memory_is_one_block(l3):
    # the F_3((t)) tail of 16384 corners at n = 6 is 16384 x 6 x 6 x 11 int64,
    # 52 MB in one draw; drawn in blocks, the batch's traced peak stays far below
    probes = [[l3.uniformizer_pow(-ell)] for ell in range(-2, 4)]
    args = (l3, DeltaParam((2, 1), -1), 6, 16384, probes, RandomStream(97))
    measure_charfun_batch(*args)  # the first call fills the field's caches
    tracemalloc.start()
    try:
        measure_charfun_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _reference_corner(field, param, n, rng):
    """The corner entries, row by row, accumulated term by term in
    FieldElement arithmetic over the variables the batched draw gives at
    count 1, window = precision."""
    ((terms, haar),) = _corner_draws(field, param, n, 1, field.precision, rng)
    acc = [[field.zero()] * n for _ in range(n)]
    for k, c, X, Y in terms:
        for i, j in product(range(n), repeat=2):
            term = _element(field, X[0, i]).shift(-k) * _element(field, Y[0, j]) * field.from_int(c)
            acc[i][j] += term
    if haar is not None:
        k, Z = haar
        for i, j in product(range(n), repeat=2):
            a, b = sorted((i, j)) if isinstance(param, OmegaParam) else (i, j)
            acc[i][j] += _element(field, Z[0, a, b]).shift(-k)
    return [e for row in acc for e in row]


def _draw_param(draw, field):
    """A valid parameter of either family (Delta only over a dyadic field)."""
    ks = st.integers(-2, 3)
    if field.is_dyadic or draw(st.booleans()):
        head = tuple(sorted(draw(st.lists(ks, max_size=3)), reverse=True))
        return DeltaParam(head, draw(st.none() | st.integers(-3, min(head, default=3) - 1)))
    kk = tuple(sorted(draw(st.lists(ks, max_size=2)), reverse=True))
    kkp = tuple(sorted(draw(st.sets(ks, max_size=2)), reverse=True))
    return OmegaParam(draw(st.none() | st.integers(-3, min(kk + kkp, default=3) - 1)), kk, kkp)


_SMALL_FIELDS = st.builds(FieldParams, st.sampled_from(["padic", "laurent"]), st.sampled_from([2, 3, 5, 7]), st.integers(1, 12))


@st.composite
def _corner_cases(draw, fields):
    field = draw(fields)
    return field, _draw_param(draw, field), draw(st.integers(1, 4)), RandomStream(draw(st.integers(0, 2**32)))


def _check_corner(case):
    field, param, n, rng = case
    corner = sample_corner(field, param, n, rng)
    assert list(corner.entries) == _reference_corner(field, param, n, rng)


@settings(max_examples=250)
@given(_corner_cases(_SMALL_FIELDS))
def test_corner_matches_term_by_term_accumulation(case):
    # low precision makes zero windows and cancelled sums frequent (most
    # sums vanish at precision 1); each entry must carry exactly the window
    # a cancelling + certifies
    _check_corner(case)


@settings(max_examples=50)
@given(_corner_cases(st.just(FieldParams("padic", 5, 30))))
def test_corner_matches_the_reference_assembly(case):
    # 5^30 > 2^63: the slot assembly reads windows past int64, checked
    # against the same term-by-term reference
    _check_corner(case)


@pytest.mark.parametrize("param", [DeltaParam((2, 1, 0), -1), OmegaParam(-1, (1, 1), (0,))])
def test_corner_slots_wider_than_a_machine_word(param):
    # at p = 2^21 - 9 the slot sums of three rank-one terms and a tail need more than 64 bits
    field = FieldParams("laurent", 2**21 - 9, 4)
    assert _slot_layout((3 + 1) * field.precision * (field.p - 1) ** 3 + field.p)[0] is None
    rng = RandomStream(79).child("wide slots")
    corner = sample_corner(field, param, 3, rng)
    assert list(corner.entries) == _reference_corner(field, param, 3, rng)
    assert any(e.rel == 4 for e in corner.entries)


@pytest.mark.parametrize(
    "spec, param",
    [
        (("padic", 3, 12), DeltaParam((2, 1), -1)),
        (("laurent", 3, 12), DeltaParam((2, 1), -1)),
        (("padic", 5, 6), DeltaParam((1, 1, 0), None)),
        (("padic", 3, 12), OmegaParam(-1, (1,), (0,))),
        (("laurent", 3, 12), OmegaParam(-1, (1,), (0,))),
        (("laurent", 5, 6), OmegaParam(None, (2, 2), (1, -1))),
    ],
)
def test_corner_diagonal_is_the_batch_diagonal(spec, param):
    # c_jj = sum_i c_i g1[i, j] g2[i, j] over the rows the batched
    # estimator builds from the same draw
    field, n = FieldParams(*spec), 4
    rng = RandomStream(67).child("diag")
    corner = sample_corner(field, param, n, rng)
    ((g1, g2),) = _corner_rows(field, param, n, 1, field.precision, rng)
    coefficients = generator_diagonal(field, param, g1.shape[1])
    for j in range(n):
        c = field.zero()
        for i, w in enumerate(coefficients):
            c += w * _element(field, g1[0, i, j]) * _element(field, g2[0, i, j])
        assert corner[j, j] == c


def test_corner_draws_pinned():
    # entries (ord, digits), or ("O", g) for O(pi^g), recorded at
    # RandomStream(seed).child("pin"): a change to the corner draws fails here
    cases = (
        (
            ("padic", 3, 4),
            DeltaParam((2, 1), -1),
            38,
            [("O", 3), (0, (1, 1, 1, 0)), (-2, (2, 0, 2, 2)), (2, (1, 1, 1))],
        ),
        (
            ("laurent", 5, 5),
            OmegaParam(-1, (1,), (0,)),
            71,
            [(1, (4, 3, 2, 1, 0)), (0, (3, 1, 2, 3, 1)), (0, (3, 1, 2, 3, 1)), (-1, (4, 2, 3, 1, 4))],
        ),
    )
    for spec, param, seed, pinned in cases:
        corner = sample_corner(FieldParams(*spec), param, 2, RandomStream(seed).child("pin"))
        assert [("O", e.ord) if e.is_vanishing() else (e.ord, e.digits) for e in corner.entries] == pinned


def test_corner_beyond_int64_windows():
    # 5^30 > 2^63: the entries are drawn digit by digit
    field = FieldParams("padic", 5, 30)
    rng = RandomStream(73).child("wide")
    for param in (DeltaParam((2, 1), -1), OmegaParam(-1, (1,), (0,))):
        stream = rng.child(repr(param))
        corner = sample_corner(field, param, 3, stream)
        assert list(corner.entries) == _reference_corner(field, param, 3, stream)
        assert all(e.is_zero() or e.ord >= -2 for e in corner.entries)
        assert max(e.rel for e in corner.entries) == 30


def test_corner_invariant_under_push(q3):
    # empirical charfun of samples equals that of pushed samples
    rng = RandomStream(41)
    count = 2500
    par = DeltaParam((1,), None)
    samples = [sample_corner(q3, par, 2, rng.child("s", i)) for i in range(count)]
    pushed = [
        orbital_push(s, KIND_TWO_SIDED, rng.child("p", i)) for i, s in enumerate(samples)
    ]
    A = MatF.diagonal(q3, [q3.uniformizer_pow(0), q3.zero()])
    e1 = empirical_charfun(samples, A)
    e2 = empirical_charfun(pushed, A)
    assert abs(e1.mean - e2.mean) <= 3 * (e1.stderr + e2.stderr)


# -- orbital pushes ----------------------------------------------------------------


def test_push_zero_fixed(q3):
    z = MatF.zeros(q3, 3)
    assert all(e.is_zero() for e in orbital_push(z, KIND_TWO_SIDED, RandomStream(1)).entries)


def test_push_preserves_singular_numbers(q3):
    X = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.from_int(2), q3.uniformizer_pow(2)])
    rng = RandomStream(43)
    for i in range(10):
        assert singular_numbers(orbital_push(X, KIND_TWO_SIDED, rng.child(i))) == (1, 0, -2)


@pytest.mark.parametrize("spec", [("padic", 3, 12), ("laurent", 3, 6)])
def test_push_draws_are_one_haar_draw(spec):
    # g1 and g2 of a two-sided push are samples 0 and 1 of one draw; the
    # congruence push reads sample 0 of a draw on the same path
    field = FieldParams(*spec)
    X = MatF.diagonal(field, [field.uniformizer_pow(-1), field.from_int(2), field.uniformizer_pow(2)])
    rng = RandomStream(53)
    g1, g2 = (_rows_as_matrix(field, g) for g in _haar_rows(rng.child("g"), field, 3, 3, field.precision, 2))
    assert g1 != g2
    assert orbital_push(X, KIND_TWO_SIDED, rng) == g1 @ X @ g2
    g = haar_gl(rng.child("g"), field, 3)
    assert orbital_push(X, KIND_CONGRUENCE, rng) == g @ X @ g.transpose()


def test_congruence_push_preserves_symmetry_and_classes(q3):
    X = MatF.diagonal(q3, [q3.eps(), q3.one(), q3.uniformizer_pow(1)])
    labels = sorted(sym_diagonalize(X).class_labels())
    rng = RandomStream(47)
    for i in range(10):
        pushed = orbital_push(X, KIND_CONGRUENCE, rng.child(i))
        assert pushed.is_symmetric()
        assert sorted(sym_diagonalize(pushed).class_labels()) == labels
