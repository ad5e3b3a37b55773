"""Orbital integrals: Monte Carlo engine, exact enumeration oracle, error
bounds, convergence experiment."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonarch.characters import CharValue
from nonarch.errors import DimensionMismatch, InsufficientPrecision, LevelTooLow, TooLarge
from nonarch import orbital
from nonarch.field import FieldParams, parse_field_spec
from nonarch.orbital import (
    _haar_rows,
    convergence_experiment,
    error_bound,
    exact_orbital_integral,
    full_rank_fraction,
    mc_orbital_multi,
    measure_charfun_batch,
    product_formula,
)
from nonarch.params import DeltaParam, OmegaParam
from nonarch.sampling import KIND_CONGRUENCE, KIND_TWO_SIDED, RandomStream


# -- product formula -------------------------------------------------------------


def test_product_formula_trivial(q3):
    assert product_formula(q3, KIND_TWO_SIDED, [0, 0], [0]) == CharValue.one()


def test_product_formula_bilinear(q3):
    # Theta(pi^-2) * Theta(pi^-1) = q^-3
    cv = product_formula(q3, KIND_TWO_SIDED, [1, 0], [1])
    assert cv == CharValue("+1", 6)


def test_product_formula_eps_flip(q3):
    a = product_formula(q3, KIND_CONGRUENCE, [1], [q3.one()])
    b = product_formula(q3, KIND_CONGRUENCE, [1], [q3.eps()])
    assert a == CharValue("+i", 1) and b == CharValue("-i", 1)


# -- error bounds ------------------------------------------------------------------


def test_full_rank_fraction():
    assert full_rank_fraction(4, 2, 3) == Fraction(80, 81) * Fraction(26, 27)


def test_error_bound_values():
    x = full_rank_fraction(4, 2, 3)
    b = error_bound(KIND_TWO_SIDED, 4, 2, 3)
    assert b.factorization == 2 * (1 - x * x)
    assert error_bound(KIND_CONGRUENCE, 4, 2, 3).factorization == 2 * (1 - x)
    # r = 1 forms
    assert error_bound(KIND_TWO_SIDED, 5, 1, 3).factorization == 2 * (
        2 * Fraction(1, 3**5) - Fraction(1, 3**10)
    )
    assert error_bound(KIND_CONGRUENCE, 5, 1, 3).factorization == Fraction(2, 3**5)


def test_error_bound_monotone_to_zero():
    prev = None
    for n in range(2, 12):
        b = float(error_bound(KIND_TWO_SIDED, n, 2, 3).factorization)
        if prev is not None:
            assert b < prev
        prev = b
    assert prev < 1e-3


def test_squared_deficit_constant_is_violated(q3):
    """The comparison bound must use the union form 2(1 - x^2): the
    superficially tighter 2(1 - x)^2 fails already at n = r = 1, where the
    integral is exactly -1/(q-1) while the kernel product is q^-1."""
    exact = exact_orbital_integral(q3, KIND_TWO_SIDED, [0], [1], level=1)
    assert exact == pytest.approx(-0.5, abs=1e-12)
    prod = product_formula(q3, KIND_TWO_SIDED, [0], [1]).to_complex(3)
    gap = abs(exact - prod)
    x = full_rank_fraction(1, 1, 3)
    squared_deficit = 2 * float(1 - x) ** 2
    union = 2 * float(1 - x * x)
    assert gap > squared_deficit  # 5/6 > 2/9
    assert gap <= union  # 5/6 <= 10/9


def test_union_bound_holds_exactly_at_small_sizes(q3):
    for kind in (KIND_TWO_SIDED, KIND_CONGRUENCE):
        for dv, av in ([(1,), (1,)], [(1, 0), (1,)], [(1, 1), (1, 1)]):
            exact = exact_orbital_integral(q3, kind, list(dv), list(av), level=2)
            prod = product_formula(q3, kind, list(dv), list(av)).to_complex(3)
            bound = float(error_bound(kind, len(dv), len(av), 3).factorization)
            assert abs(exact - prod) <= bound + 1e-12


# -- Monte Carlo engine ---------------------------------------------------------------


def test_mc_constant_integrand(q3):
    est = mc_orbital_multi(q3, KIND_TWO_SIDED, [0, 0], [[0]], 500, RandomStream(1))[0]
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mc_reproducible(q3):
    a = mc_orbital_multi(q3, KIND_TWO_SIDED, [1, 0], [[1]], 2000, RandomStream(5))[0]
    b = mc_orbital_multi(q3, KIND_TWO_SIDED, [1, 0], [[1]], 2000, RandomStream(5))[0]
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_congruence_unit_level_is_constant(q3):
    # n=1, D=(pi^-1), A=(1): the integrand is constant e^{2 pi i/3} on units
    est = mc_orbital_multi(q3, KIND_CONGRUENCE, [1], [[0]], 400, RandomStream(3))[0]
    assert est.mean == pytest.approx(np.exp(2j * np.pi / 3))
    assert est.stderr <= 1e-15


def test_mc_rank_guard(q3):
    with pytest.raises(DimensionMismatch):
        mc_orbital_multi(q3, KIND_TWO_SIDED, [1], [[1, 1]], 200, RandomStream(1))


def test_mc_refuses_fewer_than_one_sample(q3):
    # no samples give no estimate, not a certain mean of 1; both Monte Carlo
    # estimators share the one check
    for n_samples in (0, -5):
        with pytest.raises(ValueError, match="at least one sample"):
            mc_orbital_multi(q3, KIND_TWO_SIDED, [1, 0], [[1]], n_samples, RandomStream(1))
        with pytest.raises(ValueError, match="at least one sample"):
            measure_charfun_batch(q3, DeltaParam((1,), None), 2, n_samples, [[q3.one()]], RandomStream(1))


def test_mc_argument_beyond_the_window_raises_like_chi():
    # pi^-6 stores 4 digits at prec=4, and chi needs 6: the error chi raises
    with pytest.raises(InsufficientPrecision):
        mc_orbital_multi(parse_field_spec("padic:p=3,prec=4"), KIND_TWO_SIDED, [6], [[0]], 100, RandomStream(1))


def test_mc_multi_shares_draws(q3):
    ests = mc_orbital_multi(q3, KIND_CONGRUENCE, [1, 0], [[1], [1, 0]], 3000, RandomStream(9))
    single = mc_orbital_multi(q3, KIND_CONGRUENCE, [1, 0], [[1]], 3000, RandomStream(9))[0]
    assert ests[0].mean == single.mean


def test_mc_matches_exact_small_cases(q3):
    rng = RandomStream(11)
    for kind, dv, av in (
        (KIND_TWO_SIDED, [1, 0], [1]),
        (KIND_CONGRUENCE, [1, 1], [1]),
    ):
        exact = exact_orbital_integral(q3, kind, dv, av, level=2)
        est = mc_orbital_multi(q3, kind, dv, [av], 40_000, rng.child(kind))[0]
        assert abs(est.mean - exact) <= 3 * est.stderr


def test_mc_laurent_matches_exact(l3):
    exact = exact_orbital_integral(l3, KIND_CONGRUENCE, [1, 0], [0], level=1)
    est = mc_orbital_multi(l3, KIND_CONGRUENCE, [1, 0], [[0]], 20_000, RandomStream(13))[0]
    assert abs(est.mean - exact) <= 3 * est.stderr
    exact2 = exact_orbital_integral(l3, KIND_TWO_SIDED, [1, 0], [0, None], level=1)
    est2 = mc_orbital_multi(l3, KIND_TWO_SIDED, [1, 0], [[0, None]], 20_000, RandomStream(14))[0]
    assert abs(est2.mean - exact2) <= 3 * est2.stderr + 1e-12


# (field, kind, n) -> (mean, stderr) of the probe [1], then of the probes
# [2] and [2, 1] in one call; D = (2, 1, 0, ..), 3000 samples in chunks of
# 1024.  The draws and the phase kernel must reproduce these floats exactly.
PINNED_DRAWS = {
    ("padic:p=3,prec=12", "two_sided", 4): [
        ((0.0010581214284988087+0.022063748712993145j), 0.018256006802841247),
        ((-0.006344943783478567+0.027059316011482204j), 0.018253408101983885),
        ((-0.016786984179544433-0.01781230129816634j), 0.0182549916808699),
    ],
    ("padic:p=3,prec=12", "two_sided", 8): [
        ((-0.013766680850468968-0.020508303100446896j), 0.018254890934078612),
        ((0.00010185197521884634+0.0052602295118340855j), 0.018260209517447848),
        ((0.000848401547983696+0.0004719309300643827j), 0.018260453642258652),
    ],
    ("padic:p=3,prec=12", "congruence", 4): [
        ((-0.018143093441484282-0.02242210830560009j), 0.01825286501987144),
        ((0.01257241219632718+0.0001605615989663877j), 0.018259018780120245),
        ((0.007702071926044815-0.0056012116583980705j), 0.01825963415803275),
    ],
    ("padic:p=3,prec=12", "congruence", 8): [
        ((-0.004171022498374328-0.005332932298633598j), 0.01826004373490214),
        ((-0.0032255731102593236+0.015692271811960715j), 0.018258118807678275),
        ((0.009104907630179113-0.013473198382226655j), 0.018258047813611428),
    ],
    ("laurent:p=3,prec=12", "two_sided", 4): [
        ((-0.0040000000000000825-0.00866025403784427j), 0.018259631377604953),
        ((-0.008500000000000079+0.0014433756729741796j), 0.018259783554413787),
        ((0.01649999999999992+0.004907477288111934j), 0.01825775645524796),
    ],
    ("laurent:p=3,prec=12", "two_sided", 8): [
        ((0.02599999999999992+0.008660254037844496j), 0.01825360415611748),
        ((-0.014000000000000085-0.023094010767584904j), 0.018253802051043003),
        ((0.027499999999999927+0.010103629710818563j), 0.018252623783460528),
    ],
    ("laurent:p=3,prec=12", "congruence", 4): [
        ((-0.00100000000000009-0.0340636658821878j), 0.01824985592553148),
        ((0.014499999999999926+0.02396003617136958j), 0.018253299698196477),
        ((0.0014999999999999194-0.0014433756729739476j), 0.018260422683162206),
    ],
    ("laurent:p=3,prec=12", "congruence", 8): [
        ((-0.014500000000000075+0.010680979980008191j), 0.018257500769099443),
        ((0.017499999999999925+0.009526279441628937j), 0.01825683718596072),
        ((0.006499999999999923-0.0025980762113532j), 0.018260014860734315),
    ],
}


@pytest.mark.parametrize("spec, kind, n", list(PINNED_DRAWS))
def test_mc_orbital_draws_pinned(monkeypatch, spec, kind, n):
    monkeypatch.setattr(orbital, "_CHUNK", 1024)
    field = parse_field_spec(spec)
    D = [2, 1] + [0] * (n - 2)
    rng = RandomStream(20261018).child(spec, kind, n)
    one = mc_orbital_multi(field, kind, D, [[1]], 3000, rng.child("one"))
    multi = mc_orbital_multi(field, kind, D, [[2], [2, 1]], 3000, rng.child("multi"))
    assert [(e.mean, e.stderr) for e in one + multi] == PINNED_DRAWS[spec, kind, n]


def test_mc_window_guard_per_family():
    # depth 13 at p = 7: residues mod 7^13 overflow int64 products, but the
    # F_p((t)) kernel only multiplies digits below 7
    with pytest.raises(TooLarge):
        mc_orbital_multi(FieldParams("padic", 7, 30), KIND_TWO_SIDED, [12, 0], [[1]], 1000, RandomStream(1))[0]
    field = FieldParams("laurent", 7, 30)
    est = mc_orbital_multi(field, KIND_TWO_SIDED, [12, 0], [[1]], 1000, RandomStream(1))[0]
    closed = product_formula(field, KIND_TWO_SIDED, [12, 0], [1]).to_complex(field.q)
    bound = float(error_bound(KIND_TWO_SIDED, 2, 1, field.q).factorization)
    assert abs(est.mean - closed) <= bound + 3 * est.stderr


# -- Haar row sampler -------------------------------------------------------------------


@pytest.mark.parametrize("r, classes", [(1, 8), (2, 48)])
def test_haar_rows_uniform_on_full_rank_residues(q3, l3, r, classes):
    # n = 2, p = 3, K = 1: the first r rows of GL(2, F_3) are the 8 nonzero
    # rows (r = 1) or the 48 invertible matrices (r = 2), equally likely
    N = 1000 * classes
    for field in (q3, l3):
        rows = _haar_rows(RandomStream(31).child(field.family, r), field, 2, r, 1, N)
        res = rows.reshape(N, 2 * r)
        if r == 1:
            assert (res != 0).any(axis=1).all()
        else:
            assert ((res[:, 0] * res[:, 3] - res[:, 1] * res[:, 2]) % 3 != 0).all()
        codes = res @ (3 ** np.arange(2 * r))
        counts = np.bincount(codes, minlength=3 ** (2 * r))[np.unique(codes)]
        assert len(counts) == classes
        # five binomial standard deviations around N / classes
        sd = np.sqrt(N * (1 / classes) * (1 - 1 / classes))
        assert np.abs(counts - N / classes).max() <= 5 * sd


def test_haar_rows_prefix_consistent(q3, l3):
    for field in (q3, l3):
        one = _haar_rows(RandomStream(33).child("g"), field, 2, 1, 2, 5000)
        two = _haar_rows(RandomStream(33).child("g"), field, 2, 2, 2, 5000)
        assert np.array_equal(one, two[:, :1])


# -- exact oracle -----------------------------------------------------------------------


def test_exact_identity_case(q3):
    assert exact_orbital_integral(q3, KIND_TWO_SIDED, [0, 0], [0], level=1) == 1.0


def test_exact_congruence_worked_example(q3):
    val = exact_orbital_integral(q3, KIND_CONGRUENCE, [1], [0], level=1)
    assert val == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)


def test_exact_level_guards(q3):
    with pytest.raises(LevelTooLow):
        exact_orbital_integral(q3, KIND_TWO_SIDED, [1], [1], level=1)
    with pytest.raises(TooLarge, match="column values"):  # 8 rows read: 3^16 residue pairs per column
        exact_orbital_integral(q3, KIND_TWO_SIDED, [2] * 8, [2] * 8, level=4)
    # 3 rows read: 3^6 residue pairs per column and 28 subspaces of F_3^3
    exact = exact_orbital_integral(q3, KIND_TWO_SIDED, [2, 2, 2], [2, 2, 2], level=4)
    prod = product_formula(q3, KIND_TWO_SIDED, [2, 2, 2], [2, 2, 2]).to_complex(3)
    assert abs(exact - prod) <= float(error_bound(KIND_TWO_SIDED, 3, 3, 3).factorization)


def test_exact_rejects_unknown_kind(q3):
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        exact_orbital_integral(q3, "bogus", [1], [1], 2)


def test_product_formula_rejects_unknown_kind(q3):
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        product_formula(q3, "bogus", [1], [1])


def test_exact_level_stability(q3):
    v1 = exact_orbital_integral(q3, KIND_CONGRUENCE, [1, 0], [0], level=1)
    v2 = exact_orbital_integral(q3, KIND_CONGRUENCE, [1, 0], [0], level=2)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_exact_permutation_invariance(q3):
    a = exact_orbital_integral(q3, KIND_TWO_SIDED, [1, 0], [1], level=2)
    b = exact_orbital_integral(q3, KIND_TWO_SIDED, [0, 1], [1], level=2)
    assert a == pytest.approx(b, abs=1e-12)


def _direct_exact(family, kind, dv, av, level, p=3):
    """The orbital integral averaged over all of GL(n, O_F / pi^level), n <= 2,
    enumerated as whole n x n matrices; D = diag(pi^-dv), A = diag(pi^-av)."""
    n = len(dv)
    base, entries = (p**level, n * n) if family == "padic" else (p, n * n * level)
    codes = np.arange(base**entries)
    g = np.stack([codes // base**t % base for t in range(entries)], axis=1)
    g = g.reshape((-1, n, n) if family == "padic" else (-1, n, n, level))
    res = g % p if family == "padic" else g[..., 0]
    det = res[:, 0, 0] if n == 1 else res[:, 0, 0] * res[:, 1, 1] - res[:, 0, 1] * res[:, 1, 0]
    g = g[det % p != 0]
    # tr(g1 D g2 A) = sum a_i x_j g1[i, j] g2[j, i]; for congruence g2 = g^t
    U, V = [], []
    for i, a in enumerate(av):
        for j, d in enumerate(dv):
            m = a + d
            if m < 1:
                continue
            g2_ji = g[:, j, i] if kind == KIND_TWO_SIDED else g[:, i, j]
            if family == "padic":
                U.append(g[:, i, j] * p ** (level - m))
                V.append(g2_ji)
            else:  # coefficient of t^-1
                for beta in range(m):
                    U.append(g[:, i, j, beta])
                    V.append(g2_ji[:, m - 1 - beta])
    U, V = np.stack(U, axis=1), np.stack(V, axis=1)
    M = p**level if family == "padic" else p
    if kind == KIND_CONGRUENCE:
        return complex(np.exp(2j * np.pi * ((U * V).sum(axis=1) % M) / M).mean())
    total = sum(np.exp(2j * np.pi * (U[s : s + 512] @ V.T % M) / M).sum() for s in range(0, len(U), 512))
    return complex(total / len(U) ** 2)


EXACT_ORACLE_CASES = [
    (KIND_TWO_SIDED, [1], [1], 2),
    (KIND_TWO_SIDED, [1, 0], [1], 2),
    (KIND_TWO_SIDED, [1, 0], [1, 1], 2),
    (KIND_CONGRUENCE, [1], [1], 2),
    (KIND_CONGRUENCE, [1, -1], [1], 2),
    (KIND_CONGRUENCE, [1, 1], [1, 0], 2),
]


@pytest.mark.parametrize("kind, dv, av, level", EXACT_ORACLE_CASES)
def test_exact_rows_match_whole_matrix_enumeration(q3, l3, kind, dv, av, level):
    for field in (q3, l3):
        direct = _direct_exact(field.family, kind, dv, av, level)
        assert exact_orbital_integral(field, kind, dv, av, level) == pytest.approx(direct, abs=1e-12)


# whole-matrix enumerations up to these sizes take well under a second
DIRECT_LIMIT = {KIND_TWO_SIDED: 4096, KIND_CONGRUENCE: 531441}


@st.composite
def direct_cases(draw):
    family = draw(st.sampled_from(["padic", "laurent"]))
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from([KIND_TWO_SIDED, KIND_CONGRUENCE]))
    n = draw(st.integers(1, 2))
    top = max(L for L in range(1, 5) if p ** (L * n * n) <= DIRECT_LIMIT[kind])
    dv = draw(st.lists(st.integers(-1, top - 1), min_size=n, max_size=n))
    av = draw(st.lists(st.integers(0, 1), min_size=1, max_size=n))
    level = draw(st.integers(max(1, max(a + d for a in av for d in dv)), top))
    return FieldParams(family, p, 12), kind, dv, av, level


@settings(max_examples=60)
@given(direct_cases())
def test_exact_matches_whole_matrix_enumeration_everywhere(case):
    field, kind, dv, av, level = case
    reads = max(a + d for a in av for d in dv) >= 1
    direct = _direct_exact(field.family, kind, dv, av, level, field.p) if reads else 1
    assert exact_orbital_integral(field, kind, dv, av, level) == pytest.approx(direct, abs=1e-12)


def test_exact_reaches_level_three_at_rank_one(q3):
    exact = exact_orbital_integral(q3, KIND_TWO_SIDED, [2, 1], [1], level=3)
    prod = product_formula(q3, KIND_TWO_SIDED, [2, 1], [1]).to_complex(3)
    assert abs(exact - prod) <= float(error_bound(KIND_TWO_SIDED, 2, 1, 3).factorization)


def test_exact_two_sided_rank_two_level_three(q3, l3):
    # 27^4 whole matrices mod 27 per factor; the oracle's value is level-free
    for field in (q3, l3):
        v2 = exact_orbital_integral(field, KIND_TWO_SIDED, [1, 0], [1, 1], level=2)
        v3 = exact_orbital_integral(field, KIND_TWO_SIDED, [1, 0], [1, 1], level=3)
        assert v3 == pytest.approx(v2, abs=1e-12)


# -- cross-module identities -----------------------------------------------------------


def test_char_mu_equals_generator_kernel_product(q3):
    # for a -inf tail the closed characteristic function is exactly the
    # kernel product over the canonical diagonal generator, at any n
    from nonarch.orbital import generator_diagonal

    par = DeltaParam((3, 1, 1), None)
    for n in (3, 5, 7):
        D = generator_diagonal(q3, par, n)
        for ell in range(-4, 5):
            prod = product_formula(q3, KIND_TWO_SIDED, D, [ell])
            assert prod == par.char_single(ell)


def test_char_nu_equals_generator_kernel_product(q3):
    from nonarch.orbital import generator_diagonal

    om = OmegaParam(None, (2, 1), (0,))
    D = generator_diagonal(q3, om, 5)
    for ell in range(-3, 4):
        for u in (q3.one(), q3.eps()):
            x = u.shift(-ell)
            prod = product_formula(q3, KIND_CONGRUENCE, D, [x])
            assert prod == om.char_single(x)


def test_exact_oracle_against_field_level_enumeration(q3):
    # fully independent route: enumerate GL(2, F_3), lift each residue
    # matrix to exact field elements, evaluate chi(tr(g1 D g2 A)) with
    # element arithmetic, and average
    from nonarch.characters import chi
    from nonarch.matrices import MatF
    from residue_reference import enumerate_gl

    D = MatF.diagonal(q3, [q3.uniformizer_pow(-1), q3.one()])
    A = MatF.diagonal(q3, [q3.uniformizer_pow(0), q3.zero()])
    lifts = [
        MatF.from_rows(q3, [[q3.from_int(v) for v in row] for row in rows])
        for rows in enumerate_gl(2, 3)
    ]
    acc = 0j
    for g1 in lifts:
        for g2 in lifts:
            acc += chi((g1 @ D @ g2 @ A).trace())
    brute = acc / len(lifts) ** 2
    fast = exact_orbital_integral(q3, KIND_TWO_SIDED, [1, 0], [0], level=1)
    assert brute == pytest.approx(fast, abs=1e-9)

    acc = 0j
    for g in lifts:
        acc += chi((g @ D @ g.transpose() @ A).trace())
    brute_sym = acc / len(lifts)
    fast_sym = exact_orbital_integral(q3, KIND_CONGRUENCE, [1, 0], [0], level=1)
    assert brute_sym == pytest.approx(fast_sym, abs=1e-9)


# -- convergence experiment ------------------------------------------------------------------


def test_convergence_haar_parameter_trivial(q3):
    rows = convergence_experiment(q3, DeltaParam((), 0), [2, 4], 2000, RandomStream(25))
    assert all(r.passed for r in rows)


def test_convergence_rank_one(q3):
    rows = convergence_experiment(q3, DeltaParam((1,), None), [2, 4, 8], 20_000, RandomStream(27))
    assert all(r.passed for r in rows)
    assert all(a.bound > b.bound for a, b in zip(rows, rows[1:]))
    rows = convergence_experiment(q3, OmegaParam(None, (1,), ()), [2, 4, 8], 20_000, RandomStream(29))
    assert all(r.passed for r in rows)
