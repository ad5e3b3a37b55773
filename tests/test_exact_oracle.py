"""The exact orbital oracle's parts against enumeration: level-free cell
tables against the enumerated lift tables, the subspace lattice against
residue rank, the Moebius sum against the residue count of
``exact_reference``, and the exact values on the bounds suite's grid against
the paper's factorization bound."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_reference import residue_count_integral
from nonarch.field import FieldParams
from nonarch.orbital import (
    _cell_tables,
    _lift_tables,
    _pair_data,
    _subspace_count,
    _subspace_lattice,
    error_bound,
    exact_orbital_integral,
    invertible_mask,
    product_formula,
)
from nonarch.sampling import KIND_CONGRUENCE, KIND_TWO_SIDED

FACTORS = {KIND_TWO_SIDED: 2, KIND_CONGRUENCE: 1}


# -- level-free cell tables --------------------------------------------------------


@pytest.mark.parametrize(
    "family, p, kind",
    [(family, p, kind) for family in ("padic", "laurent") for p in (3, 5) for kind in FACTORS]
    + [(family, 2, KIND_TWO_SIDED) for family in ("padic", "laurent")],
)
def test_cell_tables_equal_the_enumerated_lift_tables(family, p, kind):
    # one cell per depth 1..4, with units of one to four digits, enumerated at
    # level 4 and at each cell's own depth
    field = FieldParams(family, p, 12)
    D = [field.element(-m, [(3 * m + t) % (p - 1) + 1 for t in range(m)]) for m in range(1, 5)]
    pairs, level = _pair_data(field, D, [field.one()])
    tables = _cell_tables(field, kind, pairs)
    assert np.abs(tables - _lift_tables(field, pairs, level, FACTORS[kind])).max() <= 1e-12
    for pair, table in zip(pairs, tables):
        assert np.abs(table - _lift_tables(field, [pair], pair[2], FACTORS[kind])[0]).max() <= 1e-12


def test_depth_one_tables_stay_exact_past_int64_products():
    # at p = 3999971 a congruence column fits the guard (2 subspaces x p
    # vectors), and u0 d^2 reaches p^3 > 2^63 unless d^2 is reduced first
    p = 3999971
    field = FieldParams("padic", p, 3)
    pairs, _ = _pair_data(field, [field.element(-1, [p - 2])], [field.one()])
    table = _cell_tables(field, KIND_CONGRUENCE, pairs)[0]
    for d in (1, 2, 123457, p // 2, p - 1):
        assert abs(table[d] - np.exp(2j * np.pi * ((p - 2) * d * d % p) / p)) <= 1e-9


# -- the subspace lattice --------------------------------------------------------------


@pytest.mark.parametrize("q, r, n", [(2, 1, 3), (2, 3, 3), (3, 2, 3), (3, 3, 3), (5, 2, 2)])
def test_mobius_sum_over_subspaces_is_the_full_rank_indicator(q, r, n):
    P, mu = _subspace_lattice(q, r)
    assert len(P) == _subspace_count(q, r) == len({row.tobytes() for row in P})
    vectors = np.array(list(itertools.product(range(q), repeat=r)))[:, ::-1]  # row u has digit i in column i
    for row in P.astype(bool):
        members = vectors[row]
        sums = (members[:, None] + members[None, :]) % q @ q ** np.arange(r)
        assert row[0] and row[sums].all()  # contains 0, closed under addition
    # every r x n residue matrix: sum_W mu(W) prod_j 1[column j in W] = 1[rank r]
    columns = np.array(list(itertools.product(range(q**r), repeat=n)))
    indicator = P[:, columns].prod(axis=-1).T @ mu
    mats = vectors[columns].transpose(0, 2, 1)
    assert np.array_equal(indicator, invertible_mask(mats, q).astype(float))


# -- the Moebius oracle against the residue count -----------------------------------------


@st.composite
def oracle_cases(draw):
    family = draw(st.sampled_from(["padic", "laurent"]))
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(list(FACTORS)))
    n = draw(st.integers(1, 3))
    dv = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    av = draw(st.lists(st.integers(0, 1), min_size=1, max_size=min(n, 2)))
    depth = max(a + d for a in av for d in dv)
    level = draw(st.integers(max(1, depth), max(1, depth) + 1))
    return FieldParams(family, p, 12), kind, dv, av, level


@settings(max_examples=120)
@given(oracle_cases())
@example((FieldParams("padic", 2, 12), KIND_TWO_SIDED, [1, 0, 2], [1, 0], 3))
@example((FieldParams("padic", 2, 12), KIND_CONGRUENCE, [2, 1, 0], [1, 1], 3))
@example((FieldParams("laurent", 2, 12), KIND_TWO_SIDED, [2, 0], [1, 1], 4))
@example((FieldParams("laurent", 2, 12), KIND_CONGRUENCE, [1, 2, 0], [1, 0], 3))
def test_mobius_oracle_matches_the_residue_count(case):
    field, kind, dv, av, level = case
    reference = residue_count_integral(field, kind, dv, av, level)
    assert abs(exact_orbital_integral(field, kind, dv, av, level) - reference) <= 1e-13


# -- the bounds suite's grid, exactly ------------------------------------------------------


@pytest.mark.parametrize("spec", [("padic", 3, 12), ("laurent", 3, 12)])
def test_exact_integrals_clear_the_factorization_bound_on_the_bounds_grid(spec):
    # the (kind, n, D, A) grid of verify_bounds, A = (2,) added: |exact -
    # product| against the paper's bound with no sampling noise
    field = FieldParams(*spec)
    ratios = {}
    for kind in FACTORS:
        for n in (4, 6, 8):
            for dv in ((2, 1) + (0,) * (n - 2), (1,) * n, (2,) + (0,) * (n - 1), (0,) * n):
                for av in ((1,), (1, 1), (2, 1), (2,)):
                    level = max(a + d for a in av for d in dv)
                    exact = exact_orbital_integral(field, kind, list(dv), list(av), level)
                    gap = abs(exact - product_formula(field, kind, dv, av).to_complex(field.q))
                    bound = float(error_bound(kind, n, len(av), field.q).factorization)
                    assert gap <= bound + 1e-12, (kind, n, dv, av)
                    ratios[kind, n, dv, av] = gap / bound
    assert len(ratios) == 96
    # the tightest case: halving the congruence bound breaks it
    worst = max(ratios, key=ratios.get)
    assert worst == (KIND_CONGRUENCE, 6, (0,) * 6, (1,))
    assert ratios[worst] == pytest.approx(0.519, abs=5e-4)
