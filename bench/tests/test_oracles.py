"""Tests of the benchmark's own oracles, checks and tracer.

Run with: python3 -m pytest bench/tests -q
"""

import cmath
import math

import pytest

import oracles
import workloads

NEG_INF = -math.inf


# -- invariant-factor exponents ------------------------------------------------


def test_integer_exponents_from_invariant_factors():
    # diag(1, 3, 18) has invariant factors 1, 3, 18: 3-adic ords 0, 1, 2
    assert oracles.singular_exponents([[1, 0, 0], [0, 3, 0], [0, 0, 18]], 3, "padic") == (0, -1, -2)
    assert oracles.singular_exponents([[2, 4], [1, 2]], 5, "padic") == (0, NEG_INF)
    assert oracles.singular_exponents([[9]], 3, "padic", scale=3) == (1,)


def test_polynomial_exponents_from_invariant_factors():
    # [[t, 1], [0, t^2]] has invariant factors 1, t^3
    rows = [[[0, 1], [1]], [[], [0, 0, 1]]]
    assert oracles.singular_exponents(rows, 3, "laurent") == (0, -3)
    assert oracles.singular_exponents(rows, 3, "laurent", scale=1) == (1, -2)
    assert oracles.singular_exponents([[[1, 1], [1, 1]], [[1, 1], [1, 1]]], 3, "laurent") == (0, NEG_INF)


def test_determinant_ord_and_unit():
    assert oracles.determinant_ord_and_unit([[9, 0], [0, 2]], 3, "padic") == (2, 2)
    assert oracles.determinant_ord_and_unit([[[0, 2], [1]], [[1], []]], 3, "laurent") == (0, 2)
    assert oracles.determinant_ord_and_unit([[1, 2], [2, 4]], 3, "padic") is None


# -- the exponent check has teeth ---------------------------------------------------


def test_exponent_check_flags_the_reproducer():
    oracle = oracles.singular_exponents(workloads.REPRODUCER, 3, "padic")
    assert oracle == (0, -3, -3, NEG_INF)
    # what smith_normal_form reports over padic:p=3,prec=6 while fault (a) stands
    assert workloads._exponents_agree((0, -3, -3, -6), oracle) is not None
    assert workloads._exponents_agree(oracle, oracle) is None

    op = next(op for op in workloads.build_decompose(1) if op.known_fault)
    try:
        res = op.call(0)
    except op.sound:
        return  # a sound refusal is not a wrong exponent
    verdict = op.check(res, op.expect())
    assert (verdict is not None) == (res.sing != oracle)


def test_suite_push_bases_span_six_levels():
    # the fixed pushes of fault (b) start from the suite's bases at seeds 1 and 6
    from nonarch import FieldParams, RandomStream

    field = FieldParams(*workloads.SUITE_FIELD)
    spans = {}
    for seed in workloads.SUITE_PUSHES:
        rng = RandomStream(seed).child("decompositions", "dec", field.spec_string())
        base = workloads._suite_base(field, rng.child("base"))
        rows = workloads._exact_rows(field, base)
        spans[seed] = oracles.singular_exponents(rows, 3, "padic", workloads.BASE_SHIFT)
    assert spans == {1: (3, 3, -3, -3), 6: (2, 1, -1, -4)}


def test_certified_bound_must_contain_oracle_value():
    assert workloads._exponents_agree((0, range(-10, -5)), (0, -6)) is None
    assert workloads._exponents_agree((0, range(-10, -5)), (0, NEG_INF)) is not None


# -- brute-force orbital integral --------------------------------------------------


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_brute_force_worked_value(family):
    # n = r = 1, q = 3: the integral is -1/(q-1) = -1/2 (README)
    value = oracles.brute_orbital_integral(family, 3, oracles.TWO_SIDED, [0], [1], 1)
    assert abs(value - (-0.5)) < 1e-12


def test_brute_force_congruence_level_one():
    # chi(u^2 / 3) over the units u = 1, 2 of F_3: u^2 = 1 both times
    value = oracles.brute_orbital_integral("padic", 3, oracles.CONGRUENCE, [1], [0], 1)
    assert abs(value - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_brute_force_is_level_stable_and_trivial_below_level_one():
    for family in ("padic", "laurent"):
        lo = oracles.brute_orbital_integral(family, 3, oracles.CONGRUENCE, [1, 0], [0], 1)
        hi = oracles.brute_orbital_integral(family, 3, oracles.CONGRUENCE, [1, 0], [0], 2)
        assert abs(lo - hi) < 1e-12
    assert oracles.brute_orbital_integral("padic", 3, oracles.TWO_SIDED, [0, -1], [0], 1) == 1


def test_laurent_product_carries_nothing():
    # (1 + 2t)(2 + t) = 2 + 5t + 2t^2 = 2 + 2t + 2t^2 over F_3, packed base 3
    a, b = 1 + 2 * 3, 2 + 1 * 3
    assert oracles._laurent_mul(a, b, 3, 3) == 2 + 2 * 3 + 2 * 9
    assert oracles._laurent_mul(a, b, 3, 2) == 2 + 2 * 3


# -- workloads and tracer ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_do_not_depend_on_the_seed(name):
    rounds = [workloads.WORKLOADS[name](seed) for seed in (1, 2)]
    assert len(rounds[0]) == len(rounds[1])
    assert [op.known_fault for op in rounds[0]] == [op.known_fault for op in rounds[1]]


def test_tracer_counts_and_restores():
    import nonarch
    from tracer import Tracer

    original = nonarch.matrices.smith_normal_form
    ops = [op for op in workloads.build_decompose(3) if op.label.startswith("snf")][:4]
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        tracer.enabled = True
        for op in ops:
            op.call(0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(rounds=1)
    assert metrics["matrices.snf_calls"]["value"] == 4
    assert metrics["field.mul_calls"]["value"] > 0
    assert 0 < metrics["field.self_s"]["value"] <= metrics["matrices.snf_s"]["value"]
    assert nonarch.matrices.smith_normal_form is original
    assert workloads.smith_normal_form is original
