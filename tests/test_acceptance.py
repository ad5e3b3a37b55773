"""Acceptance suite: one test per criterion, at the stated scale, tolerance
and runtime budget.  Each prints a single PASS/FAIL line (run with -s to see
them on passing runs)."""

import time

import pytest

from nonarch.field import FieldParams
from nonarch.sampling import RandomStream
from nonarch import verification as V

SEED = 20260811


def report(num: int, name: str, suites, budget: float, elapsed: float):
    ok = all(s.passed for s in suites)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    for s in suites:
        for row in s.rows:
            if not row["pass"]:
                print(f"    FAILED CHECK: {s.name}: {row['label']}")
    assert ok, f"criterion {num} ({name}) has failing checks"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def field():
    return FieldParams("padic", 3, 12)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_1_gauss_sums():
    suite, dt = timed(V.verify_gauss_sums)
    report(1, "gauss-sum magnitudes and twist identities", [suite], 1.0, dt)


def test_criterion_2_kernel_oracles():
    suite, dt = timed(V.verify_kernel_oracles)
    report(2, "kernel closed form vs brute force", [suite], 10.0, dt)


def test_criterion_3_decompositions():
    t0 = time.perf_counter()
    suites = []
    for spec in (("padic", 3, 12), ("padic", 5, 12), ("laurent", 3, 12)):
        f = FieldParams(*spec)
        suites.append(V.verify_decompositions(f, RandomStream(SEED).child("dec", spec), count=1000, push_count=100))
    report(3, "decomposition round-trips over Q3, Q5, F3((t))", suites, 60.0, time.perf_counter() - t0)


def test_criterion_4_orbital_bounds(field):
    suite, dt = timed(V.verify_bounds, field, RandomStream(SEED).child("bounds"), n_samples=100_000)
    report(4, "orbital-integral factorization and multiplicativity bounds", [suite], 300.0, dt)


def test_criterion_5_exact_oracle(field):
    suite, dt = timed(V.verify_exact_oracle, field, RandomStream(SEED).child("oracle"), n_samples=100_000)
    report(5, "exact enumeration oracle vs MC and product formula", [suite], 120.0, dt)


def test_criterion_6_measure_charfun(field):
    suite, dt = timed(V.verify_measure_charfun, field, RandomStream(SEED).child("charfun"), n_samples=100_000)
    report(6, "measure-sampler characteristic functions", [suite], 180.0, dt)


def test_criterion_7_convergence(field):
    suite, dt = timed(V.verify_convergence, field, RandomStream(SEED).child("conv"), n_samples=100_000)
    report(7, "orbital-measure convergence to the classified limits", [suite], 120.0, dt)


def test_criterion_8_uniqueness(field):
    suite, dt = timed(V.verify_uniqueness, field, RandomStream(SEED).child("uniq"))
    report(8, "uniqueness suites and canonicalization", [suite], 30.0, dt)


def test_criterion_9_semigroup():
    suite, dt = timed(V.verify_semigroup, RandomStream(SEED).child("semi"))
    report(9, "semigroup worked example and char homomorphism", [suite], 10.0, dt)
