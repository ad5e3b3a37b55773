"""Verification suites: failures are reported as rows, never raised."""

import json
import re

import pytest

from nonarch.cli import MIN_MC_SAMPLES, main
from nonarch.errors import DimensionMismatch, TooLarge
from nonarch.field import FieldParams
from nonarch.sampling import RandomStream
from nonarch.verification import _suite, verify_decompositions, verify_exact_oracle, verify_measure_charfun
from nonarch.verification import verify_ball_fourier

SEED = 20260811


def test_decompositions_reports_exhausted_push():
    # push 147 of the default-seed suite base over Q_3 once ran out of digits
    # (certified ord 9); the one elimination rule resolves it
    field = FieldParams("padic", 3, 12)
    rng = RandomStream(1).child("decompositions").child("dec", field.spec_string())
    suite = verify_decompositions(field, rng, count=1, push_count=148)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert failed == []
    assert suite.passed
    assert any(row["label"] == "Sing invariant under 148 two-sided pushes" and row["pass"] for row in suite.rows)


def test_measure_charfun_batched_over_laurent():
    # the same 20 + 20 probes at n = 6 and both multiplicativity rows as
    # over Q_p, at the acceptance seed
    suite = verify_measure_charfun(FieldParams("laurent", 3, 12), RandomStream(SEED).child("charfun"))
    assert [row["label"].split(":")[0] for row in suite.rows] == [
        "two-sided family",
        "congruence family",
        "two-sided multiplicativity",
        "congruence multiplicativity",
    ]
    assert suite.passed


def test_exact_oracle_checks_rank_two_level_stability():
    # level stability of the two-sided rank-two case: its level-free tables
    # against the lift pairs enumerated at its level
    label = "two_sided D=[1, 0] A=[1, 1]: lift tables at level 2"
    for spec in (("padic", 3, 12), ("laurent", 3, 12)):
        suite = verify_exact_oracle(FieldParams(*spec), RandomStream(SEED).child("oracle"), n_samples=2000)
        assert [row["pass"] for row in suite.rows if row["label"] == label] == [True]


def test_exact_oracle_reports_guarded_levels(tmp_path):
    # over Q_59 the two-sided lift tables at level 2 (59^4 lift pairs) and
    # the rank-two residue pairs of a column (59^4) exceed the enumeration
    # guard: each is one failing row, the others are still checked, and
    # verify exits 2 rather than 1
    field = FieldParams("padic", 59, 6)
    suite = verify_exact_oracle(field, RandomStream(1).child("oracle"), n_samples=MIN_MC_SAMPLES)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert [label.split(" past ")[0] for label in failed] == [
        "two_sided D=[1] A=[1]: lift tables at level 2",
        "two_sided D=[1, 0] A=[1]: lift tables at level 2",
        "two_sided D=[1, 0] A=[1, 1]: exact value",
    ]
    assert all("past the enumeration guard" in label for label in failed)
    assert len(suite.rows) == 1 + 5 * 4
    out = str(tmp_path / "report.json")
    assert main(["verify", "--field", field.spec_string(), "--samples", str(MIN_MC_SAMPLES), "--out", out, "bounds"]) == 2


def test_exact_oracle_passes_over_q17(tmp_path):
    # over Q_17 the two-sided cases need no level past the guard: every row
    # passes, and so does verify bounds
    field = FieldParams("padic", 17, 8)
    suite = verify_exact_oracle(field, RandomStream(1).child("oracle"), n_samples=200)
    assert [row["label"] for row in suite.rows if not row["pass"]] == []
    assert len(suite.rows) == 6 * 4
    out = str(tmp_path / "report.json")
    assert main(["verify", "--field", field.spec_string(), "--samples", "200", "--out", out, "bounds"]) == 0


@pytest.mark.parametrize("family", ["padic", "laurent"])
def test_ball_fourier_refuses_residue_sets_past_the_guard(family, tmp_path):
    # at (l, ord y) = (-2, -3) the average runs over 257^5 residues, past
    # the enumeration guard: one refused row, and identities exits 2, not 1
    field = FieldParams(family, 257, 3)
    assert [(row["label"], row["pass"]) for row in verify_ball_fourier(field).rows] == [
        ("refused: TooLarge: enumeration of 257^5 residues exceeds the guard", False)
    ]
    assert main(["verify", "identities", "--field", field.spec_string(), "--out", str(tmp_path / "report.json")]) == 2


@pytest.mark.parametrize(
    "suite, spec",
    [
        ("charfun", "padic:p=3,prec=8"),
        ("charfun", "padic:p=7,prec=8"),
        ("charfun", "laurent:p=5,prec=10"),
        ("identities", "padic:p=3,prec=3"),
        ("bounds", "padic:p=3,prec=3"),
    ]
    + [
        (suite, f"{family}:p=2,prec=12")
        for family in ("padic", "laurent")
        for suite in ("bounds", "charfun", "converge", "uniqueness")
    ],
)
def test_library_refusal_is_a_failing_row(suite, spec, tmp_path):
    # a field or precision the library refuses ends the suite with a row
    # naming the error: verify exits 2, not 1
    out = tmp_path / "report.json"
    assert main(["verify", suite, "--field", spec, "--samples", "100", "--out", str(out)]) == 2
    failed = [row["label"] for s in json.loads(out.read_text()) for row in s["checks"] if not row["pass"]]
    assert re.match(r"refused: (InsufficientPrecision|PrecisionExhausted|TooLarge|DyadicField): ", failed[-1])


def test_runner_keeps_the_rows_before_a_refusal_and_raises_a_bug():
    @_suite("toy")
    def toy(error):
        yield "first", True
        raise error

    suite = toy(TooLarge("over the guard"))
    assert [(row["label"], row["pass"]) for row in suite.rows] == [
        ("first", True),
        ("refused: TooLarge: over the guard", False),
    ]
    with pytest.raises(DimensionMismatch):
        toy(DimensionMismatch("a bug, not a refusal"))
