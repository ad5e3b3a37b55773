"""Verification suites: failures are reported as rows, never raised."""

from nonarch.field import FieldParams
from nonarch.sampling import RandomStream
from nonarch.verification import verify_decompositions, verify_exact_oracle, verify_measure_charfun

SEED = 20260811


def test_decompositions_reports_exhausted_push():
    # push 15 of the default-seed suite base over Q_3 runs out of digits
    field = FieldParams("padic", 3, 12)
    rng = RandomStream(1).child("decompositions").child("dec", field.spec_string())
    suite = verify_decompositions(field, rng, count=1, push_count=16)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert failed == ["two-sided push 15: precision exhausted at certified ord 9"]
    assert not suite.passed
    assert any(row["label"] == "Sing invariant under 15 two-sided pushes" and row["pass"] for row in suite.rows)


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
    # level 3 of the two-sided rank-two case: 3^4 residue row sets
    label = "two_sided D=[1, 0] A=[1, 1]: level stability"
    for spec in (("padic", 3, 12), ("laurent", 3, 12)):
        suite = verify_exact_oracle(FieldParams(*spec), RandomStream(SEED).child("oracle"), n_samples=2000)
        assert [row["pass"] for row in suite.rows if row["label"] == label] == [True]
