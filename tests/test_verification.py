"""Verification suites: failures are reported as rows, never raised."""

from nonarch.field import FieldParams
from nonarch.sampling import RandomStream
from nonarch.verification import verify_decompositions


def test_decompositions_reports_exhausted_push():
    # push 15 of the default-seed suite base over Q_3 runs out of digits
    field = FieldParams("padic", 3, 12)
    rng = RandomStream(1).child("decompositions").child("dec", field.spec_string())
    suite = verify_decompositions(field, rng, count=1, push_count=16)
    failed = [row["label"] for row in suite.rows if not row["pass"]]
    assert failed == ["two-sided push 15: precision exhausted at certified ord 9"]
    assert not suite.passed
    assert any(row["label"] == "Sing invariant under 15 two-sided pushes" and row["pass"] for row in suite.rows)
