"""scripts/seed_sweep.py runs in-process: one clean seed, and an unknown
suite name refused by its argument parser."""

import runpy
from pathlib import Path

import pytest

SWEEP = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"))


def test_seed_sweep_reports_a_clean_seed(capsys):
    assert SWEEP["main"](["1", "1", "semigroup"]) == 0
    assert capsys.readouterr().out == "1 of 1 seeds pass: [1]\n"


def test_seed_sweep_refuses_an_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        SWEEP["main"](["1", "1", "no-such-suite"])
    assert exc.value.code == 2
    assert "unknown suite(s): no-such-suite" in capsys.readouterr().err
