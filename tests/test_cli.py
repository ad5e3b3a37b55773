"""CLI surface: subcommands, wire formats, exit codes, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonarch.cli import main
from nonarch.matrices import MatF


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "padic:p=3,prec=12")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 3 and payload["nonsquare_unit_digit"] == 2


def test_theta_worked_example(capsys):
    code, out, _ = run(capsys, "theta", "--field", "padic:p=3,prec=12", "--x", "ord=-2,unit=1")
    assert code == 0
    assert json.loads(out) == {"unit": "+1", "half_exp": 2}


def test_gauss_sum(capsys):
    code, out, _ = run(capsys, "gauss-sum", "--field", "padic:p=3,prec=8", "--a", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == -1 and payload["rho"] == "i"


def test_snf_subcommand(capsys, q3):
    A = MatF.from_rows(
        q3,
        [
            [q3.zero(), q3.uniformizer_pow(1)],
            [q3.uniformizer_pow(-1), q3.zero()],
        ],
    )
    code, out, _ = run(capsys, "snf", "--matrix", json.dumps(A.to_json()))
    assert code == 0
    payload = json.loads(out)
    assert payload["sing"] == [1, -1]
    assert payload["recomposes"]


def test_symdiag_subcommand(capsys, q3):
    A = MatF.from_rows(q3, [[q3.zero(), q3.one()], [q3.one(), q3.zero()]])
    code, out, _ = run(capsys, "symdiag", "--matrix", json.dumps(A.to_json()))
    assert code == 0
    payload = json.loads(out)
    assert sorted(list(c) for c in payload["classes"]) == [[0, False], [0, True]]
    assert payload["recomposes"]


def test_charfun_delta(capsys):
    code, out, _ = run(
        capsys,
        "charfun",
        "--param",
        '{"head": [2], "tail": "neginf"}',
        "--args",
        "[0, -2]",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [{"unit": "+1", "half_exp": 4}, {"unit": "+1", "half_exp": 0}]


def test_charfun_omega(capsys):
    code, out, _ = run(
        capsys,
        "charfun",
        "--param",
        '{"k": "neginf", "kk": [0], "kkp": []}',
        "--args",
        '[{"ord": -1, "digits": [1]}]',
    )
    assert code == 0
    assert json.loads(out)["values"] == [{"unit": "+i", "half_exp": 1}]


def test_oplus_worked_example(capsys):
    code, out, _ = run(
        capsys,
        "oplus",
        "--a",
        '{"head": [6, 2, 2], "tail": {"const": -3}}',
        "--b",
        '{"head": [4, 3, 0, -1], "tail": "neginf"}',
    )
    assert code == 0
    assert json.loads(out) == {"head": [6, 4, 3, 2, 2, 0, -1], "tail": {"const": -3}}


def test_sample_is_reproducible(capsys):
    argv = ["sample", "--kind", "haar", "--n", "2", "--count", "2", "--seed", "9"]
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed: 9" in err1


def test_sample_mu_with_param(capsys):
    code, out, _ = run(
        capsys,
        "sample",
        "--kind",
        "mu",
        "--param",
        '{"head": [1], "tail": "neginf"}',
        "--n",
        "2",
        "--seed",
        "4",
    )
    assert code == 0
    mats = json.loads(out)
    assert len(mats) == 1 and mats[0]["rows"] == 2


def test_sample_nu_with_param(capsys, q3):
    code, out, _ = run(
        capsys,
        "sample",
        "--kind",
        "nu",
        "--param",
        '{"k": "neginf", "kk": [0], "kkp": []}',
        "--n",
        "3",
        "--seed",
        "4",
    )
    assert code == 0
    M = MatF.from_json(q3, json.loads(out)[0])
    assert M.is_symmetric()


def test_sample_nu_requires_param(capsys):
    assert run(capsys, "sample", "--kind", "nu", "--n", "2")[0] == 1


def test_haar_sample_past_int64_residues_is_one_error_line(capsys):
    # (p-1)^2 >= 2^63: the residue elimination of a Haar draw would wrap in int64
    code, out, err = run(capsys, "sample", "--kind", "haar", "--field", "padic:p=4294967311,prec=2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: TooLarge: ")


def test_verify_quick_suites(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    argv = [
        "verify",
        "identities",
        "semigroup",
        "--seed",
        "7",
        "--out",
        str(out_file),
    ]
    code, _, err = run(capsys, *argv)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert all(s["pass"] for s in report)
    assert "seed: 7" in err
    # byte-identical rerun
    out2 = tmp_path / "report2.json"
    code2, _, _ = run(capsys, "verify", "identities", "semigroup", "--seed", "7", "--out", str(out2))
    assert code2 == 0
    assert out_file.read_bytes() == out2.read_bytes()


def test_verify_decompositions_report_pinned(capsys, tmp_path):
    # sha256 of the report: a refactor must leave it byte-identical; a change
    # to the draws or the checks re-pins it and says so in CHANGES.md
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "decompositions", "--trials", "100", "--seed", "1", "--out", str(out_file))
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "e10d2b405139a8890b767b960ecf441cf27f13b39035f298cd3b85aff180c96e"


def test_verify_uniqueness_semigroup_report_pinned(capsys, tmp_path):
    # the exact suites, whose pair counts and argument ranges are constants:
    # a refactor must leave their report byte-identical
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "uniqueness", "semigroup", "--seed", "1", "--out", str(out_file))
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == "8f67070805a2105e97ff50b52f5d51d29a05955d454373e1251f9b822f755531"


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("padic:p=3,prec=12", "60b408fe8fb27a8cfc1bc4f364bf8eb5a72bbcc68a65ddabaa3466c4407432df"),
        ("laurent:p=3,prec=12", "2fd4b854daf178c53d65287ea3cf6fc6c645a88ae550018065c1fbd3204317ff"),
    ],
)
def test_verify_statistical_reports_pinned(capsys, tmp_path, spec, expected):
    # the Monte Carlo suites at a small sample count: estimates, standard
    # errors, bounds and verdicts must stay byte-identical under a refactor
    out_file = tmp_path / "report.json"
    argv = ["verify", "bounds", "charfun", "converge", "--samples", "100", "--seed", "1"]
    code, _, _ = run(capsys, *argv, "--field", spec, "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == expected


# every suite but decompositions, which pins its own fields
VERIFY_SUITES = ("identities", "bounds", "charfun", "converge", "uniqueness", "semigroup")


@settings(max_examples=8)
@example("laurent", 7, 20, 1)  # two-byte Kronecker slots through every suite
@given(
    st.sampled_from(("padic", "laurent")),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(3, 20),
    st.integers(0, 2**64 - 1),
)
def test_verify_fails_cleanly_on_any_field(family, p, prec, seed):
    """On any field, a suite that cannot run reports a failing row (exit 2);
    no error escapes as exit 1 or as a traceback."""
    field = f"{family}:p={p},prec={prec}"
    argv = ["verify", *VERIFY_SUITES, "--field", field, "--seed", str(seed), "--samples", "100", "--trials", "1"]
    assert main([*argv, "--out", os.devnull]) in (0, 2)


def test_verify_csv_format(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "semigroup", "--seed", "3", "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("label,pass")
    assert len(lines) > 2  # one row per check


def test_converge_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "converge",
        "--param",
        '{"head": [1], "tail": "neginf"}',
        "--n-list",
        "2,4",
        "--samples",
        "2000",
        "--seed",
        "11",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 4]
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("payload", ['{"head": [1, 2], "tail": "neginf"}', '{"k": "neginf", "kk": [], "kkp": [1, 1]}'])
def test_converge_refuses_an_invalid_parameter(capsys, payload):
    code, out, err = run(capsys, "converge", "--param", payload, "--n-list", "4", "--samples", "200")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1 and out == ""
    assert len(errors) == 1 and errors[0].startswith("error: InvalidParam: ")


@pytest.mark.parametrize("spec", ["padic:p=3,prec=12", "laurent:p=3,prec=12"])
def test_converge_large_n(capsys, spec):
    code, out, _ = run(
        capsys,
        "converge",
        "--field",
        spec,
        "--param",
        '{"head": [1], "tail": "neginf"}',
        "--n-list",
        "32,64",
        "--samples",
        "2000",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [32, 64]
    assert all(r["pass"] for r in rows)
    assert rows[0]["bound"] > rows[1]["bound"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "theta", "--field", "padic:p=4,prec=3", "--x", "ord=0,unit=1")[0] == 1
    assert run(capsys, "snf", "--matrix", "not-json")[0] == 1
    assert run(capsys, "verify", "identities", "--samples", "10")[0] == 1
    assert run(capsys, "verify", "decompositions", "--trials", "0")[0] == 1
    assert run(capsys, "sample", "--kind", "haar", "--count", "-3")[0] == 1
    assert run(capsys, "sample", "--kind", "haar", "--n", "0")[0] == 1
    assert run(capsys, "sample", "--kind", "haar", "--n", "-2")[0] == 1
    one = '{"rows": 1, "cols": 1, "entries": [{"ord": 0, "digits": [1]}]}'
    assert run(capsys, "snf", "--matrix", one)[0] == 0
    assert run(capsys, "snf", "--seed", "1", "--matrix", one)[0] == 1
    assert run(capsys, "no-such-command")[0] == 1


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("mu", '{"head": [1], "tail": null}'),
        ("nu", '{"k": "neginf", "kk": [0.5], "kkp": []}'),
        # a parameter of the other family: mu samples a Delta, nu an Omega
        ("nu", '{"head": [1], "tail": "neginf"}'),
        ("mu", '{"k": "neginf", "kk": [1], "kkp": []}'),
    ],
)
def test_malformed_param_is_one_error_line(capsys, kind, payload):
    code, out, err = run(capsys, "sample", "--kind", kind, "--param", payload, "--n", "2")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "InvalidParam" in err


DELTA = '{"head": [1]}'
OMEGA = '{"k": "neginf", "kk": [1], "kkp": []}'


@pytest.mark.parametrize(
    "argv",
    [
        *(("charfun", "--param", DELTA, "--args", args) for args in ("[1.5]", "[true]", '["2"]', "[0.9]", "5")),
        ("charfun", "--param", OMEGA, "--args", "[1]"),
        ("charfun", "--param", OMEGA, "--args", "5"),
        ("snf", "--matrix", '{"rows": 1, "cols": 1, "entries": [5]}'),
        ("snf", "--matrix", "[1,2]"),
        ("snf", "--matrix", '{"rows": 1, "cols": 1, "entries": 5}'),
        ("snf", "--matrix", '{"rows": 1.9, "cols": 1, "entries": [{"ord": 0, "digits": [1]}]}'),
        ("snf", "--matrix", '{"rows": "2", "cols": 1, "entries": [{"ord": 0, "digits": [1]}]}'),
        ("theta", "--x", '{"ord": 1.5, "digits": [1]}'),
        ("theta", "--x", '{"digits": [1]}'),
    ],
)
def test_malformed_element_payload_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "InvalidParam" in err


def test_charfun_probe_beyond_the_precision_names_the_characters_error(capsys):
    # the deepest probe needs more digits than prec=8 stores: the suite ends
    # with a failing row naming the error chi raises for the same shortfall
    code, out, _ = run(capsys, "verify", "charfun", "--field", "padic:p=3,prec=8", "--samples", "100")
    assert code == 2
    last = json.loads(out)[-1]["checks"][-1]
    assert not last["pass"] and last["label"].startswith("refused: InsufficientPrecision")


def test_sample_requires_min_count_invariant(capsys):
    # n_samples floor applies to MC subcommands (verify/converge)
    code, _, _ = run(capsys, "converge", "--param", '{"head": [], "tail": {"const": 0}}', "--samples", "50")
    assert code == 1


TWO_BY_TWO = '{"rows": 2, "cols": 2, "entries": [{"ord": 0, "digits": [0]}, {"ord": 1, "digits": [1]}, {"ord": -1, "digits": [2]}, {"ord": 0, "digits": [0]}]}'
HYPERBOLIC = '{"rows": 2, "cols": 2, "entries": [{"ord": 0, "digits": [0]}, {"ord": 0, "digits": [1]}, {"ord": 0, "digits": [1]}, {"ord": 0, "digits": [0]}]}'

# one invocation per subcommand and output path, and each exit code; "OUT"
# stands for a file under tmp_path
TRANSCRIPT = [
    ("field-info", "--field", "laurent:p=7,prec=20"),
    ("field-info", "--format", "csv"),
    ("gauss-sum", "--field", "padic:p=5,prec=6", "--a", "3"),
    ("theta", "--x", "ord=-3,unit=2", "--kind", "bilinear"),
    ("snf", "--matrix", TWO_BY_TWO),
    ("symdiag", "--matrix", HYPERBOLIC, "--format", "csv"),
    ("charfun", "--param", '{"head": [2], "tail": "neginf"}', "--args", "[0, -2]"),
    ("charfun", "--param", OMEGA, "--args", '[{"ord": -1, "digits": [1]}]'),
    ("sample", "--kind", "haar", "--n", "2", "--count", "2", "--seed", "9"),
    ("sample", "--kind", "mu", "--param", '{"head": [1], "tail": "neginf"}', "--n", "2", "--seed", "4", "--format", "csv"),
    ("sample", "--kind", "nu", "--param", OMEGA, "--n", "3", "--seed", "4", "--out", "OUT"),
    ("oplus", "--a", '{"head": [6, 2, 2], "tail": {"const": -3}}', "--b", '{"head": [4, 3, 0, -1], "tail": "neginf"}'),
    ("verify", "identities", "semigroup", "--seed", "7", "--out", "OUT"),
    ("verify", "semigroup", "--seed", "3", "--format", "csv"),
    ("verify", "bounds", "--field", "padic:p=59,prec=6", "--samples", "100"),
    ("converge", "--param", '{"head": [1], "tail": "neginf"}', "--n-list", "2,4", "--samples", "200", "--seed", "11"),
    ("converge", "--param", '{"head": [1, 2], "tail": "neginf"}', "--n-list", "4", "--samples", "200"),
    ("sample", "--kind", "mu", "--param", '{"head": [1], "tail": null}', "--n", "2"),
    ("sample", "--kind", "haar", "--field", "padic:p=4294967311,prec=2"),
    ("theta", "--field", "padic:p=4,prec=3", "--x", "ord=0,unit=1"),
    ("snf", "--matrix", "not-json"),
    ("sample", "--kind", "haar", "--n", "0"),
]


def test_cli_transcript_is_pinned(capsys, monkeypatch, tmp_path):
    # sha256 over (argv, exit code, stdout, stderr, --out file) of every
    # invocation above, with the suites' wall times cut from the PASS/FAIL
    # lines: a change to how the CLI writes its results must leave it as is
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    digest = hashlib.sha256()
    for argv in TRANSCRIPT:
        out_file = tmp_path / "out"
        out_file.unlink(missing_ok=True)
        code, out, err = run(capsys, *(str(out_file) if a == "OUT" else a for a in argv))
        written = out_file.read_text() if out_file.exists() else None
        err = re.sub(r"\(\d+\.\ds\)$", "", err, flags=re.M)
        digest.update(json.dumps([argv, code, out, err, written]).encode())
    assert digest.hexdigest() == "07892845052f5abae419a4eed8ba74b31f919809ebaa9aac0455e9ebb5aea205"


def test_python_m_nonarch_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "nonarch", "--help"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout
