"""Command-line entry point.

Subcommands: field-info, gauss-sum, theta, snf, symdiag, charfun, sample,
oplus, verify, converge.  Each takes --field, --out and --format; sample,
verify and converge also take --seed, and verify and converge --samples.
Exit codes: 0 on success, 1 on usage or runtime errors, 2 when a
verification suite fails, including a check the library refuses at the
given field or precision.  Every randomized subcommand prints the seed it
used.  A handler returns its payload, which `main` alone writes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import verification
from .errors import InvalidParam, NonArchError
from .field import FieldElement, FieldParams, parse_field_spec
from .matrices import AtMost, MatF, smith_normal_form, sym_diagonalize
from .orbital import convergence_experiment
from .params import DeltaParam, OmegaParam, convolve, param_from_json
from .residue import gauss_sum
from .sampling import RandomStream, haar_gl, sample_corner
from .characters import theta_closed

MIN_MC_SAMPLES = 100


def _parse_element(field: FieldParams, text: str) -> FieldElement:
    """Inline element syntax: ``ord=<k>,unit=<int>`` (unit expanded in base p)
    or a JSON object with "ord" and "digits"."""
    text = text.strip()
    if text.startswith("{"):
        return FieldElement.from_json(field, json.loads(text))
    kv = dict(item.split("=") for item in text.split(","))
    ordv = int(kv.get("ord", 0))
    unit = int(kv.get("unit", 1))
    # the unit's lowest `precision` base-p digits
    return field.from_base_p(unit % field.p**field.precision, ordv)


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _emit(args, payload) -> None:
    if args.format == "csv":
        out = io.StringIO()
        rows = payload if isinstance(payload, list) else [payload]
        if rows and isinstance(rows[0], dict) and "checks" in rows[0]:
            # verification reports mirror to one CSV row per check
            exploded = []
            for suite in rows:
                for check in suite["checks"]:
                    row = {"suite": suite["suite"], **check}
                    exploded.append(row)
            rows = exploded
        flat = [_flatten(r) for r in rows]
        keys = sorted({k for r in flat for k in r})
        w = csv.DictWriter(out, fieldnames=keys)
        w.writeheader()
        for r in flat:
            w.writerow(r)
        text = out.getvalue()
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        flat[prefix.rstrip(".")] = json.dumps(obj, default=str)
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


def _at_least(floor: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return parse


def _add_command(sub, name: str, handler, summary: str, seed: bool = False, samples: bool = False):
    """A subparser with the options every subcommand takes, plus --seed and
    --samples where its handler reads them."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=handler)
    p.add_argument("--field", default="padic:p=3,prec=12", help="padic:p=<p>,prec=<N> | laurent:p=<p>,prec=<N>")
    if seed:
        p.add_argument("--seed", type=int, default=1, help="64-bit seed")
    if samples:
        p.add_argument("--samples", type=_at_least(MIN_MC_SAMPLES), default=100_000, help="Monte Carlo sample count")
    p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nonarch", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    _add_command(sub, "field-info", _cmd_field_info, "print the field constants")

    p = _add_command(sub, "gauss-sum", _cmd_gauss_sum, "quadratic Gauss sum over the residue field")
    p.add_argument("--a", type=int, default=1, help="nonzero twist a")

    p = _add_command(sub, "theta", _cmd_theta, "kernel value at an element")
    p.add_argument("--x", required=True, help='element, e.g. "ord=-2,unit=1"')
    p.add_argument("--kind", choices=("square", "bilinear"), default="square")

    p = _add_command(sub, "snf", _cmd_snf, "Smith normal form of a square matrix (JSON)")
    p.add_argument("--matrix", required=True, help="MatF JSON or @file")

    p = _add_command(sub, "symdiag", _cmd_symdiag, "symmetric congruence diagonalization (JSON)")
    p.add_argument("--matrix", required=True, help="MatF JSON or @file")

    p = _add_command(sub, "charfun", _cmd_charfun, "closed-form characteristic function of a measure parameter")
    p.add_argument("--param", required=True, help="parameter JSON or @file")
    p.add_argument("--args", required=True, help="JSON list: integers (two-sided) or element objects (symmetric)")

    p = _add_command(sub, "sample", _cmd_sample, "draw matrices", seed=True)
    p.add_argument("--kind", choices=("mu", "nu", "haar"), required=True)
    p.add_argument("--param", default=None, help="parameter JSON or @file (mu/nu)")
    p.add_argument("--n", type=_at_least(1), default=4)
    p.add_argument("--count", type=_at_least(1), default=1)

    p = _add_command(sub, "oplus", _cmd_oplus, "semigroup merge of two parameters")
    p.add_argument("--a", required=True, help="parameter JSON or @file")
    p.add_argument("--b", required=True, help="parameter JSON or @file")

    p = _add_command(sub, "verify", _cmd_verify, "run verification suites (exit 2 on failure)", seed=True, samples=True)
    p.add_argument(
        "suites",
        nargs="*",
        default=[],
        help=f"any of: {', '.join(verification.SUITE_BUILDERS)}, all (default all)",
    )
    p.add_argument("--trials", type=_at_least(1), default=1000, help="decomposition trial count")

    p = _add_command(sub, "converge", _cmd_converge, "orbital-measure convergence experiment", seed=True, samples=True)
    p.add_argument("--param", required=True, help="parameter JSON or @file")
    p.add_argument("--n-list", default="4,8,16")
    return ap


def _cmd_field_info(args, field: FieldParams):
    from .characters import square_kernel_sign
    from .residue import gauss_sum_phase

    info = {
        "field": field.spec_string(),
        "family": field.family,
        "p": field.p,
        "q": field.q,
        "precision": field.precision,
    }
    if not field.is_dyadic:
        _, rho = gauss_sum_phase(field.q)
        info.update(
            {
                "nonsquare_unit_digit": field.nonsquare_unit_digit,
                "character_sign": square_kernel_sign(field),
                "gauss_phase": rho,
            }
        )
    return info


def _cmd_gauss_sum(args, field: FieldParams):
    g = gauss_sum(args.a, field.p)
    return {
        "p": field.p,
        "a": args.a % field.p,
        "value": [g.complex_value.real, g.complex_value.imag],
        "sign": g.sign,
        "rho": g.rho,
    }


def _cmd_theta(args, field: FieldParams):
    x = _parse_element(field, args.x)
    return theta_closed(x, args.kind).to_json()


def _exponent_json(s):
    if isinstance(s, AtMost):
        return {"at_most": s.k}
    return None if s == float("-inf") else int(s)


def _cmd_snf(args, field: FieldParams):
    A = MatF.from_json(field, _load_json_arg(args.matrix))
    res = smith_normal_form(A)
    return {
        "sing": [_exponent_json(s) for s in res.sing],
        "a": res.a.to_json(),
        "b": res.b.to_json(),
        "recomposes": res.recompose().agrees(A),
    }


def _cmd_symdiag(args, field: FieldParams):
    A = MatF.from_json(field, _load_json_arg(args.matrix))
    res = sym_diagonalize(A)
    return {
        "diag": [x.to_json() for x in res.diag_entries],
        "classes": [list(l) for l in res.class_labels()],
        "g": res.g.to_json(),
        "recomposes": res.recompose().agrees(A),
    }


def _cmd_charfun(args, field: FieldParams):
    param = param_from_json(_load_json_arg(args.param))
    raw_args = _load_json_arg(args.args)
    delta = isinstance(param, DeltaParam)
    if not isinstance(raw_args, list) or (delta and any(type(a) is not int for a in raw_args)):
        what = "integers" if delta else "element objects"
        raise InvalidParam(f"--args must be a JSON list of {what}, got {raw_args!r}")
    values = param.char(raw_args if delta else [FieldElement.from_json(field, a) for a in raw_args])
    return {"param": param.to_json(), "values": [v.to_json() for v in values]}


def _cmd_sample(args, field: FieldParams):
    rng = RandomStream(args.seed)
    if args.kind == "haar":
        mats = [haar_gl(rng.child("haar", i), field, args.n) for i in range(args.count)]
    else:
        if args.param is None:
            raise NonArchError("--param is required for mu/nu sampling")
        param = param_from_json(_load_json_arg(args.param))
        family = DeltaParam if args.kind == "mu" else OmegaParam
        if not isinstance(param, family):
            raise InvalidParam(f"--kind {args.kind} samples a {family.__name__}, got a {type(param).__name__}")
        mats = [sample_corner(field, param, args.n, rng.child(args.kind, i)) for i in range(args.count)]
    print(f"seed: {args.seed}", file=sys.stderr)
    return [m.to_json() for m in mats]


def _cmd_oplus(args, field: FieldParams):
    a = param_from_json(_load_json_arg(args.a))
    b = param_from_json(_load_json_arg(args.b))
    return convolve(a, b).to_json()


def _cmd_verify(args, field: FieldParams):
    names = args.suites or ["all"]
    if "all" in names:
        names = list(verification.SUITE_BUILDERS)
    print(f"seed: {args.seed}", file=sys.stderr)
    suites = verification.run_suites(names, field, args.seed, n_samples=args.samples, trials=args.trials)
    for s in suites:
        status = "PASS" if s.passed else "FAIL"
        print(f"{status:4} {s.name} ({s.seconds:.1f}s)", file=sys.stderr)
    return [s.to_json() for s in suites], all(s.passed for s in suites)


def _cmd_converge(args, field: FieldParams):
    param = param_from_json(_load_json_arg(args.param))
    n_list = [int(v) for v in args.n_list.split(",")]
    print(f"seed: {args.seed}", file=sys.stderr)
    rows = convergence_experiment(field, param, n_list, args.samples, RandomStream(args.seed))
    payload = [
        {"n": r.n, "max_gap": r.max_gap, "bound": r.bound, "pass": r.passed} for r in rows
    ]
    return payload, all(r.passed for r in rows)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        field = parse_field_spec(args.field)
        result = args.handler(args, field)
        # verify and converge return (payload, passed); the others their payload
        payload, passed = result if isinstance(result, tuple) else (result, True)
        _emit(args, payload)
    except NonArchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
