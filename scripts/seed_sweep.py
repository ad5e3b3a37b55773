"""Run suites of ``nonarch verify`` over a range of seeds.

For each seed this prints the failing rows, prefixed by the suite's name,
and any exception that escaped the suites; seeds where every suite passes
are summarised on one line.  The suites are named after FIRST LAST, as
``nonarch verify`` takes them, and default to ``decompositions`` (whose
three fields are pinned; ``--field`` serves the other suites).  It is not
part of the test suite.

    PYTHONPATH=src python scripts/seed_sweep.py 1 40
    PYTHONPATH=src python scripts/seed_sweep.py 1 40 bounds charfun --field laurent:p=3,prec=12
"""

from __future__ import annotations

import argparse
import sys

from nonarch.field import FieldParams, parse_field_spec
from nonarch.verification import SUITE_BUILDERS, run_suites


def sweep_seed(names: list[str], field: FieldParams, seed: int, trials: int) -> list[str]:
    """The problems of one seed, one line each (empty when all passes)."""
    try:
        suites = run_suites(names, field, seed, trials=trials)
    except Exception as exc:  # an escaped exception is what the sweep looks for
        return [f"escaped {type(exc).__name__}: {exc}"]
    return [f"{suite.name}: {row['label']}" for suite in suites for row in suite.rows if not row["pass"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("suites", nargs="*", help=f"any of: {', '.join(SUITE_BUILDERS)} (default decompositions)")
    ap.add_argument("--field", default="padic:p=3,prec=12", help="as `nonarch verify --field`")
    ap.add_argument("--trials", type=int, default=1000, help="inputs per check, as `nonarch verify --trials`")
    args = ap.parse_args(argv)
    names = args.suites or ["decompositions"]
    unknown = [name for name in names if name not in SUITE_BUILDERS]
    if unknown:
        ap.error(f"unknown suite(s): {', '.join(unknown)}")
    field = parse_field_spec(args.field)
    clean = []
    for seed in range(args.first, args.last + 1):
        problems = sweep_seed(names, field, seed, args.trials)
        if not problems:
            clean.append(seed)
        for line in problems:
            print(f"seed {seed}: {line}", flush=True)
    print(f"{len(clean)} of {args.last - args.first + 1} seeds pass: {clean}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
