"""Run the decompositions suite of ``nonarch verify`` over a range of seeds.

For each seed and each of the suite's three pinned fields this prints the
failing rows and any exception that escaped the suite; seeds where every
field passes are summarised on one line.  It is not part of the test suite.

    PYTHONPATH=src python scripts/seed_sweep.py 1 40
"""

from __future__ import annotations

import argparse
import sys

from nonarch.sampling import RandomStream
from nonarch.verification import DECOMPOSITION_FIELDS, verify_decompositions


def sweep_seed(seed: int, trials: int) -> list[str]:
    """The problems of one seed, one line each (empty when all passes)."""
    problems = []
    for field in DECOMPOSITION_FIELDS:
        rng = RandomStream(seed).child("decompositions").child("dec", field.spec_string())
        try:
            suite = verify_decompositions(field, rng, count=trials, push_count=max(10, trials // 10))
        except Exception as exc:  # an escaped exception is what the sweep looks for
            problems.append(f"{field.spec_string()}: escaped {type(exc).__name__}: {exc}")
            continue
        problems += [f"{field.spec_string()}: {row['label']}" for row in suite.rows if not row["pass"]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--trials", type=int, default=1000, help="inputs per check, as `nonarch verify --trials`")
    args = ap.parse_args(argv)
    clean = []
    for seed in range(args.first, args.last + 1):
        problems = sweep_seed(seed, args.trials)
        if not problems:
            clean.append(seed)
        for line in problems:
            print(f"seed {seed}: {line}", flush=True)
    print(f"{len(clean)} of {args.last - args.first + 1} seeds pass: {clean}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
