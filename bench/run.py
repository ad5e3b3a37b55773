"""Benchmark of nonarch through its public API.

One run measures one workload in this process, single-threaded:

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

It sets up (imports nonarch from ./src, builds the fields, generates the
inputs from the seed, runs one warm-up operation), computes the oracles in a
child process, then runs a fixed number of whole rounds of the workload's
operations: as many as take --seconds of operation time on the reference
machine, so that two runs with the same --seconds attempt the same
operations.  Every output is checked against an oracle computed apart from
the program or a property the method must have; the checks are not timed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Failed operations are
listed with their inputs in bench/results/.

Repeat mode runs each workload in its own process for seeds 1..K and prints
the median and quartiles of every metric:

    python3 bench/run.py --repeat 10 --seconds 20
"""

from __future__ import annotations

import os

# one thread: numpy must not start a BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("orbital-mc", "decompose", "exact-and-corners")
SETUP_REPEATS = 5  # set-up is timed this many times (once here, the rest in fresh processes)
# operation time of one round on the reference machine (README); a run makes
# round(--seconds / ROUND_SECONDS) rounds, at least one
ROUND_SECONDS = {"orbital-mc": 2.0, "decompose": 0.25, "exact-and-corners": 3.5}


def _setup(workload: str, seed: int):
    """Import nonarch from ./src, build the round's inputs and warm up; the
    whole of it is the measured set-up."""
    start = perf_counter()
    if not (SRC / "nonarch" / "__init__.py").is_file():
        raise SystemExit(f"error: no nonarch package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import nonarch
    import workloads

    if Path(nonarch.__file__).resolve().parent != (SRC / "nonarch").resolve():
        raise SystemExit(f"error: imported nonarch from {nonarch.__file__}, not from {SRC}")
    ops = workloads.WORKLOADS[workload](seed)
    ops[0].call("warm-up")
    return workloads, ops, perf_counter() - start


def _setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


_OPS = []  # the round's operations, for the forked oracle process


def _expected(i: int):
    try:
        return _OPS[i].expect(), None
    except Exception as exc:  # an input the oracle rejects fails every round
        return None, f"oracle: {exc!r}"


def _expectations(ops) -> list:
    """Every operation's oracle, computed in a forked child process, so that
    sympy and the oracles' memory stay out of this process's set-up time and
    peak RSS."""
    _OPS[:] = ops
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_expected, range(len(ops)), chunksize=8))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, ops, own_setup = _setup(workload, seed)
    setups = [own_setup]
    if not trace:
        setups += [_setup_seconds(workload, seed) for _ in range(SETUP_REPEATS - 1)]
    expected = _expectations(ops)
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install(extra_modules=[wl])

    latencies, round_seconds, failures = [], [], []
    attempted = sound = 0
    for rd in range(rounds):
        timed = 0.0
        for op, (exp, oracle_error) in zip(ops, expected):
            attempted += 1
            outcome, error, refused = None, oracle_error, False
            if tracer:
                tracer.enabled = True
            start = perf_counter()
            try:
                outcome = op.call(rd)
            except op.sound:
                refused = True
            except Exception as exc:
                error = f"raised {exc!r}"
            elapsed = perf_counter() - start
            if tracer:
                tracer.enabled = False
            latencies.append(elapsed)
            timed += elapsed
            if refused:
                sound += 1
                continue
            if error is None:
                try:
                    error = op.check(outcome, exp)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            if error is not None:
                failures.append({"op": op.label, "round": rd, "known_fault": op.known_fault, "reason": error})
        round_seconds.append(timed)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s = len(ops) / statistics.median(round_seconds)
    correct = all(f["known_fault"] for f in failures)
    if tracer:
        tracer.uninstall()
        metrics = tracer.metrics(rounds)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    detail = dict(result, workload=workload, seed=seed, rounds=rounds, sound_precision_exhausted=sound)
    detail.update(ops_per_s=ops_per_s, round_seconds=round_seconds)
    detail.update(setup_samples_s=setups, failures=failures)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.json")
    for f in failures[:3]:
        print(f"failed: {f['op']} (round {f['round']}): {f['reason']}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# repeat mode
# ---------------------------------------------------------------------------


def _one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def repeat(workloads, count: int, seconds: float):
    """Untraced runs with seeds 1..count, then one traced run (seed 1) for
    the tracing overhead; prints one summary line per workload and metric."""
    summary = {}
    for workload in workloads:
        runs = [_one_run(workload, seed, seconds, 0) for seed in range(1, count + 1)]
        _one_run(workload, 1, seconds, 1)
        traced = json.loads((RESULTS / f"{workload}-seed1-trace.json").read_text())["ops_per_s"]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
            print(f"{workload:18s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:6.2%}")
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        shares = sorted({f / a for f, a in zip(failed, attempted)})
        untraced = rows["ops_per_s"]["median"]
        print(f"{workload:18s} attempted {attempted} failed {failed} failed shares {shares}")
        print(f"{workload:18s} correct {all(r['correct'] for r in runs)}; traced ops/s {traced:.2f} "
              f"vs untraced median {untraced:.2f}: tracing overhead {1 - traced / untraced:.1%}")
        summary[workload] = {"metrics": rows, "attempted": attempted, "failed": failed, "traced_ops_per_s": traced}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "repeat.json").write_text(json.dumps(summary, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="K", help="run every (or the given) workload for seeds 1..K")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat:
        repeat([args.workload] if args.workload else WORKLOAD_NAMES, args.repeat, args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        print(_setup(args.workload, args.seed)[2])
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
