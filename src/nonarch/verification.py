"""Verification suites: each function checks one family of claims at its
stated tolerance and returns a report of per-check rows.  The CLI ``verify``
subcommand, at its default samples and trials, and the acceptance tests
run the same suite functions at the same scale, but on different streams:
the tests draw on ``RandomStream(SEED).child(...)`` paths that ``nonarch
verify --seed SEED`` does not use.

Every suite runs through :func:`_suite`, which names and times it.  A
library refusal (a precision, a field or an enumeration the check cannot
run at) ends the suite with one failing row that names the error, after the
rows already written; any other exception is a bug and propagates.

Statistical comparisons pass through one gate, :func:`orbital.within`: a
gap clears its bound plus three standard errors.  The per-component
tolerance 3 / sqrt(N) of the measure characteristic functions is the one
other statistical rule.  Exact comparisons use 1e-9 on complex values and
exact equality on CharValues.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import orbital, params as params_mod, sampling
from .characters import KIND_BILINEAR, KIND_SQUARE, chi, theta_closed
from .errors import DyadicField, InsufficientPrecision, PrecisionExhausted, TooLarge
from .field import FieldElement, FieldParams
from .matrices import MatF, singular_numbers, smith_normal_form, sym_diagonalize
from .params import DeltaParam, OmegaParam, canonicalize_omega, distinguishing_argument
from .residue import gauss_sum, gauss_sum_phase, legendre
from .sampling import KIND_CONGRUENCE, KIND_TWO_SIDED, RandomStream

EXACT_TOL = 1e-9


@dataclass
class Suite:
    name: str
    rows: list = dc_field(default_factory=list)
    seconds: float = 0.0

    def check(self, label: str, ok: bool, report: dict | None = None):
        row = {"label": label, "pass": bool(ok)}
        if report is not None:
            row["report"] = report
        self.rows.append(row)

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows)

    def to_json(self) -> dict:
        # no timings here: reports must be byte-identical across reruns
        return {"suite": self.name, "pass": self.passed, "checks": self.rows}


def _suite(name):
    """Turn a generator of check rows ``(label, ok[, report])`` into a suite
    function with the same arguments that returns the timed Suite.  ``name``
    is the suite's name, or a function of its arguments that returns it.  A
    library refusal ends the suite with one failing row naming the error,
    after the rows already written."""

    def decorate(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> Suite:
            t0 = time.perf_counter()
            s = Suite(name(*args, **kwargs) if callable(name) else name)
            try:
                for row in body(*args, **kwargs):
                    s.check(*row)
            except (InsufficientPrecision, PrecisionExhausted, TooLarge, DyadicField) as exc:
                s.check(f"refused: {type(exc).__name__}: {exc}", False)
            s.seconds = time.perf_counter() - t0
            return s

        return run

    return decorate


# ---------------------------------------------------------------------------
# identities: Gauss sums and kernel oracle equivalence (criteria 1-2)
# ---------------------------------------------------------------------------


@_suite("gauss-sums")
def verify_gauss_sums():
    for p in (3, 5, 7, 11, 13):
        base = gauss_sum(1, p)
        ok_mag = all(abs(abs(gauss_sum(a, p).complex_value) ** 2 - p) <= EXACT_TOL for a in range(1, p))
        ok_sym = all(gauss_sum(a, p).symbolic == (legendre(a, p) * base.sign, base.rho) for a in range(1, p))
        rho_c, _ = gauss_sum_phase(p)
        comp = base.complex_value / rho_c
        ok_line = abs(comp.imag) <= EXACT_TOL
        yield f"p={p} |sum|^2 = p", ok_mag
        yield f"p={p} twist identity", ok_sym
        yield f"p={p} sum lies on rho_q * R", ok_line


@_suite("kernel-oracles")
def verify_kernel_oracles():
    def arguments(field: FieldParams, levels):
        return [u.shift(ell) for ell in levels for u in (field.one(), field.eps())]

    def worst_gap(xs) -> float:
        kinds = (KIND_BILINEAR, KIND_SQUARE)
        gaps = (theta_closed(x, k).to_complex(x.params.p) - orbital.theta_bruteforce(x, k) for x in xs for k in kinds)
        return max(abs(g) for g in gaps)

    for p in (3, 5, 7):
        field = FieldParams("padic", p, 12)
        xs = arguments(field, range(-3, 4))
        twins = [(theta_closed(x, KIND_SQUARE), theta_closed(x * field.eps(), KIND_SQUARE)) for x in xs]
        square_ids = all(a.mul(a) == b.mul(b) and not a.mul(a).is_zero() for a, b in twins)
        worst = worst_gap(xs)
        yield f"p={p} closed = brute (max gap {worst:.2e})", worst <= EXACT_TOL
        yield f"p={p} theta(x)^2 = theta(eps x)^2 != 0", square_ids
    # the closed forms against the brute force over F_3((t))
    worst = worst_gap(arguments(FieldParams("laurent", 3, 10), range(-2, 3)))
    yield f"laurent p=3 closed = brute (max gap {worst:.2e})", worst <= EXACT_TOL


@_suite("ball-fourier")
def verify_ball_fourier(field: FieldParams):
    """Averages of chi(x y) over x in pi^l O_F equal the indicator of
    y in pi^-l O_F."""
    p = field.p
    worst = 0.0
    for l in range(-2, 3):
        for ord_y in range(-3, 4):
            for u_digit in (1, 2 % p if p > 2 else 1):
                y = field.element(ord_y, [u_digit])
                m = max(0, -(l + ord_y))
                if m == 0:
                    avg = 1.0 + 0j
                elif p**m > orbital._EXACT_ENUM_GUARD:
                    raise TooLarge(f"enumeration of {p}^{m} residues exceeds the guard")
                else:
                    reps = np.arange(p**m, dtype=np.int64)
                    vals = []
                    for z in reps:
                        x = field.from_base_p(int(z), l)
                        vals.append(chi(x * y))
                    avg = complex(np.mean(vals))
                expected = 1.0 if ord_y >= -l else 0.0
                worst = max(worst, abs(avg - expected))
    yield f"indicator identity on the grid (max gap {worst:.2e})", worst <= EXACT_TOL


# ---------------------------------------------------------------------------
# decompositions (criterion 3)
# ---------------------------------------------------------------------------


def _random_entry(field: FieldParams, rng: RandomStream) -> FieldElement:
    if rng.integers(10) == 0:
        return field.zero()
    k = int(rng.integers(-3, 4))
    return sampling.uniform_integer(field, rng.child("u")).shift(k)


def _random_matrix(field: FieldParams, rng: RandomStream, n: int, symmetric: bool = False) -> MatF:
    """Entry (i, j) is drawn on the stream rng.child(i, j); a symmetric
    matrix draws the entries with i <= j and mirrors them."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            rows[i][j] = _random_entry(field, rng.child(i, j))
            if symmetric:
                rows[j][i] = rows[i][j]
    return MatF.from_rows(field, rows)


@_suite(lambda field, *args, **kwargs: f"decompositions[{field.spec_string()}]")
def verify_decompositions(field: FieldParams, rng: RandomStream, count: int = 1000, push_count: int = 100):
    ok_rec = ok_gl = ok_sorted = True
    for i in range(count):
        sub = rng.child("snf", i)
        n = int(sub.integers(1, 6))
        A = _random_matrix(field, sub.child("mat"), n)
        res = smith_normal_form(A)
        ok_rec &= res.recompose().agrees(A)
        ok_gl &= res.a.is_gl() and res.b.is_gl()
        ok_sorted &= all(a >= b for a, b in zip(res.sing, res.sing[1:]))
    yield f"SNF recomposition x{count}", ok_rec
    yield "SNF witnesses in GL(n, O_F)", ok_gl
    yield "singular exponents non-increasing", ok_sorted

    ok_rec = ok_gl = ok_cls = True
    for i in range(count):
        sub = rng.child("sym", i)
        n = int(sub.integers(1, 6))
        A = _random_matrix(field, sub.child("mat"), n, symmetric=True)
        try:
            res = sym_diagonalize(A)
        except PrecisionExhausted as exc:
            yield f"symmetric input {i}: precision exhausted at certified ord {exc.guaranteed_ord}", False
            continue
        ok_rec &= res.recompose().agrees(A)
        ok_gl &= res.g.is_gl()
        ok_cls &= all(lbl == ("zero",) or isinstance(lbl[0], int) for lbl in res.class_labels())
    yield f"symmetric diagonalization recomposition x{count}", ok_rec
    yield "congruence witnesses in GL(n, O_F)", ok_gl
    yield "diagonal entries are square-class representatives", ok_cls

    base = _random_matrix(field, rng.child("base"), 4)
    sing0 = singular_numbers(base)
    ok_inv = True
    for i in range(push_count):
        pushed = sampling.orbital_push(base, KIND_TWO_SIDED, rng.child("push", i))
        ok_inv &= singular_numbers(pushed) == sing0
    yield f"Sing invariant under {push_count} two-sided pushes", ok_inv

    sym_base = _random_matrix(field, rng.child("symbase"), 4, symmetric=True)
    labels0 = sorted(sym_diagonalize(sym_base).class_labels())
    ok_cls_inv = True
    for i in range(push_count // 4):
        pushed = sampling.orbital_push(sym_base, KIND_CONGRUENCE, rng.child("cpush", i))
        ok_cls_inv &= sorted(sym_diagonalize(pushed).class_labels()) == labels0
    yield "square-class multiset invariant under congruence pushes", ok_cls_inv


# ---------------------------------------------------------------------------
# orbital bounds (criteria 4-5)
# ---------------------------------------------------------------------------


@_suite("orbital-bounds")
def verify_bounds(field: FieldParams, rng: RandomStream, n_samples: int = 100_000):
    a_sets = ((1,), (1, 1), (2, 1))
    for kind in (KIND_TWO_SIDED, KIND_CONGRUENCE):
        for n in (4, 6, 8):
            # D entries with ord in [-2, 0]; an integer k stands for pi^-k
            for di, dvals in enumerate(((2, 1) + (0,) * (n - 2), (1,) * n, (2,) + (0,) * (n - 1), (0,) * n)):
                # shared Haar draws evaluate all A variants plus the rank-one
                # integrals feeding the multiplicativity comparison
                probes = [list(av) for av in a_sets] + [[1], [2]]
                ests = orbital.mc_orbital_multi(
                    field, kind, list(dvals), probes, n_samples, rng.child(kind, n, di)
                )
                rank_one = {1: ests[3], 2: ests[4]}
                for av, est in zip(a_sets, ests[:3]):
                    cv = orbital.product_formula(field, kind, dvals, av)
                    bounds = orbital.error_bound(kind, n, len(av), field.q)
                    bound = bounds.factorization
                    gap = abs(est.mean - cv.to_complex(field.q))
                    ok = orbital.within(gap, float(bound), est.stderr)
                    report = {
                        "kind": kind,
                        "n": n,
                        "r": len(av),
                        "estimate": [est.mean.real, est.mean.imag],
                        "stderr": est.stderr,
                        "closed_form": cv.to_json(),
                        "paper_bound": f"{bound.numerator}/{bound.denominator}",
                        "pass": ok,
                        "seed": est.seed,
                    }
                    yield f"{kind} n={n} D={dvals} A={av}: gap {gap:.2e} <= {float(bound):.2e}+3se", ok, report
                    if len(av) >= 2:
                        ones = [rank_one[a] for a in av]
                        gap = abs(est.mean - math.prod(one.mean for one in ones))
                        se = sum((one.stderr for one in ones), est.stderr)
                        yield (
                            f"{kind} n={n} D={dvals} A={av}: uam gap {gap:.2e} <= "
                            f"{float(bounds.multiplicativity):.2e}+3se",
                            orbital.within(gap, float(bounds.multiplicativity), se),
                        )


@_suite("exact-oracle")
def verify_exact_oracle(field: FieldParams, rng: RandomStream, n_samples: int = 100_000):
    q = field.q
    cases = [
        (KIND_TWO_SIDED, [1], [1], 2),
        (KIND_TWO_SIDED, [1, 0], [1], 2),
        (KIND_TWO_SIDED, [1, 0], [1, 1], 2),
        (KIND_CONGRUENCE, [1], [1], 2),
        (KIND_CONGRUENCE, [1, -1], [1], 2),
        (KIND_CONGRUENCE, [1, 1], [1, 0], 2),
    ]
    for kind, dv, av, level in cases:
        try:
            exact = orbital.exact_orbital_integral(field, kind, dv, av, level)
        except TooLarge as exc:
            yield f"{kind} D={dv} A={av}: exact value past the enumeration guard ({exc})", False
            continue
        mc_rng = rng.child("mc", kind, tuple(dv), tuple(av))
        est = orbital.mc_orbital_multi(field, kind, dv, [av], n_samples, mc_rng)[0]
        gap_mc = abs(est.mean - exact)
        yield f"{kind} D={dv} A={av}: |MC - exact| {gap_mc:.2e} <= 3se", orbital.within(gap_mc, 1e-12, est.stderr)
        cv = orbital.product_formula(field, kind, dv, av).to_complex(q)
        bound = float(orbital.error_bound(kind, len(dv), len(av), q).factorization)
        gap_cf = abs(exact - cv)
        yield f"{kind} D={dv} A={av}: |exact - product| {gap_cf:.2e} <= bound {bound:.2e}", gap_cf <= bound + EXACT_TOL
        # the oracle's level-free cell tables against the enumerated lifts
        D, A = ([orbital.as_element(field, v) for v in vals] for vals in (dv, av))
        pairs, _ = orbital._pair_data(field, D, A)
        label = f"{kind} D={dv} A={av}: lift tables at level {level}"
        try:
            lifted = orbital._lift_tables(field, pairs, level, 1 if kind == KIND_CONGRUENCE else 2)
        except TooLarge as exc:
            yield f"{label} past the enumeration guard ({exc})", False
        else:
            yield label, np.abs(orbital._cell_tables(field, kind, pairs) - lifted).max() <= EXACT_TOL
        perm = list(reversed(dv))
        yield (
            f"{kind} D={dv}: permutation invariance",
            abs(exact - orbital.exact_orbital_integral(field, kind, perm, av, level)) <= 1e-12,
        )


# ---------------------------------------------------------------------------
# measure-sampler consistency (criterion 6)
# ---------------------------------------------------------------------------


@_suite("measure-charfun")
def verify_measure_charfun(field: FieldParams, rng: RandomStream, n_samples: int = 100_000):
    n = 6  # corner size
    tol = 3 / math.sqrt(n_samples)
    q = field.q
    par = DeltaParam((2, 1), -1)
    om = OmegaParam(-1, (1,), (0,))
    # probe arguments: an integer ell stands for pi^-ell.  The congruence
    # ones are a generator, so that a dyadic field refuses eps only after
    # the two-sided row is written.
    sym_xs = (x for ell in range(-2, 8) for x in (field.uniformizer_pow(-ell), field.eps().shift(-ell)))
    for label, param, stream, xs in (("two-sided", par, "mu", range(-10, 10)), ("congruence", om, "nu", sym_xs)):
        xs = list(xs)
        ests = orbital.measure_charfun_batch(field, param, n, n_samples, [[x] for x in xs], rng.child(stream))
        worst = 0.0
        for x, est in zip(xs, ests):
            closed = param.char_single(x).to_complex(q)
            worst = max(worst, abs((est.mean - closed).real), abs((est.mean - closed).imag))
        yield f"{label} family: {len(xs)} probes, worst component gap {worst:.2e} <= {tol:.2e}", worst <= tol

    # empirical multiplicativity across two diagonal arguments
    for label, param, args in (
        ("two-sided", par, [field.uniformizer_pow(0), field.uniformizer_pow(-1)]),
        ("congruence", om, [field.uniformizer_pow(1), field.eps()]),
    ):
        probes2 = [[args[0], args[1]], [args[0]], [args[1]]]
        joint, m1, m2 = orbital.measure_charfun_batch(
            field, param, n, n_samples, probes2, rng.child("mult", label)
        )
        gap = abs(joint.mean - m1.mean * m2.mean)
        se = joint.stderr + m1.stderr + m2.stderr
        yield f"{label} multiplicativity: gap {gap:.2e} <= {3 * se:.2e}", orbital.within(gap, 0.0, se)


# ---------------------------------------------------------------------------
# convergence of orbital measures (criterion 7)
# ---------------------------------------------------------------------------


@_suite("orbital-convergence")
def verify_convergence(field: FieldParams, rng: RandomStream, n_samples: int = 100_000):
    for label, param, stream in (
        ("two-sided", DeltaParam((1,), None), "mu"),
        ("congruence", OmegaParam(None, (1,), ()), "nu"),
    ):
        rows = orbital.convergence_experiment(field, param, (4, 8, 16), n_samples, rng.child(stream))
        for row in rows:
            yield f"{label} n={row.n}: gap {row.max_gap:.2e} <= {row.bound:.2e}+3se", row.passed
        bounds = [row.bound for row in rows]
        yield f"{label} bound sequence strictly decreasing", all(a > b for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# uniqueness and semigroup (criteria 8-9)
# ---------------------------------------------------------------------------


def _random_delta(rng: RandomStream) -> DeltaParam:
    tail = None if rng.integers(2) == 0 else int(rng.integers(-3, 3))
    low = -3 if tail is None else tail + 1
    head = sorted((int(v) for v in rng.integers(low, 6, size=int(rng.integers(0, 4)))), reverse=True)
    return DeltaParam(tuple(head), tail)


def _random_omega(rng: RandomStream) -> OmegaParam:
    k = None if rng.integers(2) == 0 else int(rng.integers(-3, 4))
    low = (k + 1) if k is not None else -3
    kk = tuple(sorted((int(v) for v in rng.integers(low, 6, size=int(rng.integers(0, 4)))), reverse=True))
    pool = list(range(low, 6))
    rng.shuffle(pool)
    take = int(rng.integers(0, min(3, len(pool)) + 1))
    kkp = tuple(sorted(pool[:take], reverse=True))
    return OmegaParam(k, kk, kkp)


def _unequal_pairs(draw, rng: RandomStream, tags: tuple, count: int):
    """The first ``count`` unequal pairs among draw(rng.child(tags[0], i)),
    draw(rng.child(tags[1], i)) for i = 0, 1, ..."""
    i = 0
    while count:
        a, b = draw(rng.child(tags[0], i)), draw(rng.child(tags[1], i))
        i += 1
        if a != b:
            yield a, b
            count -= 1


@_suite("uniqueness")
def verify_uniqueness(field: FieldParams, rng: RandomStream):
    ok = True
    for a, b in _unequal_pairs(_random_delta, rng, ("da", "db"), 500):
        ell = distinguishing_argument(a, b)
        ok &= a.char_single(ell) != b.char_single(ell)
    yield "500 unequal Delta pairs separated at the constructed argument", ok

    ok = True
    for a, b in _unequal_pairs(_random_omega, rng, ("oa", "ob"), 200):
        ok &= params_mod.separate_omega(a, b, field) is not None
    yield "200 unequal canonical Omega pairs separated on the probe grid", ok

    ok_idem = ok_pres = True
    for i in range(60):
        raw = _random_omega(rng.child("canon", i))
        extra = [int(v) for v in rng.child("noise", i).integers(-3, 6, size=2)]
        kk_raw = tuple(sorted(raw.kk + (extra[0],) * 2, reverse=True))
        kkp_raw = tuple(sorted(raw.kkp + (extra[1],), reverse=True))
        canon = canonicalize_omega(raw.k, kk_raw, kkp_raw)
        ok_valid, _ = params_mod.validate(canon)
        ok_idem &= ok_valid and canonicalize_omega(canon.k, canon.kk, canon.kkp) == canon
        uncanonical = OmegaParam(raw.k, kk_raw, kkp_raw)
        for x in params_mod.probe_grid(field):
            ok_pres &= uncanonical.char_single(x) == canon.char_single(x)
    yield "canonicalize_omega idempotent and valid", ok_idem
    yield "canonicalize_omega preserves the characteristic function on the probe grid", ok_pres


@_suite("semigroup")
def verify_semigroup(rng: RandomStream):
    a = DeltaParam((6, 2, 2), -3)
    b = DeltaParam((4, 3, 0, -1), None)
    merged = params_mod.convolve(a, b)
    yield (
        "worked merge example equals (6,4,3,2,2,0,-1 | const -3)",
        merged == DeltaParam((6, 4, 3, 2, 2, 0, -1), -3),
    )
    ok_hom = ok_assoc = ok_comm = ok_ident = True
    for i in range(200):
        x = _random_delta(rng.child("x", i))
        y = _random_delta(rng.child("y", i))
        z = _random_delta(rng.child("z", i))
        xy = params_mod.convolve(x, y)
        for ell in range(-4, 5):
            ok_hom &= xy.char_single(ell) == x.char_single(ell).mul(y.char_single(ell))
        ok_assoc &= params_mod.convolve(xy, z) == params_mod.convolve(x, params_mod.convolve(y, z))
        ok_comm &= xy == params_mod.convolve(y, x)
        ok_ident &= params_mod.convolve(x, DeltaParam((), None)) == x
    yield "char homomorphism on 200 pairs x 9 arguments", ok_hom
    yield "associative", ok_assoc
    yield "commutative", ok_comm
    yield "identity element", ok_ident


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

DECOMPOSITION_FIELDS = (
    FieldParams("padic", 3, 12),
    FieldParams("padic", 5, 12),
    FieldParams("laurent", 3, 12),
)

SUITE_BUILDERS = {
    "identities": lambda field, rng, n_samples, trials: [
        verify_gauss_sums(),
        verify_kernel_oracles(),
        verify_ball_fourier(field),
    ],
    # the decomposition criterion pins its three fields, independent of --field
    "decompositions": lambda field, rng, n_samples, trials: [
        verify_decompositions(f, rng.child("dec", f.spec_string()), count=trials, push_count=max(10, trials // 10))
        for f in DECOMPOSITION_FIELDS
    ],
    "bounds": lambda field, rng, n_samples, trials: [
        verify_bounds(field, rng.child("bounds"), n_samples=n_samples),
        verify_exact_oracle(field, rng.child("oracle"), n_samples=n_samples),
    ],
    "charfun": lambda field, rng, n_samples, trials: [
        verify_measure_charfun(field, rng.child("charfun"), n_samples=n_samples)
    ],
    "converge": lambda field, rng, n_samples, trials: [
        verify_convergence(field, rng.child("conv"), n_samples=n_samples)
    ],
    "uniqueness": lambda field, rng, n_samples, trials: [
        verify_uniqueness(field, rng.child("uniq"))
    ],
    "semigroup": lambda field, rng, n_samples, trials: [verify_semigroup(rng.child("semi"))],
}


def run_suites(names, field: FieldParams, seed: int, n_samples: int = 100_000, trials: int = 1000) -> list[Suite]:
    rng = RandomStream(seed)
    out = []
    for name in names:
        if name not in SUITE_BUILDERS:
            raise ValueError(f"unknown suite {name!r}")
        out.extend(SUITE_BUILDERS[name](field, rng.child(name), n_samples, trials))
    return out
