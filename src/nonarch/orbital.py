"""Monte Carlo and exact orbital integrals with explicit error bounds.

The integrals are averages of chi(tr(g1 D g2 A)) over independent Haar pairs
(two-sided kind) or of chi(tr(g D g^t A)) over a single Haar matrix
(congruence kind), with D = diag(x_1..x_n) and A = diag(a_1..a_r, 0..).
Because the trace couples g only through the digit window of depth
K = max(-ord(a_i x_j)), all kernels work in O_F / pi^K with vectorized
integer arithmetic: one weight per cell (i, j) read, built once, and one
paired contraction (g1 and g2 cells of one draw, all arguments at once).

The integrand reads only rows i < r of g1 (and of g) and columns i < r of
g2, so only those are drawn: the rows of g1 and of g2^t, itself Haar.  The
first r rows of a Haar matrix in GL(n, O_F) are uniform on the r x n
matrices of full residue rank.  Row k is drawn from its own stream
``child(k)`` and redrawn until it is independent mod pi of rows 0..k-1 (an
echelon basis mod p of those rows reduces it to nonzero), so it never
depends on r: a larger r extends the same draws (prefix consistency).  Row
k is accepted with probability 1 - q^(k-n), so a candidate row set passes
all r checks at once with probability x, the full-rank fraction of the
error bounds below.  Draws are keyed by chunk index so results are
reproducible and independent of how chunks are scheduled.

The exact oracle averages over the same row sets at a finite level by
enumerating only their residues mod pi: given those, the integrand
factorizes over the cells it reads (see :func:`exact_orbital_integral`).

Error bounds: writing x = prod_{w<r} (1 - q^{w-n}) (the full-rank fraction
of r x n digit matrices), the comparison of the integral with the kernel
product is bounded by 2(1 - x^2) for the two-sided kind and 2(1 - x) for
the congruence kind.  The two-sided constant is the honest union bound
|Mat^2 \\ S^2| <= #Mat^2 - #S^2; the superficially tighter form 2(1 - x)^2
double-counts and is exactly violated already at n = r = 1 (see the test
suite, which certifies the violation by enumeration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import KIND_BILINEAR, KIND_SQUARE, CharValue, charvalue_product, chi, theta_closed
from .errors import DimensionMismatch, LevelTooLow, PrecisionExhausted, TooLarge
from .field import FieldElement, FieldParams
from .matrices import MatF
from .params import DeltaParam, OmegaParam
from .sampling import KIND_CONGRUENCE, KIND_TWO_SIDED, RandomStream

_EXACT_ENUM_GUARD = 8_000_000


# ---------------------------------------------------------------------------
# estimates and accumulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of a complex mean with per-component standard
    errors; ``stderr`` combines them as sqrt(se_re^2 + se_im^2)."""

    mean: complex
    stderr: float
    n_samples: int
    seed: int
    stderr_re: float = 0.0
    stderr_im: float = 0.0


class _Acc:
    __slots__ = ("n", "sre", "sim", "sre2", "sim2")

    def __init__(self):
        self.n = 0
        self.sre = self.sim = self.sre2 = self.sim2 = 0.0

    def add(self, z: np.ndarray):
        re, im = np.real(z), np.imag(z)
        self.n += z.size
        self.sre += float(re.sum())
        self.sim += float(im.sum())
        self.sre2 += float((re * re).sum())
        self.sim2 += float((im * im).sum())

    def finalize(self, seed: int) -> McEstimate:
        n = self.n
        mean = complex(self.sre / n, self.sim / n)
        if n < 2:
            return McEstimate(mean, 0.0, n, seed)
        var_re = max(0.0, (self.sre2 - n * (self.sre / n) ** 2) / (n - 1))
        var_im = max(0.0, (self.sim2 - n * (self.sim / n) ** 2) / (n - 1))
        se_re = math.sqrt(var_re / n)
        se_im = math.sqrt(var_im / n)
        return McEstimate(mean, math.hypot(se_re, se_im), n, seed, se_re, se_im)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def as_element(field: FieldParams, v) -> FieldElement:
    """Normalize a diagonal entry: FieldElement as-is, integer k means
    pi^-k, None means 0."""
    if isinstance(v, FieldElement):
        return v
    if v is None:
        return field.zero()
    return field.uniformizer_pow(-int(v))


def _check_kind(kind: str):
    if kind not in (KIND_TWO_SIDED, KIND_CONGRUENCE):
        raise ValueError(f"unknown kind {kind!r}")


def _check_window(field: FieldParams, K: int):
    # the guard bounds one int64 cell product: M^2 over Q_p, K (p-1)^2 for
    # a digit convolution over F_p((t)); the paired contraction sums the
    # products over cells in float64 only while that sum stays below 2^53,
    # else reduces each one mod M before summing in int64
    base, tail = _entry_shape(field, K)
    if math.prod(tail) * base**2 >= 1 << 62:
        raise TooLarge(f"digit window p^{K} too deep for 64-bit kernels")


def _pair_data(field: FieldParams, D, A):
    """For each (i, j) with m_ij = -ord(a_i x_j) >= 1, the depth m_ij and the
    unit part of a_i x_j; plus the overall window K."""
    pairs = []
    K = 0
    for i, a in enumerate(A):
        for j, x in enumerate(D):
            prod = a * x
            if prod.is_zero() or prod.ord >= 0:
                continue
            m = -prod.ord
            if prod.rel < m:
                raise DimensionMismatch("argument product stores too few digits for chi")
            if field.family == "padic":
                unit = prod.unit % field.p**m
            else:
                unit = tuple(prod.digits[:m])
            pairs.append((i, j, m, unit))
            K = max(K, m)
    _check_window(field, K)
    return pairs, K


# ---------------------------------------------------------------------------
# Haar rows modulo pi^K
# ---------------------------------------------------------------------------


def _pow_mod_vec(base: np.ndarray, e: int, m: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % m
    while e:
        if e & 1:
            result = result * b % m
        b = b * b % m
        e >>= 1
    return result


def invertible_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Which (r, n) matrices of the batch, r <= n, have full row rank mod p
    (for square ones: are invertible mod p), by batched elimination.  The
    exact oracle filters residue rows with it; the tests check the sampler
    against it."""
    a = np.swapaxes(mats % p, 1, 2).astype(np.int64)  # full column rank of (n, r)
    B, _, r = a.shape
    alive = np.ones(B, dtype=bool)
    idx = np.arange(B)
    for k in range(r):
        nz = a[:, k:, k] != 0
        alive &= nz.any(axis=1)
        if k + 1 == r:
            break
        piv = nz.argmax(axis=1)
        rk = a[idx, k, :].copy()
        rp = a[idx, k + piv, :].copy()
        a[idx, k, :] = rp
        a[idx, k + piv, :] = rk
        inv = _pow_mod_vec(a[:, k, k], p - 2, p)
        factor = a[:, k + 1 :, k] * inv[:, None] % p
        a[:, k + 1 :, k:] = (a[:, k + 1 :, k:] - factor[:, :, None] * a[:, None, k, k:]) % p
    return alive


def _entry_shape(field: FieldParams, K: int) -> tuple[int, tuple]:
    """An entry of O_F / pi^K as an array: one integer below p^K over Q_p,
    K digits mod p on a trailing axis over F_p((t)).  Returns the base of
    the drawn integers and the trailing axes."""
    if field.family == "padic":
        return field.p**K, ()
    return field.p, (K,)


def _haar_rows(stream: RandomStream, field: FieldParams, n: int, r: int, K: int, count: int) -> np.ndarray:
    """(count, r, n[, K]): the first r rows mod pi^K of ``count`` Haar
    matrices in GL(n, O_F), uniform on the r x n matrices of full residue
    rank.  Row k comes from ``stream.child(k)``, redrawn until it is
    independent mod pi of rows 0..k-1 (nonzero once reduced by their
    echelon basis mod p), so it does not depend on r."""
    p = field.p
    base, tail = _entry_shape(field, K)
    rows = np.empty((r, count, n) + tail, dtype=np.int64)
    # echelon row t (mod p) is 0 at the pivots of rows < t; scale[t] inverts its own pivot entry
    basis = np.empty((r, count, n), dtype=np.int64)
    pivot, scale = np.empty((2, r, count), dtype=np.int64)
    for k in range(r):
        sub = stream.child(k)
        todo, size = slice(None), count  # the first pass covers every sample
        while size:
            rows[k, todo] = draw = sub.integers(base, size=(size, n) + tail)
            x = draw[..., 0] if tail else draw
            for t in range(k):
                lead = x[np.arange(size), pivot[t, todo]] % p * scale[t, todo] % p
                x = x - lead[:, None] * basis[t, todo]
            x = x % p
            if k + 1 < r:  # later rows reduce against this one
                basis[k, todo] = x
                pivot[k, todo] = piv = (x != 0).argmax(axis=1)
                scale[k, todo] = _pow_mod_vec(x[np.arange(size), piv], p - 2, p)
            todo = np.arange(count)[todo][~x.any(axis=1)]
            size = todo.size
    return rows.swapaxes(0, 1)


def _enumerate(base: int, shape: tuple) -> np.ndarray:
    """Every integer array of ``shape`` with entries below ``base`` once, as
    (base^size,) + shape: flat position t holds digit t of the index."""
    width = math.prod(shape)
    if base**width > _EXACT_ENUM_GUARD:
        raise TooLarge(f"enumeration of {base}^{width} arrays exceeds the guard")
    codes = np.arange(base**width, dtype=np.int64)
    return np.stack([codes // base**t % base for t in range(width)], axis=-1).reshape((-1,) + shape)


# ---------------------------------------------------------------------------
# phase evaluation
# ---------------------------------------------------------------------------


def _cell_weights(field: FieldParams, pair_lists, K: int):
    """The weight builder of both phase kernels: the cells (i, j) that any
    pair list reads, as index arrays I, J, and weights W of shape
    tail + (cells, lists): list l has the phase integer
    sum_c s_c . W[.., c, l] mod M at cell values s_c mod pi^K.  Over Q_p,
    M = p^K and W = unit * p^(K-m); over F_p((t)), M = p and
    W[s] = unit[m-1-s] (s < m) reads the t^-1 coefficient."""
    cells = list(dict.fromkeys((i, j) for pairs in pair_lists for i, j, _, _ in pairs))
    M, tail = _entry_shape(field, K)
    W = np.zeros(tail + (len(cells), len(pair_lists)), dtype=np.int64)
    for l, pairs in enumerate(pair_lists):
        for i, j, m, unit in pairs:
            if tail:
                W[:m, cells.index((i, j)), l] = unit[::-1]
            else:
                W[cells.index((i, j)), l] = unit * field.p ** (K - m) % M
    I, J = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return I, J, W


def _gather(g: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """g[:, I, J] laid out as tail + (cells, count)."""
    return g.T[..., J, I, :]


def _paired_phases(field: FieldParams, K: int, W: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phase integers (lists, count) from the gathered cells a of g1 and b of
    g2: the cell products mod pi^K (digit convolutions over F_p((t))),
    contracted against W in float64 while the sums stay exact below 2^53,
    else reduced mod M and summed product by product in int64."""
    M, tail = _entry_shape(field, K)
    if tail:
        s = np.zeros_like(b)
        for t in range(K):
            for beta in range(t + 1):
                s[t] += a[beta] * b[t - beta]
    else:
        s = a * b
    s, W = s.reshape(-1, s.shape[-1]), W.reshape(-1, W.shape[-1])
    top = (M - 1) ** 2 * (K if tail else 1)  # bounds a cell product
    if len(s) * top * (M - 1) < 1 << 53:
        return (W.T.astype(float) @ s.astype(float)).astype(np.int64) % M
    s = s % M
    return np.stack([(w[:, None] * s % M).sum(axis=0) % M for w in W.T])


def _phases(k: np.ndarray, M: int) -> np.ndarray:
    return np.exp(2j * np.pi * k / M)


def _rows_read(pairs) -> int:
    return 1 + max(i for i, _, _, _ in pairs)


def _mc_estimates(
    field: FieldParams, pair_lists, K: int, n_samples: int, chunk_size: int, rng: RandomStream, draw_rows
) -> list[McEstimate]:
    """Average the integrand of each pair list over ``n_samples`` row draws,
    chunk by chunk; ``draw_rows(c, count)`` returns the (g1, g2) of chunk c.
    Each chunk gathers the cells that any list reads once and contracts them
    against every list's weights; an empty list has the integrand 1."""
    I, J, W = _cell_weights(field, pair_lists, K)
    M = _entry_shape(field, K)[0]
    accs = [_Acc() for _ in pair_lists]
    # when no list reads a cell, nothing is drawn
    for c, start in enumerate(range(0, n_samples if len(I) else 0, chunk_size)):
        g1, g2 = draw_rows(c, min(chunk_size, n_samples - start))
        a = _gather(g1, I, J)
        b = a if g2 is g1 else _gather(g2, I, J)
        for acc, k in zip(accs, _paired_phases(field, K, W, a, b)):
            acc.add(_phases(k, M))
    return [acc.finalize(rng.seed) if acc.n else McEstimate(1 + 0j, 0.0, n_samples, rng.seed) for acc in accs]


# ---------------------------------------------------------------------------
# Monte Carlo integral
# ---------------------------------------------------------------------------


def mc_orbital_multi(
    field: FieldParams,
    kind: str,
    D,
    A_list,
    n_samples: int,
    rng: RandomStream,
    chunk_size: int = 16384,
) -> list[McEstimate]:
    """Monte Carlo estimates of the orbital integral at several argument
    matrices A from one shared stream of Haar draws.  The integrand is exact
    (windowed integer arithmetic); only the averaging is statistical."""
    D = [as_element(field, v) for v in D]
    A_list = [[as_element(field, v) for v in A] for A in A_list]
    n = len(D)
    _check_kind(kind)
    pair_lists = []
    K = 1
    for A in A_list:
        if len(A) > n:
            raise DimensionMismatch(f"rank r={len(A)} exceeds n={n}")
        pairs, K_local = _pair_data(field, D, A)
        pair_lists.append(pairs)
        K = max(K, K_local)
    r = max((_rows_read(pairs) for pairs in pair_lists if pairs), default=0)

    def draw_rows(c: int, count: int):
        sub = rng.child("mc", c)
        if kind == KIND_TWO_SIDED:
            return tuple(_haar_rows(sub.child(g), field, n, r, K, count) for g in ("g1", "g2"))
        g = _haar_rows(sub.child("g"), field, n, r, K, count)
        return g, g

    return _mc_estimates(field, pair_lists, K, n_samples, chunk_size, rng, draw_rows)


def mc_orbital_integral(
    field: FieldParams,
    kind: str,
    D,
    A,
    n_samples: int,
    rng: RandomStream,
    chunk_size: int = 16384,
) -> McEstimate:
    """Single-argument form of :func:`mc_orbital_multi`."""
    return mc_orbital_multi(field, kind, D, [A], n_samples, rng, chunk_size)[0]


# ---------------------------------------------------------------------------
# closed-form product and error bounds
# ---------------------------------------------------------------------------


def product_formula(field: FieldParams, kind: str, D, A) -> CharValue:
    """The factorized limit: product over (i, j) of the kernel at a_i x_j
    (bilinear kernel for the two-sided action, square kernel for congruence)."""
    _check_kind(kind)
    D = [as_element(field, v) for v in D]
    A = [as_element(field, v) for v in A]
    kernel = KIND_BILINEAR if kind == KIND_TWO_SIDED else KIND_SQUARE
    return charvalue_product(theta_closed(a * x, kernel) for a in A for x in D)


def full_rank_fraction(n: int, r: int, q: int) -> Fraction:
    """x = prod_{w<r} (1 - q^(w-n)): the fraction of r x n digit matrices of
    full residue rank."""
    x = Fraction(1)
    for w in range(r):
        x *= 1 - Fraction(1, q ** (n - w))
    return x


@dataclass(frozen=True)
class ErrorBounds:
    """Exact rational bounds for the orbital-integral comparison:

    * ``factorization``: |integral - kernel product|;
    * ``multiplicativity``: |joint integral - product of rank-one integrals|.
    """

    factorization: Fraction
    multiplicativity: Fraction


def error_bound(kind: str, n: int, r: int, q: int) -> ErrorBounds:
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    x = full_rank_fraction(n, r, q)
    x1 = full_rank_fraction(n, 1, q)
    if kind == KIND_TWO_SIDED:
        fact = 2 * (1 - x * x)
        mult = fact + r * 2 * (1 - x1 * x1)
    elif kind == KIND_CONGRUENCE:
        fact = 2 * (1 - x)
        mult = fact + r * 2 * Fraction(1, q**n)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return ErrorBounds(fact, mult)


# ---------------------------------------------------------------------------
# exact oracle: averaging over a finite level
# ---------------------------------------------------------------------------


def exact_orbital_integral(field: FieldParams, kind: str, D, A, level: int) -> complex:
    """Exact value of the orbital integral: the average of the integrand over
    the full-rank r x n row sets mod pi^level that it reads (pairs of them
    for the two-sided kind).  Valid once level >= max(-ord(a_i x_j)):
    perturbing g by pi^level h moves the trace inside O_F, where chi is
    trivial, so Haar measure may be replaced by the uniform measure there.

    Such a row set is R + pi H, with R of full rank mod pi and H uniform and
    independent of R, so given R the integrand factorizes over the read
    cells.  The p^(r n) residue sets are enumerated once and counted by
    their values on the read cells; one table per cell averages its factor
    over the q^level lifts of each residue (the q^(2 level) lift pairs of a
    residue pair for the two-sided kind), and the counts contracted with the
    tables give the average.  No row set mod pi^level is written out."""
    _check_kind(kind)
    D = [as_element(field, v) for v in D]
    A = [as_element(field, v) for v in A]
    n, r = len(D), len(A)
    if r > n:
        raise DimensionMismatch(f"rank r={r} exceeds n={n}")
    pairs, K = _pair_data(field, D, A)
    if not pairs:
        return 1 + 0j
    if level < K:
        raise LevelTooLow(f"level {level} < stability level {K}")
    p, factors = field.p, 1 if kind == KIND_CONGRUENCE else 2
    residues = _enumerate(p, (_rows_read(pairs), n))
    residues = residues[invertible_mask(residues, p)]
    # one list per cell makes W diagonal: summed over cells, it weights a
    # single lifted entry by every cell
    I, J, W = _cell_weights(field, [[pair] for pair in pairs], level)
    M, tail = _entry_shape(field, level)
    lifts = _enumerate(M, (factors,) + tail)
    # index = sum_e lift_e q^(level e) with lift_e = d_e + p h_e, so the
    # reshape below puts the residue of g1 (the last lift) before that of g2
    g1, g2 = (lifts[:, e].T[..., None, :] for e in (-1, 0))
    phases = _phases(_paired_phases(field, level, W.sum(axis=-2, keepdims=True), g1, g2), M)
    tables = phases.reshape((len(pairs),) + (p ** (level - 1), p) * factors).mean(axis=(1, 3)[:factors])
    shape = (p,) * len(pairs)  # p^cells <= p^(r n) counts, within the residue guard
    counts = np.bincount(np.ravel_multi_index(residues[:, I, J].T, shape), minlength=math.prod(shape)).reshape(shape)
    total = counts
    for table in tables:  # congruence: sum_d counts[d] prod_c f_c(d_c)
        total = np.tensordot(total, table, axes=(0, 0))  # two-sided: g1 axis c -> g2 axis c
    if kind == KIND_CONGRUENCE:
        return complex(total / len(residues))
    return complex((total * counts).sum() / len(residues) ** 2)


# ---------------------------------------------------------------------------
# bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    kind: str
    n: int
    r: int
    estimate: McEstimate
    closed_form: CharValue
    bound: Fraction
    observed_gap: float
    passed: bool

    def to_json(self, q: int) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "r": self.r,
            "estimate": [self.estimate.mean.real, self.estimate.mean.imag],
            "stderr": self.estimate.stderr,
            "closed_form": self.closed_form.to_json(),
            "paper_bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "pass": self.passed,
            "seed": self.estimate.seed,
        }


def compare_bound(field: FieldParams, kind: str, D, A, est: McEstimate) -> BoundReport:
    """|estimate - kernel product| <= factorization bound + 3 * stderr."""
    cv = product_formula(field, kind, D, A)
    bounds = error_bound(kind, len(D), len(A), field.q)
    gap = abs(est.mean - cv.to_complex(field.q))
    passed = gap <= float(bounds.factorization) + 3 * est.stderr
    return BoundReport(kind, len(D), len(A), est, cv, bounds.factorization, gap, passed)


def verify_bound(field: FieldParams, kind: str, D, A, n_samples: int, rng: RandomStream) -> BoundReport:
    """The Monte Carlo integral at (D, A) against :func:`compare_bound`."""
    return compare_bound(field, kind, D, A, mc_orbital_integral(field, kind, D, A, n_samples, rng))


@dataclass(frozen=True)
class MultiplicativityReport:
    kind: str
    n: int
    r: int
    joint: McEstimate
    rank_one_product: complex
    bound: Fraction
    observed_gap: float
    passed: bool


def compare_multiplicativity(
    field: FieldParams, kind: str, n: int, joint: McEstimate, rank_one: list[McEstimate]
) -> MultiplicativityReport:
    """|joint estimate - product of the rank-one estimates| <= multiplicativity
    bound plus three combined standard errors."""
    prod = 1 + 0j
    se_total = joint.stderr
    for one in rank_one:
        prod *= one.mean
        se_total += one.stderr
    bounds = error_bound(kind, n, len(rank_one), field.q)
    gap = abs(joint.mean - prod)
    passed = gap <= float(bounds.multiplicativity) + 3 * se_total
    return MultiplicativityReport(kind, n, len(rank_one), joint, prod, bounds.multiplicativity, gap, passed)


def verify_multiplicativity(
    field: FieldParams, kind: str, D, A, n_samples: int, rng: RandomStream
) -> MultiplicativityReport:
    """Monte Carlo joint and rank-one integrals against
    :func:`compare_multiplicativity`."""
    joint = mc_orbital_integral(field, kind, D, A, n_samples, rng.child("joint"))
    rank_one = [mc_orbital_integral(field, kind, D, [a], n_samples, rng.child("rank1", i)) for i, a in enumerate(A)]
    return compare_multiplicativity(field, kind, len(D), joint, rank_one)


# ---------------------------------------------------------------------------
# empirical characteristic functions of matrix samples
# ---------------------------------------------------------------------------


def empirical_charfun(samples, A: MatF) -> McEstimate:
    """Mean of chi(tr(A M)) over a list of sampled matrices (exact path)."""
    if not samples:
        raise ValueError("no samples")
    n = samples[0].rows
    if A.rows > n or A.cols > n:
        raise DimensionMismatch("argument larger than the samples")
    acc = _Acc()
    vals = [_chi_trace(A, M) for M in samples]
    acc.add(np.asarray(vals, dtype=complex))
    return acc.finalize(0)


def _chi_trace(A: MatF, M: MatF) -> complex:
    """chi(tr(A M)); a partial sum cancelling its whole window with certified
    ord >= 0 lies in O_F, where chi is trivial, so it may be dropped."""
    params = M.params
    t = params.zero()
    for i in range(A.rows):
        for j in range(A.cols):
            a = A[i, j]
            if a.is_zero():
                continue
            term = a * M[j, i]
            try:
                t = t + term
            except PrecisionExhausted as exc:
                if exc.guaranteed_ord is None or exc.guaranteed_ord < 0:
                    raise
                t = params.zero()
    return chi(t)


# -- batched corner sampling (same measures, the orbital trace-form kernel) ---


def _corner_rows(field: FieldParams, param, n: int, count: int, window: int, stream: RandomStream):
    """Rows g1, g2 of shape (count, r, n[, window]), drawn mod pi^window, with
    the corner diagonal c_jj = sum_i c_i g1[:, i, j] g2[:, i, j] for the
    coefficients c of :func:`generator_diagonal`.  Row t holds X_t and Y_t of
    the rank-one term pi^-k_t X_t Y_t^t (congruence family: X_t X_t^t, then
    the eps-twisted Y_t Y_t^t); a last row holds the diagonal of the Haar
    tail Z (resp. H) against the constant 1."""
    base, tail = _entry_shape(field, window)

    def draw(*path, shape=(n,)):
        return stream.child(*path).integers(base, size=(count,) + shape + tail)

    if isinstance(param, DeltaParam):
        g1 = [draw("x", t) for t in range(len(param.head))]
        g2 = [draw("y", t) for t in range(len(param.head))]
        haar = param.tail, "z"
    else:
        g1 = g2 = [draw("x", t) for t in range(len(param.kk))] + [draw("y", t) for t in range(len(param.kkp))]
        haar = param.k, "h"
    if haar[0] is not None:
        diag = np.arange(n)
        g1 = g1 + [draw(haar[1], shape=(n, n))[:, diag, diag]]
        # the entry 1: one integer over Q_p, the digits (1, 0, ..) over F_p((t))
        one = np.eye(1, math.prod(tail), dtype=np.int64).reshape(tail)
        g2 = g2 + [np.broadcast_to(one, g1[-1].shape)]
    return np.stack(g1, axis=1), np.stack(g2, axis=1)


def measure_charfun_batch(
    field: FieldParams,
    param,
    n: int,
    n_samples: int,
    probes,
    rng: RandomStream,
    chunk_size: int = 16384,
) -> list[McEstimate]:
    """Empirical characteristic function of corner samples at diagonal probe
    arguments.  ``probes`` is a list of lists of FieldElements (one diagonal
    argument per probe, entry i multiplying the (i, i) corner coefficient).

    A diagonal probe reads only the corner's diagonal, a sum of products of
    the sampled vectors, so chi(sum_j a_j c_jj) is the bilinear trace form of
    the orbital kernels (see :func:`_corner_rows`), evaluated exactly on both
    field families.  Entries are drawn mod pi^window, deep enough for the
    deepest probe against the support bound of the parameter.
    """
    probes = [[as_element(field, a) for a in diag] for diag in probes]
    scale = param.support_bound()
    window = max([1] + [scale - a.ord for diag in probes for a in diag if not a.is_zero()])
    _check_window(field, window)
    head = param.head if isinstance(param, DeltaParam) else param.kk + param.kkp
    coefficients = generator_diagonal(field, param, len(head) + 1)
    pair_lists = [_pair_data(field, diag, coefficients)[0] for diag in probes]

    def draw_rows(c: int, count: int):
        return _corner_rows(field, param, n, count, window, rng.child("corner", c))

    return _mc_estimates(field, pair_lists, window, n_samples, chunk_size, rng, draw_rows)


# ---------------------------------------------------------------------------
# convergence of orbital measures to the classified limits
# ---------------------------------------------------------------------------


def generator_diagonal(field: FieldParams, param, n: int) -> list[FieldElement]:
    """The canonical diagonal generator at size n: head entries pi^-k_i
    (eps-twisted for the strictly-decreasing block), padded by the tail
    value pi^-k (or zero for a -inf tail)."""
    diag = []
    if isinstance(param, DeltaParam):
        diag = [field.uniformizer_pow(-k) for k in param.head]
        pad = field.zero() if param.tail is None else field.uniformizer_pow(-param.tail)
    elif isinstance(param, OmegaParam):
        diag = [field.uniformizer_pow(-k) for k in param.kk]
        diag += [field.eps().shift(-k) for k in param.kkp]
        pad = field.zero() if param.k is None else field.uniformizer_pow(-param.k)
    else:
        raise DimensionMismatch("unknown parameter kind")
    if len(diag) > n:
        raise DimensionMismatch(f"generator needs n >= {len(diag)}")
    return diag + [pad] * (n - len(diag))


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_gap: float
    bound: float
    passed: bool


def convergence_experiment(
    field: FieldParams,
    param,
    n_list,
    n_samples: int,
    rng: RandomStream,
    ell_range=range(-2, 4),
) -> list[ConvergenceRow]:
    """Push the canonical generators by Haar and compare the empirical
    characteristic function against the closed form of the limit measure at
    rank-one probe arguments; gaps must clear the rank-one bound plus Monte
    Carlo noise, with the bound sequence strictly decreasing in n."""
    two_sided = isinstance(param, DeltaParam)
    kind = KIND_TWO_SIDED if two_sided else KIND_CONGRUENCE
    q = field.q
    rows = []
    for n in n_list:
        D = generator_diagonal(field, param, n)
        bound = float(error_bound(kind, n, 1, q).factorization)
        probes = []
        closed_vals = []
        for ell in ell_range:
            args = [field.uniformizer_pow(-ell)]
            if not two_sided:
                args.append(field.eps().shift(-ell))
            for a in args:
                probes.append([a])
                closed_vals.append(
                    param.char_single(ell).to_complex(q) if two_sided else param.char_single(a).to_complex(q)
                )
        ests = mc_orbital_multi(field, kind, D, probes, n_samples, rng.child("conv", n))
        max_gap = max(abs(est.mean - cv) for est, cv in zip(ests, closed_vals))
        max_noise = max(est.stderr for est in ests)
        rows.append(ConvergenceRow(n, max_gap, bound, max_gap <= bound + 3 * max_noise))
    return rows
