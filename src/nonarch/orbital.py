"""Monte Carlo and exact orbital integrals with explicit error bounds.

The integrals are averages of chi(tr(g1 D g2 A)) over independent Haar pairs
(two-sided kind) or of chi(tr(g D g^t A)) over a single Haar matrix
(congruence kind), with D = diag(x_1..x_n) and A = diag(a_1..a_r, 0..).
Because the trace couples g only through the digit window of depth
K = max(-ord(a_i x_j)), all kernels work in O_F / pi^K with vectorized
integer arithmetic: one weight per cell (i, j) read, built once, and one
paired contraction (g1 and g2 cells of one draw, all arguments at once).

The integrand reads only rows i < r of g1 (and of g) and columns i < r of
g2, so only those are drawn: the rows of g1 and of g2^t, itself Haar, by
the one Haar sampler :func:`sampling._haar_rows`.  It accepts row k with
probability 1 - q^(k-n), so a candidate row set passes all r checks at
once with probability x, the full-rank fraction of the error bounds below.
Draws are keyed by chunk index so results are reproducible and independent
of how chunks are scheduled.

The exact oracle averages over the same row sets and enumerates nothing.
Given their residues mod pi, the integrand factorizes over the cells it
reads into level-free cell tables (:func:`_cell_tables`), and Moebius
inversion over the subspaces of F_q^r turns the average over full-rank
residues into a sum over subspaces (see :func:`exact_orbital_integral`), so
the value does not depend on the level.  The one exception is the
congruence kind over a dyadic field, where the square identity behind the
tables needs p odd: there the tables are enumerated by :func:`_lift_tables`,
the brute force that is also the kernel oracle :func:`theta_bruteforce`.

Every phase exp(2 pi i k / M) is a gather from a table of the M-th roots of
unity for M up to ``_PHASE_TABLE`` (:func:`_phases`), bit for bit the value
the expression gives.  That table and the other constants that depend only
on small integers (full-rank fractions, the subspace lattice, its counts
and shares, the depth-1 residue grids) are built once per key and cached
read-only; nothing is cached by argument, draw or result.

The corner estimator :func:`measure_charfun_batch` reuses the contraction,
weighting the corner draw by the coefficients of ``sampling._corner_law``,
the one validated term list that :func:`generator_diagonal` also reads.
Each chunk of corners is drawn in blocks of samples, on the same streams as
one draw of the chunk, and only the diagonal of each block's Haar tail is
kept, so no chunk holds the whole (count, n, n[, window]) tail.

Error bounds: writing x = prod_{w<r} (1 - q^{w-n}) (the full-rank fraction
of r x n digit matrices), the comparison of the integral with the kernel
product is bounded by 2(1 - x^2) for the two-sided kind and 2(1 - x) for
the congruence kind.  The two-sided constant is the honest union bound
|Mat^2 \\ S^2| <= #Mat^2 - #S^2; the superficially tighter form 2(1 - x)^2
double-counts and is exactly violated already at n = r = 1 (see the test
suite, which certifies the violation by enumeration).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import KIND_BILINEAR, KIND_SQUARE, CharValue, charvalue_product, chi, theta_closed
from .errors import DimensionMismatch, InsufficientPrecision, LevelTooLow, TooLarge
from .field import FieldElement, FieldParams, _base_digits
from .matrices import MatF
from .params import DeltaParam
from .sampling import (
    KIND_CONGRUENCE, KIND_TWO_SIDED, RandomStream, _check_kind, _corner_draws, _corner_law, _entry_shape, _haar_rows,
    _pow_mod_vec, _product_bound,
)

_EXACT_ENUM_GUARD = 8_000_000
_CHUNK = 16384  # Haar draws per Monte Carlo chunk
_MOBIUS_BLOCK = 1 << 18  # entries per block of the exact oracle's Moebius sum
_PHASE_TABLE = 1 << 16  # the largest modulus whose roots of unity are tabulated


# ---------------------------------------------------------------------------
# estimates and accumulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of a complex mean; ``stderr`` combines the
    standard errors of the real and imaginary parts as sqrt(se_re^2 + se_im^2)."""

    mean: complex
    stderr: float
    n_samples: int
    seed: int


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
        return McEstimate(mean, math.hypot(se_re, se_im), n, seed)


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
    unit part of a_i x_j; plus the overall window K.  Raises
    InsufficientPrecision, as chi does, when a_i x_j stores fewer than m_ij
    digits.  Entries of D of equal value share one product a_i x_j."""
    first = {}  # the value of an x (cheaper to hash than the element) -> its first position
    twin = [first.setdefault((x.ord, x.rel, x.unit), j) for j, x in enumerate(D)]
    pairs, K = [], 0
    for i, a in enumerate(A):
        cells = [None] * len(D)  # (m, unit) of a x_j, None where a x_j lies in O_F
        for j, x in enumerate(D):
            if twin[j] < j:
                cell = cells[twin[j]]
            elif a.ord + x.ord >= 0:  # ord is additive: a x is 0 or lies in O_F
                continue
            else:
                prod = a * x
                m = -prod.ord
                if prod.rel < m:
                    raise InsufficientPrecision(f"argument product stores {prod.rel} digits; chi needs {m}")
                unit = prod.unit % field.p**m if field.family == "padic" else _base_digits(prod.unit, field._ring[0][1], m)
                cell = cells[j] = m, unit
                K = max(K, m)
            if cell:
                pairs.append((i, j) + cell)
    _check_window(field, K)
    return pairs, K


# ---------------------------------------------------------------------------
# residue rank and enumeration
# ---------------------------------------------------------------------------


def invertible_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Which (r, n) matrices of the batch, r <= n, have full row rank mod p
    (for square ones: are invertible mod p), by batched elimination.  No
    library code calls it since the exact oracle stopped enumerating
    residues.  It stays because the benchmark's tracer binds its name, and
    the tests check the Haar sampler and the exact oracle's residue-count
    reference against it."""
    if (p - 1) ** 2 >= 2**63:  # residue products in int64
        raise TooLarge(f"p = {p} too large for int64 residue elimination")
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
    pair list reads, in order of first appearance, as index arrays I, J,
    and int64 weights W of shape tail + (cells, lists): list l has the
    phase integer sum_c s_c . W[.., c, l] mod M at cell values s_c mod pi^K.
    Over Q_p, M = p^K and W = unit * p^(K-m); over F_p((t)), M = p and
    W[s] = unit[m-1-s] (s < m) reads the t^-1 coefficient."""
    cells = {}  # cell (i, j) -> its index, in order of first appearance
    for pairs in pair_lists:
        for i, j, _, _ in pairs:
            cells.setdefault((i, j), len(cells))
    M, tail = _entry_shape(field, K)
    W = np.zeros(tail + (len(cells), len(pair_lists)), dtype=np.int64)
    for l, pairs in enumerate(pair_lists):
        at = [cells[i, j] for i, j, _, _ in pairs]
        if tail:
            W[:, at, l] = np.array([unit[::-1] + (0,) * (K - m) for _, _, m, unit in pairs]).T
        else:
            W[at, l] = [unit * field.p ** (K - m) % M for _, _, m, unit in pairs]
    I, J = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
    return I, J, W


def _gather(g: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """g[:, I, J] laid out as tail + (cells, count), C-contiguous: the digit
    axis is indexed too, so each (digit, cell) copies one run of count entries."""
    digits = (np.arange(g.shape[-1])[:, None],) if g.ndim == 4 else ()
    return g.T[digits + (J, I)]


def _paired_phases(field: FieldParams, K: int, W: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phase integers (lists, count) from the gathered cells a of g1 and b of
    g2: the cell products mod pi^K (digit convolutions over F_p((t))),
    contracted against W in float64 while the sums stay exact below 2^53,
    else reduced mod M and summed product by product in int64.  The cell
    products are taken in the integer type of a and b: the Haar rows'
    ``sampling._entry_dtype`` (int16 at p = 3) holds the product bound, so
    nothing wraps."""
    M, tail = _entry_shape(field, K)
    if tail:
        s = np.zeros_like(b)
        for t in range(K):
            for beta in range(t + 1):
                s[t] += a[beta] * b[t - beta]
    else:
        s = a * b
    s, W = s.reshape(-1, s.shape[-1]), W.reshape(-1, W.shape[-1])
    top = _product_bound(field, K)
    if len(s) * top * (M - 1) < 1 << 53:
        return (W.T.astype(float) @ s.astype(float)).astype(np.int64) % M
    s = s % M
    return np.stack([(w[:, None] * s % M).sum(axis=0) % M for w in W.T])


@functools.lru_cache(maxsize=32)
def _roots_of_unity(M: int) -> np.ndarray:
    """The M-th roots of unity exp(2 pi i k / M), k < M, read-only."""
    table = np.exp(2j * np.pi * np.arange(M) / M)
    table.flags.writeable = False
    return table


def _phases(k: np.ndarray, M: int) -> np.ndarray:
    """exp(2 pi i k / M) for integers 0 <= k < M, bit for bit: a gather from
    the table :func:`_roots_of_unity` for M up to ``_PHASE_TABLE``, the
    expression itself above it."""
    if M > _PHASE_TABLE:
        return np.exp(2j * np.pi * k / M)
    return _roots_of_unity(M)[k]


def _rows_read(pairs) -> int:
    return 1 + max(i for i, _, _, _ in pairs)


def _mc_estimates(
    field: FieldParams, pair_lists, K: int, n_samples: int, rng: RandomStream, draw_rows
) -> list[McEstimate]:
    """Average the integrand of each pair list over ``n_samples`` row draws,
    chunk by chunk; ``draw_rows(c, count)`` yields the (g1, g2) of chunk c in
    blocks of consecutive samples (the Haar rows in one block, the corners in
    blocks of ``sampling._CORNER_BLOCK`` entries).  Each block gathers the
    cells that any list reads once and contracts them against every list's
    weights into the chunk's phase integers, whose phases are then summed
    chunk by chunk; an empty list has the integrand 1."""
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    I, J, W = _cell_weights(field, pair_lists, K)
    M = _entry_shape(field, K)[0]
    accs = [_Acc() for _ in pair_lists]
    # when no list reads a cell, nothing is drawn
    for c, start in enumerate(range(0, n_samples if len(I) else 0, _CHUNK)):
        count = min(_CHUNK, n_samples - start)
        phases, done = np.empty((len(pair_lists), count), dtype=np.int64), 0
        for g1, g2 in draw_rows(c, count):
            a = _gather(g1, I, J)
            b = a if g2 is g1 else _gather(g2, I, J)
            del g1, g2  # free the block's draws before its phases are computed
            phases[:, done : done + a.shape[-1]] = _paired_phases(field, K, W, a, b)
            done += a.shape[-1]
            del a, b
        for acc, k in zip(accs, phases):
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
        # one block per chunk: a row's redraws need its whole first pass.  No
        # name here holds the rows once yielded (congruence yields one array
        # twice), so _mc_estimates can free them
        sub = rng.child("mc", c)
        if kind == KIND_TWO_SIDED:
            yield tuple(_haar_rows(sub.child(g), field, n, r, K, count) for g in ("g1", "g2"))
        else:
            yield (_haar_rows(sub.child("g"), field, n, r, K, count),) * 2

    return _mc_estimates(field, pair_lists, K, n_samples, rng, draw_rows)


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


@functools.lru_cache(maxsize=256)
def full_rank_fraction(n: int, r: int, q: int) -> Fraction:
    """x = prod_{w<r} (1 - q^(w-n)) = prod_{w<r} (q^(n-w) - 1) / q^(n-w): the
    fraction of r x n digit matrices of full residue rank."""
    return Fraction(math.prod(q ** (n - w) - 1 for w in range(r)), q ** sum(n - w for w in range(r)))


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
    _check_kind(kind)
    x = full_rank_fraction(n, r, q)
    x1 = full_rank_fraction(n, 1, q)
    if kind == KIND_TWO_SIDED:
        fact = 2 * (1 - x * x)
        mult = fact + r * 2 * (1 - x1 * x1)
    else:
        fact = 2 * (1 - x)
        mult = fact + r * 2 * Fraction(1, q**n)
    return ErrorBounds(fact, mult)


def within(gap: float, bound: float, stderr: float) -> bool:
    """The gate of every Monte Carlo check: an observed gap clears its bound
    plus three standard errors of noise."""
    return gap <= bound + 3 * stderr


# ---------------------------------------------------------------------------
# exact oracle: level-free cell tables and Moebius inversion
# ---------------------------------------------------------------------------


def _lift_tables(field: FieldParams, pairs, level: int, factors: int) -> np.ndarray:
    """The library's one brute force over O_F / pi^level: per cell (i, j)
    that ``pairs`` reads, in their order, the mean of its factor
    chi(g1 g2 a_i x_j) over the q^(2 level) lift pairs of each residue pair
    mod pi (factors = 2; axes: residue of g1, then of g2), or of
    chi(g^2 a_i x_j) over the q^level lifts of each residue (factors = 1)."""
    # one list per cell makes W diagonal: summed over cells, it weights a
    # single lifted entry by every cell
    _, _, W = _cell_weights(field, [[pair] for pair in pairs], level)
    M, tail = _entry_shape(field, level)
    lifts = _enumerate(M, (factors,) + tail)
    # index = sum_e lift_e q^(level e) with lift_e = d_e + p h_e, so the
    # reshape below puts the residue of g1 (the last lift) before that of g2
    g1, g2 = (lifts[:, e].T[..., None, :] for e in (-1, 0))
    phases = _phases(_paired_phases(field, level, W.sum(axis=-2, keepdims=True), g1, g2), M)
    return phases.reshape((len(pairs),) + (field.p ** (level - 1), field.p) * factors).mean(axis=(1, 3)[:factors])


def theta_bruteforce(x: FieldElement, kind: str = KIND_SQUARE) -> complex:
    """Kernel value by exact finite summation, independent of the closed
    form: the integrand depends only on z mod pi^l with l = -ord(x), so the
    kernel is the mean of the lift table of the one cell a = 1, x (pairs
    (z1, z2) for the bilinear kernel, z for the square kernel)."""
    if kind not in (KIND_BILINEAR, KIND_SQUARE):
        raise ValueError(f"unknown kernel kind {kind!r}")
    if x.is_zero() or x.ord >= 0:
        return 1 + 0j
    field = x.params
    if kind == KIND_SQUARE:
        field.require_nondyadic("the square kernel")
    pairs, level = _pair_data(field, [x], [field.one()])
    return complex(_lift_tables(field, pairs, level, 2 if kind == KIND_BILINEAR else 1)[0].mean())


def _cell_tables(field: FieldParams, kind: str, pairs) -> np.ndarray:
    """The lift tables of :func:`_lift_tables` for the cells of ``pairs``, at
    every level from their depth on, without enumerating a lift.

    A cell of depth m = 1 has the grid chi(u0 d1 d2 / pi) over the residue
    pairs (two-sided kind), or chi(u0 d^2 / pi) over the residues
    (congruence), u0 the lowest digit of its unit; both families read the
    phase (u0 y mod p) / p.  A cell of depth m >= 2 is zero off residue 0:
    given a unit residue the product is uniform on a coset of pi O_F (for the
    square, g -> g^2 maps d + pi O_F onto d^2 + pi O_F when p is odd), where
    chi(c pi h) averages to 0.  At residue 0 it is the kernel at depth m - 2,
    theta(m - 2) = q^(-f floor((m - 2) / 2)) times the mean of the m = 1 grid
    for m odd (1 for m even), with f = 2 (two-sided) or 1 (congruence).  Over
    a dyadic field the square identity fails, so the congruence tables are
    enumerated there."""
    q, f = field.q, 2 if kind == KIND_TWO_SIDED else 1
    if f == 1 and field.is_dyadic:
        return _lift_tables(field, pairs, max(m for _, _, m, _ in pairs), 1)
    # the unit's lowest digit: the integer mod p over Q_p, the first stored
    # digit over F_p((t))
    padic = field.family == "padic"
    lowest = np.array([unit if padic else unit[0] for _, _, _, unit in pairs]) % q
    tables = _phases(np.multiply.outer(lowest, _residue_grid(q, f)) % q, q)
    for table, (_, _, m, _) in zip(tables, pairs):
        if m > 1:
            theta = q ** (-f * ((m - 2) // 2)) * (table.mean() if m % 2 else 1)
            table[...] = 0
            table[(0,) * f] = theta
    return tables


@functools.lru_cache(maxsize=16)
def _residue_grid(q: int, f: int) -> np.ndarray:
    """The depth-1 residue grid y of :func:`_cell_tables`, read-only: d1 d2
    mod q over the residue pairs (f = 2), d^2 mod q over the residues
    (f = 1).  Its entries are below q, so u0 y fits int64."""
    d = np.arange(q)
    y = (np.multiply.outer(d, d) if f == 2 else d * d) % q
    y.flags.writeable = False
    return y


@functools.lru_cache(maxsize=64)
def _subspace_count(q: int, r: int) -> int:
    """The number of subspaces of F_q^r: the sum over k of the Gaussian
    binomials [r choose k]_q."""
    return sum(
        math.prod(q ** (r - i) - 1 for i in range(k)) // math.prod(q ** (i + 1) - 1 for i in range(k))
        for k in range(r + 1)
    )


@functools.lru_cache(maxsize=16)
def _subspace_lattice(q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The subspaces W of F_q^r as (P, mu): the incidence P[W, u] = 1[u in W]
    over the vectors u indexed by sum_i u_i q^i, and the Moebius function
    mu(W, F_q^r) = (-1)^c q^(c (c - 1) / 2) with c = r - dim W (Stanley,
    Enumerative Combinatorics 1, 3.10).  Each W is listed once, as the row
    span of its reduced echelon basis.  Both arrays are read-only."""
    weights = q ** np.arange(r)
    P, mu = [], []
    for k in range(r + 1):
        coefficients = np.array(list(itertools.product(range(q), repeat=k)), dtype=np.int64).reshape(q**k, k)
        c = r - k
        for pivots in itertools.combinations(range(r), k):
            free = [(a, b) for a in range(k) for b in range(pivots[a] + 1, r) if b not in pivots]
            values = np.array(list(itertools.product(range(q), repeat=len(free))), dtype=np.int64)
            bases = np.zeros((len(values), k, r), dtype=np.int64)
            bases[:, range(k), pivots] = 1
            for t, (a, b) in enumerate(free):
                bases[:, a, b] = values[:, t]
            members = np.einsum("sk,wkr->wsr", coefficients, bases) % q @ weights
            block = np.zeros((len(values), q**r))
            np.put_along_axis(block, members, 1.0, axis=1)
            P.append(block)
            mu += [(-1) ** c * q ** (c * (c - 1) // 2)] * len(values)
    P, mu = np.concatenate(P), np.array(mu, dtype=float)
    P.flags.writeable = mu.flags.writeable = False
    return P, mu


@functools.lru_cache(maxsize=16)
def _subspace_shares(q: int, r: int) -> np.ndarray:
    """|W| / q^r for each subspace W of :func:`_subspace_lattice`, read-only."""
    share = _subspace_lattice(q, r)[0].sum(axis=1) / q**r
    share.flags.writeable = False
    return share


def _kronecker(F: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The Kronecker product table (x) F, each axis indexed by the residue of
    the table's factor ahead of F's: folded over a column's tables, it has
    the rows u = sum_i u_i q^i of :func:`exact_orbital_integral`.  einsum
    multiplies complex numbers as (ac - bd, ad + bc) on every host; numpy's
    multiply ufunc fuses that into multiply-adds where the CPU has them,
    which moves the last bits of the oracle's values."""
    subscripts = "a,b->ba" if table.ndim == 1 else "ab,cd->cadb"
    return np.einsum(subscripts, F, table).reshape((len(F) * len(table),) * table.ndim)


def exact_orbital_integral(field: FieldParams, kind: str, D, A, level: int) -> complex:
    """Exact value of the orbital integral: the average of the integrand over
    the full-rank r x n row sets it reads (pairs of them for the two-sided
    kind), r = 1 + the last row of a cell read.  ``level`` must reach the
    stability level max(-ord(a_i x_j)); perturbing g by pi^level h then moves
    the trace inside O_F, where chi is trivial.  The value does not depend
    on ``level``: the cell tables are level-free.

    Such a row set is R + pi H, with R of full rank mod pi and H uniform and
    independent of R, so given R the integrand is the product over read
    cells of their tables (:func:`_cell_tables`; over a dyadic field the
    congruence tables are the enumerated :func:`_lift_tables`).  R has full
    rank exactly when its columns span F_q^r, so Moebius inversion over the
    subspaces W of F_q^r (:func:`_subspace_lattice`) replaces the residue
    count:

        integral = x^-f sum_W mu(W, F_q^r) prod_j E_j(W),

    x = :func:`full_rank_fraction`, f = 2 (two-sided; W runs over pairs) or 1
    (congruence).  A read column j has E_j = q^(-f r) P F_j P^t (P F_j for
    congruence), F_j the Kronecker product of its cell tables over the
    column's residues; an unread column has E_j = (|W| / q^r)^f.  The guard
    bounds the q^(f r) column values, the q^r vectors of every subspace and,
    for the two-sided kind, the subspace pairs."""
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
    q, f, r = field.q, 1 if kind == KIND_CONGRUENCE else 2, _rows_read(pairs)
    count = _subspace_count(q, r)
    for size, what in ((q ** (f * r), "column values"), (count * q**r, "subspace vectors"), (count**f, "subspaces")):
        if size > _EXACT_ENUM_GUARD:
            raise TooLarge(f"{size} {what} of F_{q}^{r} exceed the guard")
    P, mu = _subspace_lattice(q, r)
    columns, unread = {}, np.ones((q,) * f)
    for (i, j, _, _), table in zip(pairs, _cell_tables(field, kind, pairs)):
        columns.setdefault(j, [unread] * r)[i] = table
    # F_j = the Kronecker product of the column's tables, row u = sum_i u_i q^i
    Fs = [functools.reduce(_kronecker, tables) for tables in columns.values()]
    share = _subspace_shares(q, r)
    total = 0j
    # blocks of W (of W1 for pairs): a row of E has len(P)^(f - 1) entries
    step = max(1, _MOBIUS_BLOCK // len(P) ** (f - 1))
    for start in range(0, len(P), step):
        rows = slice(start, start + step)
        E = (share[rows] if f == 1 else share[rows, None] * share) ** (n - len(Fs))
        for F in Fs:
            E = E * (P[rows] @ F @ P.T if f == 2 else P[rows] @ F) / q ** (f * r)
        total += mu[rows] @ E @ mu if f == 2 else mu[rows] @ E
    return complex(total / float(full_rank_fraction(n, r, q)) ** f)


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
    terms = [(i, j, A[i, j]) for i in range(A.rows) for j in range(A.cols) if not A[i, j].is_zero()]
    vals = [_chi_trace(terms, M) for M in samples]
    acc.add(np.asarray(vals, dtype=complex))
    return acc.finalize(0)


def _chi_trace(terms, M: MatF) -> complex:
    """chi(tr(A M)) from the nonzero entries (i, j, A[i, j]) of A, summed in
    row-major order; a sum cancelled to O(pi^g) with g >= 0 lies in O_F,
    where chi is 1, and one cancelled below ord 0 raises in chi."""
    t, entries, cols = M.params.zero(), M.entries, M.cols
    for i, j, a in terms:
        t += a * entries[j * cols + i]
    return chi(t)


# -- batched corner sampling (same measures, the orbital trace-form kernel) ---


def _corner_rows(field: FieldParams, param, n: int, count: int, window: int, stream: RandomStream):
    """Rows g1, g2 of shape (s, r, n[, window]) of each block of s samples of
    the corner draw :func:`sampling._corner_draws`, with the corner diagonal
    c_jj = sum_i c_i g1[:, i, j] g2[:, i, j] for the coefficients c of
    :func:`_corner_coefficients`.  Row t holds X_t and Y_t of rank-one term t
    (congruence family: X_t twice); a last row holds the diagonal of the
    Haar tail Z (resp. H) against the constant 1."""
    # the entry 1: one integer over Q_p, the digits (1, 0, ..) over F_p((t))
    tail = _entry_shape(field, window)[1]
    one = np.eye(1, math.prod(tail), dtype=np.int64).reshape(tail)
    diag = np.arange(n)
    for terms, haar in _corner_draws(field, param, n, count, window, stream):
        g1, g2 = [X for _, _, X, _ in terms], [Y for _, _, _, Y in terms]
        if haar is not None:
            g1.append(haar[1][:, diag, diag])
            g2.append(np.broadcast_to(one, g1[-1].shape))
        yield np.stack(g1, axis=1), np.stack(g2, axis=1)


def _corner_coefficients(field: FieldParams, param) -> list[FieldElement]:
    """The coefficient c pi^-k of each rank-one term of
    :func:`sampling._corner_law`, then the tail's pi^-k, or zero for a -inf
    tail."""
    terms, tail = _corner_law(field, param)
    coefficients = [field.from_int(c).shift(-k) for k, c, _, _ in terms]
    return coefficients + [field.zero() if tail is None else field.uniformizer_pow(-tail[0])]


def measure_charfun_batch(
    field: FieldParams,
    param,
    n: int,
    n_samples: int,
    probes,
    rng: RandomStream,
) -> list[McEstimate]:
    """Empirical characteristic function of corner samples at diagonal probe
    arguments.  ``probes`` is a list of lists of FieldElements (one diagonal
    argument per probe, entry i multiplying the (i, i) corner coefficient).

    A diagonal probe reads only the corner's diagonal, a sum of products of
    the sampled vectors, so chi(sum_j a_j c_jj) is the bilinear trace form of
    the orbital kernels (see :func:`_corner_rows`), evaluated exactly on both
    field families.  Entries are drawn mod pi^window, deep enough for the
    deepest probe against the deepest coefficient of the corner.
    """
    coefficients = _corner_coefficients(field, param)
    probes = [[as_element(field, a) for a in diag] for diag in probes]
    if any(len(diag) > n for diag in probes):
        raise DimensionMismatch(f"a probe of length {max(map(len, probes))} exceeds the corner size n={n}")
    scale = max([0] + [-w.ord for w in coefficients if not w.is_zero()])
    window = max([1] + [scale - a.ord for diag in probes for a in diag if not a.is_zero()])
    _check_window(field, window)
    pair_lists = [_pair_data(field, diag, coefficients)[0] for diag in probes]

    def draw_rows(c: int, count: int):
        return _corner_rows(field, param, n, count, window, rng.child("corner", c))

    return _mc_estimates(field, pair_lists, window, n_samples, rng, draw_rows)


# ---------------------------------------------------------------------------
# convergence of orbital measures to the classified limits
# ---------------------------------------------------------------------------


def generator_diagonal(field: FieldParams, param, n: int) -> list[FieldElement]:
    """The canonical diagonal generator at size n: the term coefficients of
    :func:`_corner_coefficients`, padded by the tail's (zero for -inf)."""
    *diag, pad = _corner_coefficients(field, param)
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
    field: FieldParams, param, n_list, n_samples: int, rng: RandomStream
) -> list[ConvergenceRow]:
    """Push the canonical generators by Haar and compare the empirical
    characteristic function against the closed form of the limit measure at
    the rank-one probe arguments pi^-ell (and eps pi^-ell), -2 <= ell <= 3;
    gaps must clear the rank-one bound plus Monte Carlo noise, with the
    bound sequence strictly decreasing in n."""
    two_sided = isinstance(param, DeltaParam)
    kind = KIND_TWO_SIDED if two_sided else KIND_CONGRUENCE
    q = field.q
    rows = []
    for n in n_list:
        D = generator_diagonal(field, param, n)
        bound = float(error_bound(kind, n, 1, q).factorization)
        probes = []
        closed_vals = []
        for ell in range(-2, 4):
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
        rows.append(ConvergenceRow(n, max_gap, bound, within(max_gap, bound, max_noise)))
    return rows
