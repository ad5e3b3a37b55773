"""Seeded random generation: uniform integral elements, Haar measure on
GL(n, O_F), finite corners of the two measure families, and orbital pushes.

Randomness is counter-based: a :class:`RandomStream` is a (seed, derivation
path) pair keyed into a Philox generator, so any two draws with distinct
paths are independent and identical paths reproduce identical draws no
matter how work is scheduled across threads or processes.

Each measure family has one corner draw, :func:`_corner_draws`, with one
stream per independent variable; ``orbital.measure_charfun_batch`` reads
its diagonal and :func:`sample_corner` is its one-sample view.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParam
from .field import FieldElement, FieldParams, _vp
from .matrices import MatF
from .params import DeltaParam, OmegaParam, validate
from .residue import _det_mod


class RandomStream:
    """Deterministic stream addressed by (seed, path).

    ``child(*parts)`` derives an independent stream; draws from one stream
    advance its own Philox generator sequentially.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed) & (2**64 - 1)
        self.path = tuple(path)
        self._gen = None

    def child(self, *parts) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(parts))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            material = repr((self.seed, self.path)).encode()
            digest = hashlib.blake2b(material, digest_size=16).digest()
            key = np.frombuffer(digest, dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def integers(self, low: int, high: int | None = None, size=None):
        """numpy-style uniform integers: [0, low) or [low, high)."""
        return self.generator.integers(low, high, size=size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


# ---------------------------------------------------------------------------
# elementary draws
# ---------------------------------------------------------------------------


def _uniform_below(params: FieldParams, rng: RandomStream, k: int, size=None):
    """Uniform integers below p^k: one draw while p^k is within the
    generator's int64 range, else k base-p digits (least significant first)
    combined into exact Python integers."""
    p = params.p
    if p**k <= 2**63:
        return rng.integers(p**k, size=size)
    digits = rng.integers(p, size=(() if size is None else size) + (k,))
    return digits.astype(object) @ np.array([p**i for i in range(k)], dtype=object)


def uniform_integer(params: FieldParams, rng: RandomStream) -> FieldElement:
    """Haar-uniform element of O_F to the stored precision (all digits
    i.i.d. uniform).  The q^-precision event of an all-zero window is
    returned as the exact zero."""
    n = params.precision
    if params.family == "padic":
        return params.from_base_p(int(_uniform_below(params, rng, n)))
    digits = [int(d) for d in rng.integers(params.p, size=n)]
    return params.element(0, digits)


def _digit_matrix(params: FieldParams, rng: RandomStream, n: int) -> np.ndarray:
    return rng.integers(params.p, size=(n, n)).astype(np.int64)


def haar_gl(rng: RandomStream, params: FieldParams, n: int) -> MatF:
    """Haar random matrix on GL(n, O_F): a uniform digit matrix accepted when
    invertible mod pi (rejection), plus an independent uniform perturbation
    in pi * Mat(n, O_F)."""
    while True:
        t = _digit_matrix(params, rng, n)
        if _det_mod([list(map(int, row)) for row in t], params.p) != 0:
            break
    entries = []
    if params.family == "padic":
        rest = _uniform_below(params, rng, params.precision - 1, (n, n))
        for i in range(n):
            for j in range(n):
                entries.append(params.from_base_p(int(t[i, j]) + params.p * int(rest[i, j])))
    else:
        rest = rng.integers(params.p, size=(n, n, params.precision - 1))
        for i in range(n):
            for j in range(n):
                digits = [int(t[i, j])] + [int(d) for d in rest[i, j]]
                entries.append(params.element(0, digits))
    return MatF(params, n, n, entries)


# ---------------------------------------------------------------------------
# measure-family corners
# ---------------------------------------------------------------------------


def _corner_draws(field: FieldParams, param, n: int, count: int, window: int, stream: RandomStream):
    """Every variable of ``count`` corners of ``param`` mod pi^window, each
    from its own stream (integers below p^window over Q_p, digits on a
    trailing axis over F_p((t))): rank-one terms (k, c, X, Y) standing for
    c pi^-k X Y^t, X and Y of shape (count, n[, window]) from ("x", t) and
    ("y", t) (symmetric family: X X^t, then eps Y Y^t with c the digit of
    eps), and the Haar tail (k, Z), Z of shape (count, n, n[, window]) from
    "z" (resp. "h"), or None for a -inf tail."""

    def draw(*path, shape=(n,)):
        sub, size = stream.child(*path), (count,) + shape
        if field.family == "padic":
            return _uniform_below(field, sub, window, size)
        return sub.integers(field.p, size=size + (window,))

    if isinstance(param, DeltaParam):
        terms = [(k, 1, draw("x", t), draw("y", t)) for t, k in enumerate(param.head)]
        tail, name = param.tail, "z"
    else:
        eps = field.nonsquare_unit_digit
        squares = [(k, 1, draw("x", t)) for t, k in enumerate(param.kk)]
        squares += [(k, eps, draw("y", t)) for t, k in enumerate(param.kkp)]
        terms = [(k, c, X, X) for k, c, X in squares]
        tail, name = param.k, "h"
    return terms, None if tail is None else (tail, draw(name, shape=(n, n)))


def sample_corner(field: FieldParams, param, n: int, rng: RandomStream) -> MatF:
    """Top-left n x n corner of the infinite random matrix attached to the
    parameter: rank-one terms pi^-k X Y^t (resp. symmetric X X^t and
    eps-twisted ones) plus the Haar tail pi^-k Z (resp. symmetric H, read
    on i <= j).

    One sample of the corner draw (:func:`_corner_draws` at count 1 and
    window = precision).  Entry (i, j) is the sum of its terms mod pi^A, A
    the least of ord(term) + precision over its nonzero terms: O(pi^A) when
    the sum cancels there, the exact zero when every term is zero.
    """
    if isinstance(param, DeltaParam):
        return sample_mu_corner(field, param, n, rng)
    if isinstance(param, OmegaParam):
        return sample_nu_corner(field, param, n, rng)
    raise InvalidParam(f"not a parameter object: {type(param).__name__}")


def sample_mu_corner(field: FieldParams, param: DeltaParam, n: int, rng: RandomStream) -> MatF:
    ok, msg = validate(param)
    if not ok or not isinstance(param, DeltaParam):
        raise InvalidParam(msg or "expected a DeltaParam")
    return _corner_matrix(field, param, n, rng)


def sample_nu_corner(field: FieldParams, param: OmegaParam, n: int, rng: RandomStream) -> MatF:
    field.require_nondyadic("the symmetric family")
    ok, msg = validate(param)
    if not ok or not isinstance(param, OmegaParam):
        raise InvalidParam(msg or "expected an OmegaParam")
    return _corner_matrix(field, param, n, rng)


def _corner_matrix(field: FieldParams, param, n: int, rng: RandomStream) -> MatF:
    """Each entry of one corner draw as an exact integer sum of its terms,
    all scaled by pi^kmax: over Q_p the values themselves (base B = p), over
    F_p((t)) one digit per b-bit slot (B = 2^b), wide enough that no digit
    sum carries, reduced mod p slot by slot."""
    p, N, padic = field.p, field.precision, field.family == "padic"
    terms, haar = _corner_draws(field, param, n, 1, N, rng)
    kmax = param.support_bound()  # at least every k
    # a slot sums N digit products times c < p per rank-one term, plus a tail digit
    b = ((len(terms) + 1) * N * (p - 1) ** 3 + p).bit_length()
    B = p if padic else 1 << b
    slots = np.array([B**s for s in range(N)], dtype=object)

    def ints(a):  # drawn values as integers in base B
        return a.tolist() if padic else (a.astype(object) @ slots).tolist()

    def val(v):  # the valuation (plus kmax) of one nonzero scaled term
        return _vp(v, p) if padic else ((v & -v).bit_length() - 1) // b

    grids = []  # the n x n scaled values of each term
    for k, c, X, Y in terms:
        scale, ys = c * B ** (kmax - k), ints(Y[0])
        grids.append([[scale * x * y for y in ys] for x in ints(X[0])])
    if haar:
        grids.append([[B ** (kmax - haar[0]) * z for z in row] for row in ints(haar[1][0])])

    def entry(i, j):
        parts = [g[i][j] for g in grids if g[i][j]]
        if not parts:
            return field.zero()
        S, L = sum(parts), min(map(val, parts)) + N  # S is known mod B^L, L = A + kmax
        if padic:
            S %= p**L
            lead = _vp(S, p) if S else L
            unit = S // p**lead
        else:
            digits = [(S >> (b * s)) % B % p for s in range(L)]
            lead = next((s for s, d in enumerate(digits) if d), L)
            unit = tuple(digits[lead:])
        return FieldElement(field, L - kmax, None, 0) if lead == L else FieldElement(field, lead - kmax, unit, L - lead)

    symmetric = isinstance(param, OmegaParam)
    upper = {(i, j): entry(i, j) for i in range(n) for j in range(i if symmetric else 0, n)}
    return MatF(field, n, n, [upper[(j, i) if symmetric and j < i else (i, j)] for i in range(n) for j in range(n)])


# ---------------------------------------------------------------------------
# orbital pushforwards
# ---------------------------------------------------------------------------

KIND_TWO_SIDED = "two_sided"
KIND_CONGRUENCE = "congruence"


def orbital_push(X: MatF, kind: str, rng: RandomStream) -> MatF:
    """One draw from the orbital measure generated by X: g1 X g2 under the
    two-sided action, g X g^t under congruence."""
    n = X.rows
    if kind == KIND_TWO_SIDED:
        g1 = haar_gl(rng.child("g1"), X.params, n)
        g2 = haar_gl(rng.child("g2"), X.params, n)
        return g1 @ X @ g2
    if kind == KIND_CONGRUENCE:
        g = haar_gl(rng.child("g"), X.params, n)
        return g @ X @ g.transpose()
    raise ValueError(f"unknown orbital kind {kind!r}")
