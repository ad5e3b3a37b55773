"""Seeded random generation: uniform integral elements, Haar measure on
GL(n, O_F), finite corners of the two measure families, and orbital pushes.

Randomness is counter-based: a :class:`RandomStream` is a (seed, derivation
path) pair keyed into a Philox generator, so any two draws with distinct
paths are independent and identical paths reproduce identical draws no
matter how work is scheduled across threads or processes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParam
from .field import FieldElement, FieldParams
from .matrices import MatF, add_lenient
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


def _uniform_vector(params: FieldParams, rng: RandomStream, n: int) -> list[FieldElement]:
    return [uniform_integer(params, rng.child(i)) for i in range(n)]


def sample_corner(field: FieldParams, param, n: int, rng: RandomStream) -> MatF:
    """Top-left n x n corner of the infinite random matrix attached to the
    parameter: rank-one terms pi^-k X Y^t (resp. symmetric X X^t and
    eps-twisted ones) plus the Haar tail pi^-k Z (resp. symmetric H).

    Every independent variable draws from its own derivation path.
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
    zero = field.zero()
    acc = [[zero] * n for _ in range(n)]
    for t, k in enumerate(param.head):
        xs = _uniform_vector(field, rng.child("x", t), n)
        ys = _uniform_vector(field, rng.child("y", t), n)
        for i in range(n):
            xi = xs[i].shift(-k)
            for j in range(n):
                acc[i][j] = add_lenient(acc[i][j], xi * ys[j])
    if param.tail is not None:
        zr = rng.child("z")
        for i in range(n):
            for j in range(n):
                z = uniform_integer(field, zr.child(i, j)).shift(-param.tail)
                acc[i][j] = add_lenient(acc[i][j], z)
    return MatF.from_rows(field, acc)


def sample_nu_corner(field: FieldParams, param: OmegaParam, n: int, rng: RandomStream) -> MatF:
    field.require_nondyadic("the symmetric family")
    ok, msg = validate(param)
    if not ok or not isinstance(param, OmegaParam):
        raise InvalidParam(msg or "expected an OmegaParam")
    eps = field.eps()
    zero = field.zero()
    acc = [[zero] * n for _ in range(n)]

    def add_rank_one(vec, scale):
        scaled = [v * scale for v in vec]
        for i in range(n):
            for j in range(i, n):
                term = scaled[i] * vec[j]
                acc[i][j] = add_lenient(acc[i][j], term)
                if i != j:
                    acc[j][i] = acc[i][j]

    for t, k in enumerate(param.kk):
        xs = _uniform_vector(field, rng.child("x", t), n)
        add_rank_one(xs, field.uniformizer_pow(-k))
    for t, k in enumerate(param.kkp):
        ys = _uniform_vector(field, rng.child("y", t), n)
        add_rank_one(ys, eps.shift(-k))
    if param.k is not None:
        hr = rng.child("h")
        for i in range(n):
            for j in range(i, n):
                h = uniform_integer(field, hr.child(i, j)).shift(-param.k)
                acc[i][j] = add_lenient(acc[i][j], h)
                if i != j:
                    acc[j][i] = acc[i][j]
    return MatF.from_rows(field, acc)


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
