"""Seeded random generation: uniform integral elements, Haar measure on
GL(n, O_F), finite corners of the two measure families, and orbital pushes.

Randomness is counter-based: a :class:`RandomStream` is a (seed, derivation
path) pair whose blake2b digest keys a Philox stream, so any two draws with
distinct paths are independent and identical paths reproduce identical
draws no matter how work is scheduled across threads or processes.  A
stream holds only its Philox state (key, counter and buffered bits); each
thread has one Philox generator, into which a draw loads the stream's state
and from which it reads the advanced state back.  Since a Philox stream is
determined by its key and counter, the draws are those of a Philox keyed
afresh for every stream, without paying for a generator per stream.

Every entry of O_F / pi^K is drawn by :func:`_uniform_window`, and each law
has one batched draw.  Haar measure has :func:`_haar_rows`: the Monte Carlo
orbital integrals read its first rows, :func:`haar_gl` is its one-sample
view and :func:`orbital_push` draws its g1 and g2 as two samples of it.
The corner of a measure-family parameter is one validated term list,
:func:`_corner_law`: :func:`_corner_draws` draws its variables, one stream
per path, in blocks of samples, :func:`sample_corner` is the one-sample
view of that draw, and ``orbital.measure_charfun_batch`` and
``orbital.generator_diagonal`` read its coefficients.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from functools import reduce
from operator import or_

import numpy as np

from .errors import TooLarge
from .field import FieldElement, FieldParams, _from_slots, _rows_to_slots, _slot_layout, _to_slots, _vp
from .matrices import MatF
from .params import DeltaParam, OmegaParam, _require_valid


class RandomStream:
    """Deterministic stream addressed by (seed, path).

    ``child(*parts)`` derives an independent stream; draws from one stream
    advance its own Philox state sequentially.  A stream is not meant to be
    drawn from by two threads at once: its draws would then depend on the
    schedule.
    """

    __slots__ = ("seed", "path", "_state")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed) & (2**64 - 1)
        self.path = tuple(path)
        self._state = None

    def child(self, *parts) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(parts))

    def _draw(self, method, *args, **kwargs):
        """``method`` of the thread's generator, run on this stream's state."""
        generator = _thread_generator()
        bits = generator.bit_generator
        if self._state is None:
            digest = hashlib.blake2b(repr((self.seed, self.path)).encode(), digest_size=16).digest()
            # the state of np.random.Philox(key=np.frombuffer(digest, np.uint64)): counter 0, no bits buffered
            self._state = {
                "bit_generator": "Philox",
                "state": {"counter": (0, 0, 0, 0), "key": struct.unpack("=2Q", digest)},
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        bits.state = self._state
        out = method(generator, *args, **kwargs)
        self._state = bits.state
        return out

    def integers(self, low: int, high: int | None = None, size=None):
        """numpy-style uniform integers: [0, low) or [low, high)."""
        return self._draw(np.random.Generator.integers, low, high, size=size)

    def shuffle(self, x):
        """Shuffle the sequence x in place, as ``np.random.Generator.shuffle``."""
        self._draw(np.random.Generator.shuffle, x)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


# every draw runs on its thread's one generator, loaded with the drawing
# stream's state, so no state outlives a draw in it
_THREAD = threading.local()


def _thread_generator() -> np.random.Generator:
    try:
        return _THREAD.generator
    except AttributeError:
        _THREAD.generator = np.random.Generator(np.random.Philox(0))
        return _THREAD.generator


# ---------------------------------------------------------------------------
# elementary draws and Haar measure on GL(n, O_F)
# ---------------------------------------------------------------------------


def _entry_shape(field: FieldParams, K: int) -> tuple[int, tuple]:
    """An entry of O_F / pi^K as an array: one integer below p^K over Q_p,
    K digits mod p on a trailing axis over F_p((t)).  Returns the base of
    the drawn integers and the trailing axes."""
    if field.family == "padic":
        return field.p**K, ()
    return field.p, (K,)


def _uniform_window(field: FieldParams, rng: RandomStream, K: int, size: tuple = ()) -> np.ndarray:
    """Uniform entries of O_F / pi^K, an array of shape size (+ (K,) over
    F_p((t))).  Over Q_p one draw below p^K while that is within the
    generator's int64 range, else K base-p digits (least significant first)
    combined into exact Python integers."""
    base, tail = _entry_shape(field, K)
    if base <= 2**63:
        return rng.integers(base, size=size + tail)
    if field.p > 2**63:
        raise TooLarge(f"p = {field.p} too large for int64 digit draws")
    digits = rng.integers(field.p, size=size + (K,))
    return digits.astype(object) @ field.p ** np.arange(K, dtype=object)


def _element(field: FieldParams, v) -> FieldElement:
    """One drawn entry mod pi^precision (an integer over Q_p, its digits over
    F_p((t))) as the element it expands to; the all-zero window is the exact zero."""
    s = _to_slots(list(v), field._slot) if _entry_shape(field, field.precision)[1] else int(v)
    if s == 0:
        return field.zero()
    pows = field._ring[0]
    t = _vp(s, pows[1])
    return FieldElement(field, t, s // pows[t], field.precision)  # all precision digits drawn


def uniform_integer(params: FieldParams, rng: RandomStream) -> FieldElement:
    """Haar-uniform element of O_F to the stored precision (all digits
    i.i.d. uniform).  The q^-precision event of an all-zero window is
    returned as the exact zero."""
    return _element(params, _uniform_window(params, rng, params.precision))


def _product_bound(field: FieldParams, K: int) -> int:
    """A bound on one cell product of the phase kernels at window K: (M-1)^2
    for entries below M = p^K over Q_p, K (p-1)^2 for a digit convolution
    over F_p((t))."""
    base, tail = _entry_shape(field, K)
    return math.prod(tail) * (base - 1) ** 2


def _entry_dtype(field: FieldParams, K: int):
    """The integer type of Haar rows mod pi^K: the narrowest of int16, int32
    and int64 that holds a cell product (:func:`_product_bound`), int64 when
    none does (a digit is below p <= 2^63), Python integers once p^K exceeds
    int64."""
    if _entry_shape(field, K)[0] > 2**63:
        return object
    top = _product_bound(field, K)
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64


def _residues(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, by floor division: numpy divides a large int64 array by a
    scalar several times faster than it takes ``%`` (on a few entries ``%``
    is faster, so per-sample vectors keep it).  Equal to ``x % p`` on int64
    (where x // p * p may wrap, the difference cannot, being below p) and on
    Python integers."""
    return x - x // p * p


def _pow_mod_vec(base: np.ndarray, e: int, m: int) -> np.ndarray:
    """base^e mod m entrywise, by left-to-right binary powering."""
    b = base % m
    result = b if e else np.ones_like(base)
    for bit in bin(e)[3:]:
        result = result * result % m
        if bit == "1":
            result = result * b % m
    return result


def _haar_rows(stream: RandomStream, field: FieldParams, n: int, r: int, K: int, count: int) -> np.ndarray:
    """(count, r, n[, K]): the first r rows mod pi^K of ``count`` Haar
    matrices in GL(n, O_F), uniform on the r x n matrices of full residue
    rank.  Row k comes from ``stream.child(k)``, redrawn until it is
    independent mod pi of rows 0..k-1 (nonzero once reduced by their
    echelon basis mod p), so it does not depend on r.  Entries have the
    type of :func:`_entry_dtype`; residues are eliminated in int64."""
    p = field.p
    # residue products stay below (p-1)^2, and row k subtracts k of them from
    # its draw before reducing mod p: int64 holds both while (r-1)(p-1)^2 < 2^63
    if max(r - 1, 1) * (p - 1) ** 2 >= 2**63:
        raise TooLarge(f"p = {p} too large for int64 residue elimination of {r} rows")
    tail = _entry_shape(field, K)[1]
    rows = np.empty((r, count, n) + tail, dtype=_entry_dtype(field, K))
    # echelon row t (mod p) is 0 at the pivots of rows < t; scale[t] inverts its own pivot entry
    basis = np.empty((r, count, n), dtype=np.int64)
    pivot, scale = np.empty((2, r, count), dtype=np.int64)
    samples = np.arange(count)
    for k in range(r):
        sub = stream.child(k)
        todo, size = slice(None), count  # the first pass covers every sample
        while size:
            rows[k, todo] = draw = _uniform_window(field, sub, K, (size, n))
            x, at = (draw[..., 0] if tail else draw), samples[:size]
            for t in range(k):
                lead = x[at, pivot[t, todo]] % p * scale[t, todo] % p
                x = x - lead[:, None] * basis[t, todo]
            if k or not tail:  # the digits of an F_p((t)) row 0 are residues already
                x = _residues(x, p).astype(np.int64, copy=False)  # Python integers past int64 become residues
            piv = (x != 0).argmax(axis=1)
            head = x[at, piv]  # zero only on a zero row
            if k + 1 < r:  # later rows reduce against this one
                basis[k, todo] = x
                pivot[k, todo] = piv
                scale[k, todo] = _pow_mod_vec(head, p - 2, p)
            todo = samples[todo][head == 0]
            size = todo.size
    return rows.swapaxes(0, 1)


def _haar_gls(rng: RandomStream, params: FieldParams, n: int, count: int) -> list[MatF]:
    """``count`` Haar matrices on GL(n, O_F): :func:`_haar_rows` at r = n, window = precision."""
    draw = _haar_rows(rng, params, n, n, params.precision, count).tolist()
    return [MatF(params, n, n, [_element(params, v) for row in g for v in row]) for g in draw]


def haar_gl(rng: RandomStream, params: FieldParams, n: int) -> MatF:
    """Haar random matrix on GL(n, O_F): sample 0 of :func:`_haar_gls`, so
    row k is uniform mod pi^precision among the rows independent mod pi of
    rows 0..k-1, each row from its own stream ``rng.child(k)``."""
    return _haar_gls(rng, params, n, 1)[0]


# ---------------------------------------------------------------------------
# measure-family corners
# ---------------------------------------------------------------------------

_CORNER_BLOCK = 1 << 16  # entries of the largest corner variable per sample block


def _corner_law(field: FieldParams, param):
    """The corner of ``param`` as plain integers and stream paths: rank-one
    terms (k, c, x_path, y_path) standing for c pi^-k X Y^t, with c = 1 or
    the digit of eps (two-sided family: X and Y from ("x", t) and ("y", t);
    symmetric family: X X^t from ("x", t), then eps Y Y^t from ("y", t)),
    and the Haar tail (k, "z") (resp. (k, "h")), or None for a -inf tail.
    Every corner consumer reads this one list; it refuses a dyadic field for
    the symmetric family, then an invalid parameter."""
    if isinstance(param, OmegaParam):
        field.require_nondyadic("the symmetric family")
    _require_valid(param)
    if isinstance(param, DeltaParam):
        terms = [(k, 1, ("x", t), ("y", t)) for t, k in enumerate(param.head)]
        return terms, None if param.tail is None else (param.tail, "z")
    eps = field.nonsquare_unit_digit
    terms = [(k, 1, ("x", t), ("x", t)) for t, k in enumerate(param.kk)]
    terms += [(k, eps, ("y", t), ("y", t)) for t, k in enumerate(param.kkp)]
    return terms, None if param.k is None else (param.k, "h")


def _corner_draws(field: FieldParams, param, n: int, count: int, window: int, stream: RandomStream):
    """Every variable of ``count`` corners of ``param`` mod pi^window, each
    from its own stream of :func:`_corner_law` (integers below p^window over
    Q_p, digits on a trailing axis over F_p((t))), yielded block by block of
    samples: per block of s samples, rank-one terms (k, c, X, Y), X and Y of
    shape (s, n[, window]) and one array when their paths agree, and the Haar
    tail (k, Z), Z of shape (s, n, n[, window]), or None for a -inf tail.

    A block holds the most samples whose largest variable fits
    ``_CORNER_BLOCK`` entries (at least one sample).  Each stream is keyed
    once and drawn block after block; numpy draws sequentially, so block b
    holds samples [b s, (b + 1) s) of one draw of all ``count`` samples."""
    law, tail = _corner_law(field, param)
    shapes = {path: (n,) for _, _, x_path, y_path in law for path in (x_path, y_path)}
    if tail is not None:
        shapes[(tail[1],)] = (n, n)
    streams = {path: stream.child(*path) for path in shapes}
    step = max(1, _CORNER_BLOCK // (n * (n if tail else 1) * math.prod(_entry_shape(field, window)[1])))
    for start in range(0, count, step):
        size = min(step, count - start)
        drawn = {path: _uniform_window(field, streams[path], window, (size,) + shape) for path, shape in shapes.items()}
        haar = None if tail is None else (tail[0], drawn[(tail[1],)])
        yield [(k, c, drawn[x], drawn[y]) for k, c, x, y in law], haar


def sample_corner(field: FieldParams, param, n: int, rng: RandomStream) -> MatF:
    """Top-left n x n corner of the infinite random matrix attached to the
    parameter: rank-one terms pi^-k X Y^t (resp. symmetric X X^t and
    eps-twisted ones) plus the Haar tail pi^-k Z (resp. symmetric H, read
    on i <= j).

    The one block of the corner draw at count 1 and window = precision
    (:func:`_corner_draws`).  Entry (i, j) is the sum of its terms mod pi^A, A
    the least of ord(term) + precision over its nonzero terms: O(pi^A) when
    the sum cancels there, the exact zero when every term is zero.  Each
    entry is summed as an exact integer, all terms scaled by pi^kmax: over
    Q_p the values themselves (base B = p), over F_p((t)) one digit per
    Kronecker slot of ``field._slot_layout`` (B = 2^(8 * slot bytes)), wide
    enough that no digit sum carries, reduced mod p slot by slot into the
    field's own unit slots.
    """
    p, N, padic = field.p, field.precision, field.family == "padic"
    ((terms, haar),) = _corner_draws(field, param, n, 1, N, rng)
    kmax = max([0] + [k for k, _, _, _ in terms] + ([haar[0]] if haar else []))
    # a slot sums N digit products times c < p per rank-one term, plus a tail digit
    slot = _slot_layout((len(terms) + 1) * N * (p - 1) ** 3 + p)
    b = 8 * slot[1]
    B = p if padic else 1 << b

    def ints(a):  # the drawn values of a, in C order, as integers in base B
        return a.ravel().tolist() if padic else _rows_to_slots(a, slot)

    grids = []  # the n x n scaled values of each term, row by row
    for k, c, X, Y in terms:
        scale, ys = c * B ** (kmax - k), ints(Y)
        grids.append([scale * x * y for x in ints(X) for y in ys])
    if haar:
        scale = B ** (kmax - haar[0])
        grids.append([scale * z for z in ints(haar[1])])
    mask = (1 << b * N) - 1

    def window(cell):
        """(v, the N digits of the sum from pi^v), v the least valuation (+ kmax) of a part."""
        parts = [x for x in cell if x]
        S = sum(parts)
        if padic:
            v = _vp(math.gcd(*parts), p)
            return v, S // p**v % p**N
        low = reduce(or_, parts)  # its lowest set bit is the lowest of any part
        v = ((low & -low).bit_length() - 1) // b
        return v, S >> b * v & mask

    # entry e = i n + j; the symmetric family sums i <= j and mirrors
    symmetric = isinstance(param, OmegaParam)
    cells = list(zip(*grids)) or [()] * (n * n)
    upper = dict.fromkeys([e for e in range(n * n) if not symmetric or e // n <= e % n], field.zero())
    sums = {e: window(cells[e]) for e in upper if any(cells[e])}  # every part zero: the exact zero
    units = [s for _, s in sums.values()]
    if not padic and units:  # every slot mod p, into the field's unit slots
        joined = _to_slots(units, (None, slot[1] * N))  # the windows side by side
        units = _rows_to_slots(np.asarray(_from_slots(joined, slot, N * len(units))).reshape(-1, N) % p, field._slot)
    for (e, (v, _)), s in zip(sums.items(), units):  # O(pi^(v + N - kmax)) when the sum cancels
        upper[e] = field._window_element(v - kmax, s, N)
    return MatF(field, n, n, [upper[e] if e in upper else upper[e % n * n + e // n] for e in range(n * n)])


# ---------------------------------------------------------------------------
# orbital pushforwards
# ---------------------------------------------------------------------------

KIND_TWO_SIDED = "two_sided"
KIND_CONGRUENCE = "congruence"


def _check_kind(kind: str):
    if kind not in (KIND_TWO_SIDED, KIND_CONGRUENCE):
        raise ValueError(f"unknown kind {kind!r}")


def orbital_push(X: MatF, kind: str, rng: RandomStream) -> MatF:
    """One draw from the orbital measure generated by X: g1 X g2 under the
    two-sided action (g1, g2 two samples of one Haar draw), g X g^t under congruence."""
    _check_kind(kind)
    g = _haar_gls(rng.child("g"), X.params, X.rows, 2 if kind == KIND_TWO_SIDED else 1)
    if kind == KIND_TWO_SIDED:
        return g[0] @ X @ g[1]
    return g[0] @ X @ g[0].transpose()
