"""Finite descriptions of the two ergodic-measure parameter spaces, their
closed-form characteristic functions, the convolution semigroup, and the
constructive uniqueness arguments.

* :class:`DeltaParam` describes a non-increasing sequence in Z u {-inf}: a
  finite head followed by a constant tail (``tail = k``) or by -inf
  (``tail = None``).  It parametrizes the two-sided-invariant measures on
  full matrix space.
* :class:`OmegaParam` = (k; kk, kkp) with kk a non-increasing and kkp a
  strictly decreasing finite list in Z_{>k}; it parametrizes the congruence-
  invariant measures on symmetric matrix space (non-dyadic fields).

Sequences with infinitely many distinct finite entries have no finite
description and are out of scope.  The finite corner of each measure, its
rank-one terms and Haar tail, is read from a parameter by
``sampling._corner_law`` alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

from .characters import KIND_SQUARE, CharValue, charvalue_product, theta_closed
from .errors import EqualParams, InvalidParam
from .field import FieldElement, FieldParams


def _is_nonincreasing(xs: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(xs, xs[1:]))


def _is_strictly_decreasing(xs: Sequence[int]) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


def _int(x, what: str) -> int:
    """x as an int, else InvalidParam: numpy integers pass, bool does not."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise InvalidParam(f"{what} must be an integer, got {x!r}")
    return int(x)


def _json_list(obj: dict, key: str) -> tuple:
    """The list ``obj[key]`` (empty when absent), entries checked by _int."""
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise InvalidParam(f"{key} must be a list of integers, got {v!r}")
    return tuple(v)


@dataclass(frozen=True)
class DeltaParam:
    """head + eventually-constant tail (``tail=k``) or eventually -inf
    (``tail=None``).  Head entries equal to a constant tail are absorbed at
    construction, so equality of descriptions is equality of sequences."""

    head: tuple = ()
    tail: int | None = None

    def __post_init__(self):
        head = tuple(_int(k, "head entry") for k in self.head)
        if self.tail is not None:
            object.__setattr__(self, "tail", _int(self.tail, "tail"))
            head = tuple(k for k in head if k != self.tail)
        object.__setattr__(self, "head", head)

    # -- sequence view -------------------------------------------------------
    def entry(self, j: int) -> int | None:
        """j-th sequence entry (1-based); None encodes -inf."""
        if j <= len(self.head):
            return self.head[j - 1]
        return self.tail

    # -- characteristic function ----------------------------------------------
    def char_single(self, ell: int) -> CharValue:
        """Value at the rank-one argument pi^-ell e_11: zero when the constant
        tail contributes infinitely many positive terms, else q to minus the
        finite head sum (stored as half_exp = 2 * sum)."""
        if self.tail is not None and self.tail + ell >= 1:
            return CharValue.zero()
        total = sum(k + ell for k in self.head if k + ell >= 1)
        return CharValue("+1", 2 * total)

    def char(self, ells: Sequence[int]) -> list[CharValue]:
        _require_valid(self)
        return [self.char_single(int(l)) for l in ells]

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> dict:
        return {"head": list(self.head), "tail": "neginf" if self.tail is None else {"const": self.tail}}

    @classmethod
    def from_json(cls, obj: dict) -> "DeltaParam":
        tail = obj.get("tail", "neginf")
        if tail != "neginf" and not (isinstance(tail, dict) and "const" in tail):
            raise InvalidParam(f'tail must be "neginf" or {{"const": int}}, got {tail!r}')
        return cls(_json_list(obj, "head"), None if tail == "neginf" else _int(tail["const"], "tail"))


@dataclass(frozen=True)
class OmegaParam:
    """(k; kk, kkp) with kk non-increasing, kkp strictly decreasing, all
    entries > k.  ``k=None`` encodes k = -inf."""

    k: int | None = None
    kk: tuple = ()
    kkp: tuple = ()

    def __post_init__(self):
        if self.k is not None:
            object.__setattr__(self, "k", _int(self.k, "k"))
        object.__setattr__(self, "kk", tuple(_int(v, "kk entry") for v in self.kk))
        object.__setattr__(self, "kkp", tuple(_int(v, "kkp entry") for v in self.kkp))

    # -- characteristic function ----------------------------------------------
    def char_single(self, x: FieldElement) -> CharValue:
        """indicator(pi^-k x integral) * prod theta(pi^-k_n x)
        * prod theta(eps pi^-k'_n x), evaluated exactly."""
        params = x.params
        params.require_nondyadic("the symmetric family")
        if self.k is not None and not x.is_zero() and x.ord - self.k < 0:
            return CharValue.zero()
        eps = params.eps()
        factors = [theta_closed(x.shift(-kn), KIND_SQUARE) for kn in self.kk]
        factors += [theta_closed((x * eps).shift(-kn), KIND_SQUARE) for kn in self.kkp]
        return charvalue_product(factors)

    def char(self, xs: Sequence[FieldElement]) -> list[CharValue]:
        _require_valid(self)
        return [self.char_single(x) for x in xs]

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> dict:
        return {"k": "neginf" if self.k is None else self.k, "kk": list(self.kk), "kkp": list(self.kkp)}

    @classmethod
    def from_json(cls, obj: dict) -> "OmegaParam":
        k = obj.get("k", "neginf")
        return cls(None if k == "neginf" else _int(k, "k"), _json_list(obj, "kk"), _json_list(obj, "kkp"))


def param_from_json(obj: dict):
    """Dispatch on the wire schema: Delta payloads carry "head", Omega "kk"."""
    if not isinstance(obj, dict):
        raise InvalidParam(f"parameter payload must be a JSON object: {obj!r}")
    if "head" in obj or "tail" in obj:
        return DeltaParam.from_json(obj)
    if "kk" in obj or "kkp" in obj or "k" in obj:
        return OmegaParam.from_json(obj)
    raise InvalidParam(f"unrecognized parameter payload: {obj}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(p) -> tuple[bool, str | None]:
    """Check the defining invariants; returns (ok, first violated clause)."""
    if isinstance(p, DeltaParam):
        if not _is_nonincreasing(p.head):
            return False, "head is not non-increasing"
        if p.tail is not None and p.head and p.head[-1] <= p.tail:
            return False, "head entries must exceed the constant tail"
        return True, None
    if isinstance(p, OmegaParam):
        if not _is_nonincreasing(p.kk):
            return False, "kk is not non-increasing"
        if not _is_strictly_decreasing(p.kkp):
            return False, "kkp is not strictly decreasing"
        if p.k is not None:
            if any(v <= p.k for v in p.kk):
                return False, "kk entries must be > k"
            if any(v <= p.k for v in p.kkp):
                return False, "kkp entries must be > k"
        return True, None
    return False, f"not a parameter object: {type(p).__name__}"


def _require_valid(p):
    ok, msg = validate(p)
    if not ok:
        raise InvalidParam(msg)


# ---------------------------------------------------------------------------
# semigroup (measure convolution)
# ---------------------------------------------------------------------------


def convolve(a, b):
    """Parameter of the convolution of the two measures.

    Delta case: the tail limit is the max of the two limits and the head
    merges every entry above it.  Omega case: merge componentwise, then
    re-canonicalize so the result is a valid description.
    """
    if isinstance(a, DeltaParam) and isinstance(b, DeltaParam):
        _require_valid(a)
        _require_valid(b)
        tail = max((t for t in (a.tail, b.tail) if t is not None), default=None)
        merged = [k for k in a.head + b.head if tail is None or k > tail]
        return DeltaParam(tuple(sorted(merged, reverse=True)), tail)
    if isinstance(a, OmegaParam) and isinstance(b, OmegaParam):
        _require_valid(a)
        _require_valid(b)
        k = max((t for t in (a.k, b.k) if t is not None), default=None)
        return canonicalize_omega(k, a.kk + b.kk, a.kkp + b.kkp)
    raise InvalidParam("convolve needs two parameters of the same kind")


def canonicalize_omega(k: int | None, kk_raw: Sequence[int], kkp_raw: Sequence[int]) -> OmegaParam:
    """Unique description with the same characteristic function:

    * entries <= k are dropped (they are absorbed by the Haar factor),
    * repeated kkp levels migrate to kk in pairs (two eps-twisted rank-one
      factors at one level equal two plain ones: theta(x)^2 = theta(eps x)^2),
    * both lists are re-sorted.

    Idempotent on canonical input.
    """
    kk = [int(v) for v in kk_raw if k is None or int(v) > k]
    kkp = [int(v) for v in kkp_raw if k is None or int(v) > k]
    counts = Counter(kkp)
    kkp_new = []
    for v, m in counts.items():
        kk.extend([v] * (2 * (m // 2)))
        if m % 2 == 1:
            kkp_new.append(v)
    return OmegaParam(k, tuple(sorted(kk, reverse=True)), tuple(sorted(kkp_new, reverse=True)))


# ---------------------------------------------------------------------------
# constructive uniqueness
# ---------------------------------------------------------------------------


def distinguishing_argument(a: DeltaParam, b: DeltaParam) -> int:
    """An integer ell with a.char_single(ell) != b.char_single(ell), built as
    1 - k at the first index where the sequences differ (larger side)."""
    _require_valid(a)
    _require_valid(b)
    depth = max(len(a.head), len(b.head)) + 1
    for j in range(1, depth + 1):
        ka, kb = a.entry(j), b.entry(j)
        if ka == kb:
            continue
        ka_cmp = float("-inf") if ka is None else ka
        kb_cmp = float("-inf") if kb is None else kb
        bigger = ka if ka_cmp > kb_cmp else kb
        return 1 - int(bigger)
    raise EqualParams("the two parameters describe the same sequence")


def probe_grid(field: FieldParams) -> list[FieldElement]:
    """Arguments u * pi^-ell, u in {1, eps}, -4 <= ell <= 6, covering every
    separation the uniqueness construction needs for parameters supported
    in that window."""
    eps = field.eps()
    out = []
    for ell in range(-4, 7):
        out.append(field.uniformizer_pow(-ell))
        out.append(eps.shift(-ell))
    return out


def separate_omega(a: OmegaParam, b: OmegaParam, field: FieldParams) -> FieldElement | None:
    """A probe argument where the two characteristic functions differ, or
    None if :func:`probe_grid` does not separate them."""
    for x in probe_grid(field):
        if a.char_single(x) != b.char_single(x):
            return x
    return None
