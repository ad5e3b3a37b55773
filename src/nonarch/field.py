"""Truncated-precision arithmetic in a non-Archimedean local field.

Two families are supported, both with prime residue field F_p:

* ``padic``   -- the p-adic numbers Q_p, uniformizer p, digits in {0,...,p-1};
* ``laurent`` -- formal Laurent series F_p((t)), uniformizer t, coefficient
  digits in {0,...,p-1} with no carries.

A nonzero element is stored as ``pi^ord * unit`` where the unit part carries
``rel`` known digits (1 <= rel <= precision) with nonzero leading digit, so
the valuation is always exact (capped-relative semantics).  Addition that
cancels the entire digit window returns the certified vanishing value
O(pi^g), whose g is a lower bound on the valuation of the true result;
nothing is ever silently padded.  Reading a digit of O(pi^g) (its inverse,
leading digit, residue below ord 1, absolute value or square class) raises
:class:`PrecisionExhausted` carrying g.

Storage and cost: a unit with digits d_0..d_{rel-1} is the integer
sum d_i D^i: D = p over Q_p; over F_p((t)), D = 2^(8 * slot bytes), one
Kronecker slot per digit, wide enough that no coefficient sum of a product
carries.  Sums, negations, products, inverses and integer imports of units
are the operations of ``FieldParams._ring``, cached per field with ``zero()``,
``one()`` and the residue square roots; over F_p((t)) slots reduce mod p.
A sum of products start + x_0 y_0 + ... (a matrix entry, an elimination
update) is one call of ``_mac``.  Its window, the least ord + rel of its
terms, does not depend on the order the terms are added in, so ``_mac``
adds the shifted unit products in one pass and builds one element where
the left fold of ``*`` and ``+`` builds two per term.

All values are immutable and hashable; operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import pos

from .errors import (
    DivisionByZero,
    DyadicField,
    InvalidParam,
    NotIntegral,
    PrecisionExhausted,
)
from .residue import legendre

ORD_INF = math.inf

_FAMILIES = ("padic", "laurent")
# (array typecode, bytes) of the machine-word Kronecker slots, narrowest first
_SLOT_TYPES = tuple((code, array(code).itemsize) for code in "BHIQ")


def _vp(n: int, p: int) -> int:
    """Multiplicity of p in a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin with the prime bases up to 41 is proven to decide primality for
# every n below this bound (Sorenson and Webster, 2015); 3317044064679887385961981
# itself is a composite that passes all of them.
_PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n < _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    s = _vp(n - 1, 2)
    d = (n - 1) >> s
    for b in _PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _least_nonsquare(p: int) -> int:
    """Smallest digit in {2,...,p-1} that is a nonsquare mod the odd prime p."""
    return next(c for c in range(2, p) if legendre(c, p) == -1)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p, by
    Tonelli-Shanks (H. Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1)."""
    e = _vp(p - 1, 2)
    q = (p - 1) >> e
    # y generates the 2-Sylow subgroup of F_p^*, of order 2^r
    y, r = pow(_least_nonsquare(p), q, p), e
    x = pow(a, (q - 1) // 2, p)
    b = a * x * x % p  # a^q, of order dividing 2^(r-1)
    x = a * x % p  # a^((q+1)/2), so x^2 = a * b
    while b != 1:
        m, t = 1, b * b % p  # least m with b^(2^m) = 1
        while t != 1:
            m, t = m + 1, t * t % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _base_digits(n: int, base: int, count: int) -> tuple[int, ...]:
    """The lowest ``count`` digits of n >= 0 in the given base."""
    out = []
    for _ in range(count):
        n, d = divmod(n, base)
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class FieldParams:
    """Description of the ambient field: family, residue prime and the global
    digit precision.  v1 keeps q = p (prime residue fields only)."""

    family: str
    p: int
    precision: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParam(f"unknown field family {self.family!r}")
        if not isinstance(self.p, int):
            raise InvalidParam(f"residue characteristic must be an int, got {self.p!r}")
        if self.p >= _PRIME_TEST_BOUND:
            raise InvalidParam(f"residue characteristic must be below {_PRIME_TEST_BOUND}, got {self.p}")
        if not _is_prime(self.p):
            raise InvalidParam(f"residue characteristic must be prime, got {self.p}")
        if self.precision < 1:
            raise InvalidParam("precision must be >= 1")

    def __reduce__(self):  # pickle and copy the three fields, not the cached constants
        return type(self), (self.family, self.p, self.precision)

    # -- basic facts ------------------------------------------------------
    @property
    def q(self) -> int:
        return self.p

    @property
    def is_dyadic(self) -> bool:
        return self.p == 2

    def require_nondyadic(self, what: str = "this operation"):
        if self.is_dyadic:
            raise DyadicField(f"{what} requires an odd residue characteristic")

    @property
    def nonsquare_unit_digit(self) -> int:
        """Smallest digit in {2,...,p-1} that is a nonsquare mod p."""
        self.require_nondyadic("a nonsquare unit")
        return _least_nonsquare(self.p)

    # -- cached constants (filled on first use) ----------------------------
    @cached_property
    def _zero(self) -> "FieldElement":
        return FieldElement(self, ORD_INF, None, 0)

    @cached_property
    def _one(self) -> "FieldElement":
        return self.from_base_p(1)

    @cached_property
    def _ring(self) -> tuple:
        """(pows, negs, fix_sum, fix_prod, invert, import_p, image): the one place
        that decides how a unit sum d_i D^i is stored.  pows[k] = D^k, negs[k] - u
        = -u mod pi^k; fix_sum and fix_prod turn a raw sum or negation and a raw
        product mod D^rel into a unit (the identity over Q_p, D = p); invert(u, rel)
        is 1/u mod pi^rel; import_p(n) is the unit of the base-p digits of n below
        p^precision; image(n) = n over Q_p, n mod p (int.__rmod__) over F_p((t))."""
        p, top = self.p, range(self.precision + 1)
        if self.family == "padic":
            pows = tuple(p**k for k in top)
            return pows, pows, pos, pos, partial(_invert_mod, pows), pos, pos
        b, bound = 8 * self._slot[1], self.precision * (p - 1) ** 2
        pows = tuple(1 << b * k for k in top)
        ones = (pows[-1] - 1) // (pows[1] - 1)  # 1 in every slot
        # D/2 - p 2^j in every slot: adding it sets the free top bit of each slot holding p 2^j or more
        lifts = tuple((ones << b - 1) - (p << j) * ones for j in range(max(1, (bound // p).bit_length())))
        fix_sum, fix_prod = (partial(_reduce_slots, p, b, ones, lifts[:n]) for n in (1, None))  # sums: slots < 2p
        negs, import_p = tuple(p * (ones % P) for P in pows), partial(_slots_of, p, self.precision, self._slot)
        return pows, negs, fix_sum, fix_prod, partial(_invert_slots, p, pows), import_p, p.__rmod__

    @cached_property
    def _slot(self) -> tuple[str | None, int]:
        """The Kronecker slot of one F_p((t)) unit digit: a product coefficient,
        at most precision terms below (p-1)^2, stays below the top bit, which
        is left free for ``_ring``'s reduction."""
        return _slot_layout(2 * self.precision * (self.p - 1) ** 2)

    @cached_property
    def _residue_sqrts(self) -> dict[int, int]:
        return {}  # canonical residue square roots found so far

    # -- element constructors --------------------------------------------
    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def uniformizer_pow(self, k: int) -> "FieldElement":
        """pi^k, exact to the full window."""
        return _element(self, k, self._one.unit, self.precision)

    def from_int(self, n: int) -> "FieldElement":
        """The image of the rational integer n.  Exact in Q_p; reduced mod p
        to a constant in F_p((t))."""
        return self.from_base_p(self._ring[6](n))  # image

    def from_base_p(self, n: int, ord: int = 0) -> "FieldElement":
        """pi^ord * (d_0 + d_1 pi + ...) for the base-p digits d_i of n, taken
        as the complete expansion: ``element(ord, digits of n)`` for n >= 0.
        A negative n has the digits of its p-adic expansion."""
        if n == 0:
            return self._zero
        v = _vp(n, self.p)
        return _element(self, ord + v, self._ring[5](n // self.p**v % self.p**self.precision), self.precision)

    def element(self, ord: int, digits) -> "FieldElement":
        """Element pi^ord * (d_0 + d_1 pi + ...) from an explicit digit list,
        taken to be the complete expansion (missing digits are zero)."""
        return self.from_base_p(sum(int(d) % self.p * self.p**i for i, d in enumerate(digits)), ord)

    def _window_element(self, ord: int, s: int, w: int) -> "FieldElement":
        """pi^ord * s for a unit integer s of w digits, its low zero digits
        moved into the valuation; O(pi^(ord + w)) when s = 0."""
        if s == 0:
            return _element(self, ord + w, None, 0)
        pows = self._ring[0]
        t = _vp(s, pows[1])
        return _element(self, ord + t, s // pows[t], w - t)

    def eps(self) -> "FieldElement":
        """The fixed nonsquare unit: lift of the smallest nonsquare residue."""
        return self.from_int(self.nonsquare_unit_digit)

    def spec_string(self) -> str:
        return f"{self.family}:p={self.p},prec={self.precision}"


def parse_field_spec(spec: str) -> FieldParams:
    """Parse ``padic:p=<p>,prec=<N>`` / ``laurent:p=<p>,prec=<N>``."""
    try:
        family, rest = spec.split(":", 1)
        kv = dict(item.split("=") for item in rest.split(","))
        return FieldParams(family.strip(), int(kv["p"]), int(kv["prec"]))
    except (ValueError, KeyError) as exc:
        raise InvalidParam(f"bad field spec {spec!r}: expected e.g. padic:p=3,prec=12") from exc


class FieldElement:
    """Immutable field element: exact valuation plus a known-digit window.

    Besides ordinary elements and the exact zero there is a third state, a
    *certified vanishing* value ``O(pi^g)`` (``unit is None``, ``rel == 0``,
    ``ord == g``): everything known is that the value lies in pi^g O_F.
    ``+`` returns it when a sum cancels its whole digit window; the bound
    survives later sums and products.
    """

    __slots__ = ("params", "ord", "unit", "rel")

    def __init__(self, params: FieldParams, ord, unit, rel: int):
        _set_params(self, params)
        _set_ord(self, ord)
        _set_unit(self, unit)
        _set_rel(self, rel)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not the refused __setattr__
        return type(self), (self.params, self.ord, self.unit, self.rel)

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return self.ord == ORD_INF

    def is_vanishing(self) -> bool:
        """Certified to lie in pi^ord O_F with no digit known."""
        return self.unit is None and self.ord != ORD_INF

    @property
    def abs_prec(self):
        """The element is known modulo pi^abs_prec."""
        return ORD_INF if self.is_zero() else self.ord + self.rel

    @property
    def digits(self) -> tuple[int, ...]:
        """Known digits d_0..d_{rel-1} of the unit part (d_0 != 0)."""
        return () if self.unit is None else _base_digits(self.unit, self.params._ring[0][1], self.rel)

    def leading_digit(self) -> int:
        if self.is_zero():
            raise DivisionByZero("zero has no leading digit")
        if self.is_vanishing():
            raise PrecisionExhausted("no digit of a vanishing value is known", guaranteed_ord=self.ord)
        return self.unit % self.params._ring[0][1]

    def _truncate_abs(self, new_abs: int) -> "FieldElement":
        """Forget digits at or beyond position new_abs (requires ord < new_abs)."""
        if new_abs >= self.abs_prec:
            return self
        rel = new_abs - self.ord
        return _element(self.params, self.ord, self.unit % self.params._ring[0][rel], rel)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.params, self.ord, self.rel, self.unit) == (other.params, other.ord, other.rel, other.unit)

    def __hash__(self):
        return hash((self.params, self.ord, self.rel, self.unit))

    def __repr__(self):
        if self.is_zero():
            return f"<0 in {self.params.spec_string()}>"
        if self.is_vanishing():
            return f"<O(pi^{self.ord}) in {self.params.spec_string()}>"
        return f"<ord={self.ord} digits={self.digits} in {self.params.spec_string()}>"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "FieldElement") -> "FieldElement":
        prm = self.params
        if not isinstance(other, FieldElement) or (other.params is not prm and other.params != prm):
            raise TypeError("operands must share FieldParams")
        if self.unit is None or other.unit is None:  # zero or vanishing operand
            if self.ord == ORD_INF:
                return other
            if other.ord == ORD_INF:
                return self
            if self.unit is None and other.unit is None:
                return _element(prm, self.ord if self.ord < other.ord else other.ord, None, 0)
            hidden, visible = (self, other) if self.unit is None else (other, self)
            if visible.ord >= hidden.ord:
                return _element(prm, hidden.ord, None, 0)
            return visible._truncate_abs(hidden.ord)
        lo, hi = (self, other) if self.ord <= other.ord else (other, self)
        v, off = lo.ord, hi.ord - lo.ord
        w = off + hi.rel  # known digits of the sum above pi^v
        if lo.rel < w:
            w = lo.rel
        if off >= w:  # then w = lo.rel: hi lies wholly below lo's window
            return lo
        pows, _, fix_sum, _, _, _, _ = prm._ring
        return prm._window_element(v, fix_sum((lo.unit + hi.unit * pows[off]) % pows[w]), w)

    def __neg__(self) -> "FieldElement":
        if self.unit is None:
            return self
        prm = self.params
        _, negs, fix_sum, _, _, _, _ = prm._ring
        return _element(prm, self.ord, fix_sum(negs[self.rel] - self.unit), self.rel)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        prm = self.params
        if not isinstance(other, FieldElement) or (other.params is not prm and other.params != prm):
            raise TypeError("operands must share FieldParams")
        if self.unit is None or other.unit is None:  # zero or vanishing operand
            if self.ord == ORD_INF or other.ord == ORD_INF:
                return prm._zero
            return _element(prm, self.ord + other.ord, None, 0)
        rel = self.rel if self.rel < other.rel else other.rel
        pows, _, _, fix_prod, _, _, _ = prm._ring
        return _element(prm, self.ord + other.ord, fix_prod(self.unit * other.unit % pows[rel]), rel)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("cannot invert 0")
        if self.is_vanishing():
            raise PrecisionExhausted("cannot invert a value not distinguishable from 0", guaranteed_ord=self.ord)
        return _element(self.params, -self.ord, self.params._ring[4](self.unit, self.rel), self.rel)  # invert

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def shift(self, k: int) -> "FieldElement":
        """Multiply by pi^k (exact)."""
        if self.is_zero():
            return self
        return _element(self.params, self.ord + k, self.unit, self.rel)

    # -- comparisons at available precision ---------------------------------
    def agrees(self, other: "FieldElement") -> bool:
        """True when the two elements coincide on the overlap of their known
        digit windows, i.e. their difference shows no digit.  A vanishing
        value O(pi^g) agrees with anything of valuation >= g (including
        zero); an exact zero and a visible value never agree."""
        return (self - other).unit is None

    # -- queries used throughout -------------------------------------------
    def abs_q(self) -> Fraction:
        """|x| = q^(-ord) as an exact rational (0 for the zero element)."""
        if self.is_zero():
            return Fraction(0)
        if self.is_vanishing():
            raise PrecisionExhausted("absolute value not determined", guaranteed_ord=self.ord)
        q, k = self.params.q, self.ord
        return Fraction(1, q**k) if k >= 0 else Fraction(q ** (-k))

    def residue(self) -> int:
        """Reduction mod pi of an integral element, as an int in [0, p)."""
        if self.is_vanishing() and self.ord < 1:
            raise PrecisionExhausted("residue not determined", guaranteed_ord=self.ord)
        if self.ord < 0:
            raise NotIntegral(f"ord = {self.ord} < 0")
        return self.leading_digit() if self.ord == 0 else 0

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        if self.is_zero():
            return {"ord": None, "digits": []}
        return {"ord": int(self.ord), "digits": list(self.digits)}

    @classmethod
    def from_json(cls, params: FieldParams, obj: dict) -> "FieldElement":
        """The element of a ``{"ord": int | null, "digits": [int, ...]}``
        payload, else InvalidParam."""
        if not isinstance(obj, dict) or "ord" not in obj:
            raise InvalidParam(f"element payload must be a JSON object with an ord, got {obj!r}")
        k, digits = obj["ord"], obj.get("digits", [])
        if not (k is None or type(k) is int) or not isinstance(digits, list) or any(type(d) is not int for d in digits):
            raise InvalidParam(f"element payload needs an int or null ord and a list of int digits, got {obj!r}")
        if k is None:
            return params.zero()
        if not digits:
            return cls(params, k, None, 0)
        return params.element(k, digits)


_set_params, _set_ord, _set_unit, _set_rel = (getattr(FieldElement, n).__set__ for n in FieldElement.__slots__)


class _Draft(FieldElement):
    """A FieldElement while :func:`_element` fills it: the same slots, plain
    attribute stores."""

    __slots__ = ()
    __setattr__ = object.__setattr__


_new = object.__new__


def _element(params: FieldParams, ord, unit, rel: int) -> FieldElement:
    """FieldElement(params, ord, unit, rel) without type.__call__ and
    __init__: the one way the arithmetic builds its results."""
    x = _new(_Draft)
    x.params = params
    x.ord = ord
    x.unit = unit
    x.rel = rel
    x.__class__ = FieldElement
    return x


def _mac(start: FieldElement, xs, ys) -> FieldElement:
    """start + xs[0] * ys[0] + xs[1] * ys[1] + ... over start's field: exactly
    the element the left fold of ``*`` and ``+`` returns, built once.

    A fold's result is known modulo pi^A for the least absolute precision A
    of its terms, whatever their order, and is then the canonical window of
    their visible sum mod pi^A.  Exact zeros drop out; a vanishing O(pi^g)
    term contributes g to A.  When no visible term lies below pi^A the value
    is O(pi^A); otherwise the ring-reduced unit products, shifted to the
    least valuation v, are summed once and cut to the A - v digits above v."""
    prm, so, su = start.params, start.ord, start.unit
    top = so + start.rel  # A: rel is 0 for zero and vanishing values
    v = ORD_INF  # the least valuation of the visible products
    for x, y in zip(xs, ys):
        o = x.ord + y.ord
        if x.unit is None or y.unit is None:  # O(pi^o); o = inf for an exact zero
            if o < top:
                top = o
        else:
            if o < v:
                v = o
            o += x.rel if x.rel < y.rel else y.rel
            if o < top:
                top = o
    if v >= top:  # no visible product below pi^A: start alone, or nothing
        if su is None or so >= top:
            return prm._zero if top == ORD_INF else _element(prm, top, None, 0)
        return start if top == so + start.rel else start._truncate_abs(top)
    pows, _, fix_sum, fix_prod, _, _, _ = prm._ring
    s = 0
    if su is not None and so < top:
        if so < v:
            v = so
        s = su * pows[so - v]  # its digits past A go with the final cut
    for x, y in zip(xs, ys):
        o = x.ord + y.ord
        if o < top:  # visible: a zero or vanishing product has o >= A
            t = fix_prod(x.unit * y.unit % pows[top - o]) * pows[o - v]
            s = fix_sum(s + t) if s else t
    s %= pows[top - v]
    if s % pows[1]:  # a nonzero digit at pi^v: already the canonical window
        return _element(prm, v, s, top - v)
    return prm._window_element(v, s, top - v)


def _reduce_slots(p: int, b: int, ones: int, lifts: tuple, s: int) -> int:
    """s with each b-bit slot, below p 2^len(lifts), reduced mod p."""
    for j in reversed(range(len(lifts))):  # each slot below p 2^(j+1): take p 2^j off where it fits
        s -= ((s + lifts[j]) >> b - 1 & ones) * (p << j)
    return s


def _invert_mod(pows: tuple, u: int, rel: int) -> int:
    return pow(u, -1, pows[rel])  # the Q_p unit inverse mod p^rel


def _invert_slots(p: int, pows: tuple, u: int, rel: int) -> int:
    """The inverse of the F_p((t)) unit u mod t^rel, digit by digit."""
    out = inv0 = pow(u % pows[1], p - 2, p)
    for k in range(1, rel):  # digit k of out: -inv0 * (slot k of u * out, digits below k)
        out += -inv0 * (u * out // pows[k] % pows[1]) % p * pows[k]
    return out


def _slots_of(p: int, count: int, slot: tuple[str | None, int], n: int) -> int:
    return _to_slots(_base_digits(n, p, count), slot)  # the lowest count base-p digits of n, one per slot


def _slot_layout(bound: int) -> tuple[str | None, int]:
    """(array typecode, bytes) of the narrowest Kronecker slot holding every
    integer below ``bound``: a machine word, else (None, bytes) for a slot
    wider than 64 bits."""
    for code, width in _SLOT_TYPES:
        if bound < 1 << (8 * width):
            return code, width
    return None, (bound.bit_length() + 7) // 8


def _to_slots(digits, slot: tuple[str | None, int]) -> int:
    """The integer holding digits[s] in slot s of :func:`_slot_layout`
    (native byte order, slot 0 lowest), for a list or tuple of digits."""
    code, width = slot
    if code is None:
        return int.from_bytes(b"".join([int(d).to_bytes(width, sys.byteorder) for d in digits]), sys.byteorder)
    return int.from_bytes(array(code, digits), sys.byteorder)


def _rows_to_slots(rows, slot: tuple[str | None, int]) -> list[int]:
    """:func:`_to_slots` of every digit row of an integer numpy array
    (..., K), in C order, from one copy of the array in the slot type."""
    code, width = slot
    if code is None:
        return [_to_slots(row, slot) for row in rows.reshape(-1, rows.shape[-1]).tolist()]
    raw, size = rows.astype(code).tobytes(), width * rows.shape[-1]
    return [int.from_bytes(raw[i : i + size], sys.byteorder) for i in range(0, len(raw), size)]


def _from_slots(value: int, slot: tuple[str | None, int], count: int):
    """Slots 0..count-1 of an integer 0 <= value < 2^(8 * bytes * count)."""
    code, width = slot
    raw = value.to_bytes(width * count, sys.byteorder)
    if code is None:
        return [int.from_bytes(raw[i : i + width], sys.byteorder) for i in range(0, len(raw), width)]
    return memoryview(raw).cast(code)


def _require_resolved(x: FieldElement, what: str):
    if x.is_vanishing():
        raise PrecisionExhausted(f"{what} needs a resolved element", guaranteed_ord=x.ord)


# ---------------------------------------------------------------------------
# square roots and square classes (non-dyadic only)
# ---------------------------------------------------------------------------


def _canonical_residue_sqrt(params: FieldParams, a0: int) -> int:
    """The residue square root whose representative is <= (p-1)/2."""
    roots = params._residue_sqrts
    if a0 not in roots:
        r = _sqrt_mod_prime(a0, params.p)
        roots[a0] = min(r, params.p - r)
    return roots[a0]


def hensel_sqrt(x: FieldElement) -> FieldElement | None:
    """Square root of x lifted from the residue field, or None when x is a
    nonsquare (odd valuation, or nonsquare unit part).

    The returned root beta satisfies beta^2 = x on the full stored window,
    ord(beta) = ord(x)/2, and has leading digit <= (p-1)/2 (canonical
    choice): the lift keeps the canonical residue root r_0.  It is Hensel
    lifting one digit at a time, r_k = (digit k of u - digit k of r^2) / (2 r_0)
    mod p for r correct below pi^k: over F_p((t)) digit k of r^2 is the slot
    sum of r_i r_{k-i}, 0 < i < k; over Q_p the carries cancel, u = r^2 mod p^k.
    """
    prm = x.params
    prm.require_nondyadic("hensel_sqrt")
    if x.is_zero():
        return x
    _require_resolved(x, "hensel_sqrt")
    if x.ord % 2 != 0:
        return None
    p, a0 = prm.p, x.leading_digit()
    if legendre(a0, p) != 1:
        return None
    rel, u, pows = x.rel, x.unit, prm._ring[0]
    root = _canonical_residue_sqrt(prm, a0)
    inv = pow(2 * root, -1, p)
    for k in range(1, rel):  # digit k of root * root, root correct below pi^k
        root += (u // pows[k] % pows[1] - root * root // pows[k] % pows[1]) * inv % p * pows[k]
    return _element(prm, x.ord // 2, root, rel)


def square_class(x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Representative of x modulo unit squares, with a witness.

    Returns (rep, g) with rep in {pi^k} U {eps*pi^k} U {0} and g^2 * rep = x
    to the stored precision; rep = pi^ord(x) when the unit part of x is a
    square, eps*pi^ord(x) otherwise.
    """
    prm = x.params
    prm.require_nondyadic("square_class")
    if x.is_zero():
        return prm.zero(), prm.one()
    _require_resolved(x, "square_class")
    nonsquare = legendre(x.leading_digit(), prm.p) == -1
    rep = prm.eps().shift(x.ord) if nonsquare else prm.uniformizer_pow(x.ord)
    witness = hensel_sqrt(x / rep)
    assert witness is not None
    return rep, witness


def square_class_label(x: FieldElement):
    """Hashable label of the square class: ('zero',) or (ord, is_eps_class)."""
    if x.is_zero():
        return ("zero",)
    _require_resolved(x, "square_class_label")
    return (x.ord, legendre(x.leading_digit(), x.params.p) == -1)

