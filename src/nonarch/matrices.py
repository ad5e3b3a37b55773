"""Dense matrices over the field: Smith normal form over the valuation ring
(singular numbers) and symmetric congruence diagonalization, both with
recomposition witnesses in GL(n, O_F), and the determinant.

One elimination rule serves all three, written once: ``_pivot`` picks the
pivot, ``_clear_column`` clears the column under it, and the witnesses
change only through ``_add_column`` and ``_swap_columns``.  An update whose
window cancels leaves the certified vanishing value O(pi^g) that ``+``
returns.  A vanishing entry is never a pivot: the pivot is a visible entry
of least ord, and only one whose ord is at most the least certified g in
the remaining block, so every multiplier lies in O_F and every visible
digit stays certified.  A multiplier that is itself O(pi^g) still updates
the block, so the bound spreads, but leaves the witnesses alone, where it
stands for 0.  Elimination stops when no entry qualifies; the remaining
block then lies in pi^g O_F.

Every entry of a product and every update x + f*y of the elimination is
one call of the multiply-accumulate kernel ``field._mac``, which returns
the element the left fold of ``*`` and ``+`` would, built once: the sum is
known modulo pi^A for the least ord + rel of its terms (g for a term
O(pi^g); exact zeros drop out), and is O(pi^A) when no visible term lies
below pi^A.  The fold's order does not change that window.

* ``smith_normal_form`` reports each exponent of that block as the
  certified bound ``AtMost(-g)`` in ``sing``, and lists as ``unresolved``
  the O(pi^g) entries outside it that no witness carries, so that
  ``recompose`` certifies only what the moves did;
* ``MatF.det`` is the signed product of the pivots, a vanishing O(pi^h)
  when a block is left;
* ``sym_diagonalize`` cannot report a bound yet: it takes the block as zero
  when g > precision - 2 and raises PrecisionExhausted otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from collections import defaultdict
from functools import lru_cache
from operator import ge, gt, le, lt

from .errors import (
    DimensionMismatch,
    InvalidParam,
    NotSymmetric,
    PrecisionExhausted,
)
from .field import FieldElement, FieldParams, ORD_INF, _mac, hensel_sqrt, square_class, square_class_label
from .residue import _det_mod, legendre

NEG_INF = -math.inf


class MatF:
    """Immutable dense matrix of FieldElements sharing one FieldParams."""

    __slots__ = ("params", "rows", "cols", "entries")

    def __init__(self, params: FieldParams, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows*cols} entries")
        for e in entries:
            if e.params is not params and e.params != params:
                raise DimensionMismatch("all entries must share FieldParams")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):
        raise AttributeError("MatF is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not the refused __setattr__
        return type(self), (self.params, self.rows, self.cols, self.entries)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rows(cls, params: FieldParams, rows) -> "MatF":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(params, n, m, [e for r in rows for e in r])

    @classmethod
    def zeros(cls, params: FieldParams, rows: int, cols: int | None = None) -> "MatF":
        cols = rows if cols is None else cols
        z = params.zero()
        return cls(params, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, params: FieldParams, n: int) -> "MatF":
        one, zero = params.one(), params.zero()
        return cls(params, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, params: FieldParams, diag) -> "MatF":
        diag = list(diag)
        n = len(diag)
        zero = params.zero()
        return cls(params, n, n, [diag[i] if i == j else zero for i in range(n) for j in range(n)])

    # -- access ---------------------------------------------------------------
    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, MatF):
            return NotImplemented
        return (
            self.params == other.params
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"<MatF {self.rows}x{self.cols} over {self.params.spec_string()}>"

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other: "MatF") -> "MatF":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero, cols = self.params.zero(), list(zip(*other.to_lists()))
        out = [_mac(zero, self.row(i), col) for i in range(self.rows) for col in cols]
        return MatF(self.params, self.rows, other.cols, out)

    def scale(self, c: FieldElement) -> "MatF":
        return MatF(self.params, self.rows, self.cols, [c * e for e in self.entries])

    def transpose(self) -> "MatF":
        return MatF(self.params, self.cols, self.rows, [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def trace(self) -> FieldElement:
        if self.rows != self.cols:
            raise DimensionMismatch("trace needs a square matrix")
        acc = self.params.zero()
        for i in range(self.rows):
            acc += self[i, i]
        return acc

    def det(self) -> FieldElement:
        """Signed product of the pivots of the Smith elimination; an unresolved
        m x m block lying in pi^g O_F contributes the vanishing factor
        O(pi^(m*g))."""
        if self.rows != self.cols:
            raise DimensionMismatch("det needs a square matrix")
        pivots, sign, bound, _, _, _ = _smith(self)
        acc = self.params.one()
        for pivot in pivots:
            acc = acc * pivot
        if len(pivots) < self.rows:
            acc = acc * FieldElement(self.params, (self.rows - len(pivots)) * bound, None, 0)
        return acc if sign == 1 else -acc

    # -- GL membership ----------------------------------------------------------
    def is_gl(self) -> bool:
        """Membership in GL(n, O_F): integral entries and unit determinant
        (equivalently: invertible residue matrix)."""
        if self.rows != self.cols:
            return False
        if any((not e.is_zero()) and e.ord < 0 for e in self.entries):
            return False
        rows = [[e.residue() for e in self.row(i)] for i in range(self.rows)]
        return _det_mod(rows, self.params.p) != 0

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def agrees(self, other: "MatF") -> bool:
        """Entrywise agreement to the available precision."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a.agrees(b) for a, b in zip(self.entries, other.entries))

    # -- serialization -------------------------------------------------------------
    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, params: FieldParams, obj: dict) -> "MatF":
        """The matrix of a ``{"rows": int, "cols": int, "entries": [element,
        ...]}`` payload, entries row by row, else InvalidParam."""
        if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
            raise InvalidParam(f"matrix payload must be a JSON object with a list of entries, got {obj!r}")
        rows, cols = obj.get("rows"), obj.get("cols")
        if type(rows) is not int or type(cols) is not int:
            raise InvalidParam(f"matrix payload needs int rows and cols, got {obj!r}")
        return cls(params, rows, cols, [FieldElement.from_json(params, e) for e in obj["entries"]])


# ---------------------------------------------------------------------------
# helpers shared by the decompositions
# ---------------------------------------------------------------------------


def _pivot(w, k: int, n: int):
    """(position, ord) of the pivot of the block w[k:, k:]: its first visible
    entry of least ord, provided that ord is at most the least certified g
    of the block's vanishing entries.  Without one the position is None and
    the ord is that g (ORD_INF for an exactly zero block): the whole block
    then lies in pi^g O_F."""
    best, lo, g = None, ORD_INF, ORD_INF
    for i in range(k, n):
        for j in range(k, n):
            e = w[i][j]
            if e.unit is None:
                g = min(g, e.ord)
            elif e.ord < lo:
                lo, best = e.ord, (i, j)
    return (best, lo) if lo <= g else (None, g)


def _add_column(m, dst: int, src: int, f: FieldElement, n: int):
    """m <- m (I + f e_{src,dst}): column dst gains f times column src
    (rows where it is exactly zero are left as they are)."""
    fs = (f,)
    for r in range(n):
        y = m[r][src]
        if y.ord != ORD_INF:
            m[r][dst] = _mac(m[r][dst], fs, (y,))


def _swap_columns(m, i: int, j: int, n: int):
    for r in range(n):
        m[r][i], m[r][j] = m[r][j], m[r][i]


def _clear_column(w, wit, k: int, n: int) -> FieldElement:
    """Clear the column under the pivot w[k][k]: row i of the block loses
    f_i = w[i][k] / w[k][k], which lies in O_F, times row k (it gains -f_i
    times row k, the same canonical window), and column k of the witness
    gains f_i times column i.  A vanishing f_i stands for 0 in the witness,
    so w[i][k] keeps its O(pi^g), the one part of the move the witness does
    not carry.  Returns the pivot's inverse."""
    inv = w[k][k].inverse()
    zero = inv.params.zero()
    pivot_row = [(j, (y,)) for j, y in enumerate(w[k]) if j > k and y.ord != ORD_INF]  # the entries that move a row
    for i in range(k + 1, n):
        row = w[i]
        if row[k].is_zero():
            continue
        f = row[k] * inv
        fs = (-f,)
        for j, ys in pivot_row:
            row[j] = _mac(row[j], fs, ys)
        if f.unit is not None:
            row[k] = zero
            _add_column(wit, k, i, f, n)
    return inv


# ---------------------------------------------------------------------------
# Smith normal form over the valuation ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtMost:
    """A certified bound in ``sing``: the exponent is some value <= k, -inf
    (a zero singular value) included.  It orders as k."""

    k: int

    def __contains__(self, x) -> bool:
        return x <= self.k

    __lt__, __le__, __gt__, __ge__ = (
        lambda self, other, op=op: op(self.k, getattr(other, "k", other)) for op in (lt, le, gt, ge)
    )


@dataclass(frozen=True)
class SNFResult:
    """A = a * diag(pi^-k_1, ..., pi^-k_n) * b with a, b in GL(n, O_F) and the
    non-increasing singular exponents ``sing`` (k_i = -inf encodes a zero; a
    tail the precision cannot resolve is reported as AtMost(k), and its
    diagonal entries are O(pi^-k)).  Where the elimination could not resolve
    a move, the witnesses hold the diagonal only up to O(pi^g) terms: the
    tail is some block in pi^-k M(O_F), and ``unresolved`` lists each
    off-diagonal (i, j, g) left as O(pi^g); ``recompose`` multiplies out that
    middle matrix."""

    a: MatF
    sing: tuple
    b: MatF
    unresolved: tuple = ()

    def diagonal(self) -> MatF:
        params = self.a.params
        diag = [
            FieldElement(params, -k.k, None, 0) if isinstance(k, AtMost)
            else params.zero() if k == NEG_INF
            else params.uniformizer_pow(-int(k))
            for k in self.sing
        ]
        return MatF.diagonal(params, diag)

    def recompose(self) -> MatF:
        params, middle = self.a.params, self.diagonal().to_lists()
        tail = [i for i, k in enumerate(self.sing) if isinstance(k, AtMost)]
        for i in tail:
            for j in tail:
                middle[i][j] = middle[i][i]
        for i, j, g in self.unresolved:
            middle[i][j] = FieldElement(params, g, None, 0)
        return self.a @ MatF.from_rows(params, middle) @ self.b


def _smith(A: MatF):
    """Two-sided elimination of A on the one rule: move the pivot to the
    corner and clear its column and row with multipliers in O_F, then
    recurse.  Returns the pivots, the sign of the row and column swaps, the
    certified g of the unresolved block (ORD_INF when none is left), the
    witnesses a and b^t as row lists (b transposed, so that its row moves
    are column moves) and the working W: a * W * b agrees with A throughout,
    the visible entries right of a pivot counting as 0 once b^t carries them."""
    params, n = A.params, A.rows
    w = A.to_lists()
    a = MatF.identity(params, n).to_lists()
    bt = MatF.identity(params, n).to_lists()
    pivots, sign = [], 1
    for k in range(n):
        piv, bound = _pivot(w, k, n)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != k:
            w[k], w[i0] = w[i0], w[k]
            sign = -sign
            _swap_columns(a, k, i0, n)
        if j0 != k:
            _swap_columns(w, k, j0, n)
            sign = -sign
            _swap_columns(bt, k, j0, n)
        pivots.append(w[k][k])
        inv = _clear_column(w, a, k, n)
        for j in range(k + 1, n):
            if w[k][j].unit is None:  # zero, or vanishing: stands for 0
                continue
            _add_column(bt, k, j, w[k][j] * inv, n)
    else:
        bound = ORD_INF
    return pivots, sign, bound, a, bt, w


def smith_normal_form(A: MatF) -> SNFResult:
    """Diagonalize by two-sided GL(O_F) moves (see the module docstring for
    the elimination rule) and fold each pivot's unit part into a."""
    if A.rows != A.cols:
        raise DimensionMismatch("square matrices only")
    params, n = A.params, A.rows
    pivots, _, bound, a, bt, w = _smith(A)
    for k, pivot in enumerate(pivots):
        unit = pivot.shift(-pivot.ord)
        for r in range(n):
            a[r][k] = a[r][k] * unit
    m = len(pivots)
    tail = NEG_INF if bound == ORD_INF else AtMost(-bound)
    sing = tuple(-pivot.ord for pivot in pivots) + (tail,) * (n - m)
    # vanishing off-diagonal entries of W outside the tail block: the moves
    # that a vanishing multiplier or pivot-row entry left to no witness
    unresolved = tuple(
        (i, j, e.ord)
        for i, row in enumerate(w)
        for j, e in enumerate(row)
        if e.unit is None and e.ord != ORD_INF and i != j and min(i, j) < m
    )
    return SNFResult(MatF.from_rows(params, a), sing, MatF.from_rows(params, zip(*bt)), unresolved)


def singular_numbers(A: MatF) -> tuple:
    """The complete two-sided orbit invariant of A."""
    return smith_normal_form(A).sing


# ---------------------------------------------------------------------------
# symmetric congruence diagonalization (non-dyadic)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymDiagResult:
    """A = g * diag(x_1, ..., x_n) * g^t with g in GL(n, O_F) and each x_i a
    square-class representative (pi^-k, eps*pi^-k, or 0)."""

    g: MatF
    diag_entries: tuple

    def diagonal(self) -> MatF:
        return MatF.diagonal(self.g.params, list(self.diag_entries))

    def recompose(self) -> MatF:
        return self.g @ self.diagonal() @ self.g.transpose()

    def class_labels(self) -> tuple:
        return tuple(square_class_label(x) for x in self.diag_entries)


@lru_cache(maxsize=None)
def _eps_sum_of_squares(params: FieldParams) -> tuple[FieldElement, FieldElement]:
    """(a, b) with a^2 + b^2 = eps; exists for every odd p because the circle
    x^2 + y^2 = c has points over F_p for every unit c, and a is a unit, so
    the residue solution lifts."""
    p = params.p
    eps0 = params.nonsquare_unit_digit
    for b0 in range(p):
        c = (eps0 - b0 * b0) % p
        if c != 0 and legendre(c, p) == 1:
            b = params.from_int(b0)
            a = hensel_sqrt(params.from_int(eps0 - b0 * b0))
            return a, b
    raise AssertionError("unreachable: eps is a sum of two squares mod p")


def sym_diagonalize(A: MatF) -> SymDiagResult:
    """Congruence diagonalization on the one elimination rule: bring the
    pivot to the diagonal (adding one row/column pair to another when only
    an off-diagonal entry attains its ord, which keeps the value since
    |2| = 1), clear the first row and column by the Schur-complement move,
    recurse, and reduce the diagonal to square-class representatives.  An
    unresolved block lying in pi^g O_F is taken as zero when g clears
    precision - 2, and raises PrecisionExhausted otherwise."""
    params = A.params
    params.require_nondyadic("symmetric diagonalization")
    if A.rows != A.cols:
        raise DimensionMismatch("square matrices only")
    if not A.is_symmetric():
        raise NotSymmetric("input must equal its transpose exactly")
    n = A.rows
    w = A.to_lists()
    g = MatF.identity(params, n).to_lists()
    for k in range(n):
        piv, bound = _pivot(w, k, n)
        if piv is None:
            break
        di = next((i for i in range(k, n) if w[i][i].unit is not None and w[i][i].ord == bound), None)
        if di is None:
            # off-diagonal pivot: W <- E W E^t with E = I + e_{i0 j0}
            i, j = piv
            for r in range(n):
                w[i][r] += w[j][r]
            for r in range(n):
                w[r][i] += w[r][j]
            _add_column(g, j, i, -params.one(), n)  # g <- g * E^{-1} = g * (I - e_{ij})
            if w[i][i].unit is None:  # 2 w_ij cancelled against O(pi^bound)
                break
            di = i
        # move the chosen diagonal pivot to position (k, k)
        if di != k:
            w[k], w[di] = w[di], w[k]
            _swap_columns(w, k, di, n)
            _swap_columns(g, k, di, n)
        # Schur step: the row pass clears the column (to 0, or to an O(pi^g)
        # that no later block reads), so the column pass is a no-op on the
        # block; row k right of the pivot is never read again
        _clear_column(w, g, k, n)
    else:
        k = n
    # Square classes cannot carry O(pi^g) yet, so an unresolved block is
    # taken as zero once its certified g clears precision - 2.
    if k < n:
        if bound <= params.precision - 2:
            raise PrecisionExhausted("symmetric block not resolved at working precision", guaranteed_ord=bound)
        for i in range(k, n):
            w[i][i] = params.zero()

    diag = [w[i][i] for i in range(n)]
    reps = []
    for i, d in enumerate(diag):
        rep, wit = square_class(d)
        reps.append(rep)
        for r in range(n):
            g[r][i] = g[r][i] * wit
    labels = [square_class_label(rep) for rep in reps]
    # Canonical form: at most one eps-twisted entry per level.  Two of them
    # are congruent to two plain entries via h = [[a, b], [-b, a]] with
    # a^2 + b^2 = eps (det h = eps, a unit), since h h^t = diag(eps, eps).
    eps_by_ord = defaultdict(list)
    for i, rep in enumerate(reps):
        if labels[i] != ("zero",) and labels[i][1]:
            eps_by_ord[rep.ord].append(i)
    for level, idxs in eps_by_ord.items():
        while len(idxs) >= 2:
            i, j = idxs.pop(), idxs.pop()
            a_el, b_el = _eps_sum_of_squares(params)
            reps[i] = reps[j] = params.uniformizer_pow(level)
            labels[i] = labels[j] = (level, False)
            for r in range(n):
                ci, cj = g[r][i], g[r][j]
                g[r][i] = a_el * ci - b_el * cj
                g[r][j] = b_el * ci + a_el * cj
    # deterministic order: descending |.| (ascending ord), plain class first
    order = sorted(range(n), key=lambda i: (1,) if labels[i] == ("zero",) else (0,) + labels[i])
    reps = [reps[i] for i in order]
    g = [[g[r][order[c]] for c in range(n)] for r in range(n)]
    return SymDiagResult(MatF.from_rows(params, g), tuple(reps))
