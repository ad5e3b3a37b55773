"""The earlier assembly of :func:`nonarch.sampling.sample_corner`, kept as
the reference that the Kronecker-slot assembly is compared with entry by
entry.  It sums each entry of the corner draw as one exact integer: over
Q_p the scaled values themselves, over F_p((t)) one digit per b-bit slot
packed by an object-array product and unpacked by one shift-and-mod per
slot."""

import numpy as np

from nonarch.field import FieldElement, _vp
from nonarch.matrices import MatF
from nonarch.params import OmegaParam
from nonarch.sampling import _corner_draws


def sample_corner_reference(field, param, n, rng):
    """The corner of ``param`` at size n on the stream ``rng``, assembled
    from the same draw as ``sample_corner``."""
    p, N, padic = field.p, field.precision, field.family == "padic"
    terms, haar = _corner_draws(field, param, n, 1, N, rng)
    kmax = max([0] + [k for k, _, _, _ in terms] + ([haar[0]] if haar else []))
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
