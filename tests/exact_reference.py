"""The exact orbital oracle by residue count, the reference that the tests
check the library's Moebius-inversion oracle against.

It enumerates the p^(r n) residue row sets mod pi, keeps the full-rank ones
(``orbital.invertible_mask``), counts them by their values on the read cells
and contracts the counts with the per-cell tables of ``orbital._lift_tables``,
which enumerate the q^(2 level) lift pairs (q^level lifts) of each cell.  Both
enumerations stop at the library's guard."""

import math

import numpy as np

from nonarch.orbital import _enumerate, _lift_tables, _pair_data, _rows_read, as_element, invertible_mask
from nonarch.sampling import KIND_CONGRUENCE


def residue_count_integral(field, kind, D, A, level: int) -> complex:
    """The average of the integrand over the full-rank row sets mod
    pi^level: given the residues R the integrand factorizes over the read
    cells, so the residue counts weight the product of the cells' lift
    tables (for the two-sided kind, of g1's and g2's residues)."""
    D = [as_element(field, v) for v in D]
    A = [as_element(field, v) for v in A]
    pairs, _ = _pair_data(field, D, A)
    if not pairs:
        return 1 + 0j
    p, factors = field.p, 1 if kind == KIND_CONGRUENCE else 2
    residues = _enumerate(p, (_rows_read(pairs), len(D)))
    residues = residues[invertible_mask(residues, p)]
    I, J = np.array([(i, j) for i, j, _, _ in pairs]).T
    tables = _lift_tables(field, pairs, level, factors)
    shape = (p,) * len(pairs)
    counts = np.bincount(np.ravel_multi_index(residues[:, I, J].T, shape), minlength=math.prod(shape)).reshape(shape)
    total = counts
    for table in tables:  # congruence: sum_d counts[d] prod_c f_c(d_c)
        total = np.tensordot(total, table, axes=(0, 0))  # two-sided: g1 axis c -> g2 axis c
    if kind == KIND_CONGRUENCE:
        return complex(total / len(residues))
    return complex((total * counts).sum() / len(residues) ** 2)
