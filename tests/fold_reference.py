"""The scalar left fold that the library's multiply-accumulate kernel
(``field._mac``) must reproduce entry for entry: start + x_0 y_0 + x_1 y_1 + ...
built one ``*`` and one ``+`` at a time, and the matrix product, column update
and elimination step of ``matrices`` written on it."""


def left_fold(start, xs, ys):
    acc = start
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def matmul(A, B):
    """Rows of A @ B for row lists A (n x m) and B (m x l)."""
    zero = A[0][0].params.zero()
    return [[left_fold(zero, row, col) for col in zip(*B)] for row in A]


def add_column(m, dst: int, src: int, f):
    for row in m:
        row[dst] = row[dst] + f * row[src]


def clear_column(w, wit, k: int):
    """Row i > k loses f_i = w[i][k] / w[k][k] times row k; unless f_i is
    vanishing, w[i][k] becomes 0 and column k of the witness gains f_i times
    column i."""
    inv, zero = w[k][k].inverse(), w[k][k].params.zero()
    for i in range(k + 1, len(w)):
        if w[i][k].is_zero():
            continue
        f = w[i][k] * inv
        for j in range(k + 1, len(w)):
            w[i][j] = w[i][j] - f * w[k][j]
        if f.unit is not None:
            w[i][k] = zero
            add_column(wit, k, i, f)
