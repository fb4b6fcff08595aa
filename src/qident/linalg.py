"""Small exact dense linear algebra over a field or the truncated series
ring: product, determinant and solve.  Division-based elimination on unit
pivots (a series is a unit when its constant term is nonzero); callers
resample when no usable pivot exists.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .errors import NonInvertibleError
from .exactnum import PSeries


def is_unit(x):
    """A usable pivot: a nonzero scalar, or a series with nonzero constant term."""
    return x.invertible() if isinstance(x, PSeries) else x != 0


def _pivot_row(work, col, invertible=is_unit):
    """The first row at or below `col` whose entry in column `col` passes
    `invertible`, or None."""
    for r in range(col, len(work)):
        if invertible(work[r][col]):
            return r
    return None


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


def mat_solve(a, b, zero):
    """The X with a X = b, by one Gauss-Jordan pass on [a | b]; raises
    NonInvertibleError without a unit pivot.  A finished column is never
    read again, so each row operation covers only the columns after it."""
    n = len(a)
    work = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = _pivot_row(work, col)
        if pivot is None:
            raise NonInvertibleError("no invertible pivot in column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col] ** (-1)
        tail = [v * inv for v in work[col][col + 1:]]
        work[col][col + 1:] = tail
        for r, row in enumerate(work):
            f = row[col]
            if r == col or f == zero:
                continue
            row[col + 1:] = [v - f * w for v, w in zip(row[col + 1:], tail)]
    return [row[n:] for row in work]


def mat_inverse(a, one, zero):
    """Gauss-Jordan inverse: `mat_solve` against the identity."""
    identity = [[one if r == c else zero for c in range(len(a))] for r in range(len(a))]
    return mat_solve(a, identity, zero)


def mat_det(a, one, zero, invertible=is_unit, is_zero=None):
    """Determinant by elimination on unit pivots.  If a column admits none
    but is entirely zero below the diagonal, the determinant is zero;
    otherwise the situation is reported for resampling.  The two optional
    predicates stay only because `benchmarks/kernels.py` passes them."""
    is_zero = is_zero or (lambda x: x == zero)
    n = len(a)
    work = [list(row) for row in a]
    det = one
    for col in range(n):
        pivot = _pivot_row(work, col, invertible)
        if pivot is None:
            if all(is_zero(work[r][col]) for r in range(col, n)):
                return zero
            raise NonInvertibleError(
                "column %d has nonzero entries but no invertible pivot" % col)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col] ** (-1)
        for r in range(col + 1, n):
            f = work[r][col] * inv
            if f == zero:
                continue
            work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return det
