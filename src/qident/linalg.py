"""Small exact dense linear algebra over a field or the truncated series
ring: inverse, determinant, multiply.  Division-based elimination; callers
over the series ring supply an invertibility test (constant term nonzero)
and resample when no usable pivot exists.
"""

from __future__ import annotations

from .errors import NonInvertibleError


def _default_is_zero(x):
    return x == 0


def _default_invertible(x):
    return not (x == 0)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = a[r][0] * b[0][c]
            for k in range(1, inner):
                acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def mat_inverse(a, one, zero, invertible=None):
    """Gauss-Jordan inverse; raises NonInvertibleError without a usable pivot."""
    invertible = invertible or _default_invertible
    n = len(a)
    work = [list(row) + [one if r == c else zero for c in range(n)]
            for r, row in enumerate(a)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if invertible(work[r][col]):
                pivot = r
                break
        if pivot is None:
            raise NonInvertibleError("no invertible pivot in column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col] ** (-1)
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f == zero:
                continue
            work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def mat_det(a, one, zero, invertible=None, is_zero=None):
    """Determinant by elimination.  If a column admits no invertible pivot
    but is entirely zero below the diagonal, the determinant is zero (over a
    field); otherwise the situation is reported for resampling."""
    invertible = invertible or _default_invertible
    is_zero = is_zero or _default_is_zero
    n = len(a)
    work = [list(row) for row in a]
    det = one
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if invertible(work[r][col]):
                pivot = r
                break
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
