"""Small exact dense linear algebra over a field or the truncated series
ring: product, determinant and solve, by one elimination on unit pivots
(a series is a unit when its constant term is nonzero); callers resample
when no usable pivot exists.

Field matrices run on bare integers, never on `Fraction` or `PrimeScalar`
objects: over QQ as reduced (numerator, denominator) pairs, with the gcd
cancellations of `Fraction` so that entries stay as small, over GF(p) as
residues.  Series matrices keep the ring operations of `PSeries`.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import gcd
from operator import add, mul

from .errors import NonInvertibleError
from .exactnum import PrimeScalar, PSeries, field_of, ints_over_den, modulus, scalar_of


class SeriesRows:
    """Rows of `PSeries` entries, by the ring operations; `invertible`
    decides a usable pivot (a unit) and `is_zero` a zero entry."""

    def __init__(self, invertible=None, is_zero=None):
        self.invertible = invertible or PSeries.invertible
        self.is_zero = is_zero or PSeries.is_zero

    def load(self, rows):
        return [list(row) for row in rows]

    def pivot(self, row, col):
        return self.invertible(row[col])

    def normalize(self, row, col):
        """(the pivot row[col], the entries after it divided by it); the
        row keeps the divided entries."""
        inv = row[col] ** (-1)
        row[col + 1:] = tail = [v * inv for v in row[col + 1:]]
        return row[col], tail

    def eliminate(self, row, col, tail):
        """row -= row[col] * (the normalized pivot row), after `col`."""
        f = row[col]
        if not self.is_zero(f):
            row[col + 1:] = [v - f * w for v, w in zip(row[col + 1:], tail)]

    def values(self, row, start):
        return row[start:]


class ModRows:
    """Rows of residues modulo the prime p, as bare integers in [0, p)."""

    def __init__(self, p):
        self.p = p

    def load(self, rows):
        p = self.p
        return [[x.value if type(x) is PrimeScalar else x % p for x in row] for row in rows]

    def pivot(self, row, col):
        return row[col] != 0

    def normalize(self, row, col):
        p = self.p
        inv = pow(row[col], -1, p)
        row[col + 1:] = tail = [v * inv % p for v in row[col + 1:]]
        return PrimeScalar(row[col], p), tail

    def eliminate(self, row, col, tail):
        f, p = row[col], self.p
        if f:
            row[col + 1:] = [(v - f * w) % p for v, w in zip(row[col + 1:], tail)]

    def values(self, row, start):
        return [PrimeScalar(v, self.p) for v in row[start:]]


def qq_mul(an, ad, bn, bd):
    """(an/ad)(bn/bd) as a reduced pair, from reduced pairs, by the cross
    cancellation `Fraction` multiplies with."""
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return (an // g1) * (bn // g2), (ad // g2) * (bd // g1)


class RatRows:
    """Rows of rationals, each row a pair of lists: reduced numerators and
    their positive denominators."""

    def load(self, rows):
        return [([x.numerator for x in row], [x.denominator for x in row]) for row in rows]

    def pivot(self, row, col):
        return row[0][col] != 0

    def normalize(self, row, col):
        nums, dens = row
        pn, pd = nums[col], dens[col]
        inv_n, inv_d = (pd, pn) if pn > 0 else (-pd, -pn)
        tail = [qq_mul(n, d, inv_n, inv_d) for n, d in zip(nums[col + 1:], dens[col + 1:])]
        nums[col + 1:] = tail_n = [n for n, _ in tail]
        dens[col + 1:] = tail_d = [d for _, d in tail]
        return scalar_of(0, pn, pd), (tail_n, tail_d)

    def eliminate(self, row, col, tail):
        """row -= f * (the normalized pivot row) with f = row[col]: per
        entry `qq_mul` and the gcd steps of `Fraction`'s sum (Henrici),
        written out, as this is the inner loop of every rational
        elimination."""
        nums, dens = row
        fn, fd = -nums[col], dens[col]
        if not fn:
            return
        for j, wn, wd in zip(range(col + 1, len(nums)), *tail):
            if not wn:
                continue
            g1, g2 = gcd(fn, wd), gcd(wn, fd)
            pn, pd = (fn // g1) * (wn // g2), (fd // g2) * (wd // g1)
            vn, vd = nums[j], dens[j]
            g = gcd(vd, pd)
            if g == 1:
                nums[j], dens[j] = vn * pd + pn * vd, vd * pd
            else:
                s = vd // g
                t = vn * (pd // g) + pn * s
                g = gcd(t, g)
                nums[j], dens[j] = t // g, s * (pd // g)

    def values(self, row, start):
        nums, dens = row
        return [scalar_of(0, n, d) for n, d in zip(nums[start:], dens[start:])]


def rows_for(x, invertible=None, is_zero=None):
    """The row operations for matrices whose entries live where `x` does;
    the predicates are read for series only."""
    if isinstance(x, PSeries):
        return SeriesRows(invertible, is_zero)
    if isinstance(x, PrimeScalar):
        return ModRows(x.p)
    return RatRows()


def eliminate(ops, work, n, jordan):
    """Gaussian elimination in place on the first n columns of `work`, on
    the first usable pivot of each column: below the pivots, or with
    `jordan` in every other row as well.  A finished column is never read
    again, so each row update covers only the columns after the pivot.
    Returns the pivots and the number of row swaps; fewer than n pivots
    means that column len(pivots) has no usable one."""
    pivots, swaps = [], 0
    for col in range(n):
        pivot = next((r for r in range(col, n) if ops.pivot(work[r], col)), None)
        if pivot is None:
            break
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            swaps += 1
        value, tail = ops.normalize(work[col], col)
        pivots.append(value)
        for r in range(0 if jordan else col + 1, n):
            if r != col:
                ops.eliminate(work[r], col, tail)
    return pivots, swaps


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """The product a b.  Over a field each row of a and each column of b
    is cleared to integers over one denominator (`ints_over_den`), so an
    entry is one integer dot product, reduced once.  The field is that of
    the first entry in the first rows of a and b that is not an int (QQ if
    there is none)."""
    x = next((v for v in chain(a[0], b[0]) if type(v) is not int), 0)
    if isinstance(x, PSeries):
        return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]
    fld = field_of(x)
    mod = modulus(fld)
    rows = [ints_over_den(fld, row) for row in a]
    cols = [ints_over_den(fld, col) for col in zip(*b)]
    return [[scalar_of(mod, sum(map(mul, r, c)), dr * dc) for c, dc in cols]
            for r, dr in rows]


def mat_solve(a, b, zero):
    """The X with a X = b, by one Gauss-Jordan pass on [a | b]; raises
    NonInvertibleError without a unit pivot."""
    ops = rows_for(zero)
    n = len(a)
    work = ops.load([list(ra) + list(rb) for ra, rb in zip(a, b)])
    pivots, _ = eliminate(ops, work, n, jordan=True)
    if len(pivots) < n:
        raise NonInvertibleError("no invertible pivot in column %d" % len(pivots))
    return [ops.values(row, n) for row in work]


def mat_inverse(a, one, zero):
    """Gauss-Jordan inverse: `mat_solve` against the identity."""
    identity = [[one if r == c else zero for c in range(len(a))] for r in range(len(a))]
    return mat_solve(a, identity, zero)


def mat_det(a, one, zero, invertible=None, is_zero=None):
    """Determinant by elimination on unit pivots.  If a column admits none
    but is entirely zero below the diagonal, the determinant is zero;
    otherwise the situation is reported for resampling.  The two optional
    predicates are read for series matrices only (over a field a pivot is
    usable exactly when it is nonzero); they stay because
    `benchmarks/kernels.py` passes them."""
    ops = rows_for(one, invertible, is_zero)
    n = len(a)
    work = ops.load(a)
    pivots, swaps = eliminate(ops, work, n, jordan=False)
    col = len(pivots)
    if col < n:
        # over a field a column without a pivot is zero at and below col
        if not isinstance(ops, SeriesRows) or all(
                ops.is_zero(work[r][col]) for r in range(col, n)):
            return zero
        raise NonInvertibleError(
            "column %d has nonzero entries but no invertible pivot" % col)
    det = reduce(mul, pivots, one)
    return -det if swaps % 2 else det
