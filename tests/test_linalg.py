"""The elimination kernels against independent oracles: `mat_solve` against
inverse-then-multiply and against the product it must reproduce, over QQ,
GF(101) and truncated series (K <= 3); `mat_det` against the Leibniz
permutation sum; and singular input, which `mat_solve` rejects and
`mat_det` maps to zero.  At realistic heights (sampler draws, size >= 12,
over QQ and GF(2^61 - 1)) the bare-integer paths are compared with the
elimination on field scalars that they replaced, and a work count keeps
`Fraction` and `PrimeScalar` arithmetic out of their loops."""

from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.errors import NonInvertibleError
from qident.exactnum import PSeries, PrimeField, PrimeScalar, QQ, Sampler, SamplerConfig
from qident.linalg import (
    RatRows, eliminate, mat_det, mat_inverse, mat_mul, mat_solve, transpose)

GF101 = PrimeField(101)


class Ring:
    """One ring: its one and zero, the unit test the oracles decide
    invertibility by, and a strategy for its entries.  Small entries make
    singular matrices and row swaps common."""

    def __init__(self, one, zero, entries, invertible=None):
        self.one, self.zero, self.entries = one, zero, entries
        self.invertible = invertible or (lambda x: x != zero)


def series_ring(order):
    coeffs = st.lists(st.integers(-2, 2), min_size=order + 1, max_size=order + 1)
    return Ring(PSeries.constant(QQ, QQ.one, order), PSeries.constant(QQ, QQ.zero, order),
                coeffs.map(lambda cs: PSeries(QQ, [Fraction(c) for c in cs], order)),
                PSeries.invertible)


FIELD_RINGS = {
    "QQ": st.just(Ring(QQ.one, QQ.zero, st.one_of(
        st.integers(-2, 2).map(Fraction),
        st.fractions(min_value=-5, max_value=5, max_denominator=4)))),
    "GF101": st.just(Ring(GF101.one, GF101.zero, st.one_of(
        st.integers(0, 2), st.integers(0, 100)).map(GF101.of))),
}
RINGS = dict(FIELD_RINGS, series=st.integers(0, 3).map(series_ring))


def matrix(data, ring, rows, cols):
    return [data.draw(st.lists(ring.entries, min_size=cols, max_size=cols))
            for _ in range(rows)]


def leibniz_det(a, one, zero):
    """Oracle: the sum over permutations of the signed products."""
    n = len(a)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one if inversions % 2 == 0 else -one
        for r, c in enumerate(perm):
            term = term * a[r][c]
        total = total + term
    return total


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_mat_solve_matches_inverse_times_rhs(ring_name, data, n, m):
    ring = data.draw(RINGS[ring_name])
    a, b = matrix(data, ring, n, n), matrix(data, ring, n, m)
    # over a field, and over the local series ring, a has an inverse
    # exactly when its determinant is a unit
    if not ring.invertible(leibniz_det(a, ring.one, ring.zero)):
        with pytest.raises(NonInvertibleError):
            mat_solve(a, b, ring.zero)
        return
    x = mat_solve(a, b, ring.zero)
    assert mat_mul(a, x) == b
    assert x == mat_mul(mat_inverse(a, ring.one, ring.zero), b)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@given(st.data(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_mat_det_matches_leibniz_sum(ring_name, data, n):
    ring = data.draw(RINGS[ring_name])
    a = matrix(data, ring, n, n)
    expected = leibniz_det(a, ring.one, ring.zero)
    try:
        got = mat_det(a, ring.one, ring.zero)
    except NonInvertibleError:
        # only over the series ring, and only where no unit pivot exists
        assert ring_name == "series" and not ring.invertible(expected)
        return
    assert got == expected


@pytest.mark.parametrize("ring_name", sorted(FIELD_RINGS))
@given(st.data(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_singular_input(ring_name, data, n):
    # the last row is a combination of the others (zero when n = 1)
    ring = data.draw(RINGS[ring_name])
    rows = matrix(data, ring, n - 1, n)
    coeffs = data.draw(st.lists(ring.entries, min_size=n - 1, max_size=n - 1))
    last = [ring.zero] * n
    for c, row in zip(coeffs, rows):
        last = [v + c * w for v, w in zip(last, row)]
    a = rows + [last]
    assert mat_det(a, ring.one, ring.zero) == ring.zero
    with pytest.raises(NonInvertibleError):
        mat_solve(a, matrix(data, ring, n, 1), ring.zero)
    with pytest.raises(NonInvertibleError):
        mat_inverse(a, ring.one, ring.zero)


def test_series_solve_needs_unit_pivots():
    # [[p, 1], [1, p]] is invertible over the series ring (det 1 - p^2 is a
    # unit), though its first column has no invertible entry in row 0
    ring = series_ring(3)
    p = PSeries.nome(QQ, 3)
    a = [[p, ring.one], [ring.one, p]]
    x = mat_solve(a, [[ring.one], [ring.zero]], ring.zero)
    assert mat_mul(a, x) == [[ring.one], [ring.zero]]
    # [[p, p], [p, 1]] has det p - p^2, not a unit: no usable pivot in column 0
    with pytest.raises(NonInvertibleError):
        mat_solve([[p, p], [p, ring.one]], [[ring.one], [ring.zero]], ring.zero)


# ---------------------------------------------------------------------------
# oracle: the elimination `linalg` ran before its bare-integer paths, on
# field scalars by their own operators (`Fraction`, `PrimeScalar`)
# ---------------------------------------------------------------------------

def oracle_mul(a, b):
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


def oracle_solve(a, b, one, zero):
    """Gauss-Jordan on [a | b] on the first nonzero pivot of each column."""
    n = len(a)
    work = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != zero), None)
        if pivot is None:
            raise NonInvertibleError("no invertible pivot in column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        inv = one / work[col][col]
        tail = [v * inv for v in work[col][col + 1:]]
        work[col][col + 1:] = tail
        for r, row in enumerate(work):
            f = row[col]
            if r != col and f != zero:
                row[col + 1:] = [v - f * w for v, w in zip(row[col + 1:], tail)]
    return [row[n:] for row in work]


def oracle_det(a, one, zero):
    """Gaussian elimination on the first nonzero pivot of each column."""
    n = len(a)
    work = [list(row) for row in a]
    det = one
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != zero), None)
        if pivot is None:
            return zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = one / work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] * inv
            if f != zero:
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return det


HEIGHT_FIELDS = {"QQ": QQ, "GF(2^61-1)": PrimeField(2 ** 61 - 1)}


def drawn(fld, seed, rows, cols):
    """A rows x cols matrix of sampler draws of height <= 1000 in `fld`."""
    sampler = Sampler(SamplerConfig(seed), fld)
    return [[sampler.draw() for _ in range(cols)] for _ in range(rows)]


def negative_pivots(a, fld):
    # over QQ every diagonal entry negative, so the pivot inverse needs
    # its denominator's sign moved to the numerator
    for i in range(len(a)):
        a[i][i] = -abs(a[i][i]) if fld == QQ else -a[i][i]


def row_swaps(a, fld):
    # zero below the diagonal in the left half, then the rows reversed:
    # column 0 has its one nonzero entry in the last row
    for c in range(len(a) // 2):
        for r in range(c + 1, len(a)):
            a[r][c] = fld.zero
    a.reverse()


def zero_column(a, fld):
    for row in a:
        row[len(a) // 2] = fld.zero


def dependent_row(a, fld):
    # the last row a combination of the others, with the diagonal as
    # coefficients
    last = [fld.zero] * len(a[0])
    for i, row in enumerate(a[:-1]):
        last = [v + row[i] * w for v, w in zip(last, row)]
    a[-1] = last


def mixed_ints(a, fld):
    # every third entry, the first included, a plain int
    for r, row in enumerate(a):
        for c in range(r % 3, len(row), 3):
            row[c] = row[c].numerator if fld == QQ else row[c].value


SHAPES = {"dense": lambda a, fld: None, "negative pivots": negative_pivots,
          "row swaps": row_swaps, "zero column": zero_column,
          "dependent row": dependent_row, "mixed ints": mixed_ints}
SINGULAR_SHAPES = {"zero column", "dependent row"}


@pytest.mark.parametrize("field_name", sorted(HEIGHT_FIELDS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n", [12, 13])
def test_bare_integer_paths_match_the_field_scalar_oracle(field_name, shape, n):
    fld = HEIGHT_FIELDS[field_name]
    a = drawn(fld, n, n, n)
    SHAPES[shape](a, fld)
    b = drawn(fld, 100 + n, n, 3)
    scalar = type(fld.one)

    det = mat_det(a, fld.one, fld.zero)
    assert det == oracle_det(a, fld.one, fld.zero)
    assert type(det) is scalar
    assert (det == fld.zero) == (shape in SINGULAR_SHAPES)
    if shape in SINGULAR_SHAPES:
        with pytest.raises(NonInvertibleError):
            mat_solve(a, b, fld.zero)
    else:
        x = mat_solve(a, b, fld.zero)
        assert x == oracle_solve(a, b, fld.one, fld.zero)
        assert all(type(v) is scalar for row in x for v in row)
    for left, right in ((a, b), (transpose(b), a)):
        prod = mat_mul(left, right)
        assert prod == oracle_mul(left, right)
        assert all(type(v) is scalar for row in prod for v in row)


def test_rational_entries_stay_reduced_pairs():
    # every entry of a rational elimination is a reduced pair with a
    # positive denominator, as small as the `Fraction` it stands for
    a = drawn(QQ, 12, 12, 12)
    negative_pivots(a, QQ)
    ops = RatRows()
    work = ops.load([ra + rb for ra, rb in zip(a, drawn(QQ, 112, 12, 3))])
    pivots, _ = eliminate(ops, work, 12, jordan=True)
    assert len(pivots) == 12
    for nums, dens in work:
        for num, den in zip(nums, dens):
            assert (num, den) == (Fraction(num, den).numerator, Fraction(num, den).denominator)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__")


@pytest.mark.parametrize("field_name", sorted(HEIGHT_FIELDS))
def test_scalar_paths_do_no_per_entry_scalar_arithmetic(field_name, monkeypatch):
    # elimination is O(n^3) entry updates; the scalar objects may be
    # touched O(n) times (the product of the pivots), not per entry
    fld = HEIGHT_FIELDS[field_name]
    n = 12
    a, b = drawn(fld, n, n, n), drawn(fld, 100 + n, n, n)
    calls = []
    for cls in (Fraction, PrimeScalar):
        for name in ARITHMETIC:
            if hasattr(cls, name):
                def counting(*args, _op=getattr(cls, name)):
                    calls.append(_op)
                    return _op(*args)
                monkeypatch.setattr(cls, name, counting)
    for run in (lambda: mat_det(a, fld.one, fld.zero), lambda: mat_solve(a, b, fld.zero),
                lambda: mat_mul(a, b)):
        calls.clear()
        run()
        assert len(calls) <= 2 * n
