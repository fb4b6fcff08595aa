"""The elimination kernels against independent oracles: `mat_solve` against
inverse-then-multiply and against the product it must reproduce, over QQ,
GF(101) and truncated series (K <= 3); `mat_det` against the Leibniz
permutation sum; and singular input, which `mat_solve` rejects and
`mat_det` maps to zero."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.errors import NonInvertibleError
from qident.exactnum import PSeries, PrimeField, QQ
from qident.linalg import mat_det, mat_inverse, mat_mul, mat_solve

GF101 = PrimeField(101)


class Ring:
    """What the kernels take for one ring, plus a strategy for its entries.
    Small entries make singular matrices and row swaps common."""

    def __init__(self, one, zero, entries, invertible=None, is_zero=None):
        self.one, self.zero, self.entries = one, zero, entries
        self.invertible = invertible or (lambda x: x != zero)
        self.is_zero = is_zero or (lambda x: x == zero)


def series_ring(order):
    coeffs = st.lists(st.integers(-2, 2), min_size=order + 1, max_size=order + 1)
    return Ring(PSeries.constant(QQ, QQ.one, order), PSeries.constant(QQ, QQ.zero, order),
                coeffs.map(lambda cs: PSeries(QQ, [Fraction(c) for c in cs], order)),
                PSeries.invertible, PSeries.is_zero)


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
            mat_solve(a, b, ring.zero, ring.invertible)
        return
    x = mat_solve(a, b, ring.zero, ring.invertible)
    assert mat_mul(a, x) == b
    assert x == mat_mul(mat_inverse(a, ring.one, ring.zero, ring.invertible), b)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@given(st.data(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_mat_det_matches_leibniz_sum(ring_name, data, n):
    ring = data.draw(RINGS[ring_name])
    a = matrix(data, ring, n, n)
    expected = leibniz_det(a, ring.one, ring.zero)
    try:
        got = mat_det(a, ring.one, ring.zero, ring.invertible, ring.is_zero)
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
    x = mat_solve(a, [[ring.one], [ring.zero]], ring.zero, ring.invertible)
    assert mat_mul(a, x) == [[ring.one], [ring.zero]]
    # [[p, p], [p, 1]] has det p - p^2, not a unit: no usable pivot in column 0
    with pytest.raises(NonInvertibleError):
        mat_solve([[p, p], [p, ring.one]], [[ring.one], [ring.zero]], ring.zero,
                  ring.invertible)
