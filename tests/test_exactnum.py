from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.errors import DegenerateInputError, NonInvertibleError, SamplingError
from qident.exactnum import (
    PSeries, PrimeField, PrimeScalar, QQ, Sampler, SamplerConfig, pochhammer, pochhammer_p,
    theta, theta_reduced, to_prime_field, triple_pochhammer_p)

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_fractions = fractions_st.filter(lambda q: q != 0)


def const(v, k):
    return PSeries.constant(QQ, Fraction(v), k)


# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------

def test_to_prime_field_examples():
    assert to_prime_field(Fraction(1, 2), 7) == 4
    assert to_prime_field(Fraction(0), 11) == 0
    with pytest.raises(DegenerateInputError):
        to_prime_field(Fraction(1, 7), 7)


@given(fractions_st, fractions_st)
def test_to_prime_field_is_a_homomorphism(a, b):
    p = 2 ** 61 - 1
    assert to_prime_field(a + b, p) == to_prime_field(a, p) + to_prime_field(b, p)
    assert to_prime_field(a * b, p) == to_prime_field(a, p) * to_prime_field(b, p)


def test_prime_scalar_arithmetic():
    gf = PrimeField(101)
    a, b = gf.of(17), gf.of(Fraction(3, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a ** -1 * a == gf.one
    with pytest.raises(NonInvertibleError):
        gf.one / gf.zero


def test_prime_scalar_inverse_rejects_non_invertible_values():
    # a non-invertible value is a NonInvertibleError, which `resample` sees;
    # modulo a composite, Fermat's a^(p-2) would return a wrong "inverse"
    with pytest.raises(NonInvertibleError):
        PrimeField(101).zero.inverse()
    with pytest.raises(NonInvertibleError):
        PrimeScalar(6, 9).inverse()
    assert PrimeScalar(4, 9).inverse() == PrimeScalar(7, 9)


# ---------------------------------------------------------------------------
# series ring
# ---------------------------------------------------------------------------

def test_pochhammer_examples():
    u = Fraction(5, 3)
    assert pochhammer(u, 1, 0) == const(1, 0) - const(u, 0)
    assert pochhammer(Fraction(0), 1, 3) == const(1, 3)
    got = pochhammer(Fraction(2), 1, 1)
    assert got.coeffs == [Fraction(-1), Fraction(2)]


def test_theta_examples():
    u = Fraction(7, 4)
    assert theta(u, 1, 0) == const(1, 0) - const(u, 0)
    got = theta(Fraction(2), 1, 1)
    assert got.coeffs == [Fraction(-1), Fraction(7, 2)]
    assert theta(Fraction(1), 1, 6).is_zero()


def test_theta_rejects_bad_arguments():
    with pytest.raises(DegenerateInputError):
        theta(PSeries(QQ, [0, 0, 0], 2), 1, 2)
    # valuation beyond the nome exponent would leave the series ring
    with pytest.raises(DegenerateInputError):
        theta(PSeries.nome(QQ, 4).shift(1), 1, 4)


def test_theta_reduced():
    assert theta_reduced(Fraction(1), 0) == const(1, 0)
    assert theta_reduced(Fraction(1), 5) == triple_pochhammer_p(QQ, 5)
    assert theta_reduced(Fraction(2), 1).coeffs == [Fraction(1), Fraction(-7, 2)]


@given(nonzero_fractions.filter(lambda q: q != 1))
@settings(max_examples=25, deadline=None)
def test_theta_reduced_times_linear_factor(u):
    k = 6
    lhs = theta_reduced(u, k) * (const(1, k) - const(u, k))
    assert lhs == theta(u, 1, k)


def test_theta_reduced_times_linear_factor_at_one():
    # both sides vanish at u = 1: the reduced series is finite there while
    # theta carries the (1 - u) zero
    k = 6
    u = Fraction(1)
    lhs = theta_reduced(u, k) * (const(1, k) - const(u, k))
    assert lhs.is_zero() and theta(u, 1, k).is_zero()


@given(nonzero_fractions.filter(lambda q: q != 1))
@settings(max_examples=15, deadline=None)
def test_theta_quasi_periodicity_and_inversion(u):
    k = 8
    pu = PSeries.nome(QQ, k) * const(u, k)
    assert theta(pu, 1, k) == theta(u, 1, k) * (-1 / u)
    assert theta(1 / u, 1, k) == theta(u, 1, k) * (-1 / u)


@given(st.lists(fractions_st, min_size=4, max_size=4),
       st.lists(fractions_st, min_size=4, max_size=4),
       st.lists(fractions_st, min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_series_ring_axioms(a, b, c):
    k = 3
    sa, sb, sc = PSeries(QQ, a, k), PSeries(QQ, b, k), PSeries(QQ, c, k)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa + sb) - sb == sa


@given(st.lists(fractions_st, min_size=4, max_size=4),
       st.lists(fractions_st, min_size=4, max_size=4).filter(lambda c: c[0] != 0))
@settings(max_examples=40, deadline=None)
def test_series_division_inverts_multiplication(a, b):
    sa, sb = PSeries(QQ, a, 3), PSeries(QQ, b, 3)
    assert (sa * sb) / sb == sa


def test_series_division_requires_invertible_constant_term():
    with pytest.raises(NonInvertibleError):
        PSeries.nome(QQ, 3).inverse()


def test_pochhammer_p_matches_direct_product():
    k = 5
    direct = PSeries.constant(QQ, 1, k)
    for s in range(1, k + 1):
        direct = direct * (PSeries.constant(QQ, 1, k) - PSeries.nome(QQ, k).shift(s - 1))
    assert pochhammer_p(QQ, k) == direct


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 63))
@settings(max_examples=20, deadline=None)
def test_sampler_determinism(seed):
    a = Sampler(SamplerConfig(seed))
    b = Sampler(SamplerConfig(seed))
    for _ in range(5):
        assert a.draw() == b.draw()
    assert a.log == b.log


def test_sampler_respects_bounds_and_nonzero():
    s = Sampler(SamplerConfig(17, bound=50))
    for _ in range(200):
        v = s.draw()
        assert v != 0
        assert abs(v.numerator) <= 50 and v.denominator <= 50


def test_sampler_constraint_contract():
    s = Sampler(SamplerConfig(1))
    eta = s.draw((lambda v: all(v ** k != QQ.one for k in range(1, 4)),))
    assert all(eta ** k != 1 for k in (1, 2, 3))


def test_sampler_exhaustion():
    s = Sampler(SamplerConfig(1, max_retries=64))
    with pytest.raises(SamplingError):
        s.draw((lambda v: False,), "impossible")


def test_draw_distinct():
    s = Sampler(SamplerConfig(9))
    vals = s.draw_distinct(6)
    assert len(set(vals)) == 6
