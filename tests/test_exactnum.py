import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.errors import (
    DegenerateInputError, NonInvertibleError, SamplingError, UsageError)
from qident.exactnum import (
    MR_EXACT_BELOW, PSeries, PrimeField, PrimeScalar, QQ, Sampler, SamplerConfig, dot,
    field_of, is_probable_prime, sub_product, theta, theta_ints, to_prime_field,
    triple_pochhammer_p)
from qident.reporting import DEFAULT_PRIME

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_fractions = fractions_st.filter(lambda q: q != 0)
fields_st = st.sampled_from([QQ, PrimeField(DEFAULT_PRIME)])


def const(v, k):
    return PSeries.constant(QQ, Fraction(v), k)


def fraction_series_oracle(op, fld, *args):
    """Test oracle for `PSeries`: the list-of-field-scalars arithmetic
    (`Fraction` or `PrimeScalar` coefficients) that the integer form
    replaced.  Series operands are coefficient lists of one length K+1;
    "scale" takes a field scalar and "pow" an int exponent.  Returns the
    coefficient list of the result."""
    zero, one = fld.zero, fld.one

    def mul(a, b):
        out = [zero] * len(a)
        for i, x in enumerate(a):
            for j in range(len(a) - i):
                out[i + j] = out[i + j] + x * b[j]
        return out

    def inverse(a):
        if a[0] == zero:
            raise NonInvertibleError("zero constant term")
        inv0 = one / a[0]
        out = [inv0] + [zero] * (len(a) - 1)
        for k in range(1, len(a)):
            acc = zero
            for j in range(1, k + 1):
                acc = acc + a[j] * out[k - j]
            out[k] = -inv0 * acc
        return out

    def power(a, exponent):
        base = inverse(a) if exponent < 0 else a
        out = [one] + [zero] * (len(a) - 1)
        for _ in range(abs(exponent)):
            out = mul(out, base)
        return out

    ops = {
        "mul": mul,
        "add": lambda a, b: [x + y for x, y in zip(a, b)],
        "sub": lambda a, b: [x - y for x, y in zip(a, b)],
        "scale": lambda a, c: [x * c for x in a],
        "inverse": inverse,
        "pow": power,
    }
    return ops[op](*args)


def as_series(u, order):
    """Test helper: a series as it is, a scalar as the constant series of
    the given order."""
    return u if isinstance(u, PSeries) else PSeries.constant(field_of(u), u, order)


def nome_power(fld, m, order):
    """Test helper: the series p^m (zero once m exceeds the order)."""
    return PSeries(fld, [fld.zero] * m + [fld.one], order)


def shifted(series, m):
    """Test helper: multiply by p^m, truncating."""
    return PSeries(series.field, [series.field.zero] * m + series.coeffs, series.order)


def pochhammer_oracle(u, e, order):
    """Test oracle for the q-Pochhammer constants that `theta` computes:
    the truncated product (u; p^e)_inf = prod_{s>=0} (1 - p^(es) u)
    mod p^(order+1), factor by factor.  Keeps the s = 0 factor and every
    factor with e*s <= order; all later factors are congruent to 1."""
    us = as_series(u, order)
    one = PSeries.constant(us.field, us.field.one, order)
    out = one - us
    s = 1
    while e * s <= order:
        out = out * (one - shifted(us, e * s))
        s += 1
    return out


def valuation(series):
    """Test helper: the index of a series' first nonzero coefficient, or
    None for the zero series."""
    return next((i for i, x in enumerate(series.num) if x), None)


def shifted_down(series, m):
    """Test helper: divide by p^m; requires the first m coefficients to
    vanish."""
    cs = series.coeffs
    if any(cs[:m]):
        raise UsageError("series is not divisible by p^%d" % m)
    return PSeries(series.field, cs[m:] + [series.field.zero] * m, series.order)


def theta_reduced(u, order):
    """Test oracle: theta(u; p) / (1 - u) with the vanishing factor
    cancelled symbolically, (pu; p)_inf (p u^{-1}; p)_inf (p; p)_inf.
    Regular at u = 1, where it equals ((p; p)_inf)^3.
    """
    us = as_series(u, order)
    fld = us.field
    one = PSeries.constant(fld, fld.one, order)
    val = valuation(us)
    if val is None:
        raise DegenerateInputError("theta_reduced of zero is undefined")
    if val > 0:
        raise DegenerateInputError("theta_reduced needs an invertible argument")
    u_inv = us.inverse()
    out = one
    for s in range(1, order + 1):
        out = out * (one - shifted(us, s))
        out = out * (one - shifted(u_inv, s))
        out = out * (one - nome_power(fld, s, order))
    return out


def theta_product_oracle(u, e, order):
    """Test oracle for `theta`: the defining truncated product
    (u; p^e)_inf (p^e u^{-1}; p^e)_inf (p^e; p^e)_inf, factor by factor.
    Accepts a scalar or a series argument of valuation at most e."""
    us = as_series(u, order)
    fld = us.field
    one = PSeries.constant(fld, fld.one, order)
    val = valuation(us)
    if val is None:
        raise DegenerateInputError("theta of the zero series is undefined")
    out = pochhammer_oracle(us, e, order)
    # reciprocal factors 1 - p^{es}/u = 1 - p^{es-val} * w^{-1}, u = p^val w
    if e * 1 <= order + val:
        if val > e:
            raise DegenerateInputError(
                "theta argument has valuation %d > nome exponent %d" % (val, e))
        w_inv = shifted_down(us, val).inverse()
        s = 1
        while e * s - val <= order:
            out = out * (one - shifted(w_inv, e * s - val))
            s += 1
    s = 1
    while e * s <= order:
        out = out * (one - nome_power(fld, e * s, order))
        s += 1
    return out


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


def test_primality_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(is_probable_prime(n) == trial_division(n) for n in range(5000))


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and to the bases 2..37
    assert not is_probable_prime(3215031751)
    assert not is_probable_prime(318665857834031151167461)
    # the least strong pseudoprime to all 13 bases sits at the exactness bound
    assert is_probable_prime(MR_EXACT_BELOW)
    assert MR_EXACT_BELOW % 1287836182261 == 0
    assert is_probable_prime(2 ** 61 - 1) and is_probable_prime(2 ** 89 - 1)


def test_prime_field_rejects_composite_moduli():
    for modulus in (1, 4, 1000, 1001, 561):
        with pytest.raises(UsageError):
            PrimeField(modulus)
    assert PrimeField(101).proven_prime
    assert not PrimeField(2 ** 89 - 1).proven_prime


def test_prime_sampler_never_draws_zero():
    # numerators up to the height bound include multiples of a small prime
    s = Sampler(SamplerConfig(1), PrimeField(101))
    assert all(s.draw() for _ in range(300))


# ---------------------------------------------------------------------------
# series ring
# ---------------------------------------------------------------------------

def test_pochhammer_examples():
    u = Fraction(5, 3)
    assert pochhammer_oracle(u, 1, 0) == const(1, 0) - const(u, 0)
    assert pochhammer_oracle(Fraction(0), 1, 3) == const(1, 3)
    got = pochhammer_oracle(Fraction(2), 1, 1)
    assert got.coeffs == [Fraction(-1), Fraction(2)]


def test_theta_examples():
    u = Fraction(7, 4)
    assert theta(u, 1, 0) == const(1, 0) - const(u, 0)
    got = theta(Fraction(2), 1, 1)
    assert got.coeffs == [Fraction(-1), Fraction(7, 2)]
    assert theta(Fraction(1), 1, 6).is_zero()


def test_theta_rejects_bad_arguments():
    with pytest.raises(DegenerateInputError):
        theta(Fraction(0), 1, 2)
    # valuation beyond the nome exponent would leave the series ring
    with pytest.raises(DegenerateInputError):
        theta(Fraction(1), 1, 4, 2)


@given(st.sampled_from([QQ, PrimeField(DEFAULT_PRIME)]), st.integers(0, 24),
       st.integers(1, 4), st.integers(0, 4), nonzero_fractions)
@settings(max_examples=60, deadline=None)
def test_theta_triple_product_sum_matches_product_oracle(fld, order, e, v, c):
    # a monomial argument c p^v with any v <= e, over both fields; v may
    # exceed the order, so the oracle runs at order max(order, v), where
    # the argument is a nonzero series, and is truncated after
    v = min(v, e)
    top = max(order, v)
    arg = PSeries(fld, [fld.zero] * v + [fld.of(c)] + [fld.zero] * (top - v), top)
    want = theta_product_oracle(arg, e, top).coeffs[:order + 1]
    assert theta(fld.of(c), e, order, v).coeffs == want


def test_theta_rejects_non_monomial_series():
    arg = PSeries(QQ, [2, 0, 3], 4)
    with pytest.raises(UsageError):
        theta(arg, 2, 4)


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
    assert theta(u, 1, k, 1) == theta(u, 1, k) * (-1 / u)
    assert theta(1 / u, 1, k) == theta(u, 1, k) * (-1 / u)


@given(fields_st, nonzero_fractions, st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_theta_reflection(fld, z, order):
    # theta(1/z) = -z^(-1) theta(z) (Gasper-Rahman, eq. 1.6.1), which puts
    # both orders of a theta pair factor over one theta(t_v/t_w)
    z = fld.of(z)
    assert theta(fld.one / z, 1, order) == theta(z, 1, order) * (-fld.one / z)


@given(st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(-10 ** 6, 10 ** 6).filter(bool),
       st.integers(1, 50), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_theta_integer_form_is_homogeneous_and_reflects(a, b, c, order):
    # theta(a/b) is theta_ints(a, b) over a^(L-1) b^L for any integers a, b,
    # not only coprime ones, and the reflection swaps a and b up to sign
    num, last = theta_ints(a, b, 1, order)
    assert theta(Fraction(a, b), 1, order) == PSeries(
        QQ, [Fraction(x, a ** (last - 1) * b ** last) for x in num], order)
    scaled, same = theta_ints(c * a, c * b, 1, order)
    assert same == last and scaled == [x * c ** (2 * last - 1) for x in num]
    assert theta_ints(b, a, 1, order) == ([-x for x in num], last)


@given(fields_st, st.integers(0, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_matches_fraction_series_oracle(fld, order, data):
    # the rational inverse keeps each coefficient reduced; heights up to
    # 10^6 and either sign of the constant term
    big = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 3)
    first = data.draw(big.filter(lambda q: q != 0 and fld.of(q) != fld.zero))
    b = [fld.of(q) for q in [first] + data.draw(st.lists(big, min_size=order,
                                                          max_size=order))]
    assert_matches(PSeries(fld, b, order).inverse(),
                   fraction_series_oracle("inverse", fld, b), fld)


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
        nome_power(QQ, 1, 3).inverse()


def assert_canonical(s):
    assert len(s.num) == s.order + 1
    if s.mod:
        assert s.den == 1 and all(0 <= x < s.mod for x in s.num)
    else:
        assert s.den > 0 and math.gcd(s.den, *s.num) == 1


def assert_matches(got, want, fld):
    assert_canonical(got)
    assert got.coeffs == want
    rebuilt = PSeries(fld, want, got.order)
    assert rebuilt == got and hash(rebuilt) == hash(got)


@given(fields_st, st.integers(0, 24), st.data())
@settings(max_examples=60, deadline=None)
def test_pseries_matches_fraction_series_oracle(fld, order, data):
    def coeff_list(first):
        return data.draw(st.lists(fractions_st, min_size=order, max_size=order)
                         .map(lambda rest: [fld.of(q) for q in [first] + rest]))

    a = coeff_list(data.draw(fractions_st))
    b = coeff_list(data.draw(nonzero_fractions))
    c = fld.of(data.draw(nonzero_fractions))
    exponent = data.draw(st.integers(-3, 3))
    sa, sb = PSeries(fld, a, order), PSeries(fld, b, order)
    assert_matches(sa, a, fld)
    assert_matches(sa * sb, fraction_series_oracle("mul", fld, a, b), fld)
    assert_matches(sa + sb, fraction_series_oracle("add", fld, a, b), fld)
    assert_matches(sa - sb, fraction_series_oracle("sub", fld, a, b), fld)
    assert_matches(-sa, fraction_series_oracle("scale", fld, a, -fld.one), fld)
    assert_matches(sa * c, fraction_series_oracle("scale", fld, a, c), fld)
    assert_matches(c * sa, fraction_series_oracle("scale", fld, a, c), fld)
    assert_matches(sa / c, fraction_series_oracle("scale", fld, a, fld.one / c), fld)
    assert_matches(sb.inverse(), fraction_series_oracle("inverse", fld, b), fld)
    assert_matches(sb ** exponent, fraction_series_oracle("pow", fld, b, exponent), fld)
    assert_matches(sa / sb, fraction_series_oracle(
        "mul", fld, a, fraction_series_oracle("inverse", fld, b)), fld)
    assert sa * sb == sb * sa and hash(sa * sb) == hash(sb * sa)
    assert (sa + sb) - sb == sa and hash((sa + sb) - sb) == hash(sa)


def sub_product_oracle(v, f, w):
    """The elimination update that `exactnum.sub_product` replaced in
    `linalg.SeriesRows.eliminate`: a normalized product, then a normalized
    difference."""
    return v - f * w


def dot_oracle(xs, ys):
    """The product entry that `exactnum.dot` replaced in `linalg.mat_mul`:
    every product and every partial sum normalized."""
    return reduce(add, map(mul, xs, ys))


# no denominator is a multiple of 101 or of 2^61 - 1, so each lies in
# every field; 1225 = 35^2 makes products over equal denominators common
FUSED_FIELDS = [QQ, PrimeField(DEFAULT_PRIME), PrimeField(101)]
FUSED_DENS = st.sampled_from([1, 2, 6, 35, 1225, 10 ** 9 + 7])


def series_over(fld, order, den):
    """Series of the order with coefficients n/den of height up to 10^6,
    one of them 1/den, so that over QQ den is exactly the denominator; or
    the zero series."""
    coeffs = st.tuples(st.integers(0, order), st.lists(
        st.integers(-10 ** 6, 10 ** 6), min_size=order + 1, max_size=order + 1))
    return st.just(PSeries.constant(fld, fld.zero, order)) | coeffs.map(
        lambda c: PSeries(fld, [Fraction(1 if i == c[0] else x, den)
                                for i, x in enumerate(c[1])], order))


@given(st.sampled_from(FUSED_FIELDS), st.integers(0, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_fused_series_kernels_match_the_ring_operations(fld, order, data):
    # v - f*w and sum x_i y_i, reduced once, against the ring operations
    # that normalize every product and every sum; v's denominator equal to
    # f's times w's (one branch of `sub_product`) or drawn on its own
    df, dw = data.draw(FUSED_DENS), data.draw(FUSED_DENS)
    f, w = data.draw(series_over(fld, order, df)), data.draw(series_over(fld, order, dw))
    dv = data.draw(st.just(df * dw) | FUSED_DENS)
    v = data.draw(series_over(fld, order, dv))
    got = sub_product(v, f, w)
    assert_canonical(got)
    assert got == sub_product_oracle(v, f, w) and hash(got) == hash(v - f * w)
    size = data.draw(st.integers(1, 4))
    xs, ys = [[data.draw(series_over(fld, order, data.draw(FUSED_DENS))) for _ in range(size)]
              for _ in range(2)]
    got = dot(xs, ys)
    assert_canonical(got)
    assert got == dot_oracle(xs, ys) and hash(got) == hash(dot_oracle(xs, ys))


@given(st.sampled_from(FUSED_FIELDS), st.integers(0, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_negation_is_canonical_and_scales_by_minus_one(fld, order, data):
    # -s keeps s's denominator with no gcd; modulo p each residue's
    # complement, zero staying 0
    s = data.draw(series_over(fld, order, data.draw(FUSED_DENS)))
    assert_canonical(-s)
    assert -s == s * -1 and hash(-s) == hash(s * -1)
    assert -(-s) == s


@given(fields_st, st.integers(0, 24), st.integers(1, 3), nonzero_fractions, nonzero_fractions)
@settings(max_examples=40, deadline=None)
def test_theta_products_match_fraction_series_oracle(fld, order, e, u, w):
    tu, tw = theta(fld.of(u), e, order), theta(fld.of(w), e, order)
    assert_canonical(tu)
    assert_matches(tu * tw, fraction_series_oracle("mul", fld, tu.coeffs, tw.coeffs), fld)
    assert_matches(tu * tw * tu, fraction_series_oracle(
        "mul", fld, fraction_series_oracle("mul", fld, tu.coeffs, tw.coeffs), tu.coeffs), fld)


def test_prime_series_coerces_every_coefficient():
    # a Fraction coefficient over GF(p) is reduced into the field, not kept
    gf = PrimeField(101)
    s = PSeries(gf, [Fraction(1, 2), 3])
    assert s.coeffs == [PrimeScalar(51, 101), PrimeScalar(3, 101)]
    assert s == PSeries(gf, [PrimeScalar(51, 101), 3])
    assert (s * s).coeffs == [gf.of(Fraction(1, 4)), gf.of(3)]
    with pytest.raises(DegenerateInputError):
        PSeries(gf, [Fraction(1, 101)])


def test_pochhammer_p_matches_direct_product():
    k = 5
    direct = PSeries.constant(QQ, 1, k)
    for s in range(1, k + 1):
        direct = direct * (PSeries.constant(QQ, 1, k) - nome_power(QQ, s, k))
    assert pochhammer_oracle(nome_power(QQ, 1, k), 1, k) == direct
    assert theta(QQ.one, 3, k, 1) == direct
    assert triple_pochhammer_p(QQ, k) == direct * direct * direct


@pytest.mark.parametrize("fld", [QQ, PrimeField(DEFAULT_PRIME), PrimeField(7)], ids=str)
def test_euler_products_are_theta_values(fld):
    # (p^e; p^e)_inf = theta(p^e; p^(3e)) (Euler's pentagonal number theorem)
    for e in range(1, 6):
        for order in range(31):
            want = pochhammer_oracle(nome_power(fld, e, order), e, order)
            assert theta(fld.one, 3 * e, order, e) == want


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
