"""Exact scalar arithmetic, seeded admissible-point sampling, and the
truncated formal power series ring in the nome p.

Scalars live either in the field of big rationals (authoritative) or in a
prime field GF(p) (fast mode; an unlucky prime can produce spurious zeros,
so rational mode has the final word).  Series are exact modulo p^(K+1) and
fraction-free: integer numerators over one common denominator over QQ, raw
residues over GF(p), turned into field scalars only at the report boundary
(`PSeries.coeffs`).  `ints_over_den`, `num_den` and `scalar_of` are the
one conversion path between field scalars (for `num_den`, series too) and
that form, shared with the tensor vectors of `tensors` and the per-point
tables and the one exit of `polyweights.symmetrize`.
Theta is a finite truncated sum (the Jacobi triple product), and so is
every q-Pochhammer constant: (p^e; p^e)_inf is theta at p^e with nome
p^(3e) (Euler's pentagonal number theorem), so no convergence questions
ever arise.  The theta layer's per-point tables take theta's integer
numerator before normalization (`theta_ints`) and multiply such lists
as `IntSeries`, normalizing only their sums.  Likewise the inner loops of
series elimination and products, v - f w and sum x_i y_i, convolve the
numerators and normalize once (`sub_product`, `dot`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, NonInvertibleError, SamplingError, UsageError

MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Rationals:
    """The field of arbitrary-precision rationals."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value):
        return value if type(value) is Fraction else Fraction(value)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeScalar:
    """A residue modulo a fixed prime, interoperable with plain ints."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, PrimeScalar):
            if other.p != self.p:
                raise UsageError("mixed prime moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return PrimeScalar(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeScalar(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeScalar(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeScalar(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return PrimeScalar(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeScalar(-self.value, self.p)

    def inverse(self):
        try:
            return PrimeScalar(pow(self.value, -1, self.p), self.p)
        except ValueError:
            raise NonInvertibleError(
                "%d has no inverse modulo %d" % (self.value, self.p)) from None

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PrimeScalar(pow(self.value, exponent, self.p), self.p)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "%d mod %d" % (self.value, self.p)


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


@functools.cache   # field_of builds a PrimeField for every PrimeScalar it sees
def is_probable_prime(n):
    """Miller-Rabin to the bases MR_BASES: exact for n < MR_EXACT_BELOW, a
    strong-probable-prime test above it."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a configured prime p (default 2**61 - 1 in the CLI).

    A composite modulus is a UsageError: modulo a composite, nonzero values
    can lack inverses and a zero residue proves nothing.  Primality is
    proven for p < MR_EXACT_BELOW; `proven_prime` records whether it was.
    """

    name = "prime"

    def __init__(self, p):
        if p < 2:
            raise UsageError("prime modulus must be >= 2, got %d" % p)
        if not is_probable_prime(p):
            raise UsageError("modulus %d is not prime" % p)
        self.p = p
        self.proven_prime = p < MR_EXACT_BELOW
        self.zero = PrimeScalar(0, p)
        self.one = PrimeScalar(1, p)

    def of(self, value):
        if isinstance(value, PrimeScalar):
            if value.p != self.p:
                raise UsageError("mixed prime moduli")
            return value
        if isinstance(value, int):
            return PrimeScalar(value, self.p)
        if isinstance(value, Fraction):
            return to_prime_field(value, self.p)
        raise UsageError("cannot coerce %r into GF(%d)" % (value, self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def to_prime_field(x, prime):
    """Canonical residue of a rational modulo `prime`.

    Ring homomorphism on everything whose denominator is coprime to the
    prime; a denominator divisible by the prime is a reported error.
    """
    x = Fraction(x)
    if x.denominator % prime == 0:
        raise DegenerateInputError(
            "denominator %d of %s vanishes mod %d" % (x.denominator, x, prime))
    num = PrimeScalar(x.numerator, prime)
    den = PrimeScalar(x.denominator, prime)
    return num / den


def field_of(x):
    """Infer the field an exact scalar belongs to (ints count as rational)."""
    if isinstance(x, PrimeScalar):
        return PrimeField(x.p)
    if isinstance(x, (int, Fraction)):
        return QQ
    raise UsageError("not an exact scalar: %r" % (x,))


def product(factors, one):
    """The product of the factors from the first one on; `one` if there
    are none, so no product pays a multiplication by one."""
    factors = iter(factors)
    out = next(factors, one)
    for f in factors:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# truncated power series in the nome p
# ---------------------------------------------------------------------------

def modulus(fld):
    """p for GF(p), 0 for QQ."""
    return fld.p if isinstance(fld, PrimeField) else 0


def ints_over_den(fld, scalars):
    """(nums, den) with scalars[i] == nums[i]/den in `fld`: over QQ integer
    numerators over the lcm of the reduced denominators, so that
    gcd(den, *nums) == 1; over GF(p) residues in [0, p) over 1."""
    cs = [fld.of(c) for c in scalars]
    if modulus(fld):
        return [c.value for c in cs], 1
    # a list, not a generator: in the poly benchmark the generator form
    # raised peak RSS by about 0.5 MB under CPython 3.11
    den = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def canonical_ints(mod, num, den):
    """The canonical (nums, den) of the values num[i]/den: modulo `mod`,
    residues in [0, mod) over 1; over QQ (`mod` 0), integers over a
    positive den with gcd(den, *nums) == 1."""
    if mod:
        if den == 1:
            return [x % mod for x in num], 1
        inv = pow(den, -1, mod)
        return [x * inv % mod for x in num], 1
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num, den = [x // g for x in num], den // g
    return num, den


def scalar_of(mod, num, den=1):
    """num/den as a field scalar: a `PrimeScalar` modulo `mod`, or a
    `Fraction` when `mod` is 0 (QQ)."""
    if not mod:
        return Fraction(num, den)
    return PrimeScalar(num if den == 1 else num * PrimeScalar(den, mod).inverse().value, mod)


def num_den(mod, c):
    """(numerator, denominator) of one field scalar, the inverse of
    `scalar_of`: the reduced pair over QQ (`mod` 0), the residue over 1
    modulo `mod`; of a series, its `IntSeries` numerator over its
    denominator."""
    if isinstance(c, PSeries):
        return IntSeries(c.num), c.den
    return (c.value, 1) if mod else (c.numerator, c.denominator)


class PSeries:
    """A formal power series in p truncated at a fixed order K.

    All ring operations happen modulo p^(K+1).  The coefficients are stored
    without `Fraction`s: over QQ as a list `num` of K+1 integers over one
    positive integer `den`, normalized so that gcd(den, *num) == 1; over
    GF(p) as residues in [0, p) with `den` 1.  That form is canonical, so
    equality and hashing compare (order, den, num) directly.  Field scalars
    appear only at the boundary: the constructor takes them and `coeffs`
    returns them.  Binary operations require matching orders; this is
    deliberate, since silently mixing truncation orders is how elliptic
    checks go wrong.
    """

    __slots__ = ("field", "mod", "num", "den", "order")

    def __init__(self, fld, coeffs, order=None):
        if order is None:
            order = len(coeffs) - 1
        num, den = ints_over_den(fld, coeffs[: order + 1])
        num.extend([0] * (order + 1 - len(num)))
        self.field, self.mod, self.num, self.den = fld, modulus(fld), num, den
        self.order = order

    @classmethod
    def _from_ints(cls, fld, num, den, order):
        """The series with coefficients num[i]/den for i <= order, brought
        to canonical form once."""
        out = object.__new__(cls)
        mod = modulus(fld)
        num, den = canonical_ints(mod, num, den)
        out.field, out.mod, out.num, out.den, out.order = fld, mod, num, den, order
        return out

    def _new(self, num, den=1):
        return PSeries._from_ints(self.field, num, den, self.order)

    @classmethod
    def constant(cls, fld, value, order):
        return cls(fld, [value], order)

    @property
    def coeffs(self):
        """The coefficients as field scalars (`Fraction` or `PrimeScalar`)."""
        return [scalar_of(self.mod, x, self.den) for x in self.num]

    def _coerce(self, other):
        if isinstance(other, PSeries):
            if other.order != self.order:
                raise UsageError(
                    "mixed truncation orders %d and %d" % (self.order, other.order))
            if other.mod != self.mod:
                raise UsageError("mixed fields %r and %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction, PrimeScalar)):
            return PSeries(self.field, [other], self.order)
        return None

    def _combine(self, other, op):
        da, db = self.den, other.den
        if da == db:
            return self._new(list(map(op, self.num, other.num)), da)
        lcm = da // math.gcd(da, db) * db
        ma, mb = lcm // da, lcm // db
        return self._new([op(x * ma, y * mb) for x, y in zip(self.num, other.num)], lcm)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, operator.sub)

    def __neg__(self):
        # the negation of a canonical series is canonical: the same den,
        # and over GF(p) each residue's complement
        out = object.__new__(PSeries)
        mod = out.mod = self.mod
        out.num = [-x % mod for x in self.num] if mod else [-x for x in self.num]
        out.field, out.den, out.order = self.field, self.den, self.order
        return out

    def __mul__(self, other):
        if isinstance(other, PSeries):
            o = self._coerce(other)
            return self._new(convolve(self.num, o.num), self.den * o.den)
        if isinstance(other, (int, Fraction, PrimeScalar)):
            (c,), d = ints_over_den(self.field, [other])
            return self._new([x * c for x in self.num], self.den * d)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        num, order, mod = self.num, self.order, self.mod
        n0 = num[0]
        if not n0:
            raise NonInvertibleError(
                "series with zero constant term has no inverse mod p^%d" % (self.order + 1))
        if mod:
            inv0 = pow(n0, -1, mod)
            out = [inv0]
            for k in range(1, order + 1):
                out.append(-inv0 * sum(map(operator.mul, num[1:k + 1], out[::-1])) % mod)
            return self._new(out)
        # num/den = N(p)/D, so its inverse is D/N(p): c_0 = D/N_0 and
        # c_k = -(sum_{j=1..k} N_j c_(k-j))/N_0, each c_k = p_k/q_k reduced by
        # one gcd; out holds c_0..c_(k-1) over the lcm `den` of their q
        lead = self.den
        if n0 < 0:                        # N/D = (-N)/(-D), with -N_0 > 0
            num, n0, lead = [-x for x in num], -n0, -lead
        g = math.gcd(lead, n0)
        out, den = [lead // g], n0 // g
        for k in range(1, order + 1):
            acc = -sum(map(operator.mul, num[1:k + 1], out[::-1]))
            q = den * n0
            g = math.gcd(acc, q)
            p, q = acc // g, q // g
            scale = q // math.gcd(den, q)     # lcm(den, q)/den
            if scale != 1:
                out = [x * scale for x in out]
                den *= scale
            out.append(p * (den // q))
        return self._new(out, den)

    def __truediv__(self, other):
        if isinstance(other, PSeries):
            return self * other.inverse()
        if isinstance(other, (int, Fraction, PrimeScalar)):
            return self * (self.field.one / self.field.of(other))
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        return product([base] * abs(exponent),
                       PSeries.constant(self.field, self.field.one, self.order))

    def is_zero(self):
        return not any(self.num)

    def invertible(self):
        return self.num[0] != 0

    def __eq__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return (self.order == other.order and self.mod == other.mod
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.order, self.den, tuple(self.num)))

    def coeff_strings(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*p^%d" % (c, i) if i else str(c))
        body = " + ".join(terms) if terms else "0"
        return "PSeries(%s; mod p^%d)" % (body, self.order + 1)


def sub_product(v, f, w):
    """v - f*w for series of one order and field, reduced once: the
    convolution of f's and w's numerators and v's numerator are brought to
    the lcm of their denominators, and the difference is made canonical by
    one gcd (over GF(p), one `% p` pass)."""
    prod, dp = convolve(f.num, w.num), f.den * w.den
    dv = v.den
    if dv == dp:
        num = list(map(operator.sub, v.num, prod))
    else:
        den = dv // math.gcd(dv, dp) * dp
        mv, mp = den // dv, den // dp
        num = [x * mv - y * mp for x, y in zip(v.num, prod)]
        dv = den
    return PSeries._from_ints(v.field, num, dv, v.order)


def dot(xs, ys):
    """sum_i xs[i]*ys[i] for nonempty lists of series of one order and
    field, reduced once: each product's convolved numerators are brought to
    the lcm of the products' denominators, and the sum is made canonical by
    one gcd (over GF(p), one `% p` pass)."""
    prods = [(convolve(x.num, y.num), x.den * y.den) for x, y in zip(xs, ys)]
    den = math.lcm(*[d for _, d in prods])
    scaled = []
    for prod, d in prods:
        m = den // d
        scaled.append(prod if m == 1 else [x * m for x in prod])
    num = [sum(c) for c in zip(*scaled)]
    return PSeries._from_ints(xs[0].field, num, den, xs[0].order)


def convolve(a, b):
    """The product of two integer coefficient lists of one length K+1,
    truncated at p^K; the outer loop runs over the sparser list and skips
    its zeros (a theta value has O(sqrt K) nonzero coefficients)."""
    if a.count(0) < b.count(0):
        a, b = b, a
    size = len(a)
    out = [0] * size
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b[: size - i], i):
                out[k] += x * y
    return out


class IntSeries:
    """The K+1 integer coefficients of a truncated series with no
    denominator and no normalization: `*` is `convolve` (an int times a
    series scales each coefficient), `+` adds and unary `-` negates
    coefficient-wise and `% p` reduces each coefficient.  The theta layer's
    per-point tables hold their columns and pair factors in this form over
    one denominator per point, so `polyweights.symmetrize` runs its layers
    on them as on scalar integers and normalizes only its sums."""

    __slots__ = ("num",)

    def __init__(self, num):
        self.num = num

    def __mul__(self, other):
        return IntSeries(convolve(self.num, other.num))

    def __rmul__(self, c):
        return IntSeries([x * c for x in self.num])

    def __add__(self, other):
        return IntSeries(list(map(operator.add, self.num, other.num)))

    def __neg__(self):
        return IntSeries([-x for x in self.num])

    def __mod__(self, mod):
        return IntSeries([x % mod for x in self.num])


def primitive(columns, mod):
    """(columns, g): lists of `IntSeries` of one length with the entries at
    each index divided by their content, the gcd of their coefficients,
    and g the product of the contents.  Lists of ints, whose contents are
    small and did not pay to divide out, and all lists modulo p are left
    whole (g = 1)."""
    if mod or not columns or not columns[0] or not isinstance(columns[0][0], IntSeries):
        return columns, 1
    rows, total = [], 1
    for row in zip(*columns):
        g = math.gcd(*[x for e in row for x in e.num])
        if g > 1:
            row = [IntSeries([x // g for x in e.num]) for e in row]
            total *= g
        rows.append(row)
    return [list(col) for col in zip(*rows)], total


def theta(c, e, order, v=0):
    """Truncation of the Jacobi theta function at u = c p^v,
    theta(u; p^e) = (u; p^e)_inf (p^e u^{-1}; p^e)_inf (p^e; p^e)_inf,
    summed from the Jacobi triple product
    theta(u; q) = sum_{n in Z} (-1)^n q^{n(n-1)/2} u^n
    (Gasper-Rahman, Basic Hypergeometric Series, eq. 1.6.1).

    c is a nonzero scalar and 0 <= v <= e, so that every term lies in the
    power series ring: term n lands at p^(e n(n-1)/2 + v n).  The
    valuation is passed on its own, so c p^v with v > order is no zero
    series here.  The terms n and 1 - n share the factor q^{n(n-1)/2}, so
    one pass over n >= 1 fills every coefficient; only O(sqrt(order/e)) of
    them are nonzero.
    """
    if e < 1:
        raise UsageError("theta nome exponent must be a positive integer")
    if isinstance(c, PSeries):
        raise UsageError("theta takes a scalar c and the valuation v of c*p^v")
    if c == 0:
        raise DegenerateInputError("theta of the zero series is undefined")
    if not 0 <= v <= e:
        raise DegenerateInputError(
            "theta argument has valuation %d outside [0, nome exponent %d]" % (v, e))
    fld = field_of(c)
    (a,), b = ints_over_den(fld, [c])
    num, last = theta_ints(a, b, e, order, v)
    return PSeries._from_ints(fld, num, a ** (last - 1) * b ** last, order)


def theta_ints(a, b, e, order, v=0):
    """(num, last): theta(c p^v; p^e) at c = a/b for nonzero integers a and
    b as the K+1 integers num over a^(last-1) b^last, K the order, with no
    normalization.  Every coefficient is a homogeneous form of degree
    2 last - 1 in (a, b), as is the denominator, so a/b need not be reduced;
    `last` depends only on e, v and the order."""
    # c = a/b: the terms of step n are integers over a^(n-1) b^n, so after
    # the last step `last` everything sits over a^(last-1) b^last
    terms = []                     # (index, numerator over a^(n-1) b^n, n)
    am, bm = 1, 1                  # a^(n-1), b^(n-1)
    n, low, high = 1, 0, v         # exponents of the terms 1 - n and n
    while low <= order:
        an, bn = am * a, bm * b
        sign = 1 if n % 2 else -1  # (-1)^(1-n)
        if low == high:
            terms.append((low, sign * (bm * bn - am * an), n))
        else:
            terms.append((low, sign * bm * bn, n))
            if high <= order:
                terms.append((high, -sign * an * am, n))
        am, bm = an, bn
        low += e * n - v
        high += e * n + v
        n += 1
    last = n - 1
    num = [0] * (order + 1)
    for i, x, k in terms:
        num[i] += x * (a * b) ** (last - k)
    return num, last


def triple_pochhammer_p(fld, order):
    """((p; p)_inf)^3, the derivative constant behind every theta residue;
    (p; p)_inf = theta(p; p^3) by Euler's pentagonal number theorem."""
    q = theta(fld.one, 3, order, 1)
    return q * q * q


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def _splitmix64(state):
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


PRNG_DESCRIPTION = (
    "splitmix64(seed) stream; candidate k uses words r(2k), r(2k+1): "
    "value = sign(bit63 of r(2k)) * (1 + r(2k) mod B) / (1 + r(2k+1) mod B)")


@dataclass
class SamplerConfig:
    """Deterministic rejection-sampler settings.

    Identical seed and constraint set reproduce identical draw sequences;
    draws are indexed so that reports are replayable.
    """
    seed: int
    bound: int = 1000
    max_retries: int = 10000


class Sampler:
    """Seeded rejection sampler emitting nonzero bounded-height scalars."""

    def __init__(self, config, fld=QQ):
        self.config = config
        self.field = fld
        self._state = config.seed & MASK64
        self.log = []

    def _next_word(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        return _splitmix64(self._state)

    def _candidate(self):
        r1 = self._next_word()
        r2 = self._next_word()
        num = 1 + (r1 & 0xFFFFFFFF) % self.config.bound
        den = 1 + (r2 & 0xFFFFFFFF) % self.config.bound
        if (r1 >> 63) & 1:
            num = -num
        return Fraction(num, den)

    def draw(self, constraints=(), description=""):
        """Next scalar satisfying every constraint, or a SamplingError.

        Constraints are predicates on the candidate in the active field.
        The accepted value (and its draw index) goes into the replay log.
        """
        for _ in range(self.config.max_retries):
            q = self._candidate()
            try:
                value = self.field.of(q)
            except DegenerateInputError:
                continue
            # a zero value (numerator divisible by p) is rejected as well
            if value and all(c(value) for c in constraints):
                self.log.append((len(self.log), str(q)))
                return value
        raise SamplingError(
            "no candidate satisfied %r within %d retries"
            % (description or "constraints", self.config.max_retries))

    def draw_distinct(self, count, constraints=(), description=""):
        """Draw `count` scalars, pairwise distinct on top of the constraints."""
        out = []
        for _ in range(count):
            seen = list(out)
            out.append(self.draw(
                tuple(constraints) + (lambda v, seen=seen: all(v != w for w in seen),),
                description))
        return out


def resample(make, attempts=64):
    """Run `make()` until it stops raising DegenerateInputError.

    The callable draws fresh parameters from its sampler on every attempt,
    so retries stay deterministic under the seed.
    """
    last = None
    for _ in range(attempts):
        try:
            return make()
        except DegenerateInputError as exc:
            last = exc
    raise SamplingError("degenerate inputs persisted across %d resamples: %s"
                        % (attempts, last))
