"""Exact scalar arithmetic, seeded admissible-point sampling, and the
truncated formal power series ring in the nome p.

Scalars live either in the field of big rationals (authoritative) or in a
prime field GF(p) (fast mode; an unlucky prime can produce spurious zeros,
so rational mode has the final word).  Series are exact modulo p^(K+1) and
fraction-free: integer numerators over one common denominator over QQ, raw
residues over GF(p), turned into field scalars only at the report boundary
(`PSeries.coeffs`).  `ints_over_den` and `scalar_of` are the one conversion
path between field scalars and that form, shared with the tensor vectors
of `tensors`.  The q-Pochhammer factors are finite truncated products
and theta is a finite truncated sum (the Jacobi triple product), so no
convergence questions ever arise.
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
    if isinstance(x, PSeries):
        return x.field
    raise UsageError("not an exact scalar: %r" % (x,))


def scalar_str(x):
    if isinstance(x, PSeries):
        return x.coeff_strings()
    return str(x)


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
    return PrimeScalar(num, mod) if mod else Fraction(num, den)


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

    @classmethod
    def nome(cls, fld, order):
        """The series p itself."""
        return cls(fld, [0, 1], order)

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
        return self._new([-x for x in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, PSeries):
            o = self._coerce(other)
            a, b = self.num, o.num
            if a.count(0) < b.count(0):   # the outer loop skips zeros
                a, b = b, a
            size = self.order + 1
            out = [0] * size
            for i, x in enumerate(a):
                if x:
                    for k, y in enumerate(b[: size - i], i):
                        out[k] += x * y
            return self._new(out, self.den * o.den)
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
        # num/den = N(p)/D, so its inverse is D/N(p), whose coefficient k is
        # D M_k / N_0^(k+1) with M_0 = 1, M_k = -sum_{j=1..k} N_j N_0^(j-1) M_{k-j}
        powers = [1]
        for _ in range(order + 1):
            powers.append(powers[-1] * n0)
        t = [num[j] * powers[j - 1] for j in range(1, order + 1)]
        m = [1]
        for k in range(1, order + 1):
            m.append(-sum(map(operator.mul, t[:k], m[::-1])))
        return self._new([self.den * m[k] * powers[order - k] for k in range(order + 1)],
                         powers[order + 1])

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
        out = PSeries.constant(self.field, self.field.one, self.order)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def shift(self, m):
        """Multiply by p^m (truncating)."""
        if m < 0:
            raise UsageError("negative shift would leave the power series ring")
        return self._new(([0] * m + self.num)[: self.order + 1], self.den)

    def valuation(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, x in enumerate(self.num):
            if x:
                return i
        return None

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


def _as_series(u, order):
    if isinstance(u, PSeries):
        if u.order != order:
            raise UsageError("series argument has order %d, expected %d" % (u.order, order))
        return u
    return PSeries.constant(field_of(u), u, order)


def pochhammer(u, e, order):
    """Truncation of (u; p^e)_inf = prod_{s>=0} (1 - p^{es} u) mod p^(order+1).

    Keeps the s = 0 factor and every factor with e*s <= order; all later
    factors are congruent to 1.
    """
    if e < 1:
        raise UsageError("pochhammer step must be a positive integer")
    us = _as_series(u, order)
    fld = us.field
    one = PSeries.constant(fld, fld.one, order)
    out = one - us
    s = 1
    while e * s <= order:
        out = out * (one - us.shift(e * s))
        s += 1
    return out


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
    return PSeries._from_ints(fld, num, am // a * bm, order)


def pochhammer_p(fld, order):
    """(p; p)_inf truncated."""
    return pochhammer(PSeries.nome(fld, order), 1, order)


def triple_pochhammer_p(fld, order):
    """((p; p)_inf)^3, the derivative constant behind every theta residue."""
    q = pochhammer_p(fld, order)
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
        self._word_index = 0
        self.draw_index = 0
        self.log = []

    def _next_word(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        self._word_index += 1
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
                entry = (self.draw_index, str(q))
                self.log.append(entry)
                self.draw_index += 1
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
