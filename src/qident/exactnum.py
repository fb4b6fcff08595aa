"""Exact scalar arithmetic, seeded admissible-point sampling, and the
truncated formal power series ring in the nome p.

Scalars live either in the field of big rationals (authoritative) or in a
prime field GF(p) (fast mode; an unlucky prime can produce spurious zeros,
so rational mode has the final word).  Series are lists of exact
coefficients modulo p^(K+1); the q-Pochhammer and Jacobi theta factors are
built as finite truncated products, so no convergence questions ever arise.
"""

from __future__ import annotations

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
        return Fraction(value)

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


class PrimeField:
    """GF(p) for a configured prime p (default 2**61 - 1 in the CLI)."""

    name = "prime"

    def __init__(self, p):
        if p < 2:
            raise UsageError("prime modulus must be >= 2, got %d" % p)
        self.p = p
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

class PSeries:
    """A formal power series in p truncated at a fixed order K.

    All ring operations happen modulo p^(K+1) with exact coefficients.
    Binary operations require matching orders; this is deliberate, since
    silently mixing truncation orders is how elliptic checks go wrong.
    """

    __slots__ = ("field", "coeffs", "order")

    def __init__(self, fld, coeffs, order=None):
        if order is None:
            order = len(coeffs) - 1
        cs = [fld.of(c) if isinstance(c, int) else c for c in coeffs[: order + 1]]
        cs.extend(fld.zero for _ in range(order + 1 - len(cs)))
        self.field = fld
        self.coeffs = cs
        self.order = order

    @classmethod
    def constant(cls, fld, value, order):
        return cls(fld, [fld.of(value) if isinstance(value, int) else value], order)

    @classmethod
    def nome(cls, fld, order):
        """The series p itself."""
        return cls(fld, [fld.zero, fld.one], order)

    def _coerce(self, other):
        if isinstance(other, PSeries):
            if other.order != self.order:
                raise UsageError(
                    "mixed truncation orders %d and %d" % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction, PrimeScalar)):
            return PSeries.constant(self.field, self.field.of(other) if isinstance(other, (int, Fraction)) else other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PSeries(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PSeries(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return PSeries(self.field, [-a for a in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, PSeries):
            o = self._coerce(other)
            out = [self.field.zero] * (self.order + 1)
            for i, a in enumerate(self.coeffs):
                if a == self.field.zero:
                    continue
                for j in range(self.order + 1 - i):
                    b = o.coeffs[j]
                    if b == self.field.zero:
                        continue
                    out[i + j] = out[i + j] + a * b
            return PSeries(self.field, out, self.order)
        if isinstance(other, (int, Fraction, PrimeScalar)):
            c = self.field.of(other) if isinstance(other, (int, Fraction)) else other
            return PSeries(self.field, [a * c for a in self.coeffs], self.order)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        c0 = self.coeffs[0]
        if c0 == self.field.zero:
            raise NonInvertibleError(
                "series with zero constant term has no inverse mod p^%d" % (self.order + 1))
        inv0 = self.field.one / c0
        out = [inv0] + [self.field.zero] * self.order
        for k in range(1, self.order + 1):
            acc = self.field.zero
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return PSeries(self.field, out, self.order)

    def __truediv__(self, other):
        if isinstance(other, PSeries):
            return self * other.inverse()
        if isinstance(other, (int, Fraction, PrimeScalar)):
            c = self.field.of(other) if isinstance(other, (int, Fraction)) else other
            return self * (self.field.one / c)
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
        return PSeries(self.field, [self.field.zero] * m + self.coeffs, self.order)

    def valuation(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                return i
        return None

    def shifted_down(self, m):
        """Divide by p^m; requires the first m coefficients to vanish."""
        if any(c != self.field.zero for c in self.coeffs[:m]):
            raise UsageError("series is not divisible by p^%d" % m)
        return PSeries(self.field, self.coeffs[m:] + [self.field.zero] * m, self.order)

    def is_zero(self):
        return all(c == self.field.zero for c in self.coeffs)

    def invertible(self):
        return self.coeffs[0] != self.field.zero

    def __eq__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, tuple(str(c) for c in self.coeffs)))

    def coeff_strings(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
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


def theta(u, e, order):
    """Truncation of the Jacobi theta function
    theta(u; p^e) = (u; p^e)_inf (p^e u^{-1}; p^e)_inf (p^e; p^e)_inf.

    Accepts scalar u or a series of the same order.  A series argument of
    valuation j is allowed as long as j <= e, so that every reciprocal
    factor p^{es}/u still lies in the power series ring.
    """
    if e < 1:
        raise UsageError("theta nome exponent must be a positive integer")
    us = _as_series(u, order)
    fld = us.field
    one = PSeries.constant(fld, fld.one, order)
    val = us.valuation()
    if val is None:
        raise DegenerateInputError("theta of the zero series is undefined")
    out = pochhammer(us, e, order)
    # reciprocal factors 1 - p^{es}/u = 1 - p^{es-val} * w^{-1}, u = p^val w
    if e * 1 <= order + val:
        if val > e:
            raise DegenerateInputError(
                "theta argument has valuation %d > nome exponent %d" % (val, e))
        w_inv = us.shifted_down(val).inverse()
        s = 1
        while e * s - val <= order:
            out = out * (one - w_inv.shift(e * s - val))
            s += 1
    s = 1
    while e * s <= order:
        out = out * (one - PSeries.nome(fld, order).shift(e * s - 1))
        s += 1
    return out


def theta_reduced(u, order):
    """theta(u; p) / (1 - u) with the vanishing factor cancelled symbolically:
    (pu; p)_inf (p u^{-1}; p)_inf (p; p)_inf.  Regular at u = 1, where it
    equals ((p; p)_inf)^3.
    """
    us = _as_series(u, order)
    fld = us.field
    one = PSeries.constant(fld, fld.one, order)
    val = us.valuation()
    if val is None:
        raise DegenerateInputError("theta_reduced of zero is undefined")
    if val > 0:
        raise DegenerateInputError("theta_reduced needs an invertible argument")
    u_inv = us.inverse()
    out = one
    for s in range(1, order + 1):
        out = out * (one - us.shift(s))
        out = out * (one - u_inv.shift(s))
        out = out * (one - PSeries.nome(fld, order).shift(s - 1))
    return out


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
            if all(c(value) for c in constraints):
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
