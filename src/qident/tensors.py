"""Fraction-free vectors in a truncated tensor product of highest-weight
modules, and the evaluation modules whose integer depth tables the operator
entries of `uqrep` read.

A vector is stored like a `PSeries`: integer numerators over one common
denominator (raw residues over GF(p)), normalized by one gcd per operation
and turned into field scalars only at the report boundary.  Every slot
value of an operator entry is affine in w = u/z with coefficients that
depend only on the module and the depth; a `Module` keeps them as integers
over one module denominator, so an operator sweep multiplies integers only.
"""

from __future__ import annotations

import math

from .errors import DepthOverflowError
from .exactnum import canonical_ints, field_of, ints_over_den, modulus, scalar_of


class TensorVector:
    """Sparse vector in a truncated tensor product of highest-weight
    modules, keyed by per-slot depths.  Slot order is the tensor order, so
    a reversed product just carries the module parameters reversed.

    Stored fraction-free, like `PSeries`: `num` maps each key to a nonzero
    integer numerator over one positive denominator `den`, normalized so
    that gcd(den, *num.values()) == 1 over QQ; over GF(p) the numerators
    are residues in [0, p) over 1.  Field scalars go in through the
    constructor and `add_term` and come out through `coeff` and `fmt`.
    Every stored key has passed the depth-cap check."""

    __slots__ = ("field", "mod", "nslots", "cap", "total_cap", "num", "den")

    def __init__(self, fld, nslots, cap, total_cap, data=None):
        self.field = fld
        self.mod = modulus(fld)
        self.nslots = nslots
        self.cap = cap
        self.total_cap = total_cap
        self.num, self.den = {}, 1
        if data:
            for key in data:
                self.check_key(key)
            nums, self.den = ints_over_den(fld, data.values())
            self.num = {k: x for k, x in zip(data, nums) if x}

    @classmethod
    def generating(cls, fld, nslots, cap, total_cap):
        return cls(fld, nslots, cap, total_cap, {(0,) * nslots: fld.one})

    def copy_empty(self):
        return TensorVector(self.field, self.nslots, self.cap, self.total_cap)

    def with_ints(self, num, den):
        """A vector with these caps holding num[key]/den, brought to
        canonical form: `num` may hold zeros, `den` may be negative, and
        over GF(p) the numerators need not be reduced."""
        out = self.copy_empty()
        values, out.den = canonical_ints(self.mod, list(num.values()), den)
        out.num = {k: x for k, x in zip(num, values) if x}
        return out

    def check_key(self, key):
        if max(key) > self.cap or sum(key) > self.total_cap:
            raise DepthOverflowError("depth cap exceeded at key %r" % (key,))
        if min(key) < 0:
            raise DepthOverflowError("negative depth at key %r" % (key,))

    def add_term(self, key, coeff):
        """Add the field scalar `coeff` at `key`."""
        out = self + TensorVector(self.field, self.nslots, self.cap, self.total_cap,
                                  {key: coeff})
        self.num, self.den = out.num, out.den

    def scaled(self, c):
        (x,), d = ints_over_den(self.field, [c])
        return self.with_ints({k: v * x for k, v in self.num.items()}, self.den * d)

    def _combine(self, other, sign):
        for key in other.num:
            self.check_key(key)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        num = {k: v * sa for k, v in self.num.items()}
        for k, v in other.num.items():
            num[k] = num.get(k, 0) + v * sb
        return self.with_ints(num, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def is_zero(self):
        return not self.num

    def coeff(self, key):
        """The coefficient at `key` as a field scalar."""
        return scalar_of(self.mod, self.num.get(key, 0), self.den)

    def fmt(self, limit=None):
        """One line per nonzero coefficient in key order, the first `limit`
        of them if given."""
        return ["%r: %s" % (k, self.coeff(k)) for k in sorted(self.num)[:limit]]

    def __repr__(self):
        return "TensorVector(%s)" % (", ".join(self.fmt()) or "0")


class Module:
    """One evaluation module of the tensor product: its highest-weight
    scalar s, its evaluation point z, and q.  On F^k each entry of the
    evaluation operator at argument u is affine in w = u/z:

        (1,1): B_k - A_k w,   (2,2): A_k - B_k w,
        (1,2): -(q - 1/q) w,  (2,1): L_k,

    with A_k = s q^(-k), B_k = q^k / s and L_k = -(q - 1/q) gamma_k, where
    L_(k+1) = L_k + B_k^2 - A_k^2 is the recursion of `uqrep.gamma` times
    -(q - 1/q).  `table(cap)` holds these for every depth k <= cap as
    integers over one module denominator M (residues over 1 in GF(p)).  It
    is built once per cap and lives as long as the module object (one
    trial)."""

    __slots__ = ("s", "z", "q", "field", "mod", "zinv", "_tables")

    def __init__(self, s, z, q):
        self.s = s
        self.z = z
        self.q = q
        self.field = field_of(q)
        self.mod = modulus(self.field)
        (zn,), zd = ints_over_den(self.field, [1 / z])
        self.zinv = (zn, zd)
        self._tables = {}

    def table(self, cap):
        """(rows, qq, M): rows[k] = (A_k, B_k, L_k) for k <= cap and
        qq = q - 1/q, all as integer numerators over M."""
        out = self._tables.get(cap)
        if out is None:
            q, a, b, low = self.q, self.s, 1 / self.s, 0 * self.q
            vals = [q - 1 / q]
            for _ in range(cap + 1):
                vals += (a, b, low)
                low = low + b * b - a * a
                a, b = a / q, b * q
            nums, den = ints_over_den(self.field, vals)
            rows = [tuple(nums[r:r + 3]) for r in range(1, len(nums), 3)]
            out = self._tables[cap] = (rows, nums[0], den)
        return out
